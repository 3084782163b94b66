"""Tests for PS^na machine steps, certification and canonicalization."""

from fractions import Fraction

from repro.lang import parse
from repro.lang.interp import WhileThread
from repro.psna import (
    Memory,
    Message,
    PsConfig,
    ThreadLts,
    View,
    canonical_key,
    certifiable,
    initial_state,
    machine_steps,
)

CFG = PsConfig(values=(0, 1), allow_promises=False)


class TestCertification:
    def test_empty_promises_certify_trivially(self):
        thread = ThreadLts(WhileThread.start(parse("return 0;")))
        assert certifiable(thread, Memory.initial(["x"]), CFG)

    def test_fulfillable_promise_certifies(self):
        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        thread = ThreadLts(WhileThread.start(parse("x_rlx := 1; return 0;")),
                           promises=frozenset({promise}))
        memory = Memory.initial(["x"]).add(promise)
        assert certifiable(thread, memory, CFG)

    def test_wrong_value_promise_fails(self):
        promise = Message("x", Fraction(1), 7,
                          View.singleton("x", Fraction(1)))
        thread = ThreadLts(WhileThread.start(parse("x_rlx := 1; return 0;")),
                           promises=frozenset({promise}))
        memory = Memory.initial(["x"]).add(promise)
        assert not certifiable(thread, memory, CFG)

    def test_no_write_at_all_fails(self):
        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        thread = ThreadLts(WhileThread.start(parse("return 0;")),
                           promises=frozenset({promise}))
        memory = Memory.initial(["x"]).add(promise)
        assert not certifiable(thread, memory, CFG)

    def test_conditional_fulfillment_certifies_via_some_path(self):
        # Certification may choose the branch that fulfills.
        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        thread = ThreadLts(WhileThread.start(parse(
            "a := y_rlx; if a == 0 { x_rlx := 1; } return 0;")),
            promises=frozenset({promise}))
        memory = Memory.initial(["x", "y"]).add(promise)
        assert certifiable(thread, memory, CFG)

    def test_ub_path_does_not_certify(self):
        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        thread = ThreadLts(WhileThread.start(parse(
            "a := 1 / 0; x_rlx := 1; return 0;")),
            promises=frozenset({promise}))
        memory = Memory.initial(["x"]).add(promise)
        assert not certifiable(thread, memory, CFG)


class TestMachineSteps:
    def test_interleaving_of_two_threads(self):
        state = initial_state(
            [parse("x_rlx := 1; return 0;"), parse("y_rlx := 1; return 0;")],
            CFG)
        successors = list(machine_steps(state, CFG))
        assert len(successors) == 2  # either thread may move

    def test_failure_step_propagates_bottom(self):
        state = initial_state([parse("abort;")], CFG)
        (failure,) = list(machine_steps(state, CFG))
        assert failure.bottom

    def test_bottom_state_has_no_steps(self):
        state = initial_state([parse("abort;")], CFG)
        (failure,) = list(machine_steps(state, CFG))
        assert list(machine_steps(failure, CFG)) == []

    def test_syscall_recorded(self):
        state = initial_state([parse("print(3); return 0;")], CFG)
        (after,) = list(machine_steps(state, CFG))
        assert after.syscalls == (("print", 3),)

    def test_sc_fence_joins_global_view(self):
        state = initial_state(
            [parse("x_rlx := 1; fence_sc; return 0;"),
             parse("fence_sc; a := x_rlx; return a;")], CFG)
        # run thread 0 fully: write then fence
        current = state
        for _ in range(2):
            current = next(s for s in machine_steps(current, CFG)
                           if s.threads[0] is not current.threads[0])
        assert current.sc_view.get("x") > 0
        # thread 1's fence picks the global view up
        after = next(s for s in machine_steps(current, CFG)
                     if s.threads[1] is not current.threads[1])
        assert after.threads[1].view.get("x") > 0

    def test_uncertifiable_steps_pruned(self):
        # A promise that can never be fulfilled must not be taken.
        config = PsConfig(values=(7,), promise_budget=1,
                          promise_undef_values=False,
                          allow_na_message_promises=False)
        state = initial_state([parse("x_rlx := 1; return 0;")], config)
        promised = [s for s in machine_steps(state, config)
                    if s.threads[0].promises]
        for successor in promised:
            (promise,) = successor.threads[0].promises
            assert promise.value == 7  # only value in the universe
        # value-7 promises cannot be fulfilled by a write of 1... so none
        assert promised == []


class TestCanonicalKey:
    def test_timestamp_renaming_invariance(self):
        """x=1 then x=2 written above it, or x=2 first and x=1 inserted
        below it: dense stamps make the two the same state."""
        program = parse("return 0;")
        mem_a = Memory.initial(["x"]).insert(Message("x", 1, 1, None)) \
            .insert(Message("x", 2, 2, None))
        mem_b = Memory.initial(["x"]).insert(Message("x", 1, 2, None)) \
            .insert(Message("x", 1, 1, None))
        thread = ThreadLts(WhileThread.start(program))
        from repro.psna import MachineState, intern_state

        state_a = MachineState((thread,), mem_a)
        state_b = MachineState((thread,), mem_b)
        assert intern_state(state_a) == intern_state(state_b)
        assert canonical_key(state_a) == canonical_key(state_b)

    def test_views_follow_renaming(self):
        """A message inserted below a thread's view moves the view."""
        program = parse("return 0;")
        from repro.psna import MachineState

        seen = ThreadLts(WhileThread.start(program),
                         view=View.singleton("x", 1))
        state = MachineState(
            (seen,), Memory.initial(["x"]).insert(Message("x", 1, 1, None)))
        moved = state.shift("x", 1).evolve(
            memory=state.memory.insert(Message("x", 1, 7, None)))
        direct = MachineState(
            (ThreadLts(WhileThread.start(program),
                       view=View.singleton("x", 2)),),
            Memory.initial(["x"]).add(Message("x", 1, 7, None))
            .add(Message("x", 2, 1, None)))
        assert moved == direct
        assert canonical_key(moved) == canonical_key(direct)

    def test_distinct_values_distinguished(self):
        program = parse("return 0;")
        from repro.psna import MachineState

        def state_with(value):
            memory = Memory.initial(["x"]).add(
                Message("x", Fraction(1), value, None))
            return MachineState(
                (ThreadLts(WhileThread.start(program)),), memory)

        assert canonical_key(state_with(1)) != canonical_key(state_with(2))

    def test_bottom_state_key(self):
        from repro.psna import MachineState

        state = MachineState((), Memory.initial([]), bottom=True,
                             syscalls=(("print", 1),))
        assert canonical_key(state)[0] == "⊥"


class TestCertificationConfig:
    def test_cert_promises_flag(self):
        """Certification may be allowed to make nested promises."""
        from dataclasses import replace as dreplace
        from fractions import Fraction

        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        thread = ThreadLts(
            WhileThread.start(parse("x_rlx := 1; return 0;")),
            promises=frozenset({promise}), promise_budget=1,
            promise_locs=("x",))
        memory = Memory.initial(["x"]).add(promise)
        base = PsConfig(values=(0, 1), promise_budget=1)
        assert certifiable(thread, memory, base)
        permissive = dreplace(base, cert_promises=True)
        assert certifiable(thread, memory, permissive)

    def test_capped_certification_blocks_rmw_dependent_promise(self):
        """PS2-style cap: a promise cannot rely on winning a future CAS."""
        from dataclasses import replace as dreplace
        from fractions import Fraction

        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        program = parse(
            "a := cas_rlx_rlx(l_rlx, 0, 1); if a == 0 { x_rlx := 1; } "
            "return 0;")
        thread = ThreadLts(WhileThread.start(program),
                           promises=frozenset({promise}))
        memory = Memory.initial(["x", "l"]).add(promise)
        capped = PsConfig(values=(0, 1))
        assert not certifiable(thread, memory, capped)
        uncapped = dreplace(capped, capped_certification=False)
        assert certifiable(thread, memory, uncapped)
