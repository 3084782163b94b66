"""Tests for the PS^na thread configuration steps (Fig 5)."""

from fractions import Fraction

from repro.lang import UNDEF, parse
from repro.lang.interp import WhileThread
from repro.psna import (
    Memory,
    Message,
    NAMessage,
    PsConfig,
    ThreadLts,
    View,
    is_racy,
    thread_steps,
)

CFG = PsConfig(values=(0, 1), allow_promises=False)


def thread_for(source, **kwargs):
    return ThreadLts(program=WhileThread.start(parse(source)), **kwargs)


def steps_of(source, memory, config=CFG, **kwargs):
    return list(thread_steps(thread_for(source, **kwargs), memory, config))


class TestReads:
    def test_read_any_message_at_or_above_view(self):
        memory = Memory.initial(["x"]).add(
            Message("x", Fraction(1), 7, None))
        reads = [s for s in steps_of("a := x_rlx; return a;", memory)
                 if s.tag == "read"]
        assert len(reads) == 2  # init 0 and the new 7

    def test_read_below_view_forbidden(self):
        memory = Memory.initial(["x"]).add(
            Message("x", Fraction(1), 7, None))
        reads = [s for s in steps_of(
            "a := x_rlx; return a;", memory,
            view=View.singleton("x", Fraction(1))) if s.tag == "read"]
        assert len(reads) == 1
        assert reads[0].thread.view.get("x") == 1

    def test_acquire_read_joins_message_view(self):
        msg_view = View.of({"x": Fraction(1), "y": Fraction(2)})
        memory = Memory.initial(["x", "y"]).add(
            Message("x", Fraction(1), 1, msg_view))
        reads = [s for s in steps_of("a := x_acq; return a;", memory)
                 if s.tag == "read" and s.thread.view.get("x") == 1]
        (step,) = reads
        assert step.thread.view.get("y") == 2

    def test_relaxed_read_defers_message_view(self):
        msg_view = View.of({"y": Fraction(2)})
        memory = Memory.initial(["x", "y"]).add(
            Message("x", Fraction(1), 1, msg_view))
        reads = [s for s in steps_of("a := x_rlx; return a;", memory)
                 if s.tag == "read" and s.thread.view.get("x") == 1]
        (step,) = reads
        assert step.thread.view.get("y") == 0  # not yet acquired
        assert step.thread.acq_pending.get("y") == 2  # pending for a fence

    def test_racy_na_read_returns_undef(self):
        memory = Memory.initial(["x"]).add(
            Message("x", Fraction(1), 7, None))
        racy = [s for s in steps_of("a := x_na; return a;", memory)
                if s.tag == "racy-read"]
        (step,) = racy
        # view unchanged; register got undef
        assert step.thread.view.get("x") == 0

    def test_atomic_read_races_only_with_na_messages(self):
        plain = Memory.initial(["x"]).add(Message("x", Fraction(1), 7, None))
        assert not any(s.tag == "racy-read"
                       for s in steps_of("a := x_rlx; return a;", plain))
        marked = plain.add(NAMessage("x", Fraction(2)))
        assert any(s.tag == "racy-read"
                   for s in steps_of("a := x_rlx; return a;", marked))

    def test_own_promise_does_not_race(self):
        promise = Message("x", Fraction(1), 7, None)
        memory = Memory.initial(["x"]).add(promise)
        steps = steps_of("a := x_na; return a;", memory,
                         promises=frozenset({promise}))
        assert not any(s.tag == "racy-read" for s in steps)


class TestWrites:
    def test_rlx_write_message_view_is_singleton(self):
        memory = Memory.initial(["x"])
        (step,) = [s for s in steps_of("x_rlx := 1;", memory)
                   if s.tag == "write"]
        (message,) = [m for m in step.memory.at("x") if m.ts > 0]
        assert message.view == View.singleton("x", message.ts)

    def test_rel_write_message_carries_full_view(self):
        memory = Memory.initial(["x", "y"])
        view = View.singleton("y", Fraction(0))
        steps = [s for s in steps_of("x_rel := 1;", memory,
                                     view=View.of({"y": Fraction(3)}))
                 if s.tag == "write"]
        # y is in the thread view but has no message at ts 3 — this is an
        # artificial view; the message view must include it.
        (step,) = steps
        (message,) = [m for m in step.memory.at("x") if m.ts > 0]
        assert message.view.get("y") == 3
        assert message.view.get("x") == message.ts

    def test_na_write_message_has_bottom_view(self):
        memory = Memory.initial(["x"])
        writes = [s for s in steps_of("x_na := 1;", memory)
                  if s.tag == "write"]
        for step in writes:
            (message,) = [m for m in step.memory.at("x") if m.ts > 0]
            assert message.view is None

    def test_write_updates_thread_view(self):
        memory = Memory.initial(["x"])
        for step in steps_of("x_rlx := 1;", memory):
            if step.tag == "write":
                assert step.thread.view.get("x") > 0

    def test_racy_write_is_ub(self):
        memory = Memory.initial(["x"]).add(Message("x", Fraction(1), 7, None))
        racy = [s for s in steps_of("x_na := 1;", memory)
                if s.tag == "racy-write"]
        (step,) = racy
        assert step.thread.is_bottom()
        assert step.thread.promises == frozenset()

    def test_rel_write_blocked_by_viewful_promise(self):
        promise = Message("x", Fraction(3), 1,
                          View.singleton("x", Fraction(3)))
        memory = Memory.initial(["x"]).add(promise)
        steps = steps_of("x_rel := 0;", memory,
                         promises=frozenset({promise}))
        # fresh release writes are blocked while an x-promise has a view
        assert not any(s.tag == "write" for s in steps)

    def test_rel_write_allowed_with_bottom_view_promise(self):
        promise = Message("x", Fraction(3), 1, None)
        memory = Memory.initial(["x"]).add(promise)
        steps = steps_of("x_rel := 0;", memory,
                         promises=frozenset({promise}))
        assert any(s.tag == "write" for s in steps)


class TestPromises:
    def test_fulfill_rlx_promise(self):
        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        memory = Memory.initial(["x"]).add(promise)
        steps = steps_of("x_rlx := 1;", memory,
                         promises=frozenset({promise}))
        fulfilled = [s for s in steps if s.tag == "fulfill"]
        (step,) = fulfilled
        assert step.thread.promises == frozenset()
        assert promise in step.memory  # the message stays in memory

    def test_fulfill_requires_value_match(self):
        promise = Message("x", Fraction(1), 2,
                          View.singleton("x", Fraction(1)))
        memory = Memory.initial(["x"]).add(promise)
        steps = steps_of("x_rlx := 1;", memory,
                         promises=frozenset({promise}))
        assert not any(s.tag == "fulfill" for s in steps)

    def test_na_write_fulfills_intermediate_promises(self):
        """The multi-message na-write (memory: na-write, Appendix B)."""
        promise = Message("x", Fraction(1), 2, None)
        memory = Memory.initial(["x"]).add(promise)
        steps = steps_of("x_na := 1;", memory,
                         promises=frozenset({promise}))
        # some write places its final message above the promise and
        # fulfills it on the way
        assert any(s.thread.promises == frozenset()
                   and s.thread.view.get("x") > 1 for s in steps)

    def test_na_intermediates_disabled(self):
        promise = Message("x", Fraction(1), 2, None)
        memory = Memory.initial(["x"]).add(promise)
        config = PsConfig(values=(0, 1), allow_promises=False,
                          allow_na_intermediates=False)
        steps = steps_of("x_na := 1;", memory,
                         promises=frozenset({promise}), config=config)
        assert not any(s.thread.promises == frozenset()
                       and s.thread.view.get("x") > 1 for s in steps)

    def test_promise_step_adds_message(self):
        memory = Memory.initial(["x"])
        config = PsConfig(values=(1,), promise_budget=1)
        steps = steps_of("x_rlx := 1;", memory, config=config,
                         promise_budget=1, promise_locs=("x",))
        promises = [s for s in steps if s.tag == "promise"]
        assert promises
        for step in promises:
            (promise,) = step.thread.promises
            assert promise in step.memory
            assert step.thread.promise_budget == 0

    def test_promise_budget_exhausted(self):
        memory = Memory.initial(["x"])
        config = PsConfig(values=(1,), promise_budget=1)
        steps = steps_of("x_rlx := 1;", memory, config=config,
                         promise_budget=0, promise_locs=("x",))
        assert not any(s.tag == "promise" for s in steps)

    def test_lower_to_undef_and_bottom_view(self):
        promise = Message("x", Fraction(1), 1,
                          View.singleton("x", Fraction(1)))
        memory = Memory.initial(["x"]).add(promise)
        steps = steps_of("x_rlx := 1;", memory,
                         promises=frozenset({promise}))
        lowered = {s for s in steps if s.tag == "lower"}
        values = {next(iter(s.thread.promises)).value for s in lowered}
        views = {next(iter(s.thread.promises)).view for s in lowered}
        assert UNDEF in values
        assert None in views

    def test_fail_requires_promise_condition(self):
        promise = Message("x", Fraction(1), 1, None)
        memory = Memory.initial(["x"]).add(promise)
        # V(x) >= promise ts violates the fail premise
        blocked = steps_of("abort;", memory,
                           promises=frozenset({promise}),
                           view=View.singleton("x", Fraction(1)))
        assert not any(s.tag == "fail" for s in blocked)
        allowed = steps_of("abort;", memory, promises=frozenset({promise}))
        assert any(s.tag == "fail" for s in allowed)


class TestRmwExtension:
    def test_rmw_reads_and_writes_adjacent(self):
        memory = Memory.initial(["x"]).add(Message("x", 1, 5, None))
        steps = steps_of("a := fadd_rlx_rlx(x_rlx, 1); return a;", memory)
        rmws = [s for s in steps if s.tag == "rmw"]
        assert len(rmws) == 2  # from init 0 and from the 5 message
        read = set()
        for step in rmws:
            (message,) = [m for m in step.memory.at("x")
                          if m.attach is not None]
            # adjacency: the write takes the slot right above the
            # message it read, and nothing sits between them
            assert message.ts == message.attach + 1
            assert step.memory.timestamps("x") == [0, 1, 2]
            read.add(step.memory.at("x")[message.attach].value)
            # inserting above init renumbers the 5 message; past the
            # maximum nothing moves
            assert step.shifts == ((("x", 1),) if message.ts == 1 else ())
        assert read == {0, 5}

    def test_cas_only_succeeds_on_expected(self):
        memory = Memory.initial(["x"])
        steps = steps_of("a := cas_rlx_rlx(x_rlx, 1, 2); return a;", memory)
        assert not any(s.tag == "rmw" for s in steps)
        steps = steps_of("a := cas_rlx_rlx(x_rlx, 0, 2); return a;", memory)
        assert any(s.tag == "rmw" for s in steps)


def test_is_racy_helper():
    view = View()
    memory = Memory.initial(["x"]).add(Message("x", Fraction(1), 1, None))
    assert is_racy(view, frozenset(), memory, "x", non_atomic=True)
    assert not is_racy(view, frozenset(), memory, "x", non_atomic=False)
    assert not is_racy(View.singleton("x", Fraction(1)), frozenset(), memory,
                       "x", non_atomic=True)
