"""The two in-process workloads: ``seq-validate`` and ``psna-adequacy``.

Both are one caller in a closed loop.  Ops come in rounds: a round is a
fixed mix of op kinds with seeded inputs, in seeded order, and a run
measures a fixed number of whole rounds, so every run does the same mix
of work whatever its seed, and a seed always gives the same ops.
"""

from __future__ import annotations

import importlib
import random
from typing import Callable, Iterator, Optional

from common import Failed, Unsound, digest, notion_reference

Op = tuple[str, Callable[[], None]]

# -- seq-validate --------------------------------------------------------------

#: Generated programs: straight-line, one non-atomic location ``x``, one
#: atomic location ``y``, values {0, 1}.  With the generator's default two
#: locations of each kind and values {0, 1, 2}, single programs take up to
#: 18 s to validate, and one of them would decide a whole run.  The
#: ROADMAP item 6 program (spurious ``llf`` rejection) lies inside this
#: space, so the known defect can still show.
GEN_CONFIG = {"na_locs": ("x",), "atomic_locs": ("y",), "values": (0, 1)}
GEN_LENGTH = 6
GEN_COUNT = 2048
SEQ_ROUND_GENERATED = 64
SEQ_LIMIT_S = 10.0
WARMUP_PROGRAM = "x_na := 1; b := x_na; return b;"


class SeqCounts:
    def __init__(self) -> None:
        self.game_states = 0
        self.checks = 0
        self.advanced = 0
        self.validations = 0
        self.rewrites = 0

    def verdict(self, verdict) -> None:
        self.game_states += verdict.game_states
        self.checks += 1
        self.advanced += verdict.advanced is not None


def optimizer_reference(result) -> None:
    """Every rewrite of the paper's sound passes must validate."""
    for record in result.records:
        if record.changed and (record.verdict is None
                               or not record.verdict.valid
                               or not record.verdict.complete):
            raise Failed(f"pass {record.name} not validated")


class SeqValidate:
    name = "seq-validate"
    #: Rounds per second of nominal run length (see ``round_count``).
    rounds_per_s = 1.3

    def __init__(self, seed: int) -> None:
        from repro.lang import parse
        from repro.lang.pretty import to_source
        from repro.litmus import (EXTENDED_CASES, GeneratorConfig,
                                  ProgramGenerator)

        self.seed = seed
        self.cases = EXTENDED_CASES
        generator = ProgramGenerator(GeneratorConfig(**GEN_CONFIG), seed=seed)
        self.programs = [generator.straightline(GEN_LENGTH)
                         for _ in range(GEN_COUNT)]
        self.digest = digest([c.name for c in self.cases]
                             + [to_source(p) for p in self.programs])
        self.counts = SeqCounts()
        self.warm_program = parse(WARMUP_PROGRAM)

    def passes(self, tracer=None) -> tuple:
        from repro.opt import DEFAULT_PASSES

        if tracer is None:
            return DEFAULT_PASSES
        return tuple((name, tracer.wrap(fn, f"opt.pass.{name}", "opt"))
                     for name, fn in DEFAULT_PASSES)

    def warm_up(self) -> None:
        from repro.opt import Optimizer
        from repro.seq import check_transformation

        check_transformation(self.cases[0].source, self.cases[0].target)
        Optimizer(validate=True).optimize(self.warm_program)

    def rounds(self, tracer=None) -> Iterator[list[Op]]:
        """Each round: the 64 catalog cases and the next 64 generated
        programs, shuffled."""
        from repro.opt import Optimizer, ValidationError
        from repro.seq import check_transformation

        passes = self.passes(tracer)
        counts = self.counts

        def check_case(case) -> None:
            verdict = check_transformation(case.source, case.target)
            counts.verdict(verdict)
            notion_reference(case.expected, verdict.notion
                             if verdict.valid else "invalid",
                             verdict.complete)

        def optimize(program) -> None:
            optimizer = Optimizer(passes=passes, validate=True)
            try:
                result = optimizer.optimize(program)
            except ValidationError as exc:
                raise Failed(f"sound pass rejected: {exc}"[:200])
            for record in result.records:
                counts.rewrites += record.changed
                if record.verdict is not None:
                    counts.validations += 1
                    counts.verdict(record.verdict)
            optimizer_reference(result)

        rng = random.Random(self.seed)
        index = 0
        while True:
            batch: list = [(f"case:{c.name}", check_case, c)
                           for c in self.cases]
            for _ in range(SEQ_ROUND_GENERATED):
                batch.append((f"gen:{index % GEN_COUNT}", optimize,
                              self.programs[index % GEN_COUNT]))
                index += 1
            rng.shuffle(batch)
            yield [(label, (lambda fn=fn, arg=arg: fn(arg)))
                   for label, fn, arg in batch]

    def trace_round(self, tracer) -> list[Op]:
        """The traced op set: the first round."""
        return next(self.rounds(tracer))

    def patch(self, tracer) -> None:
        refinement = importlib.import_module("repro.seq.refinement")
        tracer.patch(refinement, "check_simple_refinement",
                     "seq.check_simple_refinement", "seq")
        tracer.patch(refinement, "check_advanced_refinement",
                     "seq.check_advanced_refinement", "seq")

    def layer_metrics(self, tracer) -> dict:
        c = self.counts
        simple_s = tracer.self_s("seq.check_simple_refinement")
        advanced_s = tracer.self_s("seq.check_advanced_refinement")
        pass_s = sum(tracer.self_s(f"opt.pass.{n}")
                     for n in ("slf", "llf", "dse", "licm"))
        return {
            "opt.pass.ms": (pass_s * 1e3, "ms"),
            "opt.rewrites": (c.rewrites, "count"),
            "opt.validations": (c.validations, "count"),
            "seq.simple.ms": (simple_s * 1e3, "ms"),
            "seq.advanced.ms": (advanced_s * 1e3, "ms"),
            "seq.game_states": (c.game_states, "count"),
            "seq.states_per_s": (c.game_states / (simple_s + advanced_s),
                                 "1/s"),
            "seq.checks": (c.checks, "count"),
            "seq.advanced_share": (c.advanced / c.checks, "ratio"),
        }


# -- psna-adequacy -------------------------------------------------------------

#: Adequacy pairs come from the four standard contexts whose exploration
#: at promise budget 1 stays under ~0.3 s for every SEQ-valid catalog
#: case.  ``racy-writer`` and ``interfering-pair`` take up to 10 s and
#: 16 s per pair, ``atomic-writer`` and ``relay`` up to 1.8 s; a run of a
#: few such pairs would have too few ops for a 90th percentile.  The heavy
#: PS^na work comes from the named explorations instead.
ADEQUACY_CONTEXTS = ("empty", "racy-reader", "atomic-reader",
                     "acquiring-reader")
#: Pairs in the traced op set (the first ones of the first round).
PSNA_TRACE_PAIRS = 30
PSNA_LIMIT_S = 30.0

LB = ("a := x_rlx; y_rlx := a; return a;",
      "b := y_rlx; x_rlx := 1; return b;")
MULTI_MESSAGE = ("a := x_na; y_rlx := a; return 0;",
                 "b := y_rlx; c := freeze(b); if c == 1 { x_na := 1; "
                 "print(1); } else { x_na := 2; } return 0;")
EX51 = ("a := x_na; y_rlx := 1; return a;",
        "b := y_rlx; if b == 1 { x_na := 1; } return b;")


class PsnaCounts:
    FIELDS = ("states", "cert_cache_hits", "cert_cache_misses",
              "key_cache_hits", "key_cache_misses", "dedup_hits",
              "dedup_misses")

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)
        self.contexts = 0

    def add(self, exploration) -> None:
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)
                    + getattr(exploration, name))


def observation(expected: bool, seen: bool, what: str) -> None:
    if seen == expected:
        return
    if seen:
        raise Unsound(f"{what} observed, the reference forbids it")
    raise Failed(f"{what} missing, the reference requires it")


class PsnaAdequacy:
    name = "psna-adequacy"
    #: Rounds per second of nominal run length: a round takes about 16 s.
    rounds_per_s = 1 / 16

    def __init__(self, seed: int) -> None:
        from repro.adequacy import contexts_for, \
            respects_location_discipline
        from repro.lang import parse
        from repro.lang.values import UNDEF
        from repro.litmus import EXTENDED_CASES
        from repro.psna import PsConfig

        self.seed = seed
        self.config = PsConfig(promise_budget=1)
        self.pool = []
        self.skipped = 0
        for case in EXTENDED_CASES:
            if case.expected == "invalid":
                continue  # Thm 6.2 predicts nothing for invalid pairs
            for context in contexts_for(case.source, case.target):
                if context.name not in ADEQUACY_CONTEXTS:
                    continue
                if not respects_location_discipline(
                        [case.source, case.target, *context.threads]):
                    self.skipped += 1
                    continue
                self.pool.append((case, context))
        lb = [parse(s) for s in LB]
        mm = [parse(s) for s in MULTI_MESSAGE]
        ex51 = [parse(s) for s in EX51]
        # (label, threads, config, check(exploration))
        self.named = []
        for budget in (0, 1, 2):
            self.named.append((
                f"lb-budget-{budget}", lb,
                PsConfig(promise_budget=budget, allow_promises=budget > 0),
                lambda e, b=budget: observation(
                    b >= 1, (1, 1) in e.returns(), "LB outcome (1,1)")))
        for multi in (True, False):
            self.named.append((
                f"appb-multi-message-{'on' if multi else 'off'}", mm,
                PsConfig(promise_budget=1, values=(0, 1, 2),
                         allow_na_intermediates=multi),
                lambda e, m=multi: observation(
                    m, (("print", 1),) in e.syscall_traces(), "print(1)")))
        self.named.append((
            "ex51-lower", ex51, PsConfig(promise_budget=1, allow_lower=True),
            lambda e: observation(True, (UNDEF, 1) in e.returns(),
                                  "Ex 5.1 outcome (undef, 1)")))
        self.counts = PsnaCounts()
        self.digest = digest([f"{c.name}/{x.name}" for c, x in self.pool]
                             + [label for label, *_ in self.named]
                             + [label for label, _ in next(self.rounds())])

    def warm_up(self) -> None:
        from repro.adequacy import check_one_context
        from repro.psna import explore

        case, context = self.pool[0]
        check_one_context(case.source, case.target, context, self.config)
        _label, threads, config, _check = self.named[0]
        explore(threads, config)

    def rounds(self, pairs: Optional[int] = None) -> Iterator[list[Op]]:
        """Each round: the six named explorations and every pair of the
        pool (or the first ``pairs`` of them), in a seeded order."""
        adequacy = importlib.import_module("repro.adequacy")
        explore_mod = importlib.import_module("repro.psna.explore")
        counts = self.counts
        config = self.config

        def named(threads, cfg, check) -> None:
            exploration = explore_mod.explore(threads, cfg)
            counts.add(exploration)
            if not exploration.complete:
                raise Failed(f"incomplete: {exploration.incomplete_reason}")
            check(exploration)

        def pair(case, context) -> None:
            result = adequacy.check_one_context(case.source, case.target,
                                                context, config)
            counts.contexts += 1
            verdict = result.verdict
            counts.add(verdict.target)
            counts.add(verdict.source)
            if not verdict.complete:
                raise Failed("incomplete PS^na exploration")
            if not verdict.refines:
                raise Failed(f"SEQ-valid pair does not refine: "
                             f"{verdict.unmatched!r}")

        rng = random.Random(self.seed)
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            batch: list[Op] = [
                (f"pair:{case.name}/{context.name}",
                 lambda a=case, x=context: pair(a, x))
                for case, context in order[:pairs]]
            batch += [(label, lambda t=t, c=c, k=k: named(t, c, k))
                      for label, t, c, k in self.named]
            rng.shuffle(batch)
            yield batch

    def trace_round(self, tracer) -> list[Op]:
        """The traced op set: the named explorations and the first
        ``PSNA_TRACE_PAIRS`` pairs of the first round (a whole round takes
        longer than a traced run can afford)."""
        return next(self.rounds(pairs=PSNA_TRACE_PAIRS))

    def patch(self, tracer) -> None:
        machine = importlib.import_module("repro.psna.machine")
        tracer.patch(importlib.import_module("repro.adequacy"),
                     "check_one_context", "adequacy.check_one_context",
                     "adequacy")
        for module in ("repro.psna.refinement", "repro.psna.explore"):
            tracer.patch(importlib.import_module(module), "explore",
                         "psna.explore", "psna")
        tracer.patch(machine, "certifiable", "psna.certifiable", "psna",
                     folded=True)
        tracer.patch(machine, "intern_state", "psna.intern_state", "psna",
                     folded=True)
        tracer.patch(machine, "intern_cert", "psna.intern_cert", "psna",
                     folded=True)

    def layer_metrics(self, tracer) -> dict:
        c = self.counts
        explore_s = tracer.self_s("psna.explore")
        cert_s = tracer.self_s("psna.certifiable")
        intern_s = tracer.self_s("psna.intern_state") \
            + tracer.self_s("psna.intern_cert")
        cert_base = c.cert_cache_hits + c.cert_cache_misses
        key_base = c.key_cache_hits + c.key_cache_misses
        dedup_base = c.dedup_hits + c.dedup_misses
        return {
            "psna.explore.ms": (explore_s * 1e3, "ms"),
            "psna.certifiable.ms": (cert_s * 1e3, "ms"),
            "psna.certifiable.calls": (tracer.calls("psna.certifiable"),
                                       "count"),
            "psna.intern.ms": (intern_s * 1e3, "ms"),
            "psna.states": (c.states, "count"),
            "psna.states_per_s": (
                c.states / (explore_s + cert_s + intern_s), "1/s"),
            "psna.cert_hit_ratio": (c.cert_cache_hits / cert_base, "ratio"),
            "psna.cert_lookups": (cert_base, "count"),
            "psna.key_hit_ratio": (c.key_cache_hits / key_base, "ratio"),
            "psna.key_lookups": (key_base, "count"),
            "psna.dedup_ratio": (c.dedup_hits / dedup_base, "ratio"),
            "psna.successors": (dedup_base, "count"),
            "adequacy.ms": (tracer.self_s("adequacy.check_one_context")
                            * 1e3, "ms"),
            "adequacy.contexts": (c.contexts, "count"),
            "adequacy.skipped": (self.skipped, "count"),
        }


def make(workload: str, seed: int):
    return {"seq-validate": SeqValidate,
            "psna-adequacy": PsnaAdequacy}[workload](seed)


def limit_for(workload: str) -> float:
    return SEQ_LIMIT_S if workload == "seq-validate" else PSNA_LIMIT_S
