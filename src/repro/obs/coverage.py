"""Semantic rule coverage: which operational rules actually fired.

The instrumented machines count every transition-rule firing into
``rule.<rule-id>`` counters of the active observability session:

* ``rule.psna.thread.*``  — Fig 5 thread steps (read, write, promise,
  fulfill, lower, racy accesses, fences, RMWs, ...);
* ``rule.psna.machine.*`` — Fig 5 machine steps (normal, failure,
  SC fences) and ``rule.psna.cert.*`` for certification outcomes;
* ``rule.psna.sc.*``      — the SC baseline interleaving machine;
* ``rule.seq.machine.*``  — Fig 1 SEQ transitions;
* ``rule.seq.game.*``     — refinement-game moves (obligations,
  closures, escapes, oracle queries, commitment updates).

This module turns one metrics snapshot into a ``repro-coverage/1``
report: the full rule universe (:data:`ALL_RULES`) with per-rule firing
counts, plus the list of rules that *never* fired — the semantic
analogue of line coverage for a semantics reproduction.  A rule ID that
appears in the snapshot but not in the universe is reported as unknown
rather than dropped, so renamed rules cannot silently vanish from the
report.

:func:`run_coverage_workload` drives a curated set of litmus programs
chosen so that every rule in the universe can fire: promise/certify
workloads, racy non-atomics, RMW races against NA messages, fences of
every kind, syscalls, aborts, and (optionally) the full transformation
catalog for the SEQ game rules.  ``repro coverage`` is the CLI entry
point; ``repro.obs.pytest_plugin`` aggregates the same counters across
a test-suite run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..psna.drf import SC_RULE_TAGS
from ..psna.machine import CERT_RULE_TAGS, MACHINE_RULE_TAGS
from ..psna.thread import THREAD_RULE_TAGS
from ..seq.machine import SEQ_RULE_TAGS
from ..seq.refinement import GAME_RULE_TAGS
from .report import write_report
from .schemas import COVERAGE_SCHEMA

#: Counter-name prefix marking rule firings in a metrics snapshot.
RULE_PREFIX = "rule."


@dataclass(frozen=True)
class Rule:
    """One operational rule: a stable ID, its layer, and a description."""

    id: str
    layer: str
    description: str


_THREAD_DESC = {
    "silent": "thread-local computation step",
    "fail": "program failure (abort, division by zero) reaches ⊥",
    "choose": "freeze of undef picks a defined value",
    "read": "read a message ≥ the thread's view",
    "racy-read": "non-atomic read races: result is undef",
    "write": "append a fresh message",
    "fulfill": "fulfill an outstanding promise",
    "racy-write": "write races with an unseen non-atomic: ⊥",
    "write+namsg": "na write inserting a fresh valueless NA message",
    "rmw": "atomic update at adjacent timestamps",
    "racy-rmw": "RMW races with an unseen NA message: ⊥",
    "fence-acq": "acquire fence merges the pending acquire view",
    "fence-rel": "release fence snapshots the current view",
    "syscall": "observable system call",
    "promise": "promise a future write (message or NA message)",
    "lower": "lower a promised message's view",
}

_MACHINE_DESC = {
    "normal": "certified thread step lifted to the machine",
    "failure": "a thread's ⊥ propagates to the machine",
    "sc-fence": "SC fence joins the global SC view",
}

_CERT_DESC = {
    "success": "thread running alone fulfills all promises",
    "failure": "no thread-local run fulfills the promises",
}

_SC_DESC = {
    "read": "SC read of the flat memory",
    "write": "SC write to the flat memory",
    "rmw": "SC atomic update",
    "syscall": "SC observable system call",
    "fence": "fence (a no-op under SC)",
    "fail": "program failure reaches ⊥ under SC",
    "race": "co-enabled conflicting accesses, one non-atomic",
}

_SEQ_DESC = {
    "silent": "thread-local computation step",
    "fail": "program failure silently reaches ⊥",
    "choose": "labeled choice for freeze of undef",
    "na-read": "non-atomic read with permission: read M(x)",
    "racy-na-read": "non-atomic read without permission: undef",
    "na-write": "non-atomic write with permission: update M, F",
    "racy-na-write": "non-atomic write without permission: ⊥",
    "rlx-read": "relaxed read of an environment value",
    "rlx-write": "relaxed write label",
    "acq-read": "acquire read gains permissions and memory",
    "rel-write": "release write drops permissions, resets F",
    "acq-fence": "acquire fence gains permissions and memory",
    "rel-fence": "release fence drops permissions, resets F",
    "syscall": "observable system call label",
}

_GAME_DESC = {
    "bottom-prune": "a source reaching ⊥ matches any target (beh-failure)",
    "terminal": "terminated target matched by a terminated source",
    "partial": "partial behavior ⟨tr, prt(F)⟩ matched",
    "label": "labeled target step matched by ⊑-related source steps",
    "closure": "unlabeled closure of a source frontier",
    "escape": "acquire-free source-suffix search",
    "oracle-query": "oracle consulted for an off-script suffix label",
    "commitment": "commitment set updated at a release match (Fig 2)",
    "counterexample": "the game produced a concrete counterexample",
}


def _layer(layer: str, prefix: str, tags: tuple[str, ...],
           descriptions: dict[str, str]) -> tuple[Rule, ...]:
    missing = [tag for tag in tags if tag not in descriptions]
    assert not missing, f"rules without descriptions: {missing}"
    return tuple(Rule(f"{prefix}.{tag}", layer, descriptions[tag])
                 for tag in tags)


#: The complete rule universe, grouped by layer, in rendering order.
ALL_RULES: tuple[Rule, ...] = (
    _layer("psna-thread", "psna.thread", THREAD_RULE_TAGS, _THREAD_DESC)
    + _layer("psna-machine", "psna.machine", MACHINE_RULE_TAGS,
             _MACHINE_DESC)
    + _layer("psna-cert", "psna.cert", CERT_RULE_TAGS, _CERT_DESC)
    + _layer("psna-sc", "psna.sc", SC_RULE_TAGS, _SC_DESC)
    + _layer("seq-machine", "seq.machine", SEQ_RULE_TAGS, _SEQ_DESC)
    + _layer("seq-game", "seq.game", GAME_RULE_TAGS, _GAME_DESC)
)

_KNOWN_IDS = frozenset(rule.id for rule in ALL_RULES)


def rule_counters(snapshot: dict) -> dict[str, int]:
    """Extract ``rule.*`` firings from a metrics snapshot, keyed by ID."""
    return {name[len(RULE_PREFIX):]: value
            for name, value in snapshot.get("counters", {}).items()
            if name.startswith(RULE_PREFIX)}


def coverage_payload(snapshot: dict, meta: Optional[dict] = None) -> dict:
    """The stable JSON form of one coverage report (``repro-coverage/1``).

    ``snapshot`` is a :meth:`MetricsRegistry.snapshot` dict; any source
    of rule counters works (a live session, a merged collector, a
    ``repro-stats/1`` payload).
    """
    counts = rule_counters(snapshot)
    rules = [{"id": rule.id, "layer": rule.layer,
              "description": rule.description,
              "count": counts.get(rule.id, 0)}
             for rule in ALL_RULES]
    payload = {
        "schema": COVERAGE_SCHEMA,
        "rules": rules,
        "total": len(rules),
        "covered": sum(1 for row in rules if row["count"]),
        "uncovered": [row["id"] for row in rules if not row["count"]],
        "unknown_rules": sorted(set(counts) - _KNOWN_IDS),
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


def uncovered(payload: dict) -> list[str]:
    """The rule IDs that never fired, per the payload."""
    return list(payload.get("uncovered", []))


def render_coverage_table(payload: dict,
                          title: str = "rule coverage") -> str:
    """A per-rule firing table grouped by layer, never-fired rules loud."""
    rules = payload.get("rules", [])
    if not rules:
        return f"-- {title}: no rules --"
    width = max(len(row["id"]) for row in rules)
    lines = [f"-- {title}: {payload.get('covered', 0)}/"
             f"{payload.get('total', len(rules))} rules fired --"]
    current_layer = None
    for row in rules:
        if row["layer"] != current_layer:
            current_layer = row["layer"]
            lines.append(f"[{current_layer}]")
        count = row["count"]
        status = f"{count:>9}" if count else "    NEVER"
        lines.append(f"  {row['id']:<{width}}  {status}  "
                     f"{row['description']}")
    missing = payload.get("uncovered", [])
    if missing:
        lines.append("")
        lines.append(f"!! {len(missing)} rule(s) NEVER FIRED:")
        for rule_id in missing:
            lines.append(f"!!   {rule_id}")
    else:
        lines.append("")
        lines.append("all rules fired at least once")
    unknown = payload.get("unknown_rules", [])
    if unknown:
        lines.append(f"?? {len(unknown)} unknown rule counter(s) "
                     f"(not in the universe): {', '.join(unknown)}")
    return "\n".join(lines)


def write_coverage_report(path: str, snapshot: dict,
                          meta: Optional[dict] = None) -> dict:
    """Write a validated coverage report; returns the payload written."""
    return write_report(path, coverage_payload(snapshot, meta))


# ---------------------------------------------------------------------------
# The coverage workload
# ---------------------------------------------------------------------------


def run_coverage_workload(litmus: bool = True, extended: bool = True,
                          progress=None) -> None:
    """Exercise the machines so that every rule in the universe can fire.

    Counts into the *active* observability session; callers open one
    (``with obs.session(): run_coverage_workload()``).  With ``litmus``
    the full transformation catalog runs too (``extended`` adds the
    fence cases), which is what covers the advanced-game rules; without
    it only the targeted programs run.
    """
    if not obs.enabled():
        raise RuntimeError("run_coverage_workload needs an active "
                           "observability session (obs.start/session)")
    from ..lang import parse
    from ..psna.drf import explore_sc
    from ..psna.explore import explore
    from ..psna.thread import PsConfig
    from ..seq.refinement import check_transformation

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    plain = PsConfig(allow_promises=False, promise_budget=0,
                     max_states=20_000)
    promising = PsConfig(max_states=20_000)

    mp_fences = [parse("x_na := 1; fence_rel; y_rlx := 1; return 0;"),
                 parse("a := y_rlx; fence_acq; b := x_na; return a;")]
    lb_promises = [parse("a := x_rlx; y_rlx := a; return a;"),
                   parse("b := y_rlx; x_rlx := 1; return b;")]
    racy_freeze = [parse("a := x_na; b := freeze(a); return b;"),
                   parse("x_na := 1; return 0;")]
    ww_race = [parse("x_na := 1; return 0;"),
               parse("x_na := 2; return 0;")]
    fadd_pair = [parse("a := fadd_rlx_rlx(x_rlx, 1); return a;"),
                 parse("b := fadd_rlx_rlx(x_rlx, 1); return b;")]
    rmw_vs_na = [parse("x_na := 1; return 0;"),
                 parse("a := fadd_rlx_rlx(x_rlx, 1); return a;")]
    sb_sc_fence = [parse("x_rlx := 1; fence_sc; a := y_rlx; return a;"),
                   parse("y_rlx := 1; fence_sc; b := x_rlx; return b;")]
    hello = [parse("print(1); return 0;")]
    bail = [parse("abort;")]

    note("PS^na workloads")
    with obs.span("coverage.psna"):
        explore(mp_fences, plain)           # fences, message passing
        explore(lb_promises, promising)     # promise/fulfill/lower + cert
        explore(racy_freeze, plain)         # racy-read, choose
        explore(ww_race, plain)             # racy-write, machine failure
        explore(fadd_pair, plain)           # rmw
        explore(rmw_vs_na, promising)       # racy-rmw via NA-message promise
        explore(sb_sc_fence, plain)         # sc-fence
        explore(hello, plain)               # syscall
        explore(bail, plain)                # fail
        # write+namsg needs the fresh-NA-race-message switch (off by
        # default) and at least two free slots below the final write.
        explore(ww_race, PsConfig(allow_promises=False, promise_budget=0,
                                  allow_fresh_na_race_messages=True,
                                  max_states=20_000))

    note("SC baseline workloads")
    with obs.span("coverage.sc"):
        explore_sc(racy_freeze)             # read/write + race
        explore_sc(fadd_pair)               # rmw
        explore_sc(hello)                   # syscall
        explore_sc(bail)                    # fail
        explore_sc(mp_fences)               # fence

    note("SEQ refinement workloads")
    with obs.span("coverage.seq"):
        # Rules the catalog does not reach: syscall labels and
        # bottom-pruned sources.
        check_transformation(parse("print(1); return 0;"),
                             parse("print(1); return 0;"))
        check_transformation(parse("abort;"), parse("abort;"))

    if litmus:
        from ..litmus.catalog import ALL_TRANSFORMATION_CASES, EXTENDED_CASES

        cases = EXTENDED_CASES if extended else ALL_TRANSFORMATION_CASES
        note(f"litmus catalog ({len(cases)} cases)")
        with obs.span("coverage.litmus", cases=len(cases)):
            for case in cases:
                check_transformation(case.source, case.target)
