"""Witness and counterexample explanation: *why* a verdict came out.

Three explainers produce one shared intermediate form — a
:class:`Timeline` of annotated entries — with text and self-contained
HTML renderers on top:

* :func:`explain_witness` — searches the PS^na machine for a shortest
  execution of a program (via
  :func:`repro.psna.machine.labeled_machine_steps`) and annotates every
  step with the rule that fired, the stepping thread's view and promise
  set, the message memory, and race points (racy rules, NA messages);
* :func:`explain_counterexample` — replays a refinement
  :class:`~repro.seq.refinement.Counterexample` through the game's own
  closure/matching machinery, showing the target configuration, the
  source-frontier size and commitments after every label, and the
  obligation that finally failed;
* :func:`explain_trace` — renders a ``repro-trace/1`` JSONL file as an
  indented timeline (spans by depth, events with their fields).

The CLI front end is ``repro explain`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..lang.ast import Stmt
from ..psna.explore import PsBehavior, PsBottom, PsResult
from ..psna.machine import (
    MachineState,
    MachineStepInfo,
    PsSpace,
    canonical_key,
    initial_state,
    labeled_machine_steps,
)
from ..psna.memory import NAMessage
from ..psna.thread import PsConfig
from ..seq.machine import SeqConfig, SeqSpace, seq_steps, universe_for
from ..seq.refinement import Counterexample, Limits, _Game
from .schemas import TRACE_SCHEMA, load

# ---------------------------------------------------------------------------
# The shared timeline form
# ---------------------------------------------------------------------------


#: Entry kinds, in increasing visual weight.
INFO, STEP, RACE, FINAL = "info", "step", "race", "final"


@dataclass(frozen=True)
class TimelineEntry:
    """One annotated moment: a title line plus indented detail lines."""

    title: str
    detail: tuple[str, ...] = ()
    kind: str = STEP


@dataclass
class Timeline:
    """An explained run: header lines plus ordered entries."""

    title: str
    header: tuple[str, ...] = ()
    entries: list[TimelineEntry] = field(default_factory=list)

    def add(self, title: str, detail: Sequence[str] = (),
            kind: str = STEP) -> None:
        self.entries.append(TimelineEntry(title, tuple(detail), kind))


_MARKS = {INFO: "   ", STEP: "   ", RACE: "!! ", FINAL: "=> "}


def render_text(timeline: Timeline) -> str:
    """The plain-text form of a timeline."""
    lines = [f"== {timeline.title} =="]
    lines += list(timeline.header)
    for index, entry in enumerate(timeline.entries):
        mark = _MARKS.get(entry.kind, "   ")
        lines.append(f"{mark}[{index:>3}] {entry.title}")
        lines += [f"        {line}" for line in entry.detail]
    return "\n".join(lines)


_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2em auto; max-width: 72em; color: #222; }
h1 { font-size: 1.2em; border-bottom: 2px solid #444; }
.header { color: #555; white-space: pre-wrap; margin-bottom: 1em; }
.entry { border-left: 3px solid #bbb; margin: .4em 0; padding: .2em .8em; }
.entry.race { border-left-color: #c0392b; background: #fdf0ef; }
.entry.final { border-left-color: #2471a3; background: #eef4fb; }
.entry .title { font-weight: bold; }
.entry.race .title::before { content: "RACE \\00a0"; color: #c0392b; }
.entry .detail { color: #444; white-space: pre-wrap; margin: .2em 0 0 1em; }
.index { color: #999; margin-right: .6em; }
"""


def render_html(timeline: Timeline) -> str:
    """A self-contained HTML page (inline CSS, no external resources)."""
    parts = ["<!DOCTYPE html>", "<html><head><meta charset=\"utf-8\">",
             f"<title>{html.escape(timeline.title)}</title>",
             f"<style>{_CSS}</style></head><body>",
             f"<h1>{html.escape(timeline.title)}</h1>"]
    if timeline.header:
        joined = html.escape("\n".join(timeline.header))
        parts.append(f"<div class=\"header\">{joined}</div>")
    for index, entry in enumerate(timeline.entries):
        detail = html.escape("\n".join(entry.detail))
        parts.append(
            f"<div class=\"entry {entry.kind}\">"
            f"<span class=\"index\">{index}</span>"
            f"<span class=\"title\">{html.escape(entry.title)}</span>"
            + (f"<div class=\"detail\">{detail}</div>" if detail else "")
            + "</div>")
    parts.append("</body></html>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# PS^na witness explanation
# ---------------------------------------------------------------------------


@dataclass
class Witness:
    """A concrete PS^na execution: initial state + the steps taken."""

    initial: MachineState
    steps: tuple[MachineStepInfo, ...]
    outcome: PsResult
    states_searched: int

    @property
    def final(self) -> MachineState:
        return self.steps[-1].state if self.steps else self.initial


#: How often :func:`find_witness` reports progress (states searched).
PROGRESS_INTERVAL = 1_000


def find_witness(programs: Sequence[Stmt],
                 config: Optional[PsConfig] = None,
                 accept: Optional[Callable[[PsResult], bool]] = None,
                 max_states: int = 50_000,
                 progress: Optional[Callable[[int], None]] = None,
                 ) -> Optional[Witness]:
    """Breadth-first search for a shortest accepted execution.

    ``accept`` filters outcomes (default: any behavior, ⊥ included).
    Returns None when no accepted final state is reachable within the
    bound.  ``progress`` is called with the running searched-state count
    every :data:`PROGRESS_INTERVAL` states (the ``--progress`` hook).
    """
    config = config or PsConfig()
    start = initial_state(list(programs), config)
    queue: list[tuple[MachineState, tuple[MachineStepInfo, ...]]] = [
        (start, ())]
    seen = {canonical_key(start)}
    space = PsSpace(config)
    searched = 0
    while queue:
        next_queue: list[tuple[MachineState,
                               tuple[MachineStepInfo, ...]]] = []
        for state, path in queue:
            searched += 1
            if progress is not None and searched % PROGRESS_INTERVAL == 0:
                progress(searched)
            outcome = _outcome(state)
            if outcome is not None and (accept is None or accept(outcome)):
                return Witness(start, path, outcome, searched)
            if searched > max_states:
                return None
            for info in labeled_machine_steps(state, config,
                                              space=space):
                key = canonical_key(info.state)
                if key in seen:
                    continue
                seen.add(key)
                next_queue.append((info.state, path + (info,)))
        queue = next_queue
    return None


def _outcome(state: MachineState) -> Optional[PsResult]:
    if state.bottom:
        return PsBottom(state.syscalls)
    if state.all_terminated():
        return PsBehavior(state.return_values(), state.syscalls)
    return None


def _thread_lines(state: MachineState, stepped: Optional[int]) -> list[str]:
    lines = []
    for index, thread in enumerate(state.threads):
        mark = "*" if index == stepped else " "
        promises = (" P=" + "{" + ", ".join(
            repr(m) for m in sorted(thread.promises,
                                    key=lambda m: (m.loc, m.ts))) + "}"
            if thread.promises else "")
        lines.append(f"{mark}T{index}: V={thread.view!r}{promises}")
    return lines


def explain_witness(programs: Sequence[Stmt],
                    config: Optional[PsConfig] = None,
                    accept: Optional[Callable[[PsResult], bool]] = None,
                    title: str = "PS^na witness",
                    max_states: int = 50_000,
                    progress: Optional[Callable[[int], None]] = None,
                    ) -> Timeline:
    """Search for a witness and narrate it step by step."""
    witness = find_witness(programs, config, accept, max_states,
                           progress=progress)
    timeline = Timeline(title)
    if witness is None:
        timeline.header = (f"no matching execution found "
                           f"(searched bound {max_states})",)
        return timeline
    timeline.header = (
        f"threads: {len(witness.initial.threads)}",
        f"shortest witness: {len(witness.steps)} machine steps "
        f"({witness.states_searched} states searched)",
        f"outcome: {witness.outcome!r}",
    )
    timeline.add("initial state",
                 _thread_lines(witness.initial, None)
                 + [f"M = {witness.initial.memory!r}"], kind=INFO)
    for info in witness.steps:
        racy = info.tag.startswith("racy") or info.tag == "machine-failure"
        detail = _thread_lines(info.state, info.thread)
        detail.append(f"M = {info.state.memory!r}")
        na_markers = [m for m in info.state.memory
                      if isinstance(m, NAMessage)]
        if na_markers:
            detail.append("race markers: "
                          + ", ".join(repr(m) for m in na_markers))
        if info.state.syscalls:
            detail.append("syscalls: " + "; ".join(
                f"{name}({value})" for name, value in info.state.syscalls))
        if info.tag == "sc-fence":
            rule = "psna.machine.sc-fence"
        elif info.tag == "machine-failure":
            rule = "psna.machine.failure"
            if info.cause is not None:
                rule += f" (via psna.thread.{info.cause})"
        else:
            rule = f"psna.thread.{info.tag}"
        timeline.add(f"T{info.thread} fires rule {rule}", detail,
                     kind=RACE if racy else STEP)
    timeline.add(f"outcome {witness.outcome!r}", kind=FINAL)
    return timeline


# ---------------------------------------------------------------------------
# Refinement counterexample explanation
# ---------------------------------------------------------------------------


def _frontier_lines(frontier, configs: list[SeqConfig],
                    limit: int = 4) -> list[str]:
    lines = [f"source frontier: {len(frontier)} config(s)"]
    shown = sorted(((configs[cid], commitments)
                    for cid, commitments in frontier), key=repr)[:limit]
    for cfg, commitments in shown:
        extra = f" R={set(commitments)}" if commitments else ""
        lines.append(f"  {cfg!r}{extra}")
    if len(frontier) > limit:
        lines.append(f"  ... and {len(frontier) - limit} more")
    return lines


def explain_counterexample(source: Stmt, target: Stmt,
                           cex: Counterexample,
                           limits: Limits = Limits(),
                           title: str = "refinement counterexample",
                           ) -> Timeline:
    """Replay a counterexample through the game's own machinery.

    Shows, per trace label: the target configurations that can produce
    it, how many source-frontier elements matched it (with their
    commitment sets), and finally the obligation that failed.
    """
    universe = universe_for(source, target)
    advanced = cex.defaults is not None
    space = SeqSpace(universe)
    configs = space.configs
    game = _Game(space, advanced=advanced, defaults=cex.defaults,
                 limits=limits)
    timeline = Timeline(title)
    timeline.header = (
        f"mode: {'advanced (Def 3.3)' if advanced else 'simple (Def 2.4)'}"
        + (f", oracle {cex.defaults}" if advanced else ""),
        f"initial target config: {cex.initial!r}",
        f"trace length: {len(cex.trace)} label(s)",
    )

    src0 = SeqConfig.initial(source, cex.initial.perms, cex.initial.memory,
                             cex.initial.written)
    frontier = game._close([(space.intern(src0), frozenset())])
    targets = _unlabeled_closure_cfgs({cex.initial}, universe)
    timeline.add("game start",
                 [f"target: {cex.initial!r}"]
                 + _frontier_lines(frontier, configs), kind=INFO)

    for label in cex.trace:
        next_targets: set[SeqConfig] = set()
        for cfg in targets:
            if cfg.is_bottom() or cfg.is_terminated():
                continue
            for step_label, successor in seq_steps(cfg, universe):
                if step_label == label:
                    next_targets.add(successor)
        matched: set[tuple[int, frozenset[str]]] = set()
        for cid, commitments in frontier:
            if space.halted[cid]:
                continue
            for src_label, src_next in space.steps(cid):
                if src_label is None:
                    continue
                updated = game._match_label(label, src_label, commitments)
                if updated is not None:
                    matched.add((src_next, updated))
        frontier = game._close(matched) if matched else frozenset()
        detail = [f"target emits {label!r}"]
        detail += _frontier_lines(frontier, configs)
        if not frontier:
            detail.append("no source step matches — refinement fails here")
        timeline.add(f"label {label!r}: {len(matched)} source match(es)",
                     detail, kind=RACE if not frontier else STEP)
        if not frontier:
            break
        targets = _unlabeled_closure_cfgs(next_targets, universe)

    timeline.add(f"failed obligation: {cex.reason}", kind=FINAL)
    return timeline


def _unlabeled_closure_cfgs(configs: set[SeqConfig],
                            universe, bound: int = 5_000) -> set[SeqConfig]:
    seen = set(configs)
    stack = list(configs)
    while stack and len(seen) <= bound:
        cfg = stack.pop()
        if cfg.is_bottom() or cfg.is_terminated():
            continue
        for label, successor in seq_steps(cfg, universe):
            if label is None and successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


# ---------------------------------------------------------------------------
# Trace-file explanation
# ---------------------------------------------------------------------------


_TRACE_SKIP_FIELDS = {"ev", "name", "t", "dur_s", "depth"}


def explain_trace(path_or_events, title: Optional[str] = None) -> Timeline:
    """Render a ``repro-trace/1`` JSONL stream as an indented timeline."""
    events = path_or_events
    if isinstance(path_or_events, str):
        _schema, events, problems = load(path_or_events, TRACE_SCHEMA)
        if events is None:
            raise OSError("; ".join(problems))
    timeline = Timeline(title or "trace timeline")
    t0 = next((event.get("t") for event in events
               if isinstance(event.get("t"), (int, float))), None)
    header = [f"{len(events)} event(s)"]
    for event in events:
        kind = event.get("ev")
        if kind == "meta":
            meta = {k: v for k, v in event.items()
                    if k not in ("ev", "t")}
            header.append(f"meta: {meta}")
            continue
        offset = ""
        if t0 is not None and isinstance(event.get("t"), (int, float)):
            offset = f"+{event['t'] - t0:.3f}s "
        fields = {k: v for k, v in event.items()
                  if k not in _TRACE_SKIP_FIELDS}
        detail = [f"{key} = {value!r}" for key, value in sorted(
            fields.items())]
        if kind == "span":
            indent = "  " * int(event.get("depth", 0))
            timeline.add(f"{offset}{indent}span {event.get('name')} "
                         f"({event.get('dur_s', 0.0):.4f}s)", detail,
                         kind=STEP)
        else:
            timeline.add(f"{offset}event {event.get('name')}", detail,
                         kind=INFO)
    timeline.header = tuple(header)
    return timeline
