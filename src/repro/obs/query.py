"""``repro query``: interrogate observability artifacts offline.

One front end over the artifact families the toolchain writes:

* ``repro-trace/1``        — JSONL span/event traces (``--trace``);
* ``repro-events/1``       — NDJSON live event streams (``--stream``);
* ``repro-graph/1``        — state-space graph reports (``--graph``);
* ``repro-servemetrics/1`` — service metrics snapshots
  (``GET /v1/metrics?format=json``).

The artifact is read and validated by :func:`repro.obs.schemas.load`,
whose schema picks the query: a ``repro-graph/1`` (or
``repro-servemetrics/1``) document is a graph (metrics) report, and any
stream is queried line by line (the JSONL dialects share the per-line
shape, so trace files work with the same filters).  An artifact that
does not validate is an error.  ``--kind metrics``
forces the servemetrics interpretation (and errors when the artifact
is something else).  A metrics artifact flattens to one event-shaped
row per metric (``ev: "metric"``), so the line filters compose
unchanged, and histogram rows carry a ``buckets`` dict — ``--top N
--by buckets`` folds latency buckets exactly the way coverage events
fold ``rules``.

Three query modes compose left to right:

* **filter** (``--kind``/``--span``/``--rule``/``--case``) selects
  matching lines and reprints them as NDJSON;
* **aggregate** (``--top N --by FIELD``) tallies a field over the
  filtered lines (for graph reports: over the ``rules`` histogram);
* **witness path** (``--path-to SELECTOR``) runs a BFS over a graph
  report's stored elements from the initial node to the first node
  whose flag equals — or label contains — the selector, and prints the
  rule-labeled path.

``--follow`` switches the events dialect into tail mode: the stream is
polled (seek + incremental read, partial trailing lines buffered until
their newline arrives) and matching events print as they are appended —
how monitors, heartbeats, and service job streams are watched live.
The follow loop exits cleanly at the first end-of-stream sentinel (the
session-final ``coverage`` event, or the ``stream-end`` line every
``repro serve`` job stream ends with) or when no complete line arrives
for ``--idle-timeout`` seconds (plain EOF: streams without rule
counters end without a ``coverage`` line).

Exit codes: 0 = matches found, 1 = query ran but matched nothing,
2 = unreadable/invalid artifact or bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque
from typing import Optional

from .schemas import GRAPH_SCHEMA, SERVEMETRICS_SCHEMA, load
from .statespace import dedup_ratio

#: Event fields consulted by ``--rule`` (a rule id can ride along in
#: any of these, depending on the event kind).
_RULE_FIELDS = ("rule", "last_rule")

#: Event kinds that mark the end of a stream for ``--follow``:
#: ``coverage`` is the session-final rule dump of CLI streams;
#: ``stream-end`` is the explicit sentinel every service job stream
#: emits (cached jobs have no rule counters, hence no ``coverage``).
FOLLOW_END_EVENTS = frozenset({"coverage", "stream-end"})


def filter_events(events: list[dict], kind: Optional[str] = None,
                  span: Optional[str] = None, rule: Optional[str] = None,
                  case: Optional[int] = None) -> list[dict]:
    """Apply the line filters; all given filters must match."""
    out = []
    for event in events:
        if kind is not None and event.get("ev") != kind:
            continue
        if span is not None:
            value = event.get("span") or event.get("name")
            if value != span:
                continue
        if rule is not None:
            values = [event.get(field) for field in _RULE_FIELDS]
            values += list(event.get("rules", {}))
            if not any(isinstance(v, str) and rule in v for v in values):
                continue
        if case is not None and event.get("case") != case:
            continue
        out.append(event)
    return out


def top_values(events: list[dict], by: str, top: int) -> list[tuple]:
    """The ``top`` most frequent values of field ``by``; ties break by
    value so the output is deterministic."""
    counts: dict = {}
    for event in events:
        if by in event:
            value = event[by]
            if isinstance(value, dict):
                # Histogram-valued field (e.g. a coverage event's
                # ``rules``): fold the histogram in directly.
                for sub, weight in value.items():
                    counts[sub] = counts.get(sub, 0) + weight
            else:
                key = value if isinstance(value, (str, int, float, bool)) \
                    else repr(value)
                counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return ranked[:top]


def witness_path(elements: dict, selector: str) -> Optional[list[dict]]:
    """BFS from node 0 to the first node matching ``selector``.

    A node matches when its flag equals the selector or its label
    contains it.  Returns the path as a list of ``{"node", "depth",
    "flags", "label", "via"}`` dicts (``via`` = the rule of the edge
    taken into the node; ``None`` for the start), or None.
    """
    nodes = elements.get("nodes", [])
    if not nodes:
        return None
    adjacency: dict[int, list[tuple[int, str]]] = {}
    for src, dst, rule in elements.get("edges", []):
        adjacency.setdefault(src, []).append((dst, rule))

    def matches(node: dict) -> bool:
        return node.get("flags") == selector \
            or (selector in node.get("label", "") if node.get("label")
                else False)

    # parent[node] = (previous node, rule taken)
    parent: dict[int, tuple[Optional[int], Optional[str]]] = {0: (None, None)}
    queue = deque([0])
    found = 0 if matches(nodes[0]) else None
    while queue and found is None:
        current = queue.popleft()
        for dst, rule in adjacency.get(current, ()):
            if dst in parent or dst >= len(nodes):
                continue
            parent[dst] = (current, rule)
            if matches(nodes[dst]):
                found = dst
                break
            queue.append(dst)
    if found is None:
        return None
    path: list[dict] = []
    cursor: Optional[int] = found
    while cursor is not None:
        previous, rule = parent[cursor]
        node = nodes[cursor]
        path.append({"node": cursor, "depth": node.get("depth", 0),
                     "flags": node.get("flags", ""),
                     "label": node.get("label", ""), "via": rule})
        cursor = previous
    path.reverse()
    return path


def render_path(path: list[dict]) -> str:
    lines = [f"witness path: {len(path) - 1} step(s)"]
    for entry in path:
        via = f"--[{entry['via']}]--> " if entry["via"] else ""
        mark = f" ({entry['flags']})" if entry["flags"] else ""
        label = f"  {entry['label']}" if entry["label"] else ""
        lines.append(f"  {via}node {entry['node']} "
                     f"depth={entry['depth']}{mark}{label}")
    return "\n".join(lines)


def _graph_summary_rows(payload: dict) -> list[dict]:
    rows = []
    for name, stats in sorted(payload.get("graphs", {}).items()):
        rows.append({"graph": name,
                     "states": stats.get("states", 0),
                     "edges": stats.get("edges", 0),
                     "dedup_ratio": round(dedup_ratio(stats), 4),
                     "truncations": stats.get("truncations", 0)})
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Query trace/event/graph observability artifacts.")
    parser.add_argument("artifact", help="path to the artifact file")
    parser.add_argument("--kind",
                        help="filter: event kind (ev field); the value "
                             "'metrics' instead forces reading the "
                             "artifact as repro-servemetrics/1 "
                             "(auto-detected otherwise)")
    parser.add_argument("--span", help="filter: span/name field")
    parser.add_argument("--rule", help="filter: rule id substring")
    parser.add_argument("--case", type=int,
                        help="filter: sweep case index (merged streams)")
    parser.add_argument("--top", type=int, metavar="N",
                        help="aggregate: N most frequent values of --by")
    parser.add_argument("--by", default="rules",
                        help="aggregate field for --top (default: rules)")
    parser.add_argument("--graph-name",
                        help="graph to query in a multi-graph report "
                             "(default: the only/first one)")
    parser.add_argument("--path-to", metavar="SELECTOR",
                        help="extract a witness path to the first node "
                             "whose flag equals or label contains SELECTOR")
    parser.add_argument("--limit", type=int, default=50,
                        help="max filtered lines to print (default: 50)")
    parser.add_argument("--follow", action="store_true",
                        help="tail-follow a live repro-events/1 NDJSON "
                             "stream: print matching events as they are "
                             "appended; exits when the writer closes the "
                             "stream or it goes idle")
    parser.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="with --follow: poll interval in seconds "
                             "(default: 0.2)")
    parser.add_argument("--idle-timeout", type=float, default=5.0,
                        metavar="S",
                        help="with --follow: exit after S seconds without "
                             "new data (default: 5.0)")
    return parser


def _query_graph(payload: dict, options: argparse.Namespace) -> int:
    graphs = payload.get("graphs", {})
    if not graphs:
        print("no graphs in report", file=sys.stderr)
        return 1
    name = options.graph_name or sorted(graphs)[0]
    if name not in graphs:
        print(f"error: no graph {name!r} in report "
              f"(have: {', '.join(sorted(graphs))})", file=sys.stderr)
        return 2
    stats = graphs[name]
    if options.path_to:
        elements = stats.get("elements")
        if not elements:
            print(f"error: graph {name!r} carries no elements "
                  f"(stats-only report)", file=sys.stderr)
            return 2
        path = witness_path(elements, options.path_to)
        if path is None:
            print(f"no node matching {options.path_to!r} reachable "
                  f"in graph {name!r}")
            return 1
        print(render_path(path))
        return 0
    if options.top:
        source = stats.get(options.by if options.by != "rules" else "rules",
                           stats.get("rules", {}))
        if not isinstance(source, dict):
            print(f"error: graph field {options.by!r} is not a histogram",
                  file=sys.stderr)
            return 2
        ranked = sorted(source.items(), key=lambda kv: (-kv[1], kv[0]))
        for value, count in ranked[:options.top]:
            print(f"{count:>10}  {value}")
        return 0 if ranked else 1
    for row in _graph_summary_rows(payload):
        print(json.dumps(row, sort_keys=True))
    return 0


def _query_metrics(payload: dict, options: argparse.Namespace) -> int:
    """Query a ``repro-servemetrics/1`` snapshot: rows are synthesized
    per metric (``ev: "metric"``), so the event filters and ``--top``
    aggregation apply unchanged.  ``--kind metrics`` is the artifact
    selector here, not a row filter — every row is a metric."""
    from ..serve.metrics import metrics_rows

    rows = metrics_rows(payload)
    matched = filter_events(rows, kind=None, span=options.span,
                            rule=options.rule, case=None)
    if options.top:
        ranked = top_values(matched, options.by, options.top)
        for value, count in ranked:
            print(f"{count:>10}  {value}")
        return 0 if ranked else 1
    for row in matched[:options.limit]:
        print(json.dumps(row, sort_keys=True, default=repr))
    if len(matched) > options.limit:
        print(f"... {len(matched) - options.limit} more match(es) "
              f"(raise --limit)", file=sys.stderr)
    return 0 if matched else 1


def _query_events(events: list[dict], options: argparse.Namespace) -> int:
    matched = filter_events(events, kind=options.kind, span=options.span,
                            rule=options.rule, case=options.case)
    if options.top:
        ranked = top_values(matched, options.by, options.top)
        for value, count in ranked:
            print(f"{count:>10}  {value}")
        return 0 if ranked else 1
    for event in matched[:options.limit]:
        print(json.dumps(event, sort_keys=True, default=repr))
    if len(matched) > options.limit:
        print(f"... {len(matched) - options.limit} more match(es) "
              f"(raise --limit)", file=sys.stderr)
    return 0 if matched else 1


def follow_events(path: str, options: argparse.Namespace,
                  poll_s: float = 0.2, idle_timeout_s: float = 5.0,
                  out=None) -> int:
    """Tail-follow an NDJSON event stream; print matching events live.

    Poll + seek: the file is reopened cheaply never — one handle seeks
    past what it already consumed and reads whatever the writer has
    flushed since; a trailing partial line (the writer flushes per line,
    but the poll can still race a kernel-level partial write) stays
    buffered until its newline arrives.  Exits 0 cleanly at the first
    end-of-stream sentinel (:data:`FOLLOW_END_EVENTS` — the
    session-final ``coverage`` event, or a service job stream's
    ``stream-end``), or when no *complete line* arrives for
    ``idle_timeout_s`` — partial-byte dribble does not count as
    liveness, so a stalled writer cannot hang a follow (and its CI job)
    forever.  Returns 1 when the follow ended without one matching
    event, 2 when the file never appeared within the idle timeout.
    """
    if out is None:
        out = sys.stdout
    deadline = time.monotonic() + idle_timeout_s
    handle = None
    buffer = ""
    matched = 0
    try:
        while True:
            if handle is None:
                try:
                    handle = open(path)
                except OSError:
                    if time.monotonic() >= deadline:
                        print(f"error: {path}: did not appear within "
                              f"{idle_timeout_s:.1f}s", file=sys.stderr)
                        return 2
                    time.sleep(poll_s)
                    continue
            chunk = handle.read()
            if chunk:
                buffer += chunk
                progressed = False
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    progressed = True
                    if not line.strip():
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if filter_events([event], kind=options.kind,
                                     span=options.span, rule=options.rule,
                                     case=options.case):
                        matched += 1
                        print(json.dumps(event, sort_keys=True,
                                         default=repr), file=out,
                              flush=True)
                    if event.get("ev") in FOLLOW_END_EVENTS:
                        # The writer's EOF sentinel: the session-final
                        # coverage dump, or a service job stream's
                        # explicit stream-end.  Exit immediately —
                        # anything after it is not ours to wait on.
                        return 0 if matched else 1
                # Only complete lines count as liveness: a writer that
                # dribbles partial bytes without ever finishing a line
                # must still trip the idle timeout, not hang forever.
                if progressed:
                    deadline = time.monotonic() + idle_timeout_s
                continue
            if time.monotonic() >= deadline:
                return 0 if matched else 1
            time.sleep(poll_s)
    finally:
        if handle is not None:
            handle.close()


def run(options: argparse.Namespace) -> int:
    """Execute one query (shared by ``repro query`` and ``__main__``)."""
    if getattr(options, "follow", False):
        if options.top or options.path_to:
            print("error: --follow only filters (no --top/--path-to)",
                  file=sys.stderr)
            return 2
        return follow_events(
            options.artifact, options,
            poll_s=getattr(options, "poll", 0.2),
            idle_timeout_s=getattr(options, "idle_timeout", 5.0))
    schema, data, problems = load(options.artifact)
    for problem in problems:
        print(f"error: {options.artifact}: {problem}", file=sys.stderr)
    if problems:
        return 2
    if getattr(options, "kind", None) == "metrics" \
            and schema != SERVEMETRICS_SCHEMA:
        print(f"error: {options.artifact}: --kind metrics but the "
              f"artifact is not {SERVEMETRICS_SCHEMA}", file=sys.stderr)
        return 2
    if schema == SERVEMETRICS_SCHEMA:
        return _query_metrics(data, options)
    if schema == GRAPH_SCHEMA:
        return _query_graph(data, options)
    if options.path_to:
        print(f"error: --path-to needs a {GRAPH_SCHEMA} report with "
              "elements", file=sys.stderr)
        return 2
    return _query_events(data if isinstance(data, list) else [data],
                         options)


def main(argv: Optional[list[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
