"""State-space graph telemetry (``repro-graph/1``).

The exploration engines — PS^na bounded exploration
(:mod:`repro.psna.explore`), the SEQ refinement game
(:mod:`repro.seq.refinement`), and the SEQ unlabeled closure — already
deduplicate states by canonical key.  This module records the *shape*
of those searches: a graph whose nodes are deduplicated states and
whose edges carry the ``rule.*`` identifier that fired, plus the
summary statistics ROADMAP item 2 (interned state encoding) needs as a
baseline: unique states, dedup ratio, branching-factor and depth
histograms, the frontier-growth curve, and cert-cache hit locality.

Recording is off unless the session opened a :class:`GraphRecorder`
(``--graph`` / ``--graph-stats``); the instrumented loops hold the
builder in a local and skip every hook when it is ``None``.

One :class:`GraphBuilder` covers one search run (one exploration, one
game ``run()``); the recorder aggregates builders by graph name.  All
aggregate statistics are plain integer sums (or maxima), so merging
worker snapshots in descriptor order yields byte-identical stats across
``--jobs`` values.  Node/edge *elements* (for witness-path queries) are
kept only in-process and only up to :data:`DEFAULT_ELEMENT_BUDGET`
stored items — counts stay exact past the budget, and the payload marks
the truncation.
"""

from __future__ import annotations

from typing import Optional

from .report import write_report
from .schemas import GRAPH_SCHEMA


#: Stored node+edge elements per builder before element capture stops.
DEFAULT_ELEMENT_BUDGET = 20_000

#: Frontier-curve samples are decimated (deterministically, by doubling
#: the stride) once they exceed this length.
MAX_CURVE_POINTS = 512

#: Integer stat fields merged by summation.
_SUM_FIELDS = ("instances", "states", "edges", "dedup_hits",
               "dedup_misses", "terminal_states", "bottom_states",
               "stuck_states", "truncations")

#: Integer stat fields merged by maximum.
_MAX_FIELDS = ("depth_max", "peak_frontier")

#: Dict-of-int stat fields merged by per-key summation.
_DICT_FIELDS = ("rules", "branching_hist", "depth_hist", "cert_cache")


class GraphBuilder:
    """Accumulates one search run's graph; see the module docstring."""

    __slots__ = ("name", "nodes", "node_flags", "node_labels",
                 "node_depths", "edges", "out_degrees", "rules",
                 "dedup_hits", "dedup_misses", "depth_hist", "depth_max",
                 "curve", "curve_stride", "_curve_skip", "peak_frontier",
                 "terminal_states", "bottom_states", "stuck_states",
                 "truncations", "cert_cache", "element_budget",
                 "elements_truncated")

    def __init__(self, name: str,
                 element_budget: int = DEFAULT_ELEMENT_BUDGET) -> None:
        self.name = name
        self.nodes: dict = {}            # canonical key -> node id
        self.node_flags: list[str] = []  # "" | terminal|bottom|stuck|...
        self.node_labels: list[str] = []
        self.node_depths: list[int] = []
        self.edges: list[tuple[int, int, str]] = []
        self.out_degrees: dict[int, int] = {}
        self.rules: dict[str, int] = {}
        self.dedup_hits = 0
        self.dedup_misses = 0
        self.depth_hist: dict[str, int] = {}
        self.depth_max = 0
        self.curve: list[int] = []
        self.curve_stride = 1
        self._curve_skip = 0
        self.peak_frontier = 0
        self.terminal_states = 0
        self.bottom_states = 0
        self.stuck_states = 0
        self.truncations = 0
        self.cert_cache: Optional[dict[str, int]] = None
        self.element_budget = element_budget
        self.elements_truncated = False

    # -- construction -----------------------------------------------------

    def node(self, key, depth: int) -> tuple[int, bool]:
        """Intern a state by canonical key; returns ``(id, is_new)``.

        A repeat key is a dedup hit — the graph-level mirror of the
        explorer's own ``seen``-set bookkeeping.
        """
        node_id = self.nodes.get(key)
        if node_id is not None:
            self.dedup_hits += 1
            return node_id, False
        node_id = len(self.nodes)
        self.nodes[key] = node_id
        self.dedup_misses += 1
        self.depth_hist[str(depth)] = self.depth_hist.get(str(depth), 0) + 1
        if depth > self.depth_max:
            self.depth_max = depth
        if not self.elements_truncated:
            if len(self.node_labels) + len(self.edges) >= self.element_budget:
                self.elements_truncated = True
            else:
                self.node_flags.append("")
                self.node_labels.append("")
                self.node_depths.append(depth)
        return node_id, True

    def node_id(self, key, depth: int = 0) -> int:
        """The id of an already-interned key (interning it if needed,
        without counting a dedup hit)."""
        node_id = self.nodes.get(key)
        if node_id is not None:
            return node_id
        node_id, _new = self.node(key, depth)
        return node_id

    def edge(self, src: int, dst: int, rule: str) -> None:
        """One transition ``src --rule--> dst``; counts stay exact even
        after element capture stops."""
        self.out_degrees[src] = self.out_degrees.get(src, 0) + 1
        self.rules[rule] = self.rules.get(rule, 0) + 1
        if not self.elements_truncated:
            if len(self.node_labels) + len(self.edges) >= self.element_budget:
                self.elements_truncated = True
            else:
                self.edges.append((src, dst, rule))

    def mark(self, node_id: int, flag: str, label: str = "") -> None:
        """Flag a node (terminal / bottom / stuck / ...) with an optional
        human-readable label for witness-path queries."""
        if flag == "terminal":
            self.terminal_states += 1
        elif flag == "bottom":
            self.bottom_states += 1
        elif flag == "stuck":
            self.stuck_states += 1
        if node_id < len(self.node_flags):
            self.node_flags[node_id] = flag
            if label:
                self.node_labels[node_id] = label

    def frontier(self, size: int) -> None:
        """Sample the frontier size (one call per search iteration)."""
        if size > self.peak_frontier:
            self.peak_frontier = size
        if self._curve_skip:
            self._curve_skip -= 1
            return
        self.curve.append(size)
        self._curve_skip = self.curve_stride - 1
        if len(self.curve) > MAX_CURVE_POINTS:
            self.curve = self.curve[::2]
            self.curve_stride *= 2

    def truncated(self) -> None:
        """Record that a search bound cut this run short."""
        self.truncations += 1

    def set_cert_cache(self, entries: int, hits: int, misses: int) -> None:
        """Cert-cache locality for PS^na graphs: how often certification
        results were reused within the run."""
        self.cert_cache = {"entries": entries, "hits": hits,
                           "misses": misses}

    # -- output -----------------------------------------------------------

    def stats(self) -> dict:
        """The raw (integer) statistics of this run — merge-safe."""
        out = {
            "instances": 1,
            "states": len(self.nodes),
            "edges": sum(self.out_degrees.values()),
            "dedup_hits": self.dedup_hits,
            "dedup_misses": self.dedup_misses,
            "terminal_states": self.terminal_states,
            "bottom_states": self.bottom_states,
            "stuck_states": self.stuck_states,
            "truncations": self.truncations,
            "depth_max": self.depth_max,
            "peak_frontier": self.peak_frontier,
            "rules": dict(self.rules),
            "branching_hist": self._branching_hist(),
            "depth_hist": dict(self.depth_hist),
            "frontier_curve": list(self.curve),
            "frontier_stride": self.curve_stride,
        }
        if self.cert_cache is not None:
            out["cert_cache"] = dict(self.cert_cache)
        return out

    def _branching_hist(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for node_id in range(len(self.nodes)):
            degree = str(self.out_degrees.get(node_id, 0))
            hist[degree] = hist.get(degree, 0) + 1
        return hist

    def elements(self) -> dict:
        """The stored node/edge elements (witness-path raw material)."""
        nodes = [{"id": index, "depth": self.node_depths[index],
                  "flags": self.node_flags[index],
                  "label": self.node_labels[index]}
                 for index in range(len(self.node_labels))]
        return {"nodes": nodes,
                "edges": [list(edge) for edge in self.edges],
                "truncated": self.elements_truncated}


def merge_stats(into: dict, stats: dict) -> None:
    """Fold one run's (or one worker's) stats into an aggregate.

    Sums, per-key sums, and maxima only — commutative, so arrival order
    never changes the result.  The frontier curve survives only while
    the aggregate covers a single instance (a merged curve would be
    meaningless).
    """
    if not into:
        into.update({key: stats[key] for key in _SUM_FIELDS + _MAX_FIELDS
                     if key in stats})
        for key in _DICT_FIELDS:
            if key in stats:
                into[key] = dict(stats[key])
        into["frontier_curve"] = list(stats.get("frontier_curve", ()))
        into["frontier_stride"] = stats.get("frontier_stride", 1)
        return
    for key in _SUM_FIELDS:
        into[key] = into.get(key, 0) + stats.get(key, 0)
    for key in _MAX_FIELDS:
        into[key] = max(into.get(key, 0), stats.get(key, 0))
    for key in _DICT_FIELDS:
        if key in stats or key in into:
            merged = dict(into.get(key, {}))
            for sub, value in stats.get(key, {}).items():
                merged[sub] = merged.get(sub, 0) + value
            into[key] = merged
    # More than one instance: the curve no longer describes one search.
    into["frontier_curve"] = []
    into["frontier_stride"] = 1


class GraphRecorder:
    """The session-level aggregator: builders grouped by graph name.

    ``elements`` retains per-run node/edge lists for the *first* run of
    each graph name (the single-search commands — ``repro explore
    --graph`` — are exactly this shape); aggregate stats always cover
    every run.
    """

    def __init__(self, elements: bool = True,
                 element_budget: int = DEFAULT_ELEMENT_BUDGET) -> None:
        self.keep_elements = elements
        self.element_budget = element_budget
        self._stats: dict[str, dict] = {}
        self._elements: dict[str, dict] = {}
        self._open: list[GraphBuilder] = []

    def builder(self, name: str) -> GraphBuilder:
        builder = GraphBuilder(name, self.element_budget
                               if self.keep_elements else 0)
        self._open.append(builder)
        return builder

    def _fold_open(self) -> None:
        for builder in self._open:
            aggregate = self._stats.setdefault(builder.name, {})
            merge_stats(aggregate, builder.stats())
            if (self.keep_elements and builder.name not in self._elements
                    and builder.node_labels):
                self._elements[builder.name] = builder.elements()
        self._open.clear()

    def graphs(self) -> dict[str, dict]:
        """Aggregate stats per graph name (folds pending builders)."""
        self._fold_open()
        return {name: dict(stats)
                for name, stats in sorted(self._stats.items())}

    def elements(self, name: str) -> Optional[dict]:
        self._fold_open()
        return self._elements.get(name)

    def snapshot(self) -> dict:
        """Picklable stats-only form (the worker-process handoff)."""
        return {"graphs": self.graphs()}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this recorder."""
        self._fold_open()
        for name, stats in snapshot.get("graphs", {}).items():
            merge_stats(self._stats.setdefault(name, {}), stats)


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------


def graph_payload(recorder: GraphRecorder,
                  meta: Optional[dict] = None,
                  include_elements: bool = True) -> dict:
    """The stable ``repro-graph/1`` JSON form of a recorder."""
    graphs = recorder.graphs()
    if include_elements:
        for name in graphs:
            elements = recorder.elements(name)
            if elements is not None:
                graphs[name]["elements"] = elements
    payload = {"schema": GRAPH_SCHEMA, "graphs": graphs}
    if meta:
        payload["meta"] = dict(meta)
    return payload


def write_graph_report(path: str, recorder: GraphRecorder,
                       meta: Optional[dict] = None) -> dict:
    """Write a validated ``repro-graph/1`` report; returns the payload."""
    return write_report(path, graph_payload(recorder, meta=meta))


def dedup_ratio(stats: dict) -> float:
    """Fraction of generated states already seen."""
    generated = stats.get("dedup_hits", 0) + stats.get("dedup_misses", 0)
    return stats.get("dedup_hits", 0) / generated if generated else 0.0


def render_graph_table(payload: dict,
                       title: str = "state-space graphs") -> str:
    """A human-readable summary table of one graph payload."""
    graphs = payload.get("graphs", {})
    if not graphs:
        return f"-- {title}: no graphs recorded --"
    width = max(len(name) for name in graphs)
    lines = [f"-- {title} --",
             f"{'graph':<{width}}  {'runs':>5}  {'states':>8}  "
             f"{'edges':>9}  {'dedup%':>7}  {'branch':>7}  {'depth':>6}  "
             f"{'frontier':>9}"]
    for name in sorted(graphs):
        stats = graphs[name]
        states = stats.get("states", 0)
        edges = stats.get("edges", 0)
        branch = edges / states if states else 0.0
        lines.append(
            f"{name:<{width}}  {stats.get('instances', 0):>5}  "
            f"{states:>8}  {edges:>9}  {dedup_ratio(stats) * 100:>6.1f}%  "
            f"{branch:>7.2f}  {stats.get('depth_max', 0):>6}  "
            f"{stats.get('peak_frontier', 0):>9}")
        cert = stats.get("cert_cache")
        if cert and cert.get("entries"):
            reuse = cert["hits"] / (cert["hits"] + cert["misses"]) \
                if cert["hits"] + cert["misses"] else 0.0
            lines.append(f"{'':<{width}}  cert-cache: "
                         f"{cert['entries']} entries, "
                         f"{reuse * 100:.1f}% hit rate")
        if stats.get("truncations"):
            lines.append(f"{'':<{width}}  !! {stats['truncations']} "
                         f"truncated run(s) — counts are lower bounds")
    return "\n".join(lines)
