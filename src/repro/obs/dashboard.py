"""The repro dashboard: one self-contained HTML page over the evidence
layer.

Aggregates every durable observability artifact into a single page with
zero dependencies and zero external requests — inline CSS, inline SVG
sparklines, all data embedded at build time — so the file works as a CI
artifact, an email attachment, or a local ``file://`` open::

    python -m repro.obs dashboard --out dashboard.html

Inputs are found by their default file names under ``--root``
(:data:`INPUTS`) and validated through :mod:`repro.obs.schemas`.
Sections (each renders a "no data" placeholder when its input is
absent or invalid, so the page always builds):

* **stat tiles** — benchmarks, ledger depth, rule coverage, attribution
  total, fuzz verdict;
* **benchmarks** — the entries of every ``BENCH_*.json`` with their
  provenance stamps;
* **run history** — per-series min_s sparklines over the
  ``repro-history/1`` ledger, latest value and trend direction;
* **rule coverage** — the ``repro-coverage/1`` universe as a heat
  table, never-fired rules marked loudly;
* **attribution** — the top-N self-time hotspots of a
  ``repro-attrib/1`` payload as labeled bars;
* **state space** — the ``repro-graph/1`` search-shape panel: unique
  states, dedup ratio, branching/depth, frontier-growth sparkline, and
  the hottest ``rule.*`` edges per recorded graph;
* **invariants** — the ``repro-monitor/1`` sanitizer panel: checks and
  violations per invariant id, the last-violation witness verbatim;
* **cert store** — the ``repro-certstore/1`` persistent verdict-cache
  panel: entries/size/segments, per-run hit-rate sparkline over the
  store's history ledger, and gc events;
* **service** — the ``repro-serve/1`` verification-service panel:
  jobs submitted/executed/deduped/failed, uptime, and the verdict
  store's hit-rate line (save ``repro client stats`` output as
  ``serve-stats.json``);
* **service health** — the ``repro-servemetrics/1`` panel: request
  counters and latency quantiles, a per-bucket latency-histogram
  sparkline, and queue-depth/utilization sparklines from the drainer's
  gauge samples (save ``GET /v1/metrics?format=json`` as
  ``servemetrics.json``);
* **fuzz** — the latest campaign summary, verbatim.

Colors follow the repo's validated default palette: categorical slot 1
(blue) carries the single data series, the sequential blue ramp carries
magnitude, and the reserved status colors mark regressions/failures —
always paired with a text label, never color alone.  Light and dark
render from the same roles via CSS custom properties.
"""

from __future__ import annotations

import glob
import html
import math
import os
import re
from typing import Optional, Sequence

from .history import DEFAULT_LEDGER, compute_trends, read_ledger
from .schemas import (ATTRIB_SCHEMA, BENCH_SCHEMA, CERTSTORE_SCHEMA,
                      COVERAGE_SCHEMA, GRAPH_SCHEMA, MONITOR_SCHEMA,
                      SERVE_SCHEMA, SERVEMETRICS_SCHEMA, load)

#: The JSON inputs probed under ``--root``: panel -> (file, schema).
INPUTS = {
    "coverage": ("coverage-rules.json", COVERAGE_SCHEMA),
    "attrib": ("attrib.json", ATTRIB_SCHEMA),
    "graph": ("graph-stats.json", GRAPH_SCHEMA),
    "monitor": ("monitor.json", MONITOR_SCHEMA),
    "certstore": ("cert-store.json", CERTSTORE_SCHEMA),
    "serve": ("serve-stats.json", SERVE_SCHEMA),
    "servemetrics": ("servemetrics.json", SERVEMETRICS_SCHEMA),
}

#: The latest fuzz campaign summary, shown verbatim.
FUZZ_SUMMARY = "fuzz-summary.txt"

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
  --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b;
  --ink-2: #52514e; --muted: #898781; --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --seq-rgb: 42,120,214;
  --good: #0ca30c; --critical: #d03b3b; --warning: #fab219;
}
@media (prefers-color-scheme: dark) {
  body {
    --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff;
    --ink-2: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --seq-rgb: 57,135,229;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 32px 0 8px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 130px;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .l { color: var(--ink-2); font-size: 12px; }
table {
  border-collapse: collapse; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px;
  font-variant-numeric: tabular-nums;
}
th, td {
  text-align: left; padding: 4px 12px;
  border-bottom: 1px solid var(--grid); font-weight: normal;
}
th { color: var(--muted); font-size: 12px; }
td.num, th.num { text-align: right; }
tr:last-child td { border-bottom: none; }
.status-bad { color: var(--critical); font-weight: 600; }
.status-good { color: var(--good); }
.status-warn { color: var(--warning); }
.spark { vertical-align: middle; }
.spark polyline {
  fill: none; stroke: var(--series-1); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round;
}
.spark circle { fill: var(--series-1); }
.bar-track { background: var(--grid); border-radius: 4px; height: 8px;
  width: 220px; }
.bar-fill { background: var(--series-1); border-radius: 4px;
  height: 8px; }
.none { color: var(--muted); font-style: italic; }
pre {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px; overflow-x: auto; font-size: 12px;
}
.heat { font-size: 12px; }
.heat td.cell { border-radius: 4px; }
"""


def _esc(text) -> str:
    return html.escape(str(text), quote=True)


def _fmt_s(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.6f}"


def sparkline_svg(points: Sequence[float], width: int = 120,
                  height: int = 28, pad: int = 3) -> str:
    """An inline-SVG sparkline of one series (slot-1 blue, 2px line).

    A native ``<title>`` carries the values, so every sparkline has a
    hover layer and a text alternative without any script.
    """
    title = f"<title>min_s: {', '.join(f'{p:.6f}' for p in points)}</title>"
    if not points:
        return ""
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    inner_w, inner_h = width - 2 * pad, height - 2 * pad
    step = inner_w / max(1, len(points) - 1)
    coords = [(pad + index * step,
               pad + inner_h * (1.0 - (value - lo) / span))
              for index, value in enumerate(points)]
    dot = (f'<circle cx="{coords[-1][0]:.1f}" cy="{coords[-1][1]:.1f}" '
           f'r="2.5"/>')
    poly = ""
    if len(coords) > 1:
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        poly = f'<polyline points="{path}"/>'
    return (f'<svg class="spark" width="{width}" height="{height}" '
            f'role="img" aria-label="history sparkline">'
            f"{title}{poly}{dot}</svg>")


def _tile(value, label, status: str = "") -> str:
    cls = f' class="v {status}"' if status else ' class="v"'
    return (f'<div class="tile"><div{cls}>{_esc(value)}</div>'
            f'<div class="l">{_esc(label)}</div></div>')


def _section_tiles(benches, records, coverage, attrib, fuzz_ok,
                   graph=None, monitor=None) -> str:
    entries = sum(len(payload["entries"]) for payload in benches)
    tiles = [_tile(f"{len(benches)}", "bench reports"),
             _tile(f"{entries}", "benchmark entries"),
             _tile(f"{len(records)}", "ledger records")]
    if coverage is not None:
        covered = coverage.get("covered", 0)
        total = coverage.get("total", 0)
        status = "" if covered == total else "status-warn"
        tiles.append(_tile(f"{covered}/{total}", "rules fired", status))
    if attrib is not None:
        tiles.append(_tile(f"{attrib.get('total_s', 0.0):.2f}s",
                           "attributed self-time"))
    if graph is not None:
        states = sum(stats.get("states", 0)
                     for stats in graph.get("graphs", {}).values())
        tiles.append(_tile(f"{states}", "unique search states"))
    if monitor is not None:
        violations = sum(entry.get("violations", 0)
                         for entry in monitor.get("invariants", {}).values())
        tiles.append(_tile(f"{violations}", "invariant violations",
                           "status-bad" if violations else "status-good"))
    if fuzz_ok is not None:
        tiles.append(_tile("✓ pass" if fuzz_ok else "✗ FAIL",
                           "latest fuzz campaign",
                           "status-good" if fuzz_ok else "status-bad"))
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _section_benches(benches: Sequence[dict]) -> str:
    if not benches:
        return '<p class="none">no BENCH_*.json reports found</p>'
    parts = []
    for payload in benches:
        meta = payload.get("meta", {}) or {}
        sha = (meta.get("git_sha") or "-")[:8]
        stamp = meta.get("created_at", "-")
        rows = "".join(
            f"<tr><td>{_esc(entry['name'])}</td>"
            f"<td class='num'>{entry['rounds']}</td>"
            f"<td class='num'>{_fmt_s(entry['min_s'])}</td>"
            f"<td class='num'>{_fmt_s(entry['mean_s'])}</td>"
            f"<td class='num'>{_fmt_s(entry['max_s'])}</td></tr>"
            for entry in payload["entries"])
        parts.append(
            f"<h2>{_esc(payload['bench'])} "
            f"<small class='sub'>({_esc(sha)} · {_esc(stamp)})</small></h2>"
            f"<table><tr><th>entry</th><th class='num'>rounds</th>"
            f"<th class='num'>min_s</th><th class='num'>mean_s</th>"
            f"<th class='num'>max_s</th></tr>{rows}</table>")
    return "".join(parts)


def _section_history(records: Sequence[dict]) -> str:
    if not records:
        return ('<p class="none">empty ledger — run '
                '<code>python -m repro.obs history record</code></p>')
    trends = compute_trends(records)
    rows = []
    for trend in trends:
        status_cls = {"regression": "status-bad", "improved": "status-good",
                      }.get(trend.status, "")
        label = {"regression": "✗ regression", "improved": "✓ improved",
                 "ok": "ok", "n/a": "n/a"}[trend.status]
        ratio = f"{trend.ratio:.2f}×" if trend.ratio is not None else "-"
        rows.append(
            f"<tr><td>{_esc(trend.series)}</td>"
            f"<td>{sparkline_svg(trend.points)}</td>"
            f"<td class='num'>{len(trend.points)}</td>"
            f"<td class='num'>{_fmt_s(trend.latest)}</td>"
            f"<td class='num'>{ratio}</td>"
            f"<td class='{status_cls}'>{label}</td></tr>")
    return ("<table><tr><th>series</th><th>min_s trend</th>"
            "<th class='num'>points</th><th class='num'>rolling median</th>"
            "<th class='num'>ratio</th><th>status</th></tr>"
            + "".join(rows) + "</table>")


def _heat_cell(count: int, max_count: int) -> str:
    if not count:
        return ("<td class='cell status-bad'>✗ never</td>")
    # Sequential magnitude as an alpha ramp of the series hue, capped so
    # the in-cell count stays readable on both surfaces (the number is
    # the authoritative encoding; color is reinforcement).
    alpha = 0.08 + 0.37 * (math.log1p(count) / math.log1p(max_count))
    return (f"<td class='cell num' "
            f"style='background: rgba(var(--seq-rgb),{alpha:.2f})'>"
            f"{count}</td>")


def _section_coverage(coverage: Optional[dict]) -> str:
    if coverage is None:
        return ('<p class="none">no coverage report — run '
                '<code>repro coverage --litmus --json '
                'coverage-rules.json</code></p>')
    rules = coverage.get("rules", [])
    max_count = max((rule["count"] for rule in rules), default=0) or 1
    layers: dict[str, list[dict]] = {}
    for rule in rules:
        layers.setdefault(rule["layer"], []).append(rule)
    parts = [f"<p class='sub'>{coverage.get('covered', 0)}/"
             f"{coverage.get('total', 0)} rules fired"]
    missing = coverage.get("uncovered", [])
    if missing:
        parts.append(f" — <span class='status-bad'>✗ {len(missing)} "
                     f"never fired</span>")
    parts.append("</p><table class='heat'><tr><th>layer</th>"
                 "<th>rule</th><th class='num'>firings</th></tr>")
    for layer, layer_rules in layers.items():
        for index, rule in enumerate(layer_rules):
            layer_cell = (f"<td rowspan='{len(layer_rules)}'>"
                          f"{_esc(layer)}</td>") if index == 0 else ""
            parts.append(f"<tr>{layer_cell}"
                         f"<td title='{_esc(rule['description'])}'>"
                         f"{_esc(rule['id'])}</td>"
                         f"{_heat_cell(rule['count'], max_count)}</tr>")
    parts.append("</table>")
    return "".join(parts)


def _section_attrib(attrib: Optional[dict], top: int) -> str:
    if attrib is None:
        return ('<p class="none">no attribution payload — run '
                '<code>repro attrib --json attrib.json</code></p>')
    rows = ([(tuple(row["stack"]), row["self_s"], row["visits"], False)
             for row in attrib.get("frames", [])]
            + [(tuple(row["stack"]), row["est_s"], row["visits"], True)
               for row in attrib.get("rules", [])])
    rows.sort(key=lambda r: (-r[1], r[0]))
    total = attrib.get("total_s", 0.0) or 0.0
    shown = rows[:top]
    cells = []
    for stack, self_s, visits, is_rule in shown:
        share = (self_s / total) if total > 0 else 0.0
        kind = "rule (estimated)" if is_rule else "span"
        cells.append(
            f"<tr><td>{_esc(';'.join(stack))}</td>"
            f"<td><div class='bar-track'><div class='bar-fill' "
            f"style='width:{share * 100:.1f}%'></div></div></td>"
            f"<td class='num'>{self_s:.4f}</td>"
            f"<td class='num'>{share * 100:.1f}%</td>"
            f"<td class='num'>{visits}</td>"
            f"<td>{kind}</td></tr>")
    return (f"<p class='sub'>top {len(shown)}/{len(rows)} frames of "
            f"{total:.4f}s attributed self-time</p>"
            "<table><tr><th>stack</th><th>share</th>"
            "<th class='num'>self_s</th><th class='num'>%</th>"
            "<th class='num'>visits</th><th>kind</th></tr>"
            + "".join(cells) + "</table>")


def _section_statespace(graph: Optional[dict]) -> str:
    if graph is None:
        return ('<p class="none">no graph report — run '
                '<code>repro litmus --graph graph-stats.json</code></p>')
    graphs = graph.get("graphs", {})
    if not graphs:
        return '<p class="none">graph report holds no graphs</p>'
    parts = ["<table><tr><th>graph</th><th class='num'>runs</th>"
             "<th class='num'>states</th><th class='num'>edges</th>"
             "<th class='num'>dedup%</th><th class='num'>depth</th>"
             "<th class='num'>frontier</th><th>frontier growth</th>"
             "<th>truncated</th></tr>"]
    for name in sorted(graphs):
        stats = graphs[name]
        hits = stats.get("dedup_hits", 0)
        misses = stats.get("dedup_misses", 0)
        ratio = hits / (hits + misses) if hits + misses else 0.0
        curve = stats.get("frontier_curve") or []
        spark = sparkline_svg([float(p) for p in curve]) if len(curve) > 1 \
            else "<span class='none'>aggregate</span>"
        truncations = stats.get("truncations", 0)
        trunc = (f"<span class='status-warn'>{truncations} run(s)</span>"
                 if truncations else "none")
        parts.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td class='num'>{stats.get('instances', 0)}</td>"
            f"<td class='num'>{stats.get('states', 0)}</td>"
            f"<td class='num'>{stats.get('edges', 0)}</td>"
            f"<td class='num'>{ratio * 100:.1f}%</td>"
            f"<td class='num'>{stats.get('depth_max', 0)}</td>"
            f"<td class='num'>{stats.get('peak_frontier', 0)}</td>"
            f"<td>{spark}</td><td>{trunc}</td></tr>")
    parts.append("</table>")
    # Hottest edges across all graphs: which rule.* ids carry the search.
    totals: dict[str, int] = {}
    for stats in graphs.values():
        for rule, count in (stats.get("rules") or {}).items():
            totals[rule] = totals.get(rule, 0) + count
    if totals:
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        top = ranked[0][1] or 1
        rows = "".join(
            f"<tr><td>{_esc(rule)}</td>"
            f"<td><div class='bar-track'><div class='bar-fill' "
            f"style='width:{count / top * 100:.1f}%'></div></div></td>"
            f"<td class='num'>{count}</td></tr>"
            for rule, count in ranked)
        parts.append("<h2>Hottest rule edges</h2>"
                     "<table><tr><th>rule</th><th>share</th>"
                     "<th class='num'>edges</th></tr>" + rows + "</table>")
    return "".join(parts)


def _section_monitor(monitor: Optional[dict]) -> str:
    if monitor is None:
        return ('<p class="none">no monitor report — run '
                '<code>repro litmus --monitor strict '
                '--monitor-json monitor.json</code></p>')
    invariants = monitor.get("invariants", {})
    if not invariants:
        return '<p class="none">monitor report holds no invariants</p>'
    mode = monitor.get("mode", "strict")
    label = mode if mode == "strict" else f"sample:{monitor.get('stride')}"
    total_checks = sum(entry.get("checks", 0)
                       for entry in invariants.values())
    total_violations = sum(entry.get("violations", 0)
                           for entry in invariants.values())
    verdict = ("<span class='status-bad'>✗ violated</span>"
               if total_violations else
               "<span class='status-good'>✓ clean</span>")
    parts = [f"<p class='sub'>{label} mode · {total_checks} checks · "
             f"{total_violations} violation(s) · {verdict}</p>",
             "<table><tr><th>invariant</th><th class='num'>checks</th>"
             "<th class='num'>violations</th><th>status</th></tr>"]
    for name in sorted(invariants):
        entry = invariants[name]
        violations = entry.get("violations", 0)
        injected = entry.get("injected", 0)
        if violations and violations == injected:
            status = "<span class='status-warn'>injected canary</span>"
        elif violations:
            status = "<span class='status-bad'>✗ VIOLATED</span>"
        else:
            status = "<span class='status-good'>ok</span>"
        parts.append(
            f"<tr><td title='{_esc(entry.get('description', ''))}'>"
            f"{_esc(name)}</td>"
            f"<td class='num'>{entry.get('checks', 0)}</td>"
            f"<td class='num'>{violations}</td>"
            f"<td>{status}</td></tr>")
    parts.append("</table>")
    # Last-violation witnesses: the first-wins captures, verbatim, so a
    # red cell above links to a concrete offending state without opening
    # the JSON by hand.
    witnessed = [(name, invariants[name]["witness"])
                 for name in sorted(invariants)
                 if invariants[name].get("witness")]
    if witnessed:
        parts.append("<h2>Violation witnesses</h2>")
        for name, witness in witnessed:
            lines = [f"invariant: {name}",
                     f"scope:     {witness.get('scope', '-')}",
                     f"detail:    {witness.get('detail', '-')}"]
            if witness.get("rule"):
                lines.append(f"rule:      {witness['rule']}")
            if witness.get("spans"):
                lines.append(f"spans:     {';'.join(witness['spans'])}")
            if witness.get("state"):
                lines.append(f"state:     {witness['state']}")
            parts.append(f"<pre>{_esc(chr(10).join(lines))}</pre>")
    return "".join(parts)


def _section_certstore(certstore: Optional[dict]) -> str:
    if certstore is None:
        return ('<p class="none">no cert-store report — run '
                '<code>repro cache stats --json cert-store.json</code></p>')
    history = [r for r in certstore.get("history", [])
               if isinstance(r, dict)]
    runs = [r for r in history if "hits" in r]
    gcs = sum(1 for r in history if r.get("event") == "gc")
    rates = []
    for run in runs:
        consulted = run.get("hits", 0) + run.get("misses", 0)
        rates.append(run.get("hits", 0) / consulted if consulted else 0.0)
    last_rate = f"{rates[-1] * 100:.1f}%" if rates else "—"
    parts = ["<div class='tiles'>",
             _tile(certstore.get("entries", 0), "verdicts"),
             _tile(f"{certstore.get('size_bytes', 0) / 1e6:.2f} MB",
                   "on disk"),
             _tile(certstore.get("segments", 0), "segments"),
             _tile(last_rate, "last-run hit rate"),
             _tile(gcs, "gc events"),
             "</div>",
             f"<p class='sub'>semantics "
             f"{_esc(certstore.get('semantics', '?'))} · "
             f"{_esc(certstore.get('directory', '?'))}</p>"]
    if len(rates) > 1:
        parts.append("<table><tr><th>hit rate over runs</th>"
                     f"<td>{sparkline_svg(rates)}</td>"
                     f"<td class='num'>{last_rate}</td></tr></table>")
    return "".join(parts)


def _section_serve(serve: Optional[dict]) -> str:
    """The verification-service panel: a ``repro-serve/1`` stats body
    (``GET /v1/stats``, as saved by ``repro client stats``)."""
    if serve is None:
        return ('<p class="none">no service stats — save one with '
                '<code>repro client stats &gt; serve-stats.json</code>'
                '</p>')
    states = serve.get("states", {}) or {}
    failed = serve.get("failed", 0)
    parts = ["<div class='tiles'>",
             _tile(serve.get("submitted", 0), "jobs submitted"),
             _tile(serve.get("executed", 0), "executed"),
             _tile(serve.get("deduped", 0), "deduped"),
             _tile(failed, "failed",
                   "status-bad" if failed else "status-good"),
             _tile(f"{serve.get('uptime_s', 0.0):.0f}s", "uptime"),
             "</div>"]
    store = serve.get("store")
    if isinstance(store, dict):
        consulted = store.get("hits", 0) + store.get("misses", 0)
        rate = store.get("hit_rate", 0.0)
        parts.append(
            f"<p class='sub'>verdict store: {store.get('entries', 0)} "
            f"entries · {store.get('size_bytes', 0) / 1e6:.2f} MB · "
            f"{store.get('hits', 0)}/{consulted} hits "
            f"({rate * 100:.1f}% hit rate) · semantics "
            f"{_esc(store.get('semantics', '?'))}</p>")
    if states:
        rows = "".join(f"<tr><td>{_esc(state)}</td>"
                       f"<td class='num'>{count}</td></tr>"
                       for state, count in sorted(states.items()))
        parts.append("<table><tr><th>job state</th>"
                     "<th class='num'>jobs</th></tr>" + rows + "</table>")
    return "".join(parts)


def _section_servemetrics(metrics: Optional[dict]) -> str:
    """The service-health panel: a ``repro-servemetrics/1`` snapshot
    (``GET /v1/metrics?format=json``, saved as ``servemetrics.json``)."""
    if metrics is None:
        return ('<p class="none">no service metrics — save one with '
                '<code>curl '
                '"$BASE/v1/metrics?format=json" &gt; servemetrics.json'
                '</code></p>')
    counters = metrics.get("counters", {}) or {}
    gauges = metrics.get("gauges", {}) or {}
    histograms = metrics.get("histograms", {}) or {}
    samples = metrics.get("samples", {}) or {}
    latency = histograms.get("request.latency_s") or {}
    requests = counters.get("requests.total", 0)
    store_hits = counters.get("serve.store.lru_hits", 0)
    store_misses = counters.get("serve.store.lru_misses", 0)
    consulted = store_hits + store_misses
    lru_rate = (f"{store_hits / consulted * 100:.1f}%"
                if consulted else "—")
    parts = ["<div class='tiles'>",
             _tile(requests, "requests"),
             _tile(counters.get("jobs.executed", 0), "jobs executed"),
             _tile(f"{latency.get('p50', 0.0) * 1000:.1f}ms",
                   "latency p50"),
             _tile(f"{latency.get('p95', 0.0) * 1000:.1f}ms",
                   "latency p95"),
             _tile(f"{latency.get('p99', 0.0) * 1000:.1f}ms",
                   "latency p99"),
             _tile(f"{gauges.get('queue.depth', 0):.0f}", "queue depth"),
             _tile(lru_rate, "store LRU hit rate"),
             "</div>"]
    served = {name.split(".", 1)[1]: count
              for name, count in counters.items()
              if name.startswith("served.")}
    if served:
        parts.append("<p class='sub'>served from "
                     + " · ".join(f"{origin}: {count}" for origin, count
                                  in sorted(served.items()))
                     + f" · rejected: "
                       f"{counters.get('requests.rejected', 0)}</p>")
    if latency.get("counts"):
        # The latency histogram as a per-bucket sparkline: the shape of
        # the distribution, bucket bounds in the hover title.
        counts = [float(c) for c in latency["counts"]]
        bounds = [str(b) for b in latency.get("le", [])] + ["+Inf"]
        parts.append(
            "<table><tr><th>request latency histogram</th>"
            f"<td>{sparkline_svg(counts)}</td>"
            f"<td class='num' title='{_esc(', '.join(bounds))}'>"
            f"{latency.get('count', 0)} obs</td></tr>")
        ring = samples.get("queue.depth") or []
        if len(ring) > 1:
            parts.append(
                "<tr><th>queue depth (drainer samples)</th>"
                f"<td>{sparkline_svg([float(v) for v in ring])}</td>"
                f"<td class='num'>now {ring[-1]:.0f}</td></tr>")
        util = samples.get("utilization") or []
        if len(util) > 1:
            parts.append(
                "<tr><th>worker utilization</th>"
                f"<td>{sparkline_svg([float(v) for v in util])}</td>"
                f"<td class='num'>now {util[-1] * 100:.0f}%</td></tr>")
        parts.append("</table>")
    kinds = sorted((name.split(".", 2)[2], count)
                   for name, count in counters.items()
                   if name.startswith("requests.kind."))
    if kinds:
        rows = "".join(f"<tr><td>{_esc(kind)}</td>"
                       f"<td class='num'>{count}</td></tr>"
                       for kind, count in kinds)
        parts.append("<table><tr><th>request kind</th>"
                     "<th class='num'>requests</th></tr>" + rows
                     + "</table>")
    return "".join(parts)


def _section_fuzz(summary: Optional[str]) -> str:
    if not summary:
        return ('<p class="none">no fuzz summary — save one with '
                '<code>repro fuzz ... &gt; fuzz-summary.txt</code></p>')
    return f"<pre>{_esc(summary.rstrip())}</pre>"


def build_dashboard(benches: Sequence[dict], records: Sequence[dict],
                    coverage: Optional[dict] = None,
                    attrib: Optional[dict] = None,
                    fuzz_summary: Optional[str] = None,
                    graph: Optional[dict] = None,
                    monitor: Optional[dict] = None,
                    certstore: Optional[dict] = None,
                    serve: Optional[dict] = None,
                    servemetrics: Optional[dict] = None,
                    meta: Optional[dict] = None,
                    top: int = 20) -> str:
    """Render the full page; every argument is optional data."""
    meta = meta or {}
    fuzz_ok: Optional[bool] = None
    if fuzz_summary and "failure(s)" in fuzz_summary:
        fuzz_ok = re.search(r"(?<!\d)0 failure\(s\)",
                            fuzz_summary) is not None
    provenance = " · ".join(
        _esc(part) for part in (
            (meta.get("git_sha") or "")[:12], meta.get("created_at"),
            meta.get("python") and f"python {meta['python']}")
        if part)
    sections = [
        ("Run history", _section_history(records)),
        ("Rule coverage", _section_coverage(coverage)),
        ("Attribution hotspots", _section_attrib(attrib, top)),
        ("State space", _section_statespace(graph)),
        ("Invariants", _section_monitor(monitor)),
        ("Cert store", _section_certstore(certstore)),
        ("Service", _section_serve(serve)),
        ("Service health", _section_servemetrics(servemetrics)),
        ("Latest fuzz campaign", _section_fuzz(fuzz_summary)),
        ("Benchmarks", _section_benches(benches)),
    ]
    body = "".join(f"<h2>{_esc(title)}</h2>{content}"
                   for title, content in sections)
    return (
        "<!doctype html>\n<html lang='en'><head><meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, "
        "initial-scale=1'>"
        "<title>repro dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>repro dashboard</h1>"
        f"<p class='sub'>{provenance or 'no provenance recorded'}</p>"
        + _section_tiles(benches, records, coverage, attrib, fuzz_ok,
                         graph, monitor)
        + body + "</body></html>\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def load_inputs(root: str) -> tuple[dict, list[str]]:
    """Every dashboard input found under ``root``, each validated
    through the schema table: ``(inputs, problems)``.

    ``inputs`` holds the keyword arguments of :func:`build_dashboard`.
    An input that is missing or fails validation is left out (its
    panel shows no data); the problems name the failing files.
    """
    inputs: dict = {"benches": [], "records": []}
    problems: list[str] = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        _schema, payload, issues = load(path, BENCH_SCHEMA)
        problems += [f"{path}: {issue}" for issue in issues]
        if not issues:
            inputs["benches"].append(payload)
    ledger = os.path.join(root, DEFAULT_LEDGER)
    if os.path.exists(ledger):
        inputs["records"], issues = read_ledger(ledger)
        problems += issues
    for key, (name, schema) in INPUTS.items():
        path = os.path.join(root, name)
        if os.path.exists(path):
            _schema, data, issues = load(path, schema)
            problems += [f"{path}: {issue}" for issue in issues]
            if not issues:
                inputs[key] = data
    try:
        with open(os.path.join(root, FUZZ_SUMMARY)) as handle:
            inputs["fuzz_summary"] = handle.read()
    except OSError:
        pass
    return inputs, problems
