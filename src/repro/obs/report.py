"""Rendering and serialization of observability data.

Two stable machine-readable schemas:

* ``repro-stats/1`` — a metrics snapshot (counters/gauges/histograms)
  plus free-form metadata, produced by :func:`stats_payload`;
* ``repro-bench/1`` — one benchmark module's timing entries, produced by
  :func:`write_bench_report` into ``BENCH_<name>.json`` at the repo root
  (the perf-trajectory files tracked across PRs).

Both carry a ``schema`` field and are validated through
:mod:`repro.obs.schemas`, as ``python -m repro.obs BENCH_*.json`` does
in the CI benchmark smoke-check.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .metrics import MetricsRegistry
from .schemas import BENCH_SCHEMA, STATS_SCHEMA, validate


# ---------------------------------------------------------------------------
# Stats payloads
# ---------------------------------------------------------------------------


def stats_payload(metrics: MetricsRegistry | dict,
                  meta: Optional[dict] = None) -> dict:
    """The stable JSON form of a metrics snapshot."""
    snapshot = (metrics.snapshot() if isinstance(metrics, MetricsRegistry)
                else metrics)
    payload = {"schema": STATS_SCHEMA, **snapshot}
    if meta:
        payload["meta"] = dict(meta)
    return payload


def render_stats_table(payload: dict, title: str = "stats") -> str:
    """A human-readable table of one stats payload.

    Counters and gauges render as exact values; histograms as
    count/mean/min/max.  Rows are sorted by metric name so the output
    is stable for deterministic workloads.
    """
    rows: list[tuple[str, str]] = []
    for name in sorted(payload.get("counters", {})):
        rows.append((name, str(payload["counters"][name])))
    for name in sorted(payload.get("gauges", {})):
        rows.append((name, _fmt(payload["gauges"][name])))
    for name in sorted(payload.get("histograms", {})):
        summary = payload["histograms"][name]
        detail = (f"n={summary['count']} mean={_fmt(summary.get('mean'))}")
        if summary.get("min") is not None:
            detail += (f" min={_fmt(summary['min'])}"
                       f" max={_fmt(summary['max'])}")
        rows.append((name, detail))
    if not rows:
        return f"-- {title}: no metrics recorded --"
    width = max(len(name) for name, _ in rows)
    lines = [f"-- {title} --"]
    lines += [f"{name:<{width}}  {value}" for name, value in rows]
    return "\n".join(lines)


def render_profile(payload: dict, title: str = "profile") -> str:
    """Span timings (the ``span.*`` histograms), slowest first."""
    spans = {name[len("span."):]: summary
             for name, summary in payload.get("histograms", {}).items()
             if name.startswith("span.")}
    if not spans:
        return f"-- {title}: no spans recorded --"
    ordered = sorted(spans.items(), key=lambda kv: -kv[1]["sum"])
    width = max(len(name) for name in spans)
    lines = [f"-- {title} --",
             f"{'span':<{width}}  {'calls':>6}  {'total_s':>9}  {'mean_s':>9}"]
    for name, summary in ordered:
        lines.append(f"{name:<{width}}  {summary['count']:>6}  "
                     f"{summary['sum']:>9.4f}  "
                     f"{summary['sum'] / summary['count']:>9.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Benchmark reports
# ---------------------------------------------------------------------------


def bench_payload(name: str, entries: Sequence[dict],
                  meta: Optional[dict] = None) -> dict:
    return {"schema": BENCH_SCHEMA, "bench": name,
            "entries": list(entries), "meta": dict(meta or {})}


def write_bench_report(name: str, entries: Sequence[dict], path: str,
                       meta: Optional[dict] = None) -> dict:
    """Write ``BENCH_<name>.json``; returns the payload written."""
    return write_report(path, bench_payload(name, entries, meta))


def write_report(path: str, payload: dict) -> dict:
    """Write an artifact as indented, key-sorted JSON; returns it.

    Raises ``ValueError`` and writes nothing when the payload does not
    validate against its schema.
    """
    problems = validate(payload)
    if problems:
        raise ValueError(f"refusing to write invalid {payload.get('schema')} "
                         f"report: " + "; ".join(problems))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=repr)
        handle.write("\n")
    return payload


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
