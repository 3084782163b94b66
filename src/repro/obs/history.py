"""The append-only run-history ledger (``repro-history/1``).

Every ``BENCH_*.json`` file is a point-in-time snapshot; the ledger is
the time series.  ``history record`` folds the current bench reports
into a JSONL ledger — one record per benchmark entry, stamped with the
git SHA, an injected creation timestamp, and a digest of the entry's
non-timing shape (rounds + extra info), so records remain comparable
across commits and a workload change is distinguishable from a perf
change.  ``history trend`` then computes rolling-median trends per
``bench:entry`` series and exits non-zero on sustained regressions —
the empty bench trajectory becomes a first-class, CI-gated time
series::

    python -m repro.obs history record            # append BENCH_*.json
    python -m repro.obs history show  --last 5    # recent records
    python -m repro.obs history trend --last 10   # regression gate

The ledger is append-only by construction: ``record`` only ever opens
the file in append mode, records carry their own schema field, and
readers skip-and-report malformed lines instead of failing the whole
file — a truncated write (crashed CI run) costs one record, not the
history.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

from .provenance import created_at as _created_at
from .provenance import git_sha as _git_sha
from .schemas import BENCH_SCHEMA, HISTORY_SCHEMA, load, validate

#: Default ledger path, relative to the working directory (CI caches it).
DEFAULT_LEDGER = "repro-history.jsonl"

DEFAULT_WINDOW = 3
DEFAULT_TOLERANCE = 0.25


def entry_digest(entry: dict) -> str:
    """A short digest of the entry's non-timing shape.

    Covers rounds and the benchmark's ``extra`` counters — the workload
    fingerprint.  Two records with different digests timed different
    work and must not be compared as a perf trend.
    """
    shape = {"rounds": entry.get("rounds"),
             "extra": entry.get("extra", {})}
    blob = json.dumps(shape, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _entry_median(entry: dict) -> float:
    # Bench entries record min/mean/max (and raw timings were discarded);
    # the recorded median falls back to the mean for min==max degenerate
    # single-round runs this is exact, otherwise it is the standard
    # low-noise central estimate available without the raw rounds.
    timings = entry.get("timings_s")
    if isinstance(timings, list) and timings:
        return float(median(timings))
    if "median_s" in entry:
        return float(entry["median_s"])
    return float(entry.get("mean_s", entry["min_s"]))


def ledger_records(payload: dict, sha: Optional[str],
                   stamp: str) -> list[dict]:
    """One ``repro-history/1`` record per entry of a bench payload."""
    records = []
    for entry in payload["entries"]:
        extra = entry.get("extra", {}) or {}
        records.append({
            "schema": HISTORY_SCHEMA,
            "git_sha": sha,
            "created_at": stamp,
            "bench": payload["bench"],
            "entry": entry["name"],
            "min_s": entry["min_s"],
            "median_s": _entry_median(entry),
            "rounds": entry.get("rounds"),
            "digest": entry_digest(entry),
            "incomplete": bool(extra.get("incomplete")),
        })
    return records


def append_records(path: str, records: Sequence[dict]) -> int:
    """Append records to the ledger (append-only; creates the file)."""
    with open(path, "a") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def read_ledger(path: str) -> tuple[list[dict], list[str]]:
    """Parse a ledger; returns ``(records, problems)``.

    Malformed lines are reported and skipped, never fatal — the ledger
    outlives any one writer's crash.
    """
    _schema, lines, problems = load(path, HISTORY_SCHEMA)
    records = [record for record in lines or [] if isinstance(record, dict)
               and not validate(record, HISTORY_SCHEMA)]
    return records, [f"{path}: {problem}" for problem in problems]


# ---------------------------------------------------------------------------
# Trends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trend:
    """The rolling-median trend of one ``bench:entry`` series."""

    bench: str
    entry: str
    points: tuple[float, ...]  # min_s, ledger order (oldest first)
    window: int
    status: str  # 'regression' | 'improved' | 'ok' | 'n/a'
    latest: float
    baseline: Optional[float] = None

    @property
    def series(self) -> str:
        return f"{self.bench}:{self.entry}"

    @property
    def ratio(self) -> Optional[float]:
        if not self.baseline:
            return None
        return self.latest / self.baseline


def compute_trends(records: Sequence[dict], window: int = DEFAULT_WINDOW,
                   tolerance: float = DEFAULT_TOLERANCE,
                   last: Optional[int] = None,
                   bench: Optional[str] = None) -> list[Trend]:
    """Per-series rolling-median trends over the ledger.

    A series *regresses* when the median of its last ``window`` points
    exceeds the median of the preceding ``window`` points by more than
    the tolerance — a sustained shift, not a single noisy round.  Points
    whose digest differs from the series' latest digest are excluded
    (the workload changed; the comparison would be meaningless).
    """
    series: dict[tuple[str, str], list[dict]] = {}
    for record in records:
        if bench is not None and record["bench"] != bench:
            continue
        series.setdefault((record["bench"], record["entry"]),
                          []).append(record)
    trends = []
    for (bench_name, entry), rows in sorted(series.items()):
        digest = rows[-1]["digest"]
        points = [row["min_s"] for row in rows if row["digest"] == digest]
        if last is not None:
            points = points[-last:]
        latest = median(points[-window:])
        if len(points) < 2 * window:
            trends.append(Trend(bench_name, entry, tuple(points), window,
                                "n/a", latest))
            continue
        baseline = median(points[-2 * window:-window])
        if baseline > 0 and latest > baseline * (1.0 + tolerance):
            status = "regression"
        elif baseline > 0 and latest < baseline / (1.0 + tolerance):
            status = "improved"
        else:
            status = "ok"
        trends.append(Trend(bench_name, entry, tuple(points), window,
                            status, latest, baseline))
    return trends


def render_trend_table(trends: Sequence[Trend],
                       tolerance: float = DEFAULT_TOLERANCE) -> str:
    """The per-series trend table, regressions loud."""
    if not trends:
        return "-- history trend: empty ledger --"
    width = max(len(trend.series) for trend in trends)
    lines = [f"-- history trend ({len(trends)} series, rolling median, "
             f"tolerance {tolerance:.0%}) --",
             f"{'series':<{width}}  {'points':>6}  {'baseline_s':>11}  "
             f"{'latest_s':>10}  {'ratio':>6}  status"]
    for trend in trends:
        baseline = (f"{trend.baseline:.6f}" if trend.baseline is not None
                    else "-")
        ratio = f"{trend.ratio:.2f}x" if trend.ratio is not None else "-"
        status = (trend.status.upper() if trend.status == "regression"
                  else trend.status)
        lines.append(f"{trend.series:<{width}}  {len(trend.points):>6}  "
                     f"{baseline:>11}  {trend.latest:>10.6f}  "
                     f"{ratio:>6}  {status}")
    bad = [trend for trend in trends if trend.status == "regression"]
    if bad:
        lines.append(f"!! {len(bad)} sustained regression(s): "
                     + ", ".join(trend.series for trend in bad))
    else:
        lines.append("no sustained regressions")
    return "\n".join(lines)


def render_show_table(records: Sequence[dict],
                      last: Optional[int] = None) -> str:
    """The raw-record view: newest last, one line per record."""
    rows = list(records)
    if last is not None:
        rows = rows[-last:]
    if not rows:
        return "-- history: empty ledger --"
    width = max(len(f"{row['bench']}:{row['entry']}") for row in rows)
    lines = [f"-- history: {len(rows)}/{len(records)} record(s) --",
             f"{'series':<{width}}  {'min_s':>10}  {'median_s':>10}  "
             f"{'sha':>8}  {'created_at':>20}  flags"]
    for row in rows:
        series = f"{row['bench']}:{row['entry']}"
        sha = (row["git_sha"] or "-")[:8]
        flags = "INCOMPLETE" if row.get("incomplete") else "-"
        lines.append(f"{series:<{width}}  "
                     f"{row['min_s']:>10.6f}  {row['median_s']:>10.6f}  "
                     f"{sha:>8}  {row['created_at']:>20}  {flags}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


_USAGE = """\
usage: python -m repro.obs history record [BENCH.json ...] [--ledger FILE]
           [--sha SHA] [--created-at ISO]
       python -m repro.obs history show  [--ledger FILE] [--last N]
           [--bench NAME]
       python -m repro.obs history trend [--ledger FILE] [--last N]
           [--window W] [--tolerance T] [--bench NAME]\
"""


def _take_option(args: list[str], name: str) -> Optional[str]:
    if name not in args:
        return None
    index = args.index(name)
    try:
        value = args[index + 1]
    except IndexError:
        raise ValueError(f"{name} needs a value")
    del args[index:index + 2]
    return value


def _record(args: list[str]) -> int:
    try:
        ledger = _take_option(args, "--ledger") or DEFAULT_LEDGER
        sha = _take_option(args, "--sha")
        stamp = _take_option(args, "--created-at")
    except ValueError as error:
        print(f"history record: {error}")
        return 2
    paths = args or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("history record: no BENCH_*.json files found "
              "(pass paths explicitly)")
        return 2
    try:
        resolved_sha = _git_sha(override=sha)
        resolved_stamp = _created_at(override=stamp)
    except ValueError as error:
        print(f"history record: {error}")
        return 2
    total = 0
    for path in paths:
        _schema, payload, problems = load(path, BENCH_SCHEMA)
        if problems:
            print(f"history record: {path}: " + "; ".join(problems))
            return 2
        # Provenance resolution: an explicit flag wins, then the bench
        # file's own stamped meta (PRs stamp it via benchmarks/conftest),
        # then the environment/live fallback.
        meta = payload.get("meta", {}) or {}
        record_sha = (resolved_sha if sha
                      else meta.get("git_sha") or resolved_sha)
        record_stamp = (resolved_stamp if stamp
                        else meta.get("created_at") or resolved_stamp)
        total += append_records(
            ledger, ledger_records(payload, sha=record_sha,
                                   stamp=record_stamp))
    print(f"recorded {total} entr{'y' if total == 1 else 'ies'} from "
          f"{len(paths)} bench report(s) into {ledger}")
    return 0


def _load(args: list[str]) -> tuple[Optional[list[dict]], str,
                                    Optional[str], int]:
    try:
        ledger = _take_option(args, "--ledger") or DEFAULT_LEDGER
        bench = _take_option(args, "--bench")
    except ValueError as error:
        print(f"history: {error}")
        return None, "", None, 2
    if not os.path.exists(ledger):
        print(f"history: no ledger at {ledger} (run `history record` first)")
        return None, ledger, bench, 2
    records, problems = read_ledger(ledger)
    for problem in problems:
        print(f"warning: {problem}")
    return records, ledger, bench, 0


def _show(args: list[str]) -> int:
    records, _ledger, bench, status = _load(args)
    if records is None:
        return status
    try:
        last = _take_option(args, "--last")
    except ValueError as error:
        print(f"history show: {error}")
        return 2
    if bench is not None:
        records = [row for row in records if row["bench"] == bench]
    print(render_show_table(records, last=int(last) if last else None))
    return 0


def _trend(args: list[str]) -> int:
    records, _ledger, bench, status = _load(args)
    if records is None:
        return status
    try:
        last = _take_option(args, "--last")
        window = _take_option(args, "--window")
        tolerance = _take_option(args, "--tolerance")
    except ValueError as error:
        print(f"history trend: {error}")
        return 2
    trends = compute_trends(
        records,
        window=int(window) if window else DEFAULT_WINDOW,
        tolerance=float(tolerance) if tolerance else DEFAULT_TOLERANCE,
        last=int(last) if last else None,
        bench=bench)
    print(render_trend_table(
        trends, float(tolerance) if tolerance else DEFAULT_TOLERANCE))
    return 1 if any(t.status == "regression" for t in trends) else 0


def main(argv: Sequence[str]) -> int:
    """``history record|show|trend``; exit 0 ok, 1 regression, 2 usage."""
    args = list(argv)
    if not args or args[0] not in ("record", "show", "trend"):
        print(_USAGE)
        return 2
    command, rest = args[0], args[1:]
    if command == "record":
        return _record(rest)
    if command == "show":
        return _show(rest)
    return _trend(rest)
