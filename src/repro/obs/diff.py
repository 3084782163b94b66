"""Perf-regression diffing of ``repro-bench/1`` reports.

The benchmark harness writes ``BENCH_<name>.json`` files at the repo
root — the perf trajectory tracked across PRs.  This module is the first
consumer: it compares two bench reports entry-by-entry and fails loudly
when a benchmark got slower than the tolerance allows::

    python -m repro.obs diff OLD.json NEW.json [--tolerance 0.25]
    python -m repro.obs diff OLD_DIR/ NEW_DIR/ [--tolerance 0.25]

In directory mode both arguments are directories of ``BENCH_*.json``
files: the intersection (by file name) is diffed pairwise, files
present on only one side produce a warning but (by default) never fail
the diff, and the exit code aggregates across all pairs.  With
``--strict``, an asymmetric directory pair exits 3 — a benchmark that
silently disappeared is a coverage hole, and CI can now gate on it.

Entries pair by ``name``.  The compared statistic is ``min_s`` — the
minimum over rounds is the standard low-noise point estimate for
wall-clock microbenchmarks (mean and max fold in scheduler noise).  An
entry regresses when ``new.min_s > old.min_s * (1 + tolerance)``;
improvements, added entries, and removed entries are reported but never
fail the diff.  Exit codes: 0 (no regression), 1 (regression), 2 (usage
or unreadable/invalid input), 3 (``--strict`` directory asymmetry).
Severity order for aggregation: 2 > 3 > 1 > 0.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .schemas import BENCH_SCHEMA, load

DEFAULT_TOLERANCE = 0.25

#: Per-entry verdicts, in rendering order.
OK, REGRESSION, IMPROVED, ADDED, REMOVED = (
    "ok", "regression", "improved", "added", "removed")


@dataclass(frozen=True)
class EntryDiff:
    """One benchmark entry compared across two reports."""

    name: str
    status: str
    old_min_s: Optional[float] = None
    new_min_s: Optional[float] = None

    @property
    def ratio(self) -> Optional[float]:
        """``new/old`` slowdown factor; None without both sides."""
        if not self.old_min_s or self.new_min_s is None:
            return None
        return self.new_min_s / self.old_min_s


@dataclass
class BenchDiff:
    """The full comparison of two ``repro-bench/1`` payloads."""

    bench: str
    tolerance: float
    entries: list[EntryDiff]

    @property
    def regressions(self) -> list[EntryDiff]:
        return [e for e in self.entries if e.status == REGRESSION]

    @property
    def ok(self) -> bool:
        return not self.regressions


def diff_bench_payloads(old: dict, new: dict,
                        tolerance: float = DEFAULT_TOLERANCE) -> BenchDiff:
    """Compare two validated bench payloads entry-by-entry."""
    old_entries = {entry["name"]: entry for entry in old["entries"]}
    new_entries = {entry["name"]: entry for entry in new["entries"]}
    result = BenchDiff(new.get("bench", old.get("bench", "?")), tolerance, [])
    for name in sorted(set(old_entries) | set(new_entries)):
        before = old_entries.get(name)
        after = new_entries.get(name)
        if before is None:
            result.entries.append(
                EntryDiff(name, ADDED, None, after["min_s"]))
            continue
        if after is None:
            result.entries.append(
                EntryDiff(name, REMOVED, before["min_s"], None))
            continue
        old_min, new_min = before["min_s"], after["min_s"]
        if new_min > old_min * (1.0 + tolerance):
            status = REGRESSION
        elif old_min > 0 and new_min < old_min / (1.0 + tolerance):
            status = IMPROVED
        else:
            status = OK
        result.entries.append(EntryDiff(name, status, old_min, new_min))
    return result


def render_diff_table(diff: BenchDiff) -> str:
    """A human-readable comparison table, regressions loud."""
    if not diff.entries:
        return f"-- bench diff {diff.bench}: no entries --"
    width = max(len(entry.name) for entry in diff.entries)
    lines = [f"-- bench diff {diff.bench} "
             f"(tolerance {diff.tolerance:.0%}) --",
             f"{'entry':<{width}}  {'old_min_s':>10}  {'new_min_s':>10}  "
             f"{'ratio':>6}  status"]
    for entry in diff.entries:
        old = f"{entry.old_min_s:.6f}" if entry.old_min_s is not None else "-"
        new = f"{entry.new_min_s:.6f}" if entry.new_min_s is not None else "-"
        ratio = f"{entry.ratio:.2f}x" if entry.ratio is not None else "-"
        status = entry.status.upper() if entry.status == REGRESSION \
            else entry.status
        lines.append(f"{entry.name:<{width}}  {old:>10}  {new:>10}  "
                     f"{ratio:>6}  {status}")
    bad = diff.regressions
    if bad:
        lines.append(f"!! {len(bad)} regression(s) beyond "
                     f"{diff.tolerance:.0%}: "
                     + ", ".join(entry.name for entry in bad))
    else:
        lines.append("no regressions")
    return "\n".join(lines)


def _diff_files(old_path: str, new_path: str, tolerance: float) -> int:
    _, old, old_problems = load(old_path, BENCH_SCHEMA)
    _, new, new_problems = load(new_path, BENCH_SCHEMA)
    problems = ([f"{old_path}: {problem}" for problem in old_problems]
                + [f"{new_path}: {problem}" for problem in new_problems])
    for problem in problems:
        print(problem)
    if problems:
        return 2
    diff = diff_bench_payloads(old, new, tolerance)
    print(render_diff_table(diff))
    return 0 if diff.ok else 1


#: Exit-code severity for aggregation: unreadable input dominates the
#: strict-asymmetry code, which dominates a plain regression.
_SEVERITY = {0: 0, 1: 1, 3: 2, 2: 3}


def _worse(a: int, b: int) -> int:
    return a if _SEVERITY.get(a, 3) >= _SEVERITY.get(b, 3) else b


def _diff_directories(old_dir: str, new_dir: str, tolerance: float,
                      strict: bool = False) -> int:
    """Diff the BENCH_*.json intersection of two directories.

    Asymmetric files warn; with ``strict`` they additionally make the
    exit code 3 (unless a worse per-pair code dominates).  The exit
    code aggregates per-pair codes by severity (2 > 3 > 1 > 0),
    preserving the single-file semantics.
    """
    old_names = {os.path.basename(path) for path
                 in glob.glob(os.path.join(old_dir, "BENCH_*.json"))}
    new_names = {os.path.basename(path) for path
                 in glob.glob(os.path.join(new_dir, "BENCH_*.json"))}
    for name in sorted(old_names - new_names):
        print(f"warning: {name} only in {old_dir} (skipped)")
    for name in sorted(new_names - old_names):
        print(f"warning: {name} only in {new_dir} (skipped)")
    shared = sorted(old_names & new_names)
    if not shared:
        print(f"diff: no common BENCH_*.json files between "
              f"{old_dir} and {new_dir}")
        return 2
    worst = 0
    for name in shared:
        code = _diff_files(os.path.join(old_dir, name),
                           os.path.join(new_dir, name), tolerance)
        worst = _worse(worst, code)
    if strict and old_names != new_names:
        asymmetric = sorted((old_names - new_names) | (new_names - old_names))
        print(f"diff: --strict: {len(asymmetric)} file(s) present on only "
              f"one side: {', '.join(asymmetric)}")
        worst = _worse(worst, 3)
    return worst


def main(argv: Sequence[str]) -> int:
    """CLI: ``diff OLD NEW [--tolerance T] [--strict]`` over files or
    directories; exit 0/1/2/3."""
    args = list(argv)
    tolerance = DEFAULT_TOLERANCE
    strict = False
    if "--strict" in args:
        strict = True
        args.remove("--strict")
    if "--tolerance" in args:
        index = args.index("--tolerance")
        try:
            tolerance = float(args[index + 1])
        except (IndexError, ValueError):
            print("diff: --tolerance needs a number (e.g. 0.25)")
            return 2
        del args[index:index + 2]
    if len(args) != 2:
        print("usage: python -m repro.obs diff OLD NEW "
              "[--tolerance 0.25] [--strict]  (OLD/NEW: two bench files "
              "or two directories of BENCH_*.json)")
        return 2
    old_is_dir, new_is_dir = os.path.isdir(args[0]), os.path.isdir(args[1])
    if old_is_dir != new_is_dir:
        print(f"diff: {args[0]} and {args[1]} must both be files or "
              f"both be directories")
        return 2
    if old_is_dir:
        return _diff_directories(args[0], args[1], tolerance, strict=strict)
    return _diff_files(args[0], args[1], tolerance)
