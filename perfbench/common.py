"""Shared pieces of the benchmark: paths, scratch space, the op loop, results.

Everything the benchmark writes goes under the checkout it runs from:
``.perfbench-tmp/`` for per-run scratch directories (removed when the run
ends) and ``.perfbench-out/`` for run records and traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A run's measured part stops early (at a round boundary) only once it
#: has taken this many times its nominal length, or ``MAX_MEASURE_S``.
MAX_RUN_FACTOR = 2.5
MAX_MEASURE_S = 140.0


class Unsound(Exception):
    """A verdict accepted what the reference rejects."""


class Failed(Exception):
    """An op did not produce the reference verdict (spurious rejection,
    incomplete verdict, HTTP error, wrong output)."""


def notion_reference(expected: str, measured: str, complete: bool) -> None:
    """Compare a measured verdict (``simple``/``advanced``/``invalid``)
    with the catalog's hand-written one.  Claiming a transformation valid
    that the paper calls invalid, or simple where the paper needs the
    advanced notion, is unsound; the other mismatches are failures."""
    if not complete:
        raise Failed("incomplete verdict")
    if measured == expected:
        return
    if expected == "invalid" or (expected == "advanced"
                                 and measured == "simple"):
        raise Unsound(f"checker says {measured}, paper says {expected}")
    raise Failed(f"checker says {measured}, paper says {expected}")


class Scratch:
    """Fresh per-run directories under the checkout, removed on exit.

    ``cache`` is what ``REPRO_CACHE_DIR`` points at for this process and
    every child, so no run reads or writes the repository's own
    ``.repro-cache/``; ``TMPDIR`` points into the scratch directory too.
    """

    def __enter__(self) -> "Scratch":
        os.makedirs(TMP_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=TMP_DIR)
        self.cache = self.fresh("cache")
        os.environ["REPRO_CACHE_DIR"] = self.cache
        os.environ["TMPDIR"] = self.path
        tempfile.tempdir = self.path
        return self

    def fresh(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.path)

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass  # another run's scratch is still there


def child_env(cache_dir: str, hash_seed: Optional[int] = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    env["TMPDIR"] = os.path.dirname(cache_dir)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed % 4294967296)
    return env


def run_child(argv: list[str], env: Optional[dict] = None,
              timeout: Optional[float] = None) -> tuple[int, str]:
    """Run a benchmark child process; returns its exit code and stdout.
    If this process unwinds first, the child gets SIGTERM, so it stops
    its own servers and removes its scratch directory before exiting."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.terminate()
        proc.communicate()
        raise
    return proc.returncode, out


def digest(items: Iterable[str]) -> str:
    """A short content digest of a workload's generated inputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def setup_probe(workload: str, seed: int, cache_dir: str) -> float:
    """Seconds from spawning a fresh interpreter until it has done the
    workload's set-up (imports, input generation, warm-up) and says so."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed), "--setup-probe"]
    started = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(cache_dir), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-400:]}")
    return elapsed


@dataclass
class OpLog:
    """Outcomes of a closed-loop run: one latency per attempted op.

    A failed op counts as missing the per-op limit: its latency sample is
    at least ``limit_s``.
    """

    limit_s: float
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    unsound: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def record(self, label: str, started: float, ended: float,
               error: Optional[BaseException]) -> None:
        latency = ended - started
        if error is None and latency > self.limit_s:
            error = Failed(f"over the {self.limit_s:.0f} s per-op limit")
        if isinstance(error, Unsound):
            self.unsound.append(f"{label}: {error}")
        if error is not None:
            self.failures.append(f"{label}: {type(error).__name__}: "
                                 f"{error}"[:300])
            latency = max(latency, self.limit_s)
        self.latencies.append(latency)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_op(log: OpLog, label: str, fn: Callable[[], None]) -> None:
    started = time.perf_counter()
    error: Optional[BaseException] = None
    try:
        fn()
    except Exception as exc:  # every op failure is counted, never fatal
        error = exc
    log.record(label, started, time.perf_counter(), error)


def round_count(seconds: float, rounds_per_s: float) -> int:
    """How many rounds a run of ``seconds`` does: the workload's nominal
    rate (rounds per second, as measured on a 2-core Linux VM) times
    the run length, at least one.  The count depends on the arguments
    only, never on the machine's speed during the run, so two runs with
    the same seed attempt the same ops and fail the same ones."""
    return max(1, round(seconds * rounds_per_s))


def closed_loop(rounds: Iterable[list[tuple[str, Callable[[], None]]]],
                count: int, limit_s: float, cap_s: float) -> OpLog:
    """One caller: start the next op only after the previous one ended.

    Runs ``count`` whole rounds, so every run with the same seed does the
    same work.  Only a run that is still going after ``cap_s`` seconds
    stops early, at a round boundary, and says so on standard error.
    """
    log = OpLog(limit_s)
    started = time.perf_counter()
    for done, batch in enumerate(rounds):
        if done == count:
            break
        if done and time.perf_counter() - started > cap_s:
            print(f"perfbench: stopped after {done} of {count} rounds, "
                  f"past the {cap_s:.0f} s cap", file=sys.stderr)
            break
        for label, fn in batch:
            run_op(log, label, fn)
    log.elapsed_s = time.perf_counter() - started
    return log


def run_cap_s(seconds: float) -> float:
    """Wall-time cap of a run's measured part: ``MAX_RUN_FACTOR`` times
    its nominal length, and never so long that the run misses the
    three-minute limit."""
    return min(MAX_RUN_FACTOR * seconds, MAX_MEASURE_S)


def latency_metrics(log: OpLog) -> dict:
    samples = sorted(log.latencies)
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 \
        else samples[0]
    ok = log.attempted - log.failed
    return {
        "verdict_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "verdict_p90_ms": (p90 * 1e3, "ms"),
        "throughput_ops_s": (ok / log.elapsed_s, "ops/s"),
        "ok_share": (ok / log.attempted, "ratio"),
    }


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    """What one benchmark run prints: correctness, op counts, metrics."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    details: dict = field(default_factory=dict)

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })

    def table(self) -> str:
        width = max(len(name) for name in self.metrics)
        lines = [f"{self.workload}: correct={self.correct} "
                 f"attempted={self.attempted} failed={self.failed} "
                 f"failed_share={self.failed / self.attempted:.4f}"]
        for name, (value, unit) in self.metrics.items():
            lines.append(f"  {name:<{width}}  {value:>12.4f} {unit}")
        for key, value in self.details.items():
            if key != "failures":
                lines.append(f"  [{key}] {value}")
        for failure in self.details.get("failures", [])[:10]:
            lines.append(f"  ! {failure}")
        return "\n".join(lines)

    def save(self, name: str) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        record = {"workload": self.workload, "correct": self.correct,
                  "attempted": self.attempted, "failed": self.failed,
                  "metrics": {k: v for k, (v, _u) in self.metrics.items()},
                  **self.details}
        with open(os.path.join(OUT_DIR, name), "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True, default=str)


def loop_result(workload: str, log: OpLog, setup_s: float, rss_mb: float,
                details: dict) -> Result:
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(latency_metrics(log))
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    beyond = sum(1 for x in log.latencies
                 if x > metrics["verdict_p90_ms"][0] / 1e3)
    details = dict(details, samples=log.attempted, beyond_p90=beyond,
                   elapsed_s=round(log.elapsed_s, 3),
                   failures=log.failures, unsound=log.unsound)
    return Result(workload, not log.unsound, log.attempted, log.failed,
                  metrics, details)
