"""Benchmark harness: times every ``bench_*.py`` and records the repo's
perf trajectory.

Provides a zero-dependency ``benchmark`` fixture (shadowing
pytest-benchmark's when that plugin is installed, so the suite runs the
same everywhere) supporting the subset the benchmarks use:
``benchmark(fn, *args)``, ``benchmark.pedantic(fn, rounds=, iterations=)``
and ``benchmark.extra_info``.

At session end, each benchmark module's entries are written through
:mod:`repro.obs.report` to ``BENCH_<name>.json`` at the repository root —
the machine-readable perf-trajectory files compared across PRs (schema
``repro-bench/1``; validate with ``python -m repro.obs
BENCH_*.json``).

``REPRO_BENCH_ROUNDS`` controls timing rounds (default 3; CI smoke uses
1).
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import defaultdict

import pytest

from repro.obs import report
from repro.obs.provenance import provenance_meta

ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "3")))

_RESULTS: dict[str, list[dict]] = defaultdict(list)


def pytest_configure(config):
    # If pytest-benchmark happens to be installed, unload it for this
    # directory's run: its makereport hook rejects any foreign
    # ``benchmark`` fixture, and this harness replaces it wholesale.
    plugin = config.pluginmanager.get_plugin("benchmark")
    if plugin is not None:
        config.pluginmanager.unregister(plugin)


class BenchmarkFixture:
    """Times a callable over N rounds; collects per-test extra info."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.extra_info: dict = {}
        self.timings: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        return self._run(fn, args, kwargs, ROUNDS)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        # Benchmarks that opt into pedantic mode are the expensive
        # whole-sweep ones; honor their (smaller) round count.
        return self._run(fn, tuple(args), kwargs or {},
                         max(1, min(rounds, ROUNDS)))

    def _run(self, fn, args, kwargs, rounds: int):
        result = None
        for _ in range(rounds):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            self.timings.append(time.perf_counter() - started)
        return result

    def entry(self) -> dict:
        timings = self.timings
        mean = sum(timings) / len(timings)
        variance = sum((t - mean) ** 2 for t in timings) / len(timings)
        return {
            "name": self.name,
            "rounds": len(timings),
            "min_s": min(timings),
            "mean_s": mean,
            "median_s": statistics.median(timings),
            "max_s": max(timings),
            "stddev_s": math.sqrt(variance),
            "extra": dict(self.extra_info),
        }


@pytest.fixture
def benchmark(request):
    fixture = BenchmarkFixture(request.node.name)
    yield fixture
    if fixture.timings:
        _RESULTS[request.node.module.__name__].append(fixture.entry())


def pytest_sessionfinish(session, exitstatus):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # git_sha/created_at/python come from repro.obs.provenance — injected
    # via REPRO_GIT_SHA/REPRO_CREATED_AT when set, so CI can pin them to
    # the checkout instead of whatever the workspace happens to be.
    meta = {"rounds": ROUNDS, **provenance_meta(root)}
    for module, entries in sorted(_RESULTS.items()):
        name = module.removeprefix("bench_")
        path = os.path.join(root, f"BENCH_{name}.json")
        report.write_bench_report(name, entries, path, meta=meta)
