"""Benchmark: PS^na exploration (Fig 5) with budget/feature ablations.

DESIGN.md ablations (a)/(b): the cost and behavioral effect of the
promise budget, of promise steps altogether, of the multi-message
non-atomic write rule (Appendix B), and of the lower step (Appendix E).
"""

import pytest

from repro.lang import parse
from repro.psna import PsConfig, explore

LB = ["a := x_rlx; y_rlx := a; return a;",
      "b := y_rlx; x_rlx := 1; return b;"]
MP = ["x_na := 1; y_rel := 1; return 0;",
      "a := y_acq; if a == 1 { b := x_na; return b; } return 9;"]
EX51 = ["a := x_na; y_rlx := 1; return a;",
        "b := y_rlx; if b == 1 { x_na := 1; } return b;"]


def _threads(sources):
    return [parse(source) for source in sources]


@pytest.mark.parametrize("name,sources", [("MP", MP), ("LB", LB),
                                          ("Ex5.1", EX51)])
def test_promise_free_exploration(benchmark, name, sources):
    threads = _threads(sources)
    config = PsConfig(allow_promises=False)
    result = benchmark(explore, threads, config)
    assert result.complete
    benchmark.extra_info["states"] = result.states
    benchmark.extra_info["behaviors"] = len(result.behaviors)


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_promise_budget_sweep(benchmark, budget):
    """Ablation (b): state-space growth with the promise budget."""
    threads = _threads(LB)
    config = PsConfig(promise_budget=budget,
                      allow_promises=budget > 0)
    result = benchmark(explore, threads, config)
    benchmark.extra_info["states"] = result.states
    has_lb = (1, 1) in result.returns()
    benchmark.extra_info["lb_observable"] = has_lb
    assert has_lb == (budget >= 1)


@pytest.mark.parametrize("intermediates", [True, False],
                         ids=["multi-message", "single-message"])
def test_na_write_rule_ablation(benchmark, intermediates):
    """Ablation (a): Appendix B's multi-message na-write rule."""
    threads = _threads([
        "a := x_na; y_rlx := a; return 0;",
        "b := y_rlx; c := freeze(b); "
        "if c == 1 { x_na := 1; print(1); } else { x_na := 2; } return 0;"])
    config = PsConfig(promise_budget=1, values=(0, 1, 2),
                      allow_na_intermediates=intermediates)
    result = benchmark(explore, threads, config)
    prints = (("print", 1),) in result.syscall_traces()
    assert prints == intermediates
    benchmark.extra_info["states"] = result.states


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "no-lower"])
def test_lower_step_ablation(benchmark, lower):
    """Appendix E: the lower step's cost on a promising workload."""
    threads = _threads(EX51)
    config = PsConfig(promise_budget=1, allow_lower=lower)
    result = benchmark(explore, threads, config)
    benchmark.extra_info["states"] = result.states


@pytest.mark.parametrize("cached", [True, False],
                         ids=["caches-on", "caches-off"])
def test_cert_cache_ablation(benchmark, cached):
    """The perf layer's headline number: certification memoization on a
    promise-enabled workload, vs. off."""
    threads = _threads(LB)
    config = PsConfig(promise_budget=1, enable_cert_cache=cached)
    result = benchmark(explore, threads, config)
    assert (1, 1) in result.returns()
    benchmark.extra_info["states"] = result.states
    benchmark.extra_info["cert_cache_hits"] = result.cert_cache_hits
    benchmark.extra_info["key_cache_hits"] = result.key_cache_hits


@pytest.mark.parametrize("threads_count", [1, 2, 3])
def test_exploration_vs_thread_count(benchmark, threads_count):
    sources = ["x_rlx := 1; a := x_rlx; return a;",
               "b := x_rlx; x_rlx := 2; return b;",
               "c := x_rlx; return c;"][:threads_count]
    config = PsConfig(allow_promises=False)
    result = benchmark(explore, _threads(sources), config)
    benchmark.extra_info["states"] = result.states
