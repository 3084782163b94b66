"""The self-contained HTML dashboard: sections, data, zero deps."""

import json

from repro.obs import dashboard, history
from repro.obs.__main__ import main as obs_main
from repro.obs.attrib import attrib_payload
from repro.obs.report import bench_payload

SECTIONS = ("Run history", "Rule coverage", "Attribution hotspots",
            "State space", "Invariants", "Cert store", "Service",
            "Service health", "Latest fuzz campaign", "Benchmarks")


def _entry(name, min_s):
    return {"name": name, "rounds": 3, "min_s": min_s,
            "mean_s": min_s * 1.1, "median_s": min_s, "max_s": min_s * 1.3,
            "extra": {}}


def _fixture_inputs(tmp_path):
    bench = bench_payload("demo", [_entry("fast", 0.01),
                                   _entry("slow", 2.0)])
    bench["meta"] = {"git_sha": "abc1234", "created_at":
                     "2026-08-06T00:00:00Z"}
    ledger = str(tmp_path / "ledger.jsonl")
    for min_s in (0.010, 0.011, 0.012, 0.010):
        history.append_records(
            ledger, history.ledger_records(
                bench_payload("demo", [_entry("fast", min_s)]),
                sha="abc1234", stamp="2026-08-06T00:00:00Z"))
    records, _ = history.read_ledger(ledger)
    coverage = {
        "schema": "repro-coverage/1", "total": 2, "covered": 1,
        "uncovered": ["seq.machine.never"],
        "rules": [
            {"id": "psna.thread.read", "layer": "psna",
             "description": "thread read step", "count": 42},
            {"id": "seq.machine.never", "layer": "seq",
             "description": "never fired", "count": 0},
        ],
    }
    attrib = attrib_payload({("psna.explore",): [0.8, 1.0, 3],
                             ("psna.explore", "psna.cert"): [0.2, 0.2, 9]},
                            {"rule.psna.cert.success": 5})
    fuzz = "fuzz campaign seed=0 budget=10\n10 case(s), 0 failure(s)"
    graph = {
        "schema": "repro-graph/1",
        "graphs": {
            "psna.explore": {
                "instances": 1, "states": 136, "edges": 240,
                "dedup_hits": 104, "dedup_misses": 136,
                "terminal_states": 4, "bottom_states": 0,
                "stuck_states": 0, "truncations": 0,
                "depth_max": 8, "peak_frontier": 12,
                "rules": {"rule.psna.thread.read": 92,
                          "rule.psna.thread.write": 16},
                "branching_hist": {"0": 4, "2": 132},
                "depth_hist": {"0": 1, "1": 3},
                "frontier_curve": [1, 3, 7, 12, 9, 4, 1],
                "frontier_stride": 1,
            },
        },
    }
    from repro.obs.monitor import (Monitor, inject_violation,
                                   monitor_payload)

    checker = Monitor("strict", 1)
    checker.checks["psna.view.monotonic"] = 240
    inject_violation(checker, "psna.view.monotonic")
    monitor = monitor_payload(checker)
    certstore = {
        "schema": "repro-certstore/1", "directory": ".repro-cache",
        "semantics": "psna-1", "entries": 139, "segments": 1,
        "size_bytes": 5420,
        "history": [
            {"hits": 0, "misses": 139, "writes": 139, "entries": 139},
            {"hits": 139, "misses": 0, "writes": 0, "entries": 139},
            {"event": "gc", "stale_segments": 1, "dropped_entries": 0},
        ],
    }
    serve = {
        "service": "repro-serve/1", "version": "1.0.0",
        "semantics": "psna-1", "jobs": 2, "uptime_s": 42.5,
        "submitted": 65, "deduped": 64, "executed": 65, "failed": 0,
        "states": {"queued": 0, "running": 0, "done": 129, "failed": 0},
        "closed": False,
        "store": {"schema": "repro-verdict/1", "directory": "verdicts",
                  "semantics": "psna-1", "entries": 65, "segments": 1,
                  "size_bytes": 14264, "hits": 65, "misses": 65,
                  "writes": 65, "hit_rate": 0.5},
    }
    from repro.serve.metrics import ServiceMetrics

    metrics = ServiceMetrics()
    metrics.inc("requests.total", 65)
    metrics.inc("requests.kind.litmus", 65)
    metrics.inc("served.store", 32)
    metrics.inc("jobs.executed", 33)
    metrics.inc("serve.store.lru_hits", 30)
    metrics.inc("serve.store.lru_misses", 2)
    metrics.gauge("inflight", 1)
    metrics.gauge("utilization", 0.5)
    for value in (0.001, 0.0078125, 0.015625, 0.125, 0.5):
        metrics.observe("request.latency_s", value)
    for depth in (0, 2, 3, 1, 0):
        metrics.sample("queue.depth", depth)
        metrics.sample("utilization", depth / 4)
    servemetrics = metrics.snapshot()
    return {"benches": [bench], "records": records, "coverage": coverage,
            "attrib": attrib, "fuzz_summary": fuzz, "graph": graph,
            "monitor": monitor, "certstore": certstore, "serve": serve,
            "servemetrics": servemetrics}


class TestBuildDashboard:
    def test_all_sections_render_from_fixtures(self, tmp_path):
        inputs = _fixture_inputs(tmp_path)
        page = dashboard.build_dashboard(
            inputs["benches"], inputs["records"],
            coverage=inputs["coverage"], attrib=inputs["attrib"],
            fuzz_summary=inputs["fuzz_summary"], graph=inputs["graph"],
            monitor=inputs["monitor"], certstore=inputs["certstore"],
            serve=inputs["serve"],
            servemetrics=inputs["servemetrics"],
            meta={"git_sha": "abc1234", "python": "3.12.0"})
        for section in SECTIONS:
            assert section in page
        # Populated, not placeholders:
        assert "no data" not in page
        assert "class=\"none\"" not in page
        assert "<svg" in page  # history sparkline
        assert "psna.explore" in page  # attribution stack
        assert "✗ never" in page  # uncovered rule marked with icon+label
        assert "0 failure(s)" in page
        assert "rule.psna.thread.read" in page  # hottest rule edges
        assert "unique search states" in page  # state-space tile
        assert "invariant violations" in page  # monitor tile
        assert "psna.view.monotonic" in page  # invariant row
        assert "injected canary" in page  # canary status, not a red FAIL
        assert "Violation witnesses" in page  # witness capture rendered
        assert "last-run hit rate" in page  # cert-store tile
        assert "hit rate over runs" in page  # cert-store sparkline
        assert "jobs submitted" in page  # service tile
        assert "verdict store: 65 entries" in page  # service store line
        assert "latency p95" in page  # service-health tile
        assert "request latency histogram" in page  # histogram sparkline
        assert "queue depth (drainer samples)" in page  # gauge sparkline
        assert "store LRU hit rate" in page  # LRU tile

    def test_standalone_html(self, tmp_path):
        inputs = _fixture_inputs(tmp_path)
        page = dashboard.build_dashboard(inputs["benches"],
                                         inputs["records"])
        assert page.startswith("<!doctype html>")
        assert page.count("<html") == page.count("</html>") == 1
        assert page.count("<body") == page.count("</body>") == 1
        assert "<style>" in page
        # Self-contained: no external fetches of any kind.
        for needle in ("http://", "https://", "<script", "@import",
                       "url("):
            assert needle not in page

    def test_empty_inputs_still_build(self):
        page = dashboard.build_dashboard([], [])
        for section in SECTIONS:
            assert section in page
        assert "empty ledger" in page

    def test_untrusted_text_is_escaped(self):
        bench = bench_payload("<img src=x>", [_entry("<b>evil</b>", 0.1)])
        page = dashboard.build_dashboard([bench], [])
        assert "<img src=x>" not in page
        assert "<b>evil</b>" not in page


class TestSparkline:
    def test_series_renders_polyline_and_endpoint(self):
        svg = dashboard.sparkline_svg([1.0, 2.0, 1.5])
        assert "<polyline" in svg and "<circle" in svg

    def test_single_point_renders_dot_only(self):
        svg = dashboard.sparkline_svg([1.0])
        assert "<polyline" not in svg and "<circle" in svg

    def test_flat_series_does_not_divide_by_zero(self):
        assert "<polyline" in dashboard.sparkline_svg([2.0, 2.0, 2.0])


class TestDashboardCli:
    def test_writes_file_from_artifact_directory(self, tmp_path, capsys):
        bench = bench_payload("demo", [_entry("fast", 0.01)])
        (tmp_path / "BENCH_demo.json").write_text(json.dumps(bench))
        ledger = tmp_path / history.DEFAULT_LEDGER
        history.append_records(
            str(ledger), history.ledger_records(bench, sha="abc",
                                                stamp="2026-08-06T00:00:00Z"))
        from repro.obs.monitor import Monitor, write_monitor_report

        write_monitor_report(str(tmp_path / dashboard.INPUTS["monitor"][0]),
                             Monitor("strict", 1))
        out = tmp_path / "dashboard.html"
        assert obs_main(["dashboard", "--out", str(out),
                         "--root", str(tmp_path)]) == 0
        page = out.read_text()
        assert "repro dashboard" in page
        assert "fast" in page
        # monitor.json auto-discovered next to graph-stats.json
        assert "✓ clean" in page
        assert "1 ledger record(s)" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        assert obs_main(["dashboard"]) == 2
        assert "usage" in capsys.readouterr().out
