"""``repro query``: offline interrogation of observability artifacts."""

import json
import time

from repro.cli import main as cli_main
from repro.obs.query import (
    filter_events,
    main,
    render_path,
    top_values,
    witness_path,
)
from repro.obs.schemas import load
from repro.obs.statespace import GRAPH_SCHEMA

EVENTS = [
    {"ev": "meta", "schema": "repro-events/1", "seq": 0, "t": 0.0},
    {"ev": "span-enter", "name": "psna.explore", "seq": 1, "t": 0.1},
    {"ev": "state", "span": "psna.explore", "states": 500, "seq": 2,
     "t": 0.2, "case": 3},
    {"ev": "truncation", "span": "psna.explore", "reason": "state-bound",
     "last_rule": "rule.psna.thread.read", "seq": 3, "t": 0.3},
    {"ev": "coverage", "rules": {"rule.psna.thread.read": 9,
                                 "rule.seq.machine.silent": 2},
     "seq": 4, "t": 0.4},
]

ELEMENTS = {
    "nodes": [
        {"id": 0, "depth": 0, "flags": "", "label": ""},
        {"id": 1, "depth": 1, "flags": "", "label": ""},
        {"id": 2, "depth": 2, "flags": "terminal", "label": "ret (1, 0)"},
        {"id": 3, "depth": 1, "flags": "", "label": ""},
    ],
    "edges": [[0, 1, "rule.demo.a"], [1, 2, "rule.demo.b"],
              [0, 3, "rule.demo.c"]],
    "truncated": False,
}

GRAPH = {
    "schema": GRAPH_SCHEMA,
    "graphs": {"g": {
        "instances": 1, "states": 4, "edges": 3, "dedup_hits": 1,
        "dedup_misses": 4, "terminal_states": 1, "bottom_states": 0,
        "stuck_states": 0, "truncations": 0, "depth_max": 2,
        "peak_frontier": 2,
        "rules": {"rule.demo.a": 1, "rule.demo.b": 1, "rule.demo.c": 1},
        "branching_hist": {"0": 2, "1": 1, "2": 1},
        "depth_hist": {"0": 1, "1": 2, "2": 1},
        "frontier_curve": [1, 2, 1], "frontier_stride": 1,
        "elements": ELEMENTS,
    }},
}


def _write_events(tmp_path, events=EVENTS):
    path = tmp_path / "events.ndjson"
    path.write_text("".join(json.dumps(event) + "\n" for event in events))
    return str(path)


def _write_graph(tmp_path, payload=GRAPH):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadArtifact:
    def test_detects_graph_reports(self, tmp_path):
        kind, data, _problems = load(_write_graph(tmp_path))
        assert kind == GRAPH_SCHEMA and "g" in data["graphs"]

    def test_detects_event_streams(self, tmp_path):
        kind, data, _problems = load(_write_events(tmp_path))
        assert kind == "repro-events/1" and len(data) == len(EVENTS)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not json at all\n")
        _kind, data, problems = load(str(path))
        assert any("not JSON" in problem for problem in problems)


class TestFilters:
    def test_kind_filter(self):
        assert [e["ev"] for e in filter_events(EVENTS, kind="state")] \
            == ["state"]

    def test_span_filter_matches_span_or_name(self):
        matched = filter_events(EVENTS, span="psna.explore")
        assert {e["ev"] for e in matched} \
            == {"span-enter", "state", "truncation"}

    def test_rule_filter_is_substring_and_reads_histograms(self):
        matched = filter_events(EVENTS, rule="thread.read")
        assert {e["ev"] for e in matched} == {"truncation", "coverage"}

    def test_case_filter(self):
        assert [e["ev"] for e in filter_events(EVENTS, case=3)] == ["state"]

    def test_filters_compose(self):
        assert filter_events(EVENTS, kind="state", case=99) == []


class TestTopValues:
    def test_scalar_field(self):
        ranked = top_values(EVENTS, "ev", 2)
        assert len(ranked) == 2 and ranked[0][1] == 1

    def test_histogram_field_folds_weights(self):
        ranked = top_values(EVENTS, "rules", 5)
        assert ranked[0] == ("rule.psna.thread.read", 9)
        assert ranked[1] == ("rule.seq.machine.silent", 2)


class TestWitnessPath:
    def test_path_to_flag(self):
        path = witness_path(ELEMENTS, "terminal")
        assert [entry["node"] for entry in path] == [0, 1, 2]
        assert [entry["via"] for entry in path] \
            == [None, "rule.demo.a", "rule.demo.b"]
        text = render_path(path)
        assert "2 step(s)" in text and "rule.demo.b" in text

    def test_path_to_label_substring(self):
        path = witness_path(ELEMENTS, "(1, 0)")
        assert path[-1]["node"] == 2

    def test_unreachable_selector(self):
        assert witness_path(ELEMENTS, "bottom") is None


class TestQueryCli:
    def test_graph_summary(self, tmp_path, capsys):
        assert main([_write_graph(tmp_path)]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["graph"] == "g" and row["states"] == 4

    def test_graph_top_rules(self, tmp_path, capsys):
        assert main([_write_graph(tmp_path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "rule.demo.a" in out and "rule.demo.c" not in out

    def test_graph_path_to(self, tmp_path, capsys):
        assert main([_write_graph(tmp_path), "--path-to", "terminal"]) == 0
        assert "witness path" in capsys.readouterr().out

    def test_path_to_without_elements_is_an_error(self, tmp_path, capsys):
        stripped = json.loads(json.dumps(GRAPH))
        del stripped["graphs"]["g"]["elements"]
        path = tmp_path / "stats-only.json"
        path.write_text(json.dumps(stripped))
        assert main([str(path), "--path-to", "terminal"]) == 2
        assert "no elements" in capsys.readouterr().err

    def test_event_filter_prints_ndjson(self, tmp_path, capsys):
        assert main([_write_events(tmp_path), "--kind", "truncation"]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["reason"] == "state-bound"

    def test_no_match_exits_one(self, tmp_path, capsys):
        assert main([_write_events(tmp_path), "--kind", "nope"]) == 1

    def test_unreadable_artifact_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.ndjson")]) == 2
        assert "error" in capsys.readouterr().err

    def test_repro_query_subcommand(self, tmp_path, capsys):
        """The same queries run through `repro query`."""
        assert cli_main(["query", _write_events(tmp_path),
                         "--rule", "thread.read", "--top", "3",
                         "--by", "rules"]) == 0
        out = capsys.readouterr().out
        assert "rule.psna.thread.read" in out

    def test_follow_closed_stream_prints_matches_and_exits_zero(
            self, tmp_path, capsys):
        """A stream whose writer already closed (final ``coverage``
        line present) drains in one poll and exits 0 without waiting
        for the idle timeout."""
        assert main([_write_events(tmp_path), "--follow",
                     "--kind", "truncation", "--poll", "0.01"]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["reason"] == "state-bound"

    def test_follow_tails_a_live_writer(self, tmp_path, capsys):
        """Events appended after the follow starts are still seen —
        including a line the writer flushes in two partial chunks."""
        import threading
        import time

        path = tmp_path / "live.ndjson"
        path.write_text("")

        def writer():
            with open(path, "a") as handle:
                for event in EVENTS[:-1]:
                    time.sleep(0.05)
                    handle.write(json.dumps(event) + "\n")
                    handle.flush()
                closing = json.dumps(EVENTS[-1]) + "\n"
                handle.write(closing[:10])
                handle.flush()
                time.sleep(0.05)
                handle.write(closing[10:])

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert main([str(path), "--follow", "--kind", "state",
                         "--poll", "0.01", "--idle-timeout", "10"]) == 0
        finally:
            thread.join()
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["states"] == 500

    def test_follow_without_match_exits_one(self, tmp_path, capsys):
        assert main([_write_events(tmp_path), "--follow", "--kind",
                     "nope", "--poll", "0.01"]) == 1

    def test_follow_idle_timeout_covers_unclosed_streams(
            self, tmp_path, capsys):
        """No ``coverage`` sentinel: the idle timeout ends the follow,
        exit status still reflects whether anything matched."""
        path = tmp_path / "unclosed.ndjson"
        path.write_text(json.dumps(EVENTS[1]) + "\n")
        assert main([str(path), "--follow", "--kind", "span-enter",
                     "--poll", "0.01", "--idle-timeout", "0.2"]) == 0
        assert main([str(path), "--follow", "--kind", "nope",
                     "--poll", "0.01", "--idle-timeout", "0.2"]) == 1

    def test_follow_exits_on_stream_end_sentinel(self, tmp_path, capsys):
        """Service job streams end with ``stream-end`` instead of a
        ``coverage`` line (cached jobs carry no rule counters); the
        follow must exit on it immediately, not wait out the idle
        timeout."""
        path = tmp_path / "job.ndjson"
        path.write_text(json.dumps({"ev": "state", "states": 500}) + "\n"
                        + json.dumps({"ev": "stream-end",
                                      "job": "j-xyz"}) + "\n")
        started = time.monotonic()
        assert main([str(path), "--follow", "--kind", "state",
                     "--poll", "0.01", "--idle-timeout", "30"]) == 0
        assert time.monotonic() - started < 5.0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["states"] == 500

    def test_follow_partial_line_dribble_trips_idle_timeout(
            self, tmp_path, capsys):
        """A writer that keeps appending bytes without ever finishing a
        line is not alive: only complete lines reset the idle deadline,
        so the follow still terminates."""
        import threading

        path = tmp_path / "dribble.ndjson"
        path.write_text(json.dumps(EVENTS[1]) + "\n")
        stop = threading.Event()

        def dribbler():
            with open(path, "a") as handle:
                while not stop.is_set():
                    handle.write("x")
                    handle.flush()
                    time.sleep(0.02)

        thread = threading.Thread(target=dribbler)
        thread.start()
        try:
            started = time.monotonic()
            assert main([str(path), "--follow", "--kind", "span-enter",
                         "--poll", "0.01", "--idle-timeout", "0.3"]) == 0
            assert time.monotonic() - started < 5.0
        finally:
            stop.set()
            thread.join()

    def test_follow_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "never.ndjson"), "--follow",
                     "--poll", "0.01", "--idle-timeout", "0.2"]) == 2
        assert "did not appear" in capsys.readouterr().err

    def test_follow_rejects_graph_queries(self, tmp_path, capsys):
        assert main([_write_events(tmp_path), "--follow",
                     "--top", "3"]) == 2
        assert "--follow" in capsys.readouterr().err

    def test_end_to_end_stream_then_query(self, tmp_path, capsys):
        """Stream a real run, then extract its truncation events."""
        stream = str(tmp_path / "run.ndjson")
        assert cli_main(["explore", "--machine", "pf", "--max-states", "5",
                         "--stream", stream,
                         "x_rlx := 1; a := y_rlx; return a;",
                         "y_rlx := 1; b := x_rlx; return b;"]) == 0
        capsys.readouterr()
        assert cli_main(["query", stream, "--kind", "truncation"]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["span"] == "psna.explore"


class TestMetricsArtifacts:
    """``repro query`` over ``repro-servemetrics/1`` snapshots."""

    def _write_metrics(self, tmp_path):
        from repro.serve.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.inc("requests.total", 6)
        metrics.inc("requests.kind.litmus", 6)
        metrics.gauge("queue.depth", 2)
        for value in (0.001, 0.015625, 0.25):
            metrics.observe("request.latency_s", value)
        path = tmp_path / "servemetrics.json"
        path.write_text(json.dumps(metrics.snapshot()))
        return str(path)

    def test_auto_detection_prints_metric_rows(self, tmp_path, capsys):
        assert main([self._write_metrics(tmp_path)]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert all(row["ev"] == "metric" for row in rows)
        names = {row["name"] for row in rows}
        assert "requests.total" in names
        assert "request.latency_s" in names

    def test_kind_metrics_forces_the_reading(self, tmp_path, capsys):
        assert main([self._write_metrics(tmp_path),
                     "--kind", "metrics"]) == 0
        assert capsys.readouterr().out

    def test_kind_metrics_on_other_artifacts_is_an_error(self, tmp_path,
                                                         capsys):
        assert main([_write_events(tmp_path),
                     "--kind", "metrics"]) == 2
        assert "metrics" in capsys.readouterr().err

    def test_top_by_buckets_folds_the_histogram(self, tmp_path, capsys):
        assert main([self._write_metrics(tmp_path), "--top", "3",
                     "--by", "buckets"]) == 0
        out = capsys.readouterr().out
        assert "0.001" in out  # the populated bucket bound appears

    def test_span_filter_selects_one_metric_by_name(self, tmp_path,
                                                    capsys):
        assert main([self._write_metrics(tmp_path),
                     "--span", "request.latency_s"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [row["name"] for row in rows] == ["request.latency_s"]
        assert main([self._write_metrics(tmp_path),
                     "--span", "no.such.metric"]) == 1
