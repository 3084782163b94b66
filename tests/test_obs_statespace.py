"""State-space graph telemetry: ``repro-graph/1``."""

import json

from repro.cli import main
from repro.obs.schemas import load, validate
from repro.obs.statespace import (
    GRAPH_SCHEMA,
    MAX_CURVE_POINTS,
    GraphBuilder,
    GraphRecorder,
    dedup_ratio,
    graph_payload,
    merge_stats,
    render_graph_table,
    write_graph_report,
)

SB = ["x_rlx := 1; a := y_rlx; return a;",
      "y_rlx := 1; b := x_rlx; return b;"]


class TestGraphBuilder:
    def test_node_interning_counts_dedup(self):
        builder = GraphBuilder("g")
        first, new = builder.node("A", 0)
        assert new and first == 0
        second, new = builder.node("B", 1)
        assert new and second == 1
        again, new = builder.node("A", 5)
        assert not new and again == 0
        assert builder.dedup_hits == 1 and builder.dedup_misses == 2
        # the repeat at depth 5 is not a new node, so depth stays 1
        assert builder.depth_max == 1

    def test_node_id_does_not_count_a_hit(self):
        builder = GraphBuilder("g")
        builder.node("A", 0)
        assert builder.node_id("A") == 0
        assert builder.dedup_hits == 0
        # unseen keys are interned silently too
        assert builder.node_id("B", 2) == 1
        assert builder.dedup_hits == 0 and builder.dedup_misses == 2

    def test_edges_feed_rules_and_branching(self):
        builder = GraphBuilder("g")
        src, _ = builder.node("A", 0)
        dst, _ = builder.node("B", 1)
        builder.edge(src, dst, "rule.demo.step")
        builder.edge(src, dst, "rule.demo.step")
        builder.edge(dst, src, "rule.demo.back")
        stats = builder.stats()
        assert stats["edges"] == 3
        assert stats["rules"] == {"rule.demo.step": 2, "rule.demo.back": 1}
        assert stats["branching_hist"] == {"2": 1, "1": 1}

    def test_marks_count_and_label_elements(self):
        builder = GraphBuilder("g")
        node, _ = builder.node("A", 0)
        builder.mark(node, "terminal", label="ret 0")
        stats = builder.stats()
        assert stats["terminal_states"] == 1
        elements = builder.elements()
        assert elements["nodes"][0]["flags"] == "terminal"
        assert elements["nodes"][0]["label"] == "ret 0"

    def test_element_budget_truncates_but_counts_stay_exact(self):
        builder = GraphBuilder("g", element_budget=4)
        for index in range(10):
            builder.node(index, index)
        stats = builder.stats()
        assert stats["states"] == 10
        elements = builder.elements()
        assert elements["truncated"] is True
        assert len(elements["nodes"]) <= 4

    def test_frontier_curve_decimates_deterministically(self):
        builder = GraphBuilder("g")
        for size in range(2000):
            builder.frontier(size)
        assert builder.peak_frontier == 1999
        assert builder.curve_stride > 1
        assert len(builder.curve) <= MAX_CURVE_POINTS + 1

    def test_stats_validate_as_payload(self):
        builder = GraphBuilder("g")
        builder.node("A", 0)
        payload = {"schema": GRAPH_SCHEMA, "graphs": {"g": builder.stats()}}
        assert validate(payload) == []


class TestMergeStats:
    def _stats(self, states, rule_count):
        builder = GraphBuilder("g")
        for index in range(states):
            builder.node(index, index)
        builder.edge(0, 1, "rule.demo.step")
        builder.rules["rule.demo.step"] = rule_count
        return builder.stats()

    def test_merge_is_commutative(self):
        one, two = self._stats(3, 1), self._stats(5, 4)
        forward, backward = {}, {}
        merge_stats(forward, one)
        merge_stats(forward, two)
        merge_stats(backward, two)
        merge_stats(backward, one)
        assert forward == backward
        assert forward["states"] == 8 and forward["instances"] == 2
        assert forward["rules"]["rule.demo.step"] == 5

    def test_multi_instance_drops_the_curve(self):
        builder = GraphBuilder("g")
        builder.node("A", 0)
        builder.frontier(3)
        stats = builder.stats()
        aggregate = {}
        merge_stats(aggregate, stats)
        assert aggregate["frontier_curve"] == [3]
        merge_stats(aggregate, stats)
        assert aggregate["frontier_curve"] == []

    def test_dedup_ratio(self):
        assert dedup_ratio({"dedup_hits": 3, "dedup_misses": 1}) == 0.75
        assert dedup_ratio({}) == 0.0


class TestGraphRecorder:
    def test_builders_aggregate_by_name(self):
        recorder = GraphRecorder()
        for _ in range(2):
            builder = recorder.builder("seq.game")
            builder.node("init", 0)
        graphs = recorder.graphs()
        assert graphs["seq.game"]["instances"] == 2
        assert graphs["seq.game"]["states"] == 2

    def test_elements_kept_for_first_run_only(self):
        recorder = GraphRecorder()
        first = recorder.builder("g")
        first.node("A", 0)
        first.mark(0, "terminal")
        second = recorder.builder("g")
        second.node("B", 0)
        elements = recorder.elements("g")
        assert elements["nodes"][0]["flags"] == "terminal"

    def test_snapshot_merge_matches_single_recorder(self):
        """The worker handoff: merging snapshots in order must equal
        recording everything in one process."""
        def build(recorder):
            builder = recorder.builder("g")
            builder.node("A", 0)
            builder.node("B", 1)
            builder.edge(0, 1, "rule.demo.step")

        whole = GraphRecorder()
        build(whole)
        build(whole)

        parent, worker = GraphRecorder(), GraphRecorder()
        build(parent)
        build(worker)
        parent.merge_snapshot(worker.snapshot())
        assert parent.graphs() == whole.graphs()


class TestGraphReport:
    def test_write_report_round_trips_and_validates(self, tmp_path):
        recorder = GraphRecorder()
        builder = recorder.builder("g")
        builder.node("A", 0)
        builder.node("B", 1)
        builder.edge(0, 1, "rule.demo.step")
        builder.mark(1, "terminal")
        path = str(tmp_path / "graph.json")
        written = write_graph_report(path, recorder, meta={"command": "t"})
        assert load(path)[2] == []
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["graphs"]["g"]["elements"]["nodes"][1]["flags"] \
            == "terminal"

    def test_invalid_payload_is_rejected(self):
        assert validate({"schema": "nope/1"})
        broken = {"schema": GRAPH_SCHEMA, "graphs": {"g": {"states": -1}}}
        assert any("states" in problem
                   for problem in validate(broken))

    def test_render_table_flags_truncated_runs(self):
        payload = {"schema": GRAPH_SCHEMA, "graphs": {
            "g": {"instances": 1, "states": 10, "edges": 12,
                  "dedup_hits": 5, "dedup_misses": 10, "truncations": 2,
                  "depth_max": 4, "peak_frontier": 6}}}
        table = render_graph_table(payload)
        assert "g" in table and "33.3%" in table
        assert "lower bounds" in table


class TestExploreIntegration:
    def test_explore_graph_report_matches_printed_states(self, tmp_path,
                                                         capsys):
        path = str(tmp_path / "graph.json")
        assert main(["explore", "--machine", "pf", "--graph", path,
                     *SB]) == 0
        captured = capsys.readouterr()
        printed = int(captured.out.split("states explored: ")[1]
                      .split(",")[0])
        assert load(path)[2] == []
        with open(path) as handle:
            payload = json.load(handle)
        stats = payload["graphs"]["psna.explore"]
        assert stats["states"] == printed
        assert stats["edges"] > 0
        assert all(rule.startswith("rule.psna.")
                   for rule in stats["rules"])
        assert stats["elements"]["nodes"][0]["depth"] == 0


def test_litmus_graph_stats_identical_across_jobs(capsys):
    """Acceptance: `--jobs 4 --graph-stats` prints byte-identical
    stdout (per-case graph columns + aggregate table) to `--jobs 1`."""
    def run(jobs):
        assert main(["litmus", "--graph-stats", "--jobs", jobs]) == 0
        return capsys.readouterr().out

    serial = run("1")
    assert "state-space graphs" in serial
    assert "seq.game" in serial
    assert run("4") == serial
