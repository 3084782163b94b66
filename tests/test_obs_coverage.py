"""Semantic rule coverage: the universe, the workload, the report."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import coverage
from repro.obs.metrics import MetricsRegistry
from repro.obs.schemas import load, validate


def _payload_after(**workload_kwargs):
    with obs.session() as session:
        coverage.run_coverage_workload(**workload_kwargs)
        snapshot = session.metrics.snapshot()
    return coverage.coverage_payload(snapshot)


class TestRuleUniverse:
    def test_universe_spans_all_layers(self):
        layers = {rule.layer for rule in coverage.ALL_RULES}
        assert layers == {"psna-thread", "psna-machine", "psna-cert",
                          "psna-sc", "seq-machine", "seq-game"}

    def test_rule_ids_unique(self):
        ids = [rule.id for rule in coverage.ALL_RULES]
        assert len(ids) == len(set(ids))

    def test_every_rule_has_description(self):
        assert all(rule.description for rule in coverage.ALL_RULES)


class TestWorkloadCoverage:
    def test_full_workload_fires_every_rule(self):
        """Acceptance: every PS^na and SEQ rule fires at least once."""
        payload = _payload_after(litmus=True, extended=True)
        assert payload["uncovered"] == []
        assert payload["covered"] == payload["total"] == len(
            coverage.ALL_RULES)
        assert payload["unknown_rules"] == []

    def test_targeted_workload_alone_misses_game_rules(self):
        # Without the catalog the advanced-game rules cannot fire — the
        # report must name them rather than hide the gap.
        payload = _payload_after(litmus=False)
        assert "seq.game.oracle-query" in payload["uncovered"]
        assert payload["covered"] < payload["total"]

    def test_workload_requires_active_session(self):
        with pytest.raises(RuntimeError, match="active"):
            coverage.run_coverage_workload(litmus=False)


class TestPayload:
    def _snapshot(self, **counters):
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.inc(name.replace("__", "."), value)
        return registry.snapshot()

    def test_rule_counters_extraction(self):
        snapshot = self._snapshot(**{"rule.psna.thread.read": 3,
                                     "psna.explore.states": 9})
        assert coverage.rule_counters(snapshot) == {"psna.thread.read": 3}

    def test_payload_counts_and_uncovered(self):
        snapshot = self._snapshot(**{"rule.psna.thread.read": 2})
        payload = coverage.coverage_payload(snapshot)
        by_id = {row["id"]: row for row in payload["rules"]}
        assert by_id["psna.thread.read"]["count"] == 2
        assert "psna.thread.write" in payload["uncovered"]
        assert payload["covered"] == 1

    def test_unknown_rule_counter_reported(self):
        snapshot = self._snapshot(**{"rule.no.such.rule": 1})
        payload = coverage.coverage_payload(snapshot)
        assert payload["unknown_rules"] == ["no.such.rule"]

    def test_validate_accepts_own_payload(self):
        payload = coverage.coverage_payload(self._snapshot())
        assert validate(payload) == []

    def test_validate_rejects_bad_schema(self):
        payload = coverage.coverage_payload(self._snapshot())
        payload["schema"] = "nope/9"
        assert any("schema" in problem for problem in
                   validate(payload))

    def test_validate_rejects_inconsistent_uncovered(self):
        payload = coverage.coverage_payload(self._snapshot())
        payload["uncovered"] = []
        assert any("uncovered" in problem for problem in
                   validate(payload))

    def test_render_table_is_loud_about_gaps(self):
        payload = coverage.coverage_payload(
            self._snapshot(**{"rule.psna.thread.read": 5}))
        table = coverage.render_coverage_table(payload)
        assert "NEVER FIRED" in table
        assert "psna.thread.write" in table
        assert "[psna-thread]" in table

    def test_render_table_clean_when_complete(self):
        registry = MetricsRegistry()
        for rule in coverage.ALL_RULES:
            registry.inc(coverage.RULE_PREFIX + rule.id)
        table = coverage.render_coverage_table(
            coverage.coverage_payload(registry.snapshot()))
        assert "NEVER" not in table
        assert "all rules fired" in table

    def test_write_report_validates_through_dispatcher(self, tmp_path):
        path = str(tmp_path / "coverage.json")
        coverage.write_coverage_report(path, self._snapshot())
        assert load(path)[2] == []
        payload = json.loads(open(path).read())
        assert payload["schema"] == coverage.COVERAGE_SCHEMA


class TestCollector:
    def test_sessions_merge_into_collector(self):
        collector = MetricsRegistry()
        previous = obs.collect_into(collector)
        try:
            with obs.session():
                obs.inc("rule.psna.thread.read", 2)
            with obs.session():
                obs.inc("rule.psna.thread.read", 3)
        finally:
            obs.collect_into(previous)
        assert collector.counters["rule.psna.thread.read"] == 5

    def test_uninstall_restores_previous(self):
        collector = MetricsRegistry()
        previous = obs.collect_into(collector)
        assert obs.collect_into(previous) is collector
        with obs.session():
            obs.inc("rule.psna.thread.read")
        assert collector.counters == {}


class TestPytestPlugin:
    def test_plugin_collects_and_writes_report(self, tmp_path, monkeypatch):
        from repro.obs import pytest_plugin as plugin

        path = tmp_path / "rules.json"
        monkeypatch.setenv("REPRO_COVERAGE", str(path))
        # The suite itself may be running under this very plugin; driving
        # the hooks must not clobber the outer run's state.
        saved = (plugin._REGISTRY, plugin._PREVIOUS)
        plugin.pytest_configure(config=None)
        try:
            with obs.session():
                obs.inc("rule.psna.thread.read")
            lines = []

            class Reporter:
                def write_line(self, line):
                    lines.append(line)

            plugin.pytest_terminal_summary(Reporter(), exitstatus=0,
                                           config=None)
        finally:
            plugin.pytest_unconfigure(config=None)
            plugin._REGISTRY, plugin._PREVIOUS = saved
        payload = json.loads(path.read_text())
        assert payload["schema"] == coverage.COVERAGE_SCHEMA
        assert any("rule coverage" in line for line in lines)
        assert any("NEVER FIRED" in line for line in lines)
        assert not obs.enabled()


class TestCoverageCli:
    def test_cli_full_litmus_coverage(self, capsys, tmp_path):
        """Acceptance: `repro coverage --litmus` covers every rule."""
        path = str(tmp_path / "coverage.json")
        assert main(["coverage", "--litmus", "--extended",
                     "--json", path]) == 0
        out = capsys.readouterr().out
        assert "all rules fired" in out
        payload = json.loads(open(path).read())
        assert payload["uncovered"] == []
        assert load(path)[2] == []

    def test_cli_strict_fails_on_gaps(self, capsys):
        assert main(["coverage", "--strict"]) == 1
        captured = capsys.readouterr()
        assert "NEVER FIRED" in captured.out
        assert "never fired" in captured.err

    def test_cli_gaps_not_fatal_without_strict(self, capsys):
        assert main(["coverage"]) == 0
        assert "NEVER FIRED" in capsys.readouterr().out
