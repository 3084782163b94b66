"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SLF_SRC = "x_na := 1; b := x_na; return b;"
SLF_TGT = "x_na := 1; b := 1; return b;"
BAD_TGT = "x_na := 1; a := x_na; return a;"
BAD_SRC = "a := x_na; x_na := 1; return a;"


class TestValidate:
    def test_valid_transformation(self, capsys):
        assert main(["validate", SLF_SRC, SLF_TGT]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out and "simple" in out

    def test_invalid_transformation(self, capsys):
        assert main(["validate", BAD_SRC, BAD_TGT]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "target trace" in out

    def test_advanced_notion_reported(self, capsys):
        assert main(["validate", "x_rel := 1; y_na := 2; return 0;",
                     "y_na := 2; x_rel := 1; return 0;"]) == 0
        assert "advanced" in capsys.readouterr().out

    def test_oracle_reported_for_late_ub(self, capsys):
        source = ("a := x_rlx; if a == 1 { b := 1 / 0; } "
                  "while 1 { skip; } return 0;")
        target = "b := 1 / 0; a := x_rlx; while 1 { skip; } return 0;"
        assert main(["validate", source, target]) == 1
        assert "refuting oracle" in capsys.readouterr().out

    def test_file_arguments(self, tmp_path, capsys):
        src = tmp_path / "src.whl"
        tgt = tmp_path / "tgt.whl"
        src.write_text(SLF_SRC)
        tgt.write_text(SLF_TGT)
        assert main(["validate", str(src), str(tgt)]) == 0


class TestOptimize:
    def test_prints_optimized_source(self, capsys):
        assert main(["optimize", SLF_SRC]) == 0
        out = capsys.readouterr().out
        assert "b := 1;" in out

    def test_validate_flag_reports_certificates(self, capsys):
        assert main(["optimize", SLF_SRC, "--validate"]) == 0
        captured = capsys.readouterr()
        assert "certified" in captured.err

    def test_extended_pipeline(self, capsys):
        program = "k := 2; x_na := k; a := x_na; unused := w_na; return a;"
        assert main(["optimize", program, "-O2"]) == 0
        out = capsys.readouterr().out
        assert "w_na" not in out

    def test_output_reparses(self, capsys):
        from repro.lang import parse

        assert main(["optimize", SLF_SRC]) == 0
        parse(capsys.readouterr().out)


class TestExplore:
    SB = ["x_rlx := 1; a := y_rlx; return a;",
          "y_rlx := 1; b := x_rlx; return b;"]

    def test_sc_machine(self, capsys):
        assert main(["explore", "--machine", "sc", *self.SB]) == 0
        out = capsys.readouterr().out
        assert "machine: sc" in out
        assert "(0, 0)" not in out

    def test_pf_machine(self, capsys):
        assert main(["explore", "--machine", "pf", *self.SB]) == 0
        out = capsys.readouterr().out
        assert "(0, 0)" in out

    def test_full_machine_promises(self, capsys):
        lb = ["a := x_rlx; y_rlx := a; return a;",
              "b := y_rlx; x_rlx := 1; return b;"]
        assert main(["explore", "--machine", "full", "--promises", "1",
                     *lb]) == 0
        out = capsys.readouterr().out
        assert "(1, 1)" in out


def test_litmus_table_with_stats(capsys):
    # --stats also exercises the per-case stats table (acceptance
    # criterion) without a second full sweep in the suite.
    assert main(["litmus", "--stats"]) == 0
    captured = capsys.readouterr()
    assert "54/54 verdicts match" in captured.out
    header = captured.out.splitlines()
    index = next(i for i, line in enumerate(header) if "dedup%" in line)
    assert "states" in header[index] and "time_ms" in header[index]
    # one stats row per case, each with a states count and a dedup rate
    rows = [line for line in header[index + 1:] if line.strip()]
    assert len(rows) == 54
    assert all("%" in row for row in rows)
    # the global metrics table lands on stderr
    assert "seq.check.transformations" in captured.err


def test_litmus_table_extended(capsys):
    assert main(["litmus", "--extended"]) == 0
    out = capsys.readouterr().out
    assert "64/64 verdicts match" in out
    assert "slf-across-rel-fence" in out
    # satellite: the incomplete column is part of the table itself
    rows = [line for line in out.splitlines()
            if " ok " in line or "MISMATCH" in line]
    assert rows and all(line.rstrip().endswith("-") for line in rows)


def test_litmus_json_format(capsys):
    import json

    assert main(["litmus", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 54 and payload["mismatches"] == 0
    row = payload["cases"][0]
    for key in ("case", "expected", "measured", "agree", "complete",
                "incomplete_reasons", "game_states"):
        assert key in row
    assert all(case["agree"] for case in payload["cases"])


def test_litmus_renderer_mismatch_and_incomplete_rows(capsys):
    """The shared renderer behind ``repro litmus`` and ``repro client
    litmus`` on the rows no catalog sweep produces: a mismatch and an
    incomplete game."""
    import json

    from repro.runner import render_litmus

    rows = [{"case": "a", "expected": "valid", "measured": "valid",
             "agree": True, "complete": True, "incomplete_reasons": [],
             "game_states": 3},
            {"case": "b", "expected": "valid", "measured": "invalid",
             "agree": False, "complete": False,
             "incomplete_reasons": ["max_states"], "game_states": 9}]
    assert render_litmus(rows, as_json=False) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"{'a':36s} valid     valid     ok       -",
        f"{'b':36s} valid     invalid   MISMATCH max_states",
        "1/2 verdicts match"]
    assert captured.err == (
        "warning: case 'b': refinement game incomplete — exhausted "
        "bounds: max_states; its verdict may be based on a truncated "
        "search\n")
    assert render_litmus(rows, as_json=True) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "litmus", "total": 2, "mismatches": 1, "cases": rows}


class TestAdequacy:
    def test_adequate_pair(self, capsys):
        assert main(["adequacy", SLF_SRC, SLF_TGT]) == 0
        out = capsys.readouterr().out
        assert "adequate" in out
        assert "refines" in out

    def test_invalid_pair_reports_contexts(self, capsys):
        # invalid in SEQ; adequacy still holds (theorem predicts nothing)
        assert main(["adequacy", BAD_SRC, BAD_TGT]) == 0
        out = capsys.readouterr().out
        assert "VIOLATES" in out  # the empty context separates them


class TestObservabilityFlags:
    SB = ["x_rlx := 1; a := y_rlx; return a;",
          "y_rlx := 1; b := x_rlx; return b;"]

    def test_explore_trace_final_event_matches_output(self, tmp_path,
                                                      capsys):
        """Acceptance: the trace's final event carries the same behavior
        set the CLI prints."""
        from repro.obs.schemas import load

        path = str(tmp_path / "out.jsonl")
        assert main(["explore", "--machine", "pf", "--trace", path,
                     *self.SB]) == 0
        printed = {line.strip() for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  ")}
        events = load(path)[1]
        assert events[0]["ev"] == "meta"
        final = events[-1]
        assert final["ev"] == "event" and final["name"] == "result"
        assert set(final["behaviors"]) == printed
        assert final["complete"] is True

    def test_explore_stats_output_stable(self, capsys):
        """Two identical runs print identical counter tables."""
        def stats_lines():
            assert main(["explore", "--machine", "pf", "--stats",
                         *self.SB]) == 0
            err = capsys.readouterr().err
            return [line for line in err.splitlines()
                    if line and "span." not in line]

        assert stats_lines() == stats_lines()

    def test_explore_warns_on_state_bound(self, capsys):
        assert main(["explore", "--machine", "pf", "--max-states", "3",
                     *self.SB]) == 0
        captured = capsys.readouterr()
        assert "INCOMPLETE" in captured.err
        assert "state-bound" in captured.err
        assert "complete: False" in captured.out

    def test_explore_warns_on_depth_bound(self, capsys):
        assert main(["explore", "--machine", "pf", "--max-depth", "2",
                     *self.SB]) == 0
        assert "depth-bound" in capsys.readouterr().err

    def test_sc_machine_warns_too(self, capsys):
        assert main(["explore", "--machine", "sc", "--max-states", "2",
                     *self.SB]) == 0
        assert "state-bound" in capsys.readouterr().err

    def test_validate_profile_prints_spans(self, capsys):
        assert main(["validate", SLF_SRC, SLF_TGT, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "seq.check.simple" in err and "total_s" in err

    def test_optimize_stats_reports_pass_sizes(self, capsys):
        assert main(["optimize", SLF_SRC, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "nodes" in captured.err
        assert "b := 1;" in captured.out

    def test_adequacy_trace_has_context_events(self, tmp_path, capsys):
        from repro.obs.schemas import load

        path = str(tmp_path / "adequacy.jsonl")
        assert main(["adequacy", SLF_SRC, SLF_TGT, "--trace", path]) == 0
        events = load(path)[1]
        contexts = [event for event in events
                    if event["ev"] == "event"
                    and event.get("name") == "adequacy.context"]
        assert contexts and all("refines" in event for event in contexts)
        assert events[-1]["name"] == "result"
        assert events[-1]["adequate"] is True

    def test_no_flags_means_no_session(self, capsys):
        from repro import obs

        assert main(["explore", "--machine", "pf", *self.SB]) == 0
        assert not obs.enabled()
        assert capsys.readouterr().err == ""


def test_version_prints_provenance(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"repro {__version__}")
    for field in ("git sha", "created at", "python"):
        assert field in out


class TestProgressHeartbeat:
    def test_explain_progress_heartbeat_on_stderr(self, capsys):
        programs = ["x_rlx := 1; a := y_rlx; return a;",
                    "y_rlx := 1; b := x_rlx; return b;"]
        assert main(["explain", "--witness", *programs,
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "explain:" in captured.err and "elapsed" in captured.err
        # stdout stays machine-readable — no heartbeat lines mixed in
        assert "elapsed" not in captured.out

    def test_fuzz_replay_progress_heartbeat_on_stderr(self, capsys):
        import os

        from repro.fuzz.corpus import DEFAULT_CORPUS_DIR

        path = os.path.join(DEFAULT_CORPUS_DIR,
                            "opt-dse-across-release.repro")
        assert main(["fuzz", "--replay", path, "--progress"]) == 0
        captured = capsys.readouterr()
        assert "replay" in captured.err and "elapsed" in captured.err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for command in ("validate", "optimize", "explore", "litmus", "adequacy",
                    "coverage", "explain"):
        assert command in out
