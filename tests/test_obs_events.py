"""Live event streams (``repro-events/1``) and the flight recorder."""

import pytest

import repro.cli as cli
from repro import obs
from repro.obs.events import EVENTS_SCHEMA, EventStream, render_flight
from repro.obs.schemas import load, validate

SB = ["x_rlx := 1; a := y_rlx; return a;",
      "y_rlx := 1; b := x_rlx; return b;"]


class TestEventStream:
    def test_ndjson_round_trip(self, tmp_path):
        path = str(tmp_path / "events.ndjson")
        stream = EventStream(path, meta={"command": "test"})
        stream.emit("state", span="demo", states=5)
        stream.emit("truncation", span="demo", reason="state-bound",
                    rule="rule.demo.step")
        stream.close()
        events = load(path)[1]
        assert validate(events) == []
        head = events[0]
        assert head["ev"] == "meta" and head["schema"] == EVENTS_SCHEMA
        assert head["command"] == "test"
        assert [event["ev"] for event in events[1:]] \
            == ["state", "truncation"]
        assert stream.last_rule == "rule.demo.step"

    def test_ring_truncation_is_marked(self):
        stream = EventStream(None, ring=4)
        for index in range(10):
            stream.emit("state", states=index)
        dump = stream.flight_dump()
        # 11 events total (meta + 10), ring keeps 4
        assert dump["truncated"] is True and dump["dropped"] == 7
        assert len(dump["events"]) == 4
        text = render_flight(dump)
        assert "7 earlier event(s) dropped" in text

    def test_replay_reassigns_seq_and_tags_case(self, tmp_path):
        worker = EventStream(None)
        worker.emit("state", span="seq.game", states=3)
        parent = EventStream(str(tmp_path / "merged.ndjson"))
        for event in worker.drain()["events"]:
            parent.replay(event, case=7)
        parent.close()
        events = load(str(tmp_path / "merged.ndjson"))[1]
        assert validate(events) == []
        replayed = [event for event in events if event.get("case") == 7]
        assert [event["ev"] for event in replayed] == ["meta", "state"]
        assert replayed[-1]["states"] == 3

    def test_emit_after_close_raises(self, tmp_path):
        stream = EventStream(str(tmp_path / "events.ndjson"))
        stream.close()
        with pytest.raises(RuntimeError):
            stream.emit("state")

    def test_validate_rejects_headless_streams(self):
        assert validate([]) == ["empty stream (no meta line)"]
        assert validate([{"ev": "state", "seq": 0, "t": 0.0}])
        out_of_order = [
            {"ev": "meta", "schema": EVENTS_SCHEMA, "seq": 1, "t": 0.0},
            {"ev": "state", "seq": 0, "t": 0.0},
        ]
        assert any("monotonic" in problem
                   for problem in validate(out_of_order))


class TestSessionStream:
    def test_span_events_streamed_quiet_spans_suppressed(self, tmp_path):
        path = str(tmp_path / "events.ndjson")
        with obs.session(stream=path):
            with obs.span("demo.phase"):
                with obs.span("psna.cert"):
                    pass
        events = load(path)[1]
        names = {(event["ev"], event.get("name")) for event in events}
        assert ("span-enter", "demo.phase") in names
        assert ("span-exit", "demo.phase") in names
        assert not any(event.get("name") == "psna.cert" for event in events)

    def test_session_close_emits_rule_coverage(self, tmp_path):
        path = str(tmp_path / "events.ndjson")
        with obs.session(stream=path):
            obs.inc("rule.demo.step", 3)
            obs.inc("other.counter", 1)
        events = load(path)[1]
        coverage = [event for event in events if event["ev"] == "coverage"]
        assert coverage and coverage[-1]["rules"] == {"rule.demo.step": 3}


class TestCliStream:
    def test_truncation_event_names_span_and_last_rule(self, tmp_path,
                                                       capsys):
        """Acceptance: a budget-truncated run emits an event naming the
        span and the last rule fired."""
        path = str(tmp_path / "events.ndjson")
        assert cli.main(["explore", "--machine", "pf", "--max-states", "5",
                         "--stream", path, *SB]) == 0
        capsys.readouterr()
        events = load(path)[1]
        assert validate(events) == []
        truncations = [event for event in events
                       if event["ev"] == "truncation"]
        assert truncations
        event = truncations[0]
        assert event["span"] == "psna.explore"
        assert event["reason"] == "state-bound"
        assert event["last_rule"].startswith("rule.psna.")

    def test_worker_streams_merge_deterministically(self, tmp_path,
                                                    capsys):
        path = str(tmp_path / "events.ndjson")
        assert cli.main(["litmus", "--jobs", "2", "--stream", path]) == 0
        capsys.readouterr()
        events = load(path)[1]
        assert validate(events) == []
        cases = {event["case"] for event in events if "case" in event}
        assert cases == set(range(54))

    def test_crash_prints_the_flight_recorder(self, tmp_path, capsys,
                                              monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "explore", boom)
        with pytest.raises(RuntimeError):
            cli.main(["explore", "--machine", "full",
                      "--stream", str(tmp_path / "events.ndjson"), SB[0]])
        err = capsys.readouterr().err
        assert "-- flight recorder --" in err
        assert "span stack" in err

    def test_unwritable_stream_is_a_usage_error(self, tmp_path, capsys):
        target = str(tmp_path / "missing-dir" / "events.ndjson")
        assert cli.main(["explore", "--machine", "pf", "--stream", target,
                         *SB]) == 2
        assert "cannot write stream" in capsys.readouterr().err
