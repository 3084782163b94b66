"""Trace-sink edge cases: empty files, deep nesting, closed sinks."""

import json

import pytest

from repro import obs
from repro.obs.schemas import load
from repro.obs.trace import JsonlSink, MemorySink


class TestEmptyTraces:
    def test_empty_file_round_trips(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load(str(path))[1] == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.jsonl"
        path.write_text("\n\n{\"ev\": \"event\", \"name\": \"x\"}\n\n")
        assert load(str(path))[1] == [{"ev": "event", "name": "x"}]

    def test_sink_with_no_events_leaves_readable_file(self, tmp_path):
        path = str(tmp_path / "none.jsonl")
        sink = JsonlSink(path)
        sink.close()
        assert load(path)[1] == []


class TestDeepNesting:
    @pytest.mark.parametrize("depth", [1, 10, 100])
    def test_deeply_nested_spans_record_depths(self, depth):
        sink = MemorySink()
        with obs.session(trace=sink) as session:
            spans = [obs.span(f"level.{i}") for i in range(depth)]
            for span in spans:
                span.__enter__()
            assert session.span_stack == [f"level.{i}"
                                          for i in range(depth)]
            for span in reversed(spans):
                span.__exit__(None, None, None)
            assert session.span_stack == []
        recorded = [event for event in sink.events
                    if event["ev"] == "span"]
        # spans close innermost-first
        assert [event["depth"] for event in recorded] == list(
            range(depth - 1, -1, -1))

    def test_deep_nesting_round_trips_through_jsonl(self, tmp_path):
        path = str(tmp_path / "deep.jsonl")
        with obs.session(trace=path):
            with obs.span("a"):
                with obs.span("b"):
                    with obs.span("c"):
                        obs.event("bottom")
        events = load(path)[1]
        depths = {event["name"]: event["depth"] for event in events
                  if event["ev"] == "span"}
        assert depths == {"a": 0, "b": 1, "c": 2}


class TestClosedSinks:
    def test_jsonl_emit_after_close_raises(self, tmp_path):
        path = str(tmp_path / "closed.jsonl")
        sink = JsonlSink(path)
        sink.emit({"ev": "event", "name": "before"})
        sink.close()
        with pytest.raises(RuntimeError, match="closed"):
            sink.emit({"ev": "event", "name": "after"})

    def test_failed_emit_does_not_corrupt_file(self, tmp_path):
        path = str(tmp_path / "closed.jsonl")
        sink = JsonlSink(path)
        sink.emit({"ev": "event", "name": "before"})
        sink.close()
        with pytest.raises(RuntimeError):
            sink.emit({"ev": "event", "name": "after"})
        events = load(path)[1]
        assert events == [{"ev": "event", "name": "before"}]
        # every line still parses individually (no partial writes)
        for line in open(path):
            json.loads(line)

    def test_memory_emit_after_close_raises(self):
        sink = MemorySink()
        sink.emit({"ev": "event", "name": "before"})
        sink.close()
        with pytest.raises(RuntimeError, match="closed"):
            sink.emit({"ev": "event", "name": "after"})
        assert len(sink.events) == 1

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "twice.jsonl")
        sink = JsonlSink(path)
        sink.close()
        sink.close()  # must not raise on an already-closed file
        memory = MemorySink()
        memory.close()
        memory.close()

    def test_session_close_then_manual_emit_raises(self, tmp_path):
        path = str(tmp_path / "session.jsonl")
        with obs.session(trace=path) as session:
            obs.event("inside")
        with pytest.raises(RuntimeError):
            session.sink.emit({"ev": "event", "name": "too-late"})
        names = [event.get("name") for event in load(path)[1]]
        assert "inside" in names and "too-late" not in names
