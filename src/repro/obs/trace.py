"""Trace events, nestable spans, and JSONL sinks.

A trace is a flat sequence of JSON objects, one per line (JSONL), so a
full exploration or refinement game can be replayed offline with nothing
but the standard library.  Three event shapes share the stream:

``{"ev": "event", "name": ..., "t": ..., ...fields}``
    A point event (e.g. a per-context adequacy verdict, or the final
    ``result`` event each CLI command emits).

``{"ev": "span", "name": ..., "t": ..., "dur_s": ..., "depth": ...}``
    A completed span: wall-clock start ``t`` (``time.time``), monotonic
    duration ``dur_s`` (``time.perf_counter``), and its nesting depth at
    the moment it was opened.

``{"ev": "meta", ...}``
    Stream metadata (schema version, argv) — always the first line a
    session writes.

Sinks are synchronous and unbuffered by design: a crashed exploration
still leaves a readable prefix.  ``NullSink`` keeps the disabled path
allocation-free; callers must check :attr:`TraceSink.active` before
building event payloads.
"""

from __future__ import annotations

import json
import time
from typing import IO, Optional, Union

from .events import QUIET_SPANS
from .schemas import TRACE_SCHEMA  # noqa: F401  (re-exported)



class TraceSink:
    """Base sink: receives event dicts; inactive (drops everything)."""

    active = False

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        pass

    def close(self) -> None:
        pass


class NullSink(TraceSink):
    """The no-op sink used when tracing is off."""


NULL_SINK = NullSink()


class MemorySink(TraceSink):
    """Collects events in a list — the test and demo sink."""

    active = True

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.closed = False

    def emit(self, event: dict) -> None:
        if self.closed:
            raise RuntimeError("emit on a closed MemorySink")
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


class JsonlSink(TraceSink):
    """Writes one compact JSON object per line to a path or file object.

    Emitting after :meth:`close` raises rather than corrupting the
    stream: the serialized line is built *before* touching the file, so
    a failed emit never leaves a partial line behind.
    """

    active = True

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._file: IO[str] = open(destination, "w")
            self._owns = True
        else:
            self._file = destination
            self._owns = False
        self.closed = False

    def emit(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True, default=repr)
        if self.closed:
            raise RuntimeError("emit on a closed JsonlSink")
        self._file.write(line)
        self._file.write("\n")

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._file.flush()
        if self._owns:
            self._file.close()


class Span:
    """A timed region; use via :func:`repro.obs.span`.

    On exit the span emits a trace event (when tracing) and folds its
    duration into the ``span.<name>`` histogram (always, when a session
    is active) — so ``--profile`` works without ``--trace``.
    """

    __slots__ = ("name", "fields", "_session", "_t0", "_wall", "depth")

    def __init__(self, session, name: str, fields: dict) -> None:
        self._session = session
        self.name = name
        self.fields = fields
        self._t0 = 0.0
        self._wall = 0.0
        self.depth = 0

    def __enter__(self) -> "Span":
        session = self._session
        self.depth = len(session.span_stack)
        session.span_stack.append(self.name)
        if session.attrib is not None:
            session.attrib.on_enter()
        events = session.events
        if events is not None:
            events.span_stack = tuple(session.span_stack)
            if self.name not in QUIET_SPANS:
                events.emit("span-enter", name=self.name, depth=self.depth,
                            **self.fields)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._t0
        session = self._session
        if session.attrib is not None:
            session.attrib.on_exit(tuple(session.span_stack), duration)
        session.span_stack.pop()
        session.metrics.observe(f"span.{self.name}", duration)
        events = session.events
        if events is not None:
            events.span_stack = tuple(session.span_stack)
            if self.name not in QUIET_SPANS:
                events.emit("span-exit", name=self.name, depth=self.depth,
                            dur_s=duration)
        sink = self._session.sink
        if sink.active:
            event = {"ev": "span", "name": self.name, "t": self._wall,
                     "dur_s": duration, "depth": self.depth}
            if self.fields:
                event.update(self.fields)
            sink.emit(event)


class _NullSpan:
    """Shared zero-cost span used when no session is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()
