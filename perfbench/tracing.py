"""Spans recorded from outside the program, around calls into its layers.

The tracer wraps public functions (by replacing module attributes for the
duration of a traced run) and keeps completed spans in memory.  A span's
self time is its duration minus the time of the spans it encloses.
Functions called tens of thousands of times per op (``certifiable``,
``intern_state``, ``intern_cert``) are *folded*: instead of one span per
call, the enclosing span gets one summary span per folded name carrying
``calls`` and the summed duration, so a trace stays a few thousand lines.

Spans are written at the end in the ``repro-trace/1`` line shape
(``{"ev": "span", "name", "t", "dur_s", "depth", "trace", "span",
"parent", ...}`` after a ``meta`` line), which ``repro query`` reads.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable


class Tracer:
    """Completed spans of one process, with per-thread span stacks."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # perf_counter -> wall clock, fixed once so spans order correctly
        self._wall_offset = time.time() - time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, folded: bool) -> list:
        # frame: [span id, child time, folded summaries, is folded, depth]
        stack = self._stack()
        frame = [next(self._ids), 0.0, None, folded, len(stack)]
        stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, layer: str, started: float,
               fields: dict) -> None:
        dur = time.perf_counter() - started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += dur
        self_s = dur - frame[1]
        if frame[3]:
            owner = next((f for f in reversed(stack) if not f[3]), None)
            if owner is not None:
                if owner[2] is None:
                    owner[2] = {}
                summary = owner[2].get(name)
                if summary is None:
                    owner[2][name] = [layer, started, 1, dur, self_s]
                else:
                    summary[2] += 1
                    summary[3] += dur
                    summary[4] += self_s
                return
        parent = stack[-1][0] if stack else None
        self._emit(frame[0], parent, frame[4], name, layer, started, dur,
                   self_s, fields)
        for fname, (flayer, fstart, calls, fdur, fself) in \
                (frame[2] or {}).items():
            self._emit(next(self._ids), frame[0], frame[4] + 1, fname,
                       flayer, fstart, fdur, fself,
                       {"calls": calls, "folded": True})

    def _emit(self, span_id, parent, depth, name, layer, started, dur,
              self_s, fields) -> None:
        record = {"ev": "span", "name": name, "t": started +
                  self._wall_offset, "dur_s": dur, "depth": depth,
                  "trace": self.trace_id, "span": f"s{span_id}",
                  "layer": layer, "self_s": self_s}
        if parent is not None:
            record["parent"] = f"s{parent}"
        record.update(fields)
        self.records.append(record)  # list.append is atomic under the GIL

    def span(self, name: str, layer: str, **fields) -> "_Span":
        return _Span(self, name, layer, fields)

    def add_span(self, name: str, layer: str, started: float, dur: float,
                 **fields) -> None:
        """Record a span measured elsewhere (another process, a
        subprocess run) as a root span of this trace."""
        self._emit(next(self._ids), None, 0, name, layer, started, dur,
                   dur, fields)

    def wrap(self, fn: Callable, name: str, layer: str,
             folded: bool = False) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(folded)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, layer, started, {})

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, module, attr: str, name: str, layer: str,
              folded: bool = False) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, layer, folded))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def self_s(self, name: str) -> float:
        return sum(r["self_s"] for r in self.records if r["name"] == name)

    def calls(self, name: str) -> int:
        return sum(r.get("calls", 1) for r in self.records
                   if r["name"] == name)


class _Span:
    __slots__ = ("tracer", "name", "layer", "fields", "frame", "started")

    def __init__(self, tracer: Tracer, name: str, layer: str,
                 fields: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.fields = fields

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._open(False)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame, self.name, self.layer, self.started,
                           self.fields)


def write_trace(path: str, trace_id: str, records: list[dict],
                **meta) -> None:
    """Write ``records`` as ``repro-trace/1`` NDJSON (meta line first)."""
    from repro.obs.trace import TRACE_SCHEMA

    head = {"ev": "meta", "schema": TRACE_SCHEMA, "trace": trace_id, **meta}
    with open(path, "w") as handle:
        for entry in [head] + sorted(records, key=lambda r: r["t"]):
            handle.write(json.dumps(entry, sort_keys=True, default=repr))
            handle.write("\n")
