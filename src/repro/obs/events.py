"""Live event streaming (``repro-events/1``) and the flight recorder.

A *stream* is NDJSON: one JSON object per line, written as the run
happens (``--stream FILE`` or ``--stream -`` on every CLI subcommand),
so a hung or killed exploration still leaves a readable prefix that
says where it was.  Event kinds share one flat envelope
``{"ev": <kind>, "seq": N, "t": <wall clock>, ...fields}``:

``meta``
    First line of every stream: the schema tag plus free-form metadata.
``span-enter`` / ``span-exit``
    Phase boundaries, mirrored from :mod:`repro.obs.trace` spans.  The
    hottest spans (:data:`QUIET_SPANS`) are deliberately *not* streamed
    — their aggregate timing lives in the metrics — so streams stay
    proportional to phases, not to certification attempts.
``state``
    Periodic explorer progress (states visited, frontier size), emitted
    every :data:`STATE_EVENT_INTERVAL` states by the PS^na exploration
    and the SEQ refinement game.
``truncation``
    A budget was exhausted: names the span, the reason (``state-bound``,
    ``game-states``, ...), the state count, and the last ``rule.*``
    that fired — the INCOMPLETE verdicts' "where was it stuck".
``coverage``
    Emitted once at session close: the final ``rule.*`` counter values.
``event``
    Point events mirrored from :func:`repro.obs.event` (e.g. the
    ``result`` event every CLI command emits).

Every stream is backed by a bounded ring buffer (the *flight
recorder*): the last :data:`DEFAULT_RING` events are retained in memory
even when no file sink is attached, and :meth:`EventStream.flight_dump`
renders them — plus the live span stack and last rule — on crash,
timeout, or budget exhaustion.  Worker processes run ring-only streams;
:mod:`repro.runner` replays their events into the parent stream in
descriptor order, so merged streams are deterministic.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from typing import IO, Optional, Union

from .schemas import EVENTS_SCHEMA


#: Flight-recorder depth: how many trailing events a stream retains.
DEFAULT_RING = 256

#: Spans too hot to stream per-entry (aggregate timing covers them).
QUIET_SPANS = frozenset({"psna.cert", "seq.closure"})

#: Explorers emit one ``state`` progress event every this many states.
STATE_EVENT_INTERVAL = 500


class EventStream:
    """One live ``repro-events/1`` stream plus its flight-recorder ring.

    ``destination`` is a path, ``"-"`` (stdout), an open file object, or
    ``None`` for a ring-only stream (the worker-process mode).  Events
    are flushed per line so a killed run leaves a readable prefix.
    """

    def __init__(self, destination: Union[str, IO[str], None] = None,
                 ring: int = DEFAULT_RING,
                 meta: Optional[dict] = None) -> None:
        self._owns = False
        if destination is None:
            self._file: Optional[IO[str]] = None
        elif destination == "-":
            self._file = sys.stdout
        elif isinstance(destination, str):
            self._file = open(destination, "w")
            self._owns = True
        else:
            self._file = destination
        self.ring: deque = deque(maxlen=ring)
        self.dropped = 0
        self.seq = 0
        self.closed = False
        #: The last ``rule.*`` id any instrumented loop reported; hot
        #: loops assign this directly (no I/O) so truncation events and
        #: flight dumps can name it.
        self.last_rule: Optional[str] = None
        #: Mirror of the session's span stack, updated on span entry and
        #: exit (including quiet spans) for flight dumps.
        self.span_stack: tuple[str, ...] = ()
        self.emit("meta", schema=EVENTS_SCHEMA, **(meta or {}))

    def emit(self, kind: str, **fields) -> None:
        """Append one event to the ring and the sink (if any)."""
        if self.closed:
            raise RuntimeError("emit on a closed EventStream")
        event = {"ev": kind, "seq": self.seq, "t": time.time()}
        event.update(fields)
        self.seq += 1
        rule = fields.get("rule")
        if rule is not None:
            self.last_rule = rule
        if len(self.ring) == self.ring.maxlen:
            self.dropped += 1
        self.ring.append(event)
        if self._file is not None:
            line = json.dumps(event, sort_keys=True, default=repr)
            self._file.write(line)
            self._file.write("\n")
            self._file.flush()

    def replay(self, event: dict, **extra) -> None:
        """Re-emit a worker's event into this stream.

        The sequence number is reassigned (parent streams stay
        monotonic); the worker's wall clock and all other fields are
        preserved, plus any ``extra`` tags (e.g. the case index).
        """
        fields = {key: value for key, value in event.items()
                  if key not in ("ev", "seq")}
        fields.update(extra)
        self.emit(event.get("ev", "event"), **fields)

    def drain(self) -> dict:
        """The picklable worker-side handoff: ring contents + drop count."""
        return {"events": list(self.ring), "dropped": self.dropped}

    def flight_dump(self) -> dict:
        """The flight-recorder tail: last events, span stack, last rule."""
        return {
            "schema": EVENTS_SCHEMA,
            "truncated": self.dropped > 0,
            "dropped": self.dropped,
            "span": list(self.span_stack),
            "last_rule": self.last_rule,
            "events": list(self.ring),
        }

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._file is not None:
            self._file.flush()
            if self._owns:
                self._file.close()


def render_flight(dump: dict) -> str:
    """Human-readable flight-recorder dump (the crash/timeout report)."""
    lines = ["-- flight recorder --"]
    span = " > ".join(dump.get("span") or ()) or "(no open span)"
    lines.append(f"span stack : {span}")
    lines.append(f"last rule  : {dump.get('last_rule') or '(none)'}")
    events = dump.get("events", [])
    if dump.get("truncated"):
        lines.append(f"... {dump.get('dropped', 0)} earlier event(s) "
                     f"dropped (ring buffer) ...")
    for event in events[-20:]:
        fields = {key: value for key, value in event.items()
                  if key not in ("ev", "seq", "t")}
        detail = " ".join(f"{key}={value}" for key, value
                          in sorted(fields.items()))
        lines.append(f"  [{event.get('seq', '?'):>5}] "
                     f"{event.get('ev', '?'):<10} {detail}")
    return "\n".join(lines)
