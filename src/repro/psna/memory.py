"""Messages and memories of PS^na (Fig 5).

Memory is a set of timestamped messages:

* proper messages ``⟨x@t, v, V⟩`` carrying a value and a message view
  (``⊥``, represented by ``None``, for non-atomic and promised-na
  messages);
* valueless *non-atomic messages* ``x@t ∈ NAMsg`` introduced by the
  paper for race detection (their view is ⊥ by definition).

The initial memory holds ``⟨x@0, 0, ⊥⟩`` for every location.

Timestamps are dense per-location ranks (see :mod:`repro.psna.view`):
the ``n`` messages of a location carry stamps ``0..n-1``.  The stepper
adds messages with :meth:`Memory.insert`, which renumbers the stamps at
and above the new message's slot; :meth:`Memory.add` places a message at
exactly the stamp it names, for building states by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..lang.values import Value
from .view import Time, View, ZERO, shift_opt


@dataclass(frozen=True)
class Message:
    """A proper message ``⟨x@t, v, V⟩``; ``view=None`` encodes ⊥.

    ``attach`` records the lower end of the half-open timestamp interval
    ``(attach, ts]`` the message occupies.  RMWs attach their write to the
    message they read (PS represents this with timestamp ranges); no other
    message may be inserted inside an occupied interval, which is what
    makes RMWs atomic.  With dense stamps, ``attach == ts - 1``.
    """

    loc: str
    ts: Time
    value: Value
    view: Optional[View]
    attach: Optional[Time] = None

    def __repr__(self) -> str:
        view = "⊥" if self.view is None else repr(self.view)
        attach = f"({self.attach}," if self.attach is not None else ""
        return f"⟨{self.loc}@{attach}{self.ts},{self.value},{view}⟩"

    def shift(self, loc: str, k: Time) -> "Message":
        """Renumber for an insertion at ``loc@k`` (see :meth:`View.shift`)."""
        view = shift_opt(self.view, loc, k)
        if self.loc != loc or self.ts < k:
            if view is self.view:
                return self
            return Message(self.loc, self.ts, self.value, view, self.attach)
        attach = self.attach
        if attach is not None and attach >= k:
            attach += 1
        return Message(loc, self.ts + 1, self.value, view, attach)


@dataclass(frozen=True)
class NAMessage:
    """A valueless non-atomic message ``x@t`` (view is ⊥ by definition)."""

    loc: str
    ts: Time

    @property
    def view(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"⟨{self.loc}@{self.ts}⟩na"

    def shift(self, loc: str, k: Time) -> "NAMessage":
        if self.loc != loc or self.ts < k:
            return self
        return NAMessage(loc, self.ts + 1)


AnyMessage = Message | NAMessage


def shift_messages(messages: frozenset[AnyMessage], loc: str,
                   k: Time) -> frozenset[AnyMessage]:
    """Every message renumbered for an insertion at ``loc@k``."""
    shifted = [m.shift(loc, k) for m in messages]
    if all(new is old for new, old in zip(shifted, messages)):
        return messages
    return frozenset(shifted)


@dataclass(frozen=True)
class Memory:
    """An immutable message set with per-location timestamp uniqueness."""

    messages: frozenset[AnyMessage]

    @staticmethod
    def initial(locs: Iterable[str]) -> "Memory":
        return Memory(frozenset(
            Message(loc, ZERO, 0, None) for loc in sorted(set(locs))))

    def add(self, message: AnyMessage) -> "Memory":
        """Place ``message`` at exactly the stamp it names (no
        renumbering): for building states by hand."""
        if any(m.ts == message.ts for m in self.at(message.loc)):
            raise ValueError(
                f"timestamp collision at {message.loc}@{message.ts}")
        if self.blocked(message.loc, message.ts):
            raise ValueError(
                f"timestamp {message.loc}@{message.ts} lies inside an "
                f"RMW-occupied interval")
        return Memory(self.messages | {message})

    def insert(self, message: AnyMessage) -> "Memory":
        """Insert ``message`` into slot ``message.ts`` of its location:
        the stamps ``≥ message.ts`` move up by one first.  The slot must
        come from :meth:`fresh_slots` (or be an RMW's adjacent slot),
        and ``message`` must already be expressed in the renumbered
        stamps."""
        loc, k = message.loc, message.ts
        messages = self.messages
        if k <= self.max_ts(loc):
            messages = shift_messages(messages, loc, k)
        return Memory(messages | {message})

    def blocked(self, loc: str, ts: Time) -> bool:
        """Is ``ts`` strictly inside an occupied interval of ``loc``?"""
        for m in self.at(loc):
            if (isinstance(m, Message)
                    and m.attach is not None and m.attach < ts < m.ts):
                return True
        return False

    def replace(self, old: AnyMessage, new: AnyMessage) -> "Memory":
        if old not in self.messages:
            raise ValueError(f"message {old!r} not in memory")
        return Memory((self.messages - {old}) | {new})

    def at(self, loc: str) -> tuple[AnyMessage, ...]:
        """Messages of ``loc`` sorted by timestamp.

        Memoized per (memory, location): the race helper and every read
        / write rule re-scan the same immutable memory.  The cache is
        process-local and dropped when pickling.
        """
        cache = self.__dict__.get("_at")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_at", cache)
        got = cache.get(loc)
        if got is None:
            got = tuple(sorted((m for m in self.messages if m.loc == loc),
                               key=lambda m: m.ts))
            cache[loc] = got
        return got

    def proper_at(self, loc: str) -> list[Message]:
        return [m for m in self.at(loc) if isinstance(m, Message)]

    def timestamps(self, loc: str) -> list[Time]:
        return [m.ts for m in self.at(loc)]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_at", None)
        return state

    def max_ts(self, loc: str) -> Time:
        stamps = self.at(loc)
        return stamps[-1].ts if stamps else ZERO

    def fresh_slots(self, loc: str, above: Time) -> Iterator[Time]:
        """Slots for a fresh message of ``loc`` strictly above ``above``.

        One slot directly above ``above`` and directly above every
        existing stamp beyond it — that is, one per gap between adjacent
        stamps, plus one past the maximum — skipping gaps inside an
        RMW-occupied interval.  A slot is the stamp the new message
        takes under :meth:`insert`.  Every order-isomorphic insertion
        point is covered exactly once, so the enumeration is exhaustive.
        """
        lower = above
        for m in self.at(loc):
            if m.ts <= above:
                continue
            # The gap (lower, m.ts) is occupied iff m is an RMW write
            # attached at or below ``lower``.
            if not (isinstance(m, Message) and m.attach is not None
                    and m.attach <= lower):
                yield lower + 1
            lower = m.ts
        yield lower + 1

    def locations(self) -> frozenset[str]:
        return frozenset(m.loc for m in self.messages)

    def __contains__(self, message: AnyMessage) -> bool:
        return message in self.messages

    def __iter__(self) -> Iterator[AnyMessage]:
        return iter(sorted(self.messages, key=lambda m: (m.loc, m.ts)))

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(m) for m in self) + "}"
