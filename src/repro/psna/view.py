"""Timestamps and views for PS^na (Fig 5).

The paper takes ``Time = {0} ∪ Q+`` so that a fresh message always fits
between two existing ones.  Every PS^na rule only *compares* timestamps
and inserts between adjacent ones, so a state is determined up to
per-location order-isomorphic renaming of its timestamps.  We therefore
store the representative of each renaming class directly: a location's
timestamps are the dense ranks ``0..n-1`` of its ``n`` messages.  A
fresh message for slot ``k`` of location ``x`` takes stamp ``k``, and
every stamp ``≥ k`` of ``x`` — in memory, in message views and RMW
``attach`` values, and in every thread — moves up by one
(:meth:`View.shift`).  Renumbering preserves the order of all stamps, so
each rule sees the same comparisons as with rationals, and two
order-isomorphic states are equal as values: each state is its own
canonical key.

A *view* maps locations to timestamps (default 0); the *bottom view* ⊥
(smaller than every view) annotates non-atomic messages and is
represented by ``None`` in message fields, with :data:`BOT` as a
convenience alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

Time = int

ZERO = 0

#: The bottom view ⊥ (as stored in message view fields).
BOT: Optional["View"] = None


@dataclass(frozen=True)
class View:
    """A view ``Loc → Time``; absent locations map to timestamp 0."""

    items: tuple[tuple[str, Time], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, Time]) -> "View":
        trimmed = {loc: ts for loc, ts in mapping.items() if ts}
        return View(tuple(sorted(trimmed.items())))

    @staticmethod
    def singleton(loc: str, ts: Time) -> "View":
        return View(((loc, ts),) if ts else ())

    def get(self, loc: str) -> Time:
        for key, ts in self.items:
            if key == loc:
                return ts
        return ZERO

    def set(self, loc: str, ts: Time) -> "View":
        updated = dict(self.items)
        updated[loc] = ts
        return View.of(updated)

    def join(self, other: Optional["View"]) -> "View":
        """``V ⊔ V'``; joining with ⊥ (None) is the identity."""
        if other is None or not other.items:
            return self
        if not self.items:
            return other
        merged = dict(self.items)
        for loc, ts in other.items:
            if ts > merged.get(loc, ZERO):
                merged[loc] = ts
        return View.of(merged)

    def leq(self, other: "View") -> bool:
        return all(ts <= other.get(loc) for loc, ts in self.items)

    def shift(self, loc: str, k: Time) -> "View":
        """Renumber for a message inserted at ``loc@k``: a stamp ``≥ k``
        of ``loc`` moves up by one.  Returns ``self`` when unaffected."""
        for index, (key, ts) in enumerate(self.items):
            if key == loc:
                if ts < k:
                    return self
                items = self.items
                return View(items[:index] + ((loc, ts + 1),)
                            + items[index + 1:])
        return self

    def locations(self) -> tuple[str, ...]:
        return tuple(loc for loc, _ in self.items)

    def as_dict(self) -> dict[str, Time]:
        return dict(self.items)

    def __repr__(self) -> str:
        if not self.items:
            return "⟨⟩"
        return "⟨" + ", ".join(f"{loc}@{ts}" for loc, ts in self.items) + "⟩"


def view_leq_opt(a: Optional[View], b: Optional[View]) -> bool:
    """``⊑`` on ``View ∪ {⊥}``: ⊥ is below everything."""
    if a is None:
        return True
    if b is None:
        return not a.items
    return a.leq(b)


def join_opt(a: Optional[View], b: Optional[View]) -> Optional[View]:
    if a is None:
        return b
    return a.join(b)


def shift_opt(view: Optional[View], loc: str, k: Time) -> Optional[View]:
    """:meth:`View.shift` lifted to ``View ∪ {⊥}``."""
    return None if view is None else view.shift(loc, k)
