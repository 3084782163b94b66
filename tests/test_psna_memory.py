"""Tests for PS^na messages and memory."""

import pytest

from repro.psna import Memory, Message, NAMessage, View, ZERO


def test_initial_memory_has_zero_messages():
    memory = Memory.initial(["x", "y"])
    assert len(memory) == 2
    for message in memory:
        assert message.ts == ZERO
        assert message.value == 0
        assert message.view is None  # ⊥


def test_add_and_order():
    memory = Memory.initial(["x"])
    memory = memory.add(Message("x", 2, 1, None))
    memory = memory.add(Message("x", 1, 5, None))
    assert [m.value for m in memory.at("x")] == [0, 5, 1]


def test_timestamp_collision_rejected():
    memory = Memory.initial(["x"])
    with pytest.raises(ValueError, match="collision"):
        memory.add(Message("x", ZERO, 1, None))


def test_na_message_has_bottom_view():
    na = NAMessage("x", 1)
    assert na.view is None


def test_proper_at_filters_na_messages():
    memory = Memory.initial(["x"]).add(NAMessage("x", 1))
    assert len(memory.at("x")) == 2
    assert len(memory.proper_at("x")) == 1


def test_replace_for_lowering():
    memory = Memory.initial(["x"])
    promise = Message("x", 1, 1, View.singleton("x", 1))
    memory = memory.add(promise)
    lowered = Message("x", 1, 1, None)
    replaced = memory.replace(promise, lowered)
    assert lowered in replaced and promise not in replaced


def test_replace_missing_message_rejected():
    memory = Memory.initial(["x"])
    ghost = Message("x", 9, 1, None)
    with pytest.raises(ValueError):
        memory.replace(ghost, ghost)


def test_fresh_slots_cover_gaps_and_end():
    memory = Memory.initial(["x"]) \
        .add(Message("x", 1, 1, None)) \
        .add(Message("x", 2, 2, None))
    # Dense stamps: a slot is the stamp the new message takes — above
    # 0, above 1, and past 2.
    assert list(memory.fresh_slots("x", ZERO)) == [1, 2, 3]
    # Inserting into a gap renumbers the stamps at and above the slot.
    inserted = memory.insert(Message("x", 1, 7, None))
    assert [(m.ts, m.value) for m in inserted.at("x")] \
        == [(0, 0), (1, 7), (2, 1), (3, 2)]
    # Past the maximum nothing moves.
    appended = memory.insert(Message("x", 3, 7, None))
    assert appended.timestamps("x") == [0, 1, 2, 3]
    assert memory.messages < appended.messages


def test_fresh_slots_respect_lower_bound():
    memory = Memory.initial(["x"]) \
        .add(Message("x", 1, 1, None)) \
        .add(Message("x", 2, 2, None))
    assert list(memory.fresh_slots("x", 1)) == [2, 3]
    assert list(memory.fresh_slots("x", 2)) == [3]


def test_fresh_slots_skip_rmw_intervals():
    # x@2 is an RMW write attached to x@1: nothing fits between them.
    memory = Memory.initial(["x"]) \
        .add(Message("x", 1, 1, None)) \
        .add(Message("x", 2, 2, View.singleton("x", 2), attach=1))
    assert list(memory.fresh_slots("x", ZERO)) == [1, 3]


def test_insert_renumbers_views_and_attach():
    memory = Memory.initial(["x", "y"]) \
        .add(Message("x", 1, 1, None)) \
        .add(Message("x", 2, 2, View.of({"x": 2, "y": 1}), attach=1)) \
        .add(Message("y", 1, 3, View.of({"x": 2, "y": 1})))
    inserted = memory.insert(Message("x", 1, 9, None))
    assert set(inserted) == {
        Message("x", 0, 0, None), Message("x", 1, 9, None),
        Message("x", 2, 1, None),
        Message("x", 3, 2, View.of({"x": 3, "y": 1}), attach=2),
        Message("y", 0, 0, None),
        Message("y", 1, 3, View.of({"x": 3, "y": 1}))}


def test_max_ts():
    memory = Memory.initial(["x"]).add(Message("x", 5, 1, None))
    assert memory.max_ts("x") == 5
    assert memory.max_ts("unknown") == ZERO


def test_locations():
    memory = Memory.initial(["x", "y"])
    assert memory.locations() == frozenset({"x", "y"})
