"""Tests for timestamps and views (PS^na, Fig 5 preliminaries)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.psna import View, ZERO, join_opt, view_leq_opt

times = st.integers(min_value=0, max_value=8)
view_maps = st.dictionaries(st.sampled_from(["x", "y", "z"]), times,
                            max_size=3)
views = view_maps.map(View.of)


def test_default_timestamp_zero():
    assert View().get("x") == ZERO


def test_zero_entries_trimmed():
    assert View.of({"x": ZERO}) == View()


def test_set_get():
    view = View().set("x", 2)
    assert view.get("x") == 2
    assert view.get("y") == 0


def test_join_pointwise_max():
    a = View.of({"x": 1, "y": 3})
    b = View.of({"x": 2})
    joined = a.join(b)
    assert joined.get("x") == 2 and joined.get("y") == 3


def test_join_with_bottom_is_identity():
    view = View.of({"x": 1})
    assert view.join(None) == view
    assert join_opt(None, view) == view
    assert join_opt(None, None) is None


@given(views)
def test_join_idempotent(view):
    assert view.join(view) == view


@given(views, views)
def test_join_commutative(a, b):
    assert a.join(b) == b.join(a)


@given(views, views, views)
def test_join_associative(a, b, c):
    assert a.join(b).join(c) == a.join(b.join(c))


@given(views, views)
def test_join_is_lub(a, b):
    joined = a.join(b)
    assert a.leq(joined) and b.leq(joined)


@given(views, views)
def test_leq_antisymmetric(a, b):
    if a.leq(b) and b.leq(a):
        assert a == b


def test_view_leq_opt_bottom():
    view = View.of({"x": 1})
    assert view_leq_opt(None, view)
    assert view_leq_opt(None, None)
    assert not view_leq_opt(view, None)
    assert view_leq_opt(View(), None)  # the zero view has no entries


def test_fresh_between_midpoint():
    """A message inserted between x@1 and x@2 takes slot 2: the stamps
    of x at or above 2 move up by one, other locations stay."""
    view = View.of({"x": 2, "y": 2})
    assert view.shift("x", 2) == View.of({"x": 3, "y": 2})
    below = View.of({"x": 1, "y": 2})
    assert below.shift("x", 2) is below


def test_fresh_between_open_end():
    """Past the maximum stamp nothing moves."""
    view = View.of({"x": 3})
    assert view.shift("x", 4) is view
    assert View().shift("x", 1) == View()


@given(views)
def test_views_hashable(view):
    assert hash(view) == hash(View.of(view.as_dict()))
