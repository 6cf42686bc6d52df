"""Tests for Algorithm 1 (victim selection) — the paper's eviction core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exceed_value, select_victim
from .support.reference_models import _alg1_victim, _max_used_victim


def entity(entitlement, used, weight, tag=None):
    return (tag, entitlement, used, weight)


def get_victim(entities, eviction_size, policy="exceed"):
    return select_victim(entities, eviction_size, policy)[0]


class TestExceedValue:
    def test_basic_formula(self):
        e = entity(100, 150, 50)
        # used + evsize - (entitlement + b*w/cw)
        assert exceed_value(e, 10, 40, 100) == pytest.approx(
            150 + 10 - (100 + 40 * 50 / 100)
        )

    def test_zero_cumulative_weight_no_redistribution(self):
        e = entity(100, 150, 0)
        assert exceed_value(e, 10, 40, 0) == pytest.approx(150 + 10 - 100)


class TestGetVictim:
    def test_eviction_size_must_be_positive(self):
        for policy in ("exceed", "max_used"):
            with pytest.raises(ValueError):
                select_victim([entity(10, 20, 50)], 0, policy)

    def test_single_overused_entity_selected(self):
        over = entity(100, 200, 50, "over")
        under = entity(100, 10, 50, "under")
        victim = get_victim([over, under], 8)
        assert victim is over

    def test_most_overused_wins(self):
        a = entity(100, 120, 50, "a")
        b = entity(100, 300, 50, "b")
        assert get_victim([a, b], 8) is b

    def test_underused_slack_protects_heavier_weight(self):
        """Redistribution raises the effective entitlement proportionally to
        weight: the high-weight over-user is protected relative to the
        low-weight one."""
        heavy = entity(100, 200, 90, "heavy")
        light = entity(100, 200, 10, "light")
        slack = entity(1000, 10, 50, "slack")  # big underused buffer
        victim, b, cw = select_victim([heavy, light, slack], 8)
        assert victim is light
        assert (b, cw) == (990, 100.0)

    def test_no_overused_returns_none(self):
        """No over-user: nobody is scored (``cw`` stays 0) and the
        degenerate fallback hands back the largest holder."""
        small, big = entity(100, 10, 50), entity(100, 20, 50)
        assert select_victim([small, big], 8) == (big, 170, 0.0)

    def test_overused_but_empty_not_selected(self):
        ghost = entity(0, 0, 50, "ghost")  # 0 < 0 + 8 -> "overused", empty
        holder = entity(100, 150, 50, "holder")
        victim, _, cw = select_victim([ghost, holder], 8)
        assert victim is holder
        assert cw == 100.0  # the empty over-user still takes its share

    def test_at_entitlement_counts_as_overused(self):
        """entitlement < used + eviction_size triggers with used == ent."""
        e = entity(100, 100, 50, "full")
        assert get_victim([e], 8) is e

    def test_ties_pick_first(self):
        a = entity(100, 200, 50, "a")
        b = entity(100, 200, 50, "b")
        assert get_victim([a, b], 8) is a

    def test_empty_entity_list(self):
        assert select_victim([], 8) == (None, 0, 0.0)


class TestFallbackVictim:
    def test_largest_holder(self):
        a = entity(100, 10, 50, "a")
        b = entity(100, 90, 50, "b")
        assert get_victim([a, b], 8, "max_used") is b
        c = entity(100, 90, 50, "c")
        assert get_victim([a, b, c], 8, "max_used") is b  # first of equals

    def test_empty_holders(self):
        for policy in ("exceed", "max_used"):
            assert get_victim([entity(10, 0, 50)], 8, policy) is None


# Small ranges on purpose: equal exceed values, entities exactly at their
# entitlement, weight-0 holders and zero entitlements must all be common.
_ROWS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 8, 64, 100, 5_000]),                # entitlement
        st.one_of(st.sampled_from([0, 0, 8, 64, 100]),
                  st.integers(min_value=0, max_value=10_000)),     # used
        st.one_of(st.sampled_from([0.0, 0.0, 50.0]),
                  st.floats(min_value=0, max_value=100)),          # weight
    ),
    max_size=10,
)


@settings(max_examples=500, deadline=None)
@given(_ROWS, st.integers(min_value=1, max_value=64))
def test_victim_invariants(raw, eviction_size):
    """``select_victim`` *is* the reference model: same winner (by
    identity, so first-of-equals too) under both policies, and the
    ``(b, cw)`` it reports are the brute-force sums."""
    entities = [entity(e, u, w, i) for i, (e, u, w) in enumerate(raw)]
    expected = _alg1_victim(entities, eviction_size)
    if expected is None:
        expected = _max_used_victim(entities)
    victim, b, cw = select_victim(entities, eviction_size, "exceed")
    assert victim is expected

    largest, b2, cw2 = select_victim(entities, eviction_size, "max_used")
    assert largest is _max_used_victim(entities)

    assert b == b2 == sum(
        e[1] - e[2] for e in entities if e[1] - e[2] > 2 * eviction_size)
    # Bit for bit: the same left-to-right float sum from 0.0.
    assert cw == cw2 == sum(
        (e[3] for e in entities if e[1] < e[2] + eviction_size), 0.0)
