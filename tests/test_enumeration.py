"""The brute-force overpartition oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from overpoly.divisors import pbar_exact
from overpoly.enumeration import (
    CapExceededError,
    Constraint,
    NO_CONSTRAINT,
    Part,
    canonicalize,
    count_ops,
    enumerate_ops,
    forbid,
    is_canonical,
    weight,
)
from overpoly.polynomials import pbar_poly

NO_ONES = forbid((1, 1))


def test_enumerate_empty_weight():
    assert enumerate_ops(0, 1) == [()]
    assert enumerate_ops(0, 5) == [()]


def test_two_colored_of_two():
    items = enumerate_ops(2, 2)
    assert len(items) == 12
    assert len(set(items)) == 12
    assert all(weight(parts) == 2 for parts in items)


def test_no_ones_counts():
    assert count_ops(3, 1, NO_ONES) == 4
    assert count_ops(6, 1, NO_ONES) == 16


def test_constraint_bans_only_plain_parts():
    # one overlined 1 is still admitted under "no 1's"
    items = enumerate_ops(3, 1, NO_ONES)
    assert (Part(2, 1, False), Part(1, 1, True)) in items
    assert all(
        not (p.size == 1 and p.color == 1 and not p.overlined)
        for parts in items
        for p in parts
    )


def test_colored_closed_form_counts():
    for k in (2, 3, 4):
        assert count_ops(2, k, forbid((1, 1), (1, 2))) == 2 * k * k - 2 * k + 1
    for k in (2, 3):
        assert count_ops(2, k, forbid((1, 1))) == 2 * k * k
    for k in (1, 2, 3):
        expected = Fraction(2 * k**4 + 8 * k**3 + 10 * k**2 - 2 * k, 3)
        assert count_ops(4, k, forbid((1, 1))) == expected
    assert count_ops(4, 1, NO_ONES) == 6
    for k in (2, 3):
        assert count_ops(1, k, forbid((1, 1))) == 2 * k - 1
        assert count_ops(1, k) == 2 * k


def test_oracle_equivalence_small():
    for n in range(0, 13):
        assert count_ops(n, 1) == pbar_exact(n)
    for n in range(0, 9):
        assert count_ops(n, 2) == pbar_poly(n)(2)
    for n in range(0, 7):
        assert count_ops(n, 3) == pbar_poly(n)(3)


def test_removal_identity():
    for n in range(1, 21):
        assert count_ops(n, 1) - count_ops(n, 1, NO_ONES) == count_ops(n - 1, 1)
    for n in range(1, 11):
        assert count_ops(n, 2) - count_ops(n, 2, forbid((1, 1))) == count_ops(n - 1, 2)


def test_outputs_canonical_and_idempotent():
    for n in range(0, 9):
        for parts in enumerate_ops(n, 2):
            assert is_canonical(parts)
            assert canonicalize(parts, 2) == parts


def test_canonicalize_examples():
    assert canonicalize([Part(2, 1, True), Part(2, 1, False)]) == (
        Part(2, 1, False),
        Part(2, 1, True),
    )
    assert canonicalize([Part(4, 2, False), Part(4, 2, True), Part(4, 3, False)], 3) == (
        Part(4, 3, False),
        Part(4, 2, False),
        Part(4, 2, True),
    )
    assert canonicalize([Part(1, 1, True), Part(1, 1, False), Part(1, 1, False)]) == (
        Part(1, 1, False),
        Part(1, 1, False),
        Part(1, 1, True),
    )


def test_canonicalize_rejects_duplicate_overline():
    with pytest.raises(ValueError):
        canonicalize([Part(2, 1, True), Part(2, 1, True)])


def test_canonicalize_rejects_bad_parts():
    with pytest.raises(ValueError):
        canonicalize([Part(0, 1, False)])
    with pytest.raises(ValueError):
        canonicalize([Part(2, 3, False)], k=2)


raw_parts = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    ),
    max_size=8,
)


@given(raw_parts, st.randoms(use_true_random=False))
def test_canonicalize_is_order_free_and_idempotent(parts, rng):
    overlined = [(s, c) for (s, c, o) in parts if o]
    if len(set(overlined)) != len(overlined):
        with pytest.raises(ValueError):
            canonicalize(parts, 3)
        return
    canon = canonicalize(parts, 3)
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert canonicalize(shuffled, 3) == canon
    assert canonicalize(canon, 3) == canon


def test_cap_enforcement():
    from overpoly.enumeration import iter_ops

    with pytest.raises(CapExceededError, match="cap"):
        iter_ops(26, 1)  # eager: raises at call, not at first consumption
    with pytest.raises(CapExceededError, match="cap"):
        enumerate_ops(26, 1)
    with pytest.raises(CapExceededError):
        count_ops(13, 2)
    with pytest.raises(CapExceededError):
        count_ops(5, 7)
    # caps are configuration, not constants
    assert count_ops(26, 1, NO_CONSTRAINT, caps={1: 26}) > 0


def test_constraint_parsing():
    assert Constraint.parse("1_1,2_1") == forbid((1, 1), (2, 1))
    assert Constraint.parse("3") == forbid((3, 1))
    assert Constraint.parse("") == NO_CONSTRAINT


def test_deterministic_order():
    assert enumerate_ops(4, 2) == enumerate_ops(4, 2)
