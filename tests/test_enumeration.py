"""The brute-force overpartition oracle."""

import hashlib
import re
from fractions import Fraction
from itertools import chain, product, zip_longest

import pytest
from hypothesis import given, strategies as st

from overpoly import bijections
from overpoly.divisors import pbar_exact
from overpoly.enumeration import (
    CapExceededError,
    Constraint,
    DEFAULT_CAPS,
    NO_CONSTRAINT,
    Part,
    canonicalize,
    count_ops,
    enumerate_ops,
    forbid,
    is_canonical,
    iter_ops,
    weight,
)
from overpoly.polynomials import colored_count_via_product, pbar_poly

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
    for k, cap in DEFAULT_CAPS.items():
        for n in range(cap + 1):
            assert count_ops(n, k) == colored_count_via_product(n, k)


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


def test_canonicalize_returns_parts_and_keeps_given_ones():
    given = Part(3, 1, True)
    canon = canonicalize([(2, 1, False), given])
    assert canon == (given, Part(2, 1, False))
    assert canon[0] is given and all(type(part) is Part for part in canon)
    with pytest.raises(ValueError):
        canonicalize([(2, 1, True), Part(2, 1, True)])  # validation sees plain tuples too


def test_canonicalize_sorts_by_the_key_order():
    # Every sequence of up to three parts with size 1..2, color 1..2 and either overline.
    pool = [Part(*p) for p in product((1, 2), (1, 2), (False, True))]
    for length in range(4):
        for given in product(pool, repeat=length):
            overlined = [p[:2] for p in given if p.overlined]
            if len(set(overlined)) < len(overlined):
                with pytest.raises(ValueError, match="^duplicate overline"):
                    canonicalize(given, 2)
            else:
                assert canonicalize(given, 2) == tuple(sorted(given, key=lambda p: (-p.size, -p.color, p.overlined)))


def test_canonicalize_rejects_duplicate_overline():
    with pytest.raises(ValueError):
        canonicalize([Part(2, 1, True), Part(2, 1, True)])


def test_canonicalize_rejects_bad_parts():
    with pytest.raises(ValueError):
        canonicalize([Part(0, 1, False)])
    with pytest.raises(ValueError, match=r"^part color 3 outside 1\.\.2$"):
        canonicalize([Part(2, 3, False)], k=2)
    with pytest.raises(ValueError, match="^part color 0 below 1$"):  # used to say "outside 1..None"
        canonicalize((Part(1, 0),))


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
    # a caller's cap replaces the default cap for its color count
    assert count_ops(26, 1, NO_CONSTRAINT, cap=26) > 0


def test_negative_cap_is_a_value_error_not_a_cap_excess():
    # -1 used to be read as a cap that weight 0 exceeds.
    for n in (0, 3):
        with pytest.raises(ValueError, match=r"^need cap >= 0, got -1$"):
            iter_ops(n, 1, cap=-1)
    with pytest.raises(ValueError, match=r"^need cap >= 0, got -1$"):
        enumerate_ops(-2, 0, cap=-1)  # the cap is checked before n and k


def test_constraint_parsing():
    assert Constraint.parse("1_1,2_1") == forbid((1, 1), (2, 1))
    assert Constraint.parse("3") == forbid((3, 1))
    assert Constraint.parse("") == NO_CONSTRAINT
    assert Constraint.parse(" 01_02 ,") == forbid((1, 2))
    for bad in ("1_1_1", "0_1", "1_0", "1_", "_1", "x", "+1"):
        with pytest.raises(ValueError, match=re.escape(f"'{bad}'")):
            Constraint.parse(bad)


def test_deterministic_order():
    assert enumerate_ops(4, 2) == enumerate_ops(4, 2)


def _reference_iter_ops(n, k, constraint):
    """The descent that visits every (size, color) pair, used ones or not: the order oracle."""
    pairs = [(s, c) for s in range(n, 0, -1) for c in range(k, 0, -1)]

    def descend(idx, remaining, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        if idx == len(pairs):
            return
        size, color = pairs[idx]
        if size > remaining:
            yield from descend(idx + 1, remaining, acc)
            return
        max_plain = 0 if (size, color) in constraint.forbidden else remaining // size
        for plain in range(max_plain + 1):
            base = plain * size
            acc.extend([Part(size, color, False)] * plain)
            yield from descend(idx + 1, remaining - base, acc)
            if base + size <= remaining:
                acc.append(Part(size, color, True))
                yield from descend(idx + 1, remaining - base - size, acc)
                acc.pop()
            del acc[len(acc) - plain :]

    return descend(0, n, [])


# The ban sets of the five maps' domains and codomains, with the color counts they run at.
UNCOLORED_BANS = {
    "none": NO_CONSTRAINT,
    "1_1": bijections.NO_ONES,
    "2_1": bijections.NO_TWOS,
    "1_1,2_1": bijections.NO_ONES_NO_TWOS,
}
COLORED_BANS = {
    "none": NO_CONSTRAINT,
    "1_1": bijections.NO_ONES,
    "1_2": bijections.NO_ONES_C2,
    "1_1,1_2": bijections.NO_ONES_C1_C2,
}
MAP_CASES = [(1, ban) for ban in UNCOLORED_BANS] + [(k, ban) for k in (2, 3) for ban in COLORED_BANS]


@pytest.mark.parametrize("k, ban", MAP_CASES)
def test_iter_ops_keeps_the_full_descent_order(k, ban):
    constraint = (UNCOLORED_BANS if k == 1 else COLORED_BANS)[ban]
    for n in range(13):
        fast = iter_ops(n, k, constraint, cap=12)
        first = next(fast)
        assert all(type(part) is Part for part in first)
        pairs = zip_longest(chain([first], fast), _reference_iter_ops(n, k, constraint))
        assert all(got == want for got, want in pairs)


# sha256 of repr(enumerate_ops(...)) for the domain, left and right codomain of
# the four benchmark audits, recorded before the light-suffix memo went in.
AUDIT_ORDER_HASHES = {
    ("g1", 24, None, 1): (
        "4661085c1dbd2ff85f181ea9ebfb94e28b37f7d912e9d6f856cd010f7841e927",
        "e25b9abea21d33aeb46dd1641c665e09b65e95ef972e9baf7350765b36edf76a",
        "8e0f34dd7fbf088d03f5d3364e056c7110f9b5a60bfbc2f5620a9108109a4298",
    ),
    ("g2", 23, None, 1): (
        "4661085c1dbd2ff85f181ea9ebfb94e28b37f7d912e9d6f856cd010f7841e927",
        "c5f8eacd77d808cd9d618f723700e3ab27553bb63d3769c6614682e39a86d522",
        "eb7929a4548c2e7099f6a2aed7ae5154e27a9c7b99426cef7bb85ce848d25c30",
    ),
    ("fk", 7, 5, 2): (
        "a59288cb04972d8ad638e061f63683b57271543c485d42a20b1e2bd2df35279e",
        "7e0d20ce3d8692e0be2eace062b963c4758621d779093b57316073ffe93ff277",
        "de5bc5f76fbb4ef7eed4e2ecd61a6537b6997e2a6c4b6d153fe39ef3dbdfa1c2",
    ),
    ("gk", 7, None, 3): (
        "bd2e6539614338d079c8af9261b61aa69c0a693e5d298a45edd90a0f00c00b4c",
        "da1bf562dbb4ade9af957bce06b2857669e019398604c6e42b8507a54f3de1cc",
        "e79692d623888103c4bdb3493f97a31c0cb8c6d45c269edd4c6bee0a9776c985",
    ),
}


@pytest.mark.parametrize("cell", AUDIT_ORDER_HASHES)
def test_enumeration_order_is_pinned_at_the_audit_weights(cell):
    map_name, a, b, k = cell
    entry = bijections.MAPS[map_name]
    weight_b = entry.fixed_b or b
    triples = [(a + weight_b, entry.domain), (a, entry.left), (weight_b, entry.right)]
    hashes = tuple(hashlib.sha256(repr(enumerate_ops(n, k, c)).encode()).hexdigest() for n, c in triples)
    assert hashes == AUDIT_ORDER_HASHES[cell]
