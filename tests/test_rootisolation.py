"""Descartes-certified isolation of the largest non-negative root."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from overpoly.polynomials import Poly, product_gap_poly
from overpoly.rootisolation import (
    _bound_exponent,
    _certainly_squarefree,
    _integer_coeffs,
    _shift1,
    cauchy_root_bound,
    isolate_max_root,
    no_roots_above,
    round_half_away,
    sign_variations,
    squarefree_part,
    taylor_shift,
    variations_in_interval,
)

F = Fraction
WIDTH = F(1, 10**4)


def test_sign_variations():
    assert sign_variations([]) == 0
    assert sign_variations([1, 2, 3]) == 0
    assert sign_variations([1, -1, 1]) == 2
    assert sign_variations([1, 0, -1, 0, 0, 2]) == 2


def test_taylor_shift():
    p = Poly([-1, 0, 1])  # x^2 - 1
    assert taylor_shift(p, 1) == Poly([0, 2, 1])
    assert taylor_shift(p, -1) == Poly([0, -2, 1])
    q = Poly([3, -2, 5, 1])
    assert taylor_shift(taylor_shift(q, F(7, 3)), F(-7, 3)) == q


def test_cauchy_bound_exceeds_roots():
    # (x-2)(x+3)(x-1/2) has roots 2, -3, 1/2
    p = Poly([3, F(5, 2), -F(1, 2), 1]) * 2
    bound = cauchy_root_bound(p)
    assert bound > 3
    assert sign_variations(taylor_shift(p, bound).coeffs) == 0


def test_squarefree_part_collapses_multiplicity():
    p = Poly([-1, 1])  # x - 1
    q = Poly([2, 1])  # x + 2
    assert squarefree_part(p * p * q) in (p * q, (p * q) * F(1, 1))
    collapsed = squarefree_part(p * p * q * q * q)
    assert collapsed.degree == 2
    assert collapsed(1) == 0 and collapsed(-2) == 0


def test_variations_in_interval_counts():
    p = Poly([-1, 0, 1])  # roots at 1 and -1
    assert variations_in_interval(p, 0, 2) == 1
    assert variations_in_interval(p, F(3, 2), 2) == 0
    assert variations_in_interval(p, 0, F(1, 2)) == 0


def test_no_roots_above():
    p = Poly([-1, 0, 1])
    assert no_roots_above(p, 1)  # root exactly at 1, none beyond
    assert no_roots_above(p, 2)
    assert not no_roots_above(p, F(1, 2))


def test_exact_rational_roots():
    bracket = isolate_max_root(Poly([0, -2, 2]), WIDTH)  # 2x(x-1)
    assert bracket.has_root and bracket.lo == bracket.hi == 1
    bracket = isolate_max_root(Poly([0, F(-8, 3), 0, F(8, 3)]), WIDTH)  # (8/3)x(x^2-1)
    assert bracket.has_root and bracket.lo == bracket.hi == 1


def test_no_nonnegative_root():
    bracket = isolate_max_root(Poly([1, 0, 1]), WIDTH)  # x^2 + 1
    assert not bracket.has_root and bracket.lo == bracket.hi == 0
    bracket = isolate_max_root(Poly([1, 1]), WIDTH)  # x + 1, root -1
    assert not bracket.has_root


def test_root_at_zero_only():
    bracket = isolate_max_root(Poly([0, 0, 0, 1]), WIDTH)  # x^3
    assert bracket.has_root and bracket.lo == bracket.hi == 0
    bracket = isolate_max_root(Poly([0, 1, 1]), WIDTH)  # x(x+1)
    assert bracket.has_root and bracket.lo == bracket.hi == 0


def test_gap_polynomial_bracket():
    p = product_gap_poly(2, 2)
    bracket = isolate_max_root(p, WIDTH)
    assert bracket.has_root
    assert bracket.hi - bracket.lo <= WIDTH
    assert p(bracket.lo) < 0 < p(bracket.hi)
    assert no_roots_above(p, bracket.hi)
    mid = float((bracket.lo + bracket.hi) / 2)
    assert abs(mid - 0.84) < 0.01


def test_constant_rejected():
    with pytest.raises(ValueError):
        isolate_max_root(Poly([3]), WIDTH)
    with pytest.raises(ValueError):
        isolate_max_root(Poly([0, 1]), 0)


def test_negative_leading_coefficient_normalized():
    bracket = isolate_max_root(Poly([0, 2, -2]), WIDTH)  # -2x(x-1), largest root 1
    assert bracket.has_root and bracket.lo <= 1 <= bracket.hi


root_lists = st.lists(
    st.fractions(max_denominator=4, min_value=F(-3), max_value=F(3)),
    min_size=1,
    max_size=5,
)


@given(root_lists)
def test_bracket_contains_known_max_root(roots):
    poly = Poly([1])
    for r in roots:
        poly = poly * Poly([-r, 1])
    bracket = isolate_max_root(poly, WIDTH)
    nonneg = [r for r in roots if r >= 0]
    if not nonneg:
        assert not bracket.has_root
        return
    top = max(nonneg)
    assert bracket.has_root
    assert bracket.lo <= top <= bracket.hi
    assert bracket.hi - bracket.lo <= WIDTH


def test_integer_shift_matches_fraction_shift():
    q = [3, -2, 5, 1, 0, -7]
    assert Poly(_shift1(q)) == taylor_shift(Poly(q), 1)
    assert _shift1([-1, 0, 1]) == [0, 2, 1]


def test_modular_squarefree_certificate():
    p = Poly([-1, 1]) * Poly([2, 1]) * Poly([-2, 0, 1])  # (x-1)(x+2)(x^2-2)
    assert _certainly_squarefree(_integer_coeffs(p.coeffs))
    assert not _certainly_squarefree(_integer_coeffs((p * Poly([-1, 1])).coeffs))
    assert _certainly_squarefree(_integer_coeffs(product_gap_poly(5, 7).coeffs[1:]))


@pytest.mark.parametrize(
    "square, rounded",
    [
        (1115000001**2 + 1, "1.12"),
        (1114999999**2 + 1, "1.11"),
        (1125000001**2 + 1, "1.13"),
        (1124999999**2 + 1, "1.12"),
    ],
)
def test_rounding_settled_near_a_tie(square, rounded):
    # 10^18 x^2 - square: an irrational root within 1e-8 of the tie 1.115 or 1.125.
    p = Poly([-square, 0, 10**18])
    raw = isolate_max_root(p, WIDTH)
    if F(square, 10**18) > F(9, 8) ** 2:
        # Just above the dyadic 9/8, the search bracket starts exactly on the tie.
        assert raw.lo == F(9, 8)
    else:
        assert round_half_away(raw.lo) != round_half_away(raw.hi)  # the search alone straddles
    lo, hi, has_root = isolate_max_root(p, WIDTH, places=2)
    assert has_root and 0 < hi - lo <= WIDTH
    assert round_half_away(lo) == round_half_away(hi) == rounded
    assert p(lo) < 0 < p(hi)
    assert variations_in_interval(p, lo, hi) == 1
    assert no_roots_above(p, hi)


def test_rounding_settled_on_an_exact_tie():
    p = Poly([-9, -1, 8])  # (8x - 9)(x + 1): the root 9/8 is the tie 1.125
    # 9/8 is dyadic, so the search in the frame (0, 2) hits it as an exact midpoint.
    assert isolate_max_root(p, WIDTH) == (F(9, 8), F(9, 8), True)
    assert isolate_max_root(p, WIDTH, places=2) == (F(9, 8), F(9, 8), True)
    q = Poly([-223, -23, 200])  # (200x - 223)(x + 1): the tie 1.115 is not dyadic
    raw = isolate_max_root(q, WIDTH)
    assert raw.lo < F(223, 200) < raw.hi  # the search alone straddles; the rounding cut finds it
    assert isolate_max_root(q, WIDTH, places=2) == (F(223, 200), F(223, 200), True)


def _linear(r):
    return Poly([-r, 1])


factors = st.one_of(
    st.fractions(max_denominator=4, min_value=F(-3), max_value=F(3)).map(_linear),
    # x^2 - m: irrational real roots when m is not a square
    st.sampled_from([2, 3, 5, 7]).map(lambda m: Poly([-m, 0, 1])),
    # x^2 + b x + c with b^2 < 4c: no real roots
    st.tuples(st.integers(-3, 3), st.integers(3, 6)).map(lambda bc: Poly([bc[1], bc[0], 1])),
)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=4))
def test_bracket_certified_with_repeated_factors(factored):
    poly, distinct = Poly([1]), Poly([1])
    for factor, multiplicity in factored:
        for _ in range(multiplicity):
            poly = poly * factor
    for factor in {f for f, _ in factored}:
        distinct = distinct * factor
    lo, hi, has_root = isolate_max_root(poly, WIDTH, places=2)
    assert no_roots_above(poly, hi)
    if not has_root:
        assert lo == hi == 0
        return
    assert round_half_away(lo) == round_half_away(hi)
    if lo == hi:
        assert poly(lo) == 0
    else:
        assert 0 <= lo < hi and hi - lo <= WIDTH
        assert variations_in_interval(squarefree_part(distinct), lo, hi) == 1


@settings(deadline=None, max_examples=80)
@given(st.lists(factors, min_size=1, max_size=4))
def test_power_of_two_bound_is_the_smallest_certified(factor_list):
    poly = Poly([1])
    for factor in factor_list:
        poly = poly * factor
    e = _bound_exponent(_integer_coeffs(poly.coeffs), cauchy_root_bound(poly))
    bound = F(2**e)
    assert bound <= 2 * cauchy_root_bound(poly)
    assert poly(bound) != 0 and no_roots_above(poly, bound)
    if e > 0:
        half = bound / 2
        assert poly(half) == 0 or sign_variations(taylor_shift(poly, half).coeffs) > 0


def test_power_of_two_bound_checks_its_certificate(monkeypatch):
    import overpoly.rootisolation as rootisolation

    assert _bound_exponent([-9, -1, 8], F(17, 8)) == 1  # (8x - 9)(x + 1) needs B = 2
    calls = []

    def always_varies(coeffs):
        calls.append(coeffs)
        if len(calls) > 10:
            raise RuntimeError("the search went far past the Cauchy bound 17/8")
        return 1

    monkeypatch.setattr(rootisolation, "sign_variations", always_varies)
    with pytest.raises(AssertionError):
        _bound_exponent([-9, -1, 8], F(17, 8))
    assert len(calls) == 3  # e = 0, 1, 2, and 2^2 >= 17/8


def _sympy_max_root_interval(poly):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rationals = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)]
    intervals = sympy.Poly(rationals, x).intervals(eps=sympy.Rational(1, 10**6))
    (lo, hi), _ = max(intervals, key=lambda item: item[0][1])
    return F(int(lo.p), int(lo.q)), F(int(hi.p), int(hi.q))


@pytest.mark.parametrize("a, b", [(1, 3), (2, 5), (3, 4), (4, 9), (6, 6), (7, 2), (8, 8)])
def test_max_root_agrees_with_sympy(a, b):
    poly = product_gap_poly(a, b)
    s_lo, s_hi = _sympy_max_root_interval(poly)
    lo, hi, has_root = isolate_max_root(poly, WIDTH)
    assert has_root
    assert s_lo <= hi and lo <= s_hi  # the two isolating intervals overlap
