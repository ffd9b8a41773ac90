"""Descartes-certified isolation of the largest non-negative root."""

from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import fraction_shift, fraction_variations_in_interval, poly_mul

import overpoly.rootisolation as rootisolation
from overpoly.polynomials import Poly, _horner, _scaled_coeffs, product_gap_poly
from overpoly.rootisolation import (
    _bound_exponent,
    _integer_shift,
    _scaled_shift,
    _shift1,
    cauchy_root_bound,
    isolate_max_root,
    no_roots_above,
    round_half_away,
    sign_variations,
    squarefree_part,
    variations_in_interval,
)

F = Fraction
WIDTH = F(1, 10**4)


def _product(factors) -> Poly:
    """The product of integer coefficient lists, through the list oracle."""
    nums = [1]
    for factor in factors:
        nums = poly_mul(nums, factor)
    return Poly(nums)


def _linear(r):
    """x - r for a Fraction r, scaled to the integers (-numerator, denominator)."""
    return (-r.numerator, r.denominator)


def test_sign_variations():
    assert sign_variations([]) == 0
    assert sign_variations([1, 2, 3]) == 0
    assert sign_variations([1, -1, 1]) == 2
    assert sign_variations([1, 0, -1, 0, 0, 2]) == 2


def test_taylor_shift():
    assert _integer_shift([-1, 0, 1], F(1)) == [0, 2, 1]  # x^2 - 1 at 1 + t
    assert _integer_shift([-1, 0, 1], F(-1)) == [0, -2, 1]
    assert _integer_shift([-1, 0, 1], F(1, 2)) == [-3, 2, 1]  # 2^2 ((1 + t)/2)^2 - 2^2
    q = [3, -2, 5, 1]
    assert _integer_shift(_integer_shift(q, F(7)), F(-7)) == q
    assert _integer_shift(q, F(0)) == q  # u = 0: the coefficients scaled by q^i = 1
    assert _integer_shift([-1, 0, 1], F(-3, 2)) == [5, -6, 1]  # (t - 3)^2 - 2^2
    assert _integer_shift([0, 2, 0, 1], F(-3, 2)) == [-51, 35, -9, 1]  # (t - 3)^3 + 8 (t - 3)
    assert _integer_shift([0, 2, 0, 1], F(-5)) == [-135, 77, -15, 1]  # (t - 5)^3 + 2 (t - 5)


shift_points = st.fractions(min_value=-4, max_value=4, max_denominator=12)
integer_lists = st.lists(st.integers(-20, 20), max_size=8)


@given(integer_lists, st.integers(1, 30), shift_points)
@example([3, -2, 5, 1, 0, -7], 1, F(0))
@example([3, -2, 5, 1, 0, -7], 6, F(-3, 2))  # exact division by the negative powers of u = -3
@example([3, -2, 5, 1, 0, -7], 1, F(-5))
def test_shifts_agree_with_the_fraction_oracle(nums, den, c):
    p = Poly(nums, den)
    if not p:
        with pytest.raises(ValueError, match="zero polynomial"):
            _integer_shift(p.nums, c)
        return
    d, q = p.degree, c.denominator
    # q^d * p((u + t)/q) is q^d * p(c + t/q): coefficient i is q^(d-i) times the one of p(c + t).
    expected = [q ** (d - i) * s for i, s in enumerate(fraction_shift(p.nums, c))]
    assert _integer_shift(p.nums, c) == expected


@given(integer_lists, shift_points, st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12))
def test_variations_in_interval_agrees_with_the_fraction_oracle(nums, lo, width):
    p = Poly(nums)
    if not p:
        with pytest.raises(ValueError, match="zero polynomial"):
            variations_in_interval(p, lo, lo + width)
        return
    expected = fraction_variations_in_interval(p.coeffs, lo, lo + width)
    assert variations_in_interval(p, lo, lo + width) == expected


def _decimal_half_up(q: Fraction, places: int) -> Decimal:
    """q rounded to `places` digits, ties away from zero, by the decimal module.

    At 60 digits n/d is exact when it can be a tie, that is when d divides
    2 * 10^places; otherwise it lies at least 1/(2 * 10^places * d) from every
    tie, far more than the quotient's rounding error for the sizes drawn here.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(q.numerator) / Decimal(q.denominator)).quantize(Decimal(10) ** -places, ROUND_HALF_UP)


ties = [F(sign * (2 * u + 1), 2 * 10**p) for sign in (1, -1) for u in (0, 1, 7, 42) for p in range(5)]


@settings(max_examples=300)
@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6) | st.sampled_from(ties), st.integers(0, 4))
@example(F(-1, 300), 2)  # rounds to zero: no sign
@example(F(-4999, 10**6), 2)
@example(F(-1, 3), 0)
@example(F(-5, 1000), 2)  # an exact tie below zero rounds away, to -0.01
@example(F(5, 2), 0)  # a tie at places = 0: "3", with no point
def test_round_half_away_matches_decimal_half_up(q, places):
    text = round_half_away(q, places)
    expected = _decimal_half_up(q, places)
    assert Decimal(text) == expected
    assert text.startswith("-") == (expected < 0)  # a value that rounds to zero prints unsigned
    head, point, tail = text.partition(".")
    assert (len(tail), point) == (places, "." if places else "") and head.lstrip("-").isdigit()


def test_round_half_away_rejects_negative_places():
    with pytest.raises(ValueError, match="places >= 0"):
        round_half_away(F(5, 2), -1)


def test_zero_polynomial_has_no_certificate():
    # It vanishes everywhere, so "no roots" from zero sign variations would be false.
    with pytest.raises(ValueError, match="zero polynomial"):
        no_roots_above(Poly(), 0)
    with pytest.raises(ValueError, match="zero polynomial"):
        variations_in_interval(Poly([0, 0]), 0, 1)


def test_cauchy_bound_exceeds_roots():
    p = _product([(-2, 1), (3, 1), (-1, 2)])  # (x - 2)(x + 3)(2x - 1): roots 2, -3, 1/2
    bound = cauchy_root_bound(p)
    assert bound > 3
    assert sign_variations(_integer_shift(p.nums, bound)) == 0


def test_squarefree_part_collapses_multiplicity():
    p = [-1, 1]  # x - 1
    q = [2, 1]  # x + 2
    assert squarefree_part(_product([p, p, q])) == _product([p, q])
    # (2x - 1)^2 (x + 2) over x - 1/2, the monic gcd: the primitive gcd 2x - 1 has lead 2.
    assert squarefree_part(_product([[1, -4, 4], q])) == Poly([-4, 6, 4])
    collapsed = squarefree_part(_product([p, p, q, q, q]))
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
    assert no_roots_above(Poly([1, -1, 1]), 0) is False  # no real root, but two sign variations: not certified


def test_exact_rational_roots():
    bracket = isolate_max_root(Poly([0, -2, 2]), WIDTH)  # 2x(x-1)
    assert bracket.lo == bracket.hi == 1
    bracket = isolate_max_root(Poly([0, -8, 0, 8], 3), WIDTH)  # (8/3)x(x^2-1)
    assert bracket.lo == bracket.hi == 1


@pytest.mark.parametrize(
    "nums",
    [[1, 0, 1], [1, 1], [2, -3, 1], [0, 1, 1]],
    ids=["x^2 + 1", "x + 1", "(x - 1)(x - 2)", "x(x + 1)"],
)
def test_positive_constant_term_is_rejected(nums):
    # p over its largest power of x is positive at 0, with or without a non-negative root.
    with pytest.raises(ValueError, match="positive at 0"):
        isolate_max_root(Poly(nums), WIDTH)


def test_root_at_zero_only():
    bracket = isolate_max_root(Poly([0, 0, 0, 1]), WIDTH)  # x^3
    assert bracket == (0, 0)


def test_gap_polynomial_bracket():
    p = product_gap_poly(2, 2)
    bracket = isolate_max_root(p, WIDTH)
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
    assert bracket.lo <= 1 <= bracket.hi


root_lists = st.lists(
    st.fractions(max_denominator=4, min_value=F(-3), max_value=F(3)),
    min_size=1,
    max_size=5,
)


def _bracket_or_raise(poly, places=None):
    """isolate_max_root's bracket, or None when it raised: ValueError exactly
    when p over its largest power of x is positive at 0 (p not c x^k), else
    only a plain ArithmeticError from a failed certificate."""
    nonzero = [c for c in poly.nums if c]
    rejected = len(nonzero) > 1 and (nonzero[0] > 0) == (nonzero[-1] > 0)
    try:
        bracket = isolate_max_root(poly, WIDTH, places)
    except ValueError:
        assert rejected
        return None
    except ArithmeticError as exc:
        assert type(exc) is ArithmeticError and not rejected
        return None
    assert not rejected
    return bracket


positive_roots = st.fractions(max_denominator=4, min_value=F(1, 4), max_value=F(3))


@given(root_lists, positive_roots)
def test_bracket_contains_known_max_root(roots, extra):
    # An odd count of positive roots makes the deflated constant term negative, as the search needs.
    if sum(r > 0 for r in roots) % 2 == 0:
        roots = [*roots, extra]
    poly = _product(map(_linear, roots))
    bracket = _bracket_or_raise(poly)
    if bracket is None:
        return
    top = max(r for r in roots if r >= 0)
    assert bracket.lo <= top <= bracket.hi
    assert bracket.hi - bracket.lo <= WIDTH


def test_integer_shift_matches_fraction_shift():
    q = [3, -2, 5, 1, 0, -7]
    assert _shift1(q) == fraction_shift(q, 1)
    assert _shift1(q) == _integer_shift(q, F(1))
    assert _shift1([-1, 0, 1]) == [0, 2, 1]


@given(integer_lists, st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12))
def test_scaled_shift_agrees_with_the_fraction_oracle(nums, x):
    # q^d p(x(1 + t)) is q^d p(x + s) at s = x t: coefficient i gains x^i.
    q, d = x.denominator, len(nums) - 1
    expected = [q**d * s * x**i for i, s in enumerate(fraction_shift(nums, x))]
    assert _scaled_shift(nums, x) == expected


# (4x - 3)^2 (10x - 3): the double root 3/4 and the simple root 3/10.
ROOT_PAIR = [-27, 162, -288, 160]


@example(ROOT_PAIR, (3, 4))
@example(ROOT_PAIR, (75, 100))
@example(ROOT_PAIR, (30, 100))
@example(ROOT_PAIR, (12288, 16384))
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=8),
    # m / (5^j 2^k): the dyadic points of the bisection and the decimal cuts of the rounding
    st.tuples(st.integers(-300, 300), st.integers(0, 3), st.integers(0, 8)).map(lambda t: (t[0], 5 ** t[1] << t[2])),
)
def test_integer_sign_agrees_with_poly_and_the_fraction_oracle(nums, point):
    m, q = point
    value, oracle = Poly(nums)(F(m, q)), fraction_shift(nums, F(m, q))[0]
    scaled = _horner(_scaled_coeffs(nums, q), m)
    assert (scaled > 0) - (scaled < 0) == (value > 0) - (value < 0) == (oracle > 0) - (oracle < 0)


def test_bisection_bracket_kept_without_the_descartes_search():
    lo, hi = isolate_max_root(_product([_linear(F(86, 100)), (1, 1)]), WIDTH)  # p(0) < 0
    assert lo < F(86, 100) < hi and hi - lo <= WIDTH


# The two tests below keep the names from when a Descartes search took over
# where the bisection bracket failed its certificate; now the search raises.
def test_search_falls_back_past_a_smaller_sign_change():
    # p(0) < 0 < p(1/2): bisection pins 3/10, whose bracket fails the test above hi.
    p = _product(map(_linear, [F(3, 10), F(84, 100), F(86, 100)]))
    with pytest.raises(ArithmeticError, match="fails its certificate"):
        isolate_max_root(p, WIDTH)


def test_search_falls_back_past_a_double_root():
    # The double root 3/4 has no sign change; bisection finds only 3/10.
    p = _product(map(_linear, [F(3, 4), F(3, 4), F(3, 10)]))
    for places in (None, 2):
        with pytest.raises(ArithmeticError, match="fails its certificate"):
            isolate_max_root(p, WIDTH, places)


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
    lo, hi = isolate_max_root(p, WIDTH, places=2)
    assert 0 < hi - lo <= WIDTH
    assert round_half_away(lo) == round_half_away(hi) == rounded
    assert p(lo) < 0 < p(hi)
    assert variations_in_interval(p, lo, hi) == 1
    assert no_roots_above(p, hi)


def test_rounding_settled_on_an_exact_tie():
    p = Poly([-9, -1, 8])  # (8x - 9)(x + 1): the root 9/8 is the tie 1.125
    # 9/8 is dyadic, so the search in the frame (0, 2) hits it as an exact midpoint.
    assert isolate_max_root(p, WIDTH) == (F(9, 8), F(9, 8))
    assert isolate_max_root(p, WIDTH, places=2) == (F(9, 8), F(9, 8))
    q = Poly([-223, -23, 200])  # (200x - 223)(x + 1): the tie 1.115 is not dyadic
    raw = isolate_max_root(q, WIDTH)
    assert raw.lo < F(223, 200) < raw.hi  # the search alone straddles; the rounding cut finds it
    assert isolate_max_root(q, WIDTH, places=2) == (F(223, 200), F(223, 200))


def test_rounding_raises_without_a_sign_change():
    # x - 1 is negative on all of (0, 0.505], and 0.505 is a rounding boundary:
    # the midpoint cuts toward it used to go on forever.
    with pytest.raises(ArithmeticError, match="no sign change"):
        rootisolation._refine([-1, 1], F(0), F(101, 200), F(1), 2)


@pytest.mark.parametrize("factor", [[1], [1, 0, 1], [3, -2, 0, 0, 5]])
@pytest.mark.parametrize("n", [1, 10**6, 10**30])
def test_rounding_reaches_a_root_just_below_a_boundary(n, factor):
    # n (200x - 101) + 1 has its root 1/(200 n) below the boundary 0.505, and the
    # factor is positive there; the midpoint cuts toward 0.505 stay inside their bound.
    p = _product([[1 - 101 * n, 200 * n], factor])
    lo, hi = rootisolation._refine(list(p.nums), F(0), F(101, 200), F(1), 2)
    assert lo <= F(101, 200) - F(1, 200 * n) <= hi
    assert round_half_away(lo) == round_half_away(hi) == "0.50"


factors = st.one_of(
    st.fractions(max_denominator=4, min_value=F(-3), max_value=F(3)).map(_linear),
    # x^2 - m: irrational real roots when m is not a square
    st.sampled_from([2, 3, 5, 7]).map(lambda m: (-m, 0, 1)),
    # x^2 + b x + c with b^2 < 4c: no real roots
    st.tuples(st.integers(-3, 3), st.integers(3, 6)).map(lambda bc: (bc[1], bc[0], 1)),
)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=4), positive_roots)
def test_bracket_certified_with_repeated_factors(factored, extra):
    # A factor f has one positive root when f(0) < 0 and none otherwise: the
    # extra root makes their count odd, so the deflated constant term is negative.
    if sum(multiplicity for factor, multiplicity in factored if factor[0] < 0) % 2 == 0:
        factored = [*factored, (_linear(extra), 1)]
    poly = _product(factor for factor, multiplicity in factored for _ in range(multiplicity))
    distinct = _product({factor for factor, _ in factored})
    bracket = _bracket_or_raise(poly, places=2)
    if bracket is None:
        return
    lo, hi = bracket
    assert no_roots_above(poly, hi)
    assert round_half_away(lo) == round_half_away(hi)
    if lo == hi:
        assert poly(lo) == 0
    else:
        assert 0 <= lo < hi and hi - lo <= WIDTH
        assert variations_in_interval(squarefree_part(distinct), lo, hi) == 1


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=4))
def test_squarefree_part_is_the_product_of_the_distinct_factors(factored):
    poly = _product(factor for factor, multiplicity in factored for _ in range(multiplicity))
    distinct = _product({factor for factor, _ in factored})
    # p / monic(gcd(p, p')) keeps the leading coefficient of p.
    scale = poly.coeffs[-1] / distinct.coeffs[-1]
    assert squarefree_part(poly).coeffs == tuple(c * scale for c in distinct.coeffs)


@settings(deadline=None, max_examples=80)
@given(st.lists(factors, min_size=1, max_size=4))
def test_power_of_two_bound_is_the_smallest_certified(factor_list):
    poly = _product(factor_list)
    e = _bound_exponent(poly.nums, cauchy_root_bound(poly))
    bound = F(2**e)
    assert bound <= 2 * cauchy_root_bound(poly)
    assert poly(bound) != 0 and no_roots_above(poly, bound)
    if e > 0:
        half = bound / 2
        assert poly(half) == 0 or sign_variations(_integer_shift(poly.nums, half)) > 0


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
    lo, hi = isolate_max_root(poly, WIDTH)
    assert s_lo <= hi and lo <= s_hi  # the two isolating intervals overlap
