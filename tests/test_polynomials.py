"""Exact polynomials and the overpartition polynomial family."""

import importlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from oracles import formal_derivative, poly_mul, sigma_bar_memo

from overpoly import polynomials
from overpoly.divisors import pbar_exact, sigma_bar
from overpoly.polynomials import (
    Poly,
    colored_count_via_product,
    pbar_derivative,
    pbar_poly,
    product_gap_poly,
    scaled_values,
    series_expand,
)

# The package re-exports the function `divisors`, which shadows the submodule.
divisors_module = importlib.import_module("overpoly.divisors")

F = Fraction
ROOT = Path(__file__).resolve().parents[1]

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
rational_lists = st.lists(rationals, max_size=6)


def _over_lcm(cs) -> Poly:
    """The Poly of the Fraction list cs: numerators over the lcm of its denominators."""
    den = lcm(*(c.denominator for c in cs))
    return Poly([c.numerator * (den // c.denominator) for c in cs], den)


def _trimmed(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _reference_str(cs) -> str:
    """The printed form of the trimmed Fraction list cs, highest degree first."""
    out = ""
    for i in reversed(range(len(cs))):
        if cs[i] == 0:
            continue
        mag = abs(cs[i])
        term = str(mag) if i == 0 else ("" if mag == 1 else f"{mag}*") + ("x" if i == 1 else f"x^{i}")
        if not out:
            out = ("-" if cs[i] < 0 else "") + term
        else:
            out += (" - " if cs[i] < 0 else " + ") + term
    return out or "0"


@given(rational_lists, rational_lists, rationals)
def test_poly_matches_fraction_lists(a, b, c):
    p, q = _over_lcm(a), _over_lcm(b)
    assert p.coeffs == _trimmed(a) and all(type(x) is Fraction for x in p.coeffs)
    assert p(c) == sum(x * c**i for i, x in enumerate(a))
    assert str(p) == _reference_str(_trimmed(a))
    assert repr(p) == f"Poly({list(p.nums)!r}, {p.den})" and eval(repr(p)) == p
    assert (p == q) == (_trimmed(a) == _trimmed(b))


@given(rational_lists, st.integers(1, 50))
def test_poly_fields_are_canonical(a, k):
    p = _over_lcm(a)
    assert p.den >= 1 and gcd(p.den, *p.nums) == 1 and p.nums[-1:] != (0,)
    # The same polynomial over a k-fold denominator has the same fields.
    same = Poly([k * n for n in p.nums], k * p.den)
    assert same == p and (same.nums, same.den) == (p.nums, p.den)
    assert Poly(p.nums, p.den) == p


@given(st.lists(st.integers(-50, 50), max_size=6), st.integers(1, 60))
def test_numerators_over_a_denominator(nums, den):
    assert Poly(nums, den).coeffs == _trimmed(F(n, den) for n in nums)


@pytest.mark.parametrize("nums", [[F(1, 2)], [1, F(3)], [0.5, 1]])
def test_poly_takes_integer_numerators_only(nums):
    with pytest.raises(TypeError):
        Poly(nums)


@pytest.mark.parametrize("den", [0, -3])
def test_poly_rejects_a_denominator_below_one(den):
    with pytest.raises(ValueError):
        Poly([1, 2], den)


@pytest.mark.parametrize("field, value", [("nums", (5,)), ("den", 3)])
def test_poly_fields_cannot_be_assigned(field, value):
    # Assigning nums used to succeed and change a live Poly.
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        setattr(p, field, value)
    assert (p.nums, p.den) == ((1, 2), 1)


def test_poly_normalization_and_str():
    assert Poly([0, 0]).coeffs == ()
    assert Poly([1, 2, 0]).coeffs == (1, 2)
    assert str(Poly()) == "0"
    assert str(Poly([0, 2, 2])) == "2*x^2 + 2*x"
    assert str(Poly([-3, 1], 3)) == "1/3*x - 1"


def test_pbar_poly_examples():
    assert pbar_poly(0) == Poly([1])
    assert pbar_poly(1) == Poly([0, 2])
    assert pbar_poly(2) == Poly([0, 2, 2])
    assert pbar_poly(3) == Poly([0, 8, 12, 4], 3)
    assert pbar_poly(4) == Poly([0, 6, 22, 12, 2], 3)


@pytest.mark.parametrize(
    "n, expected",
    [(1, Poly([2])), (2, Poly([2, 4])), (3, Poly([8, 24, 12], 3))],
)
def test_pbar_derivative_examples(n, expected):
    assert pbar_derivative(n) == expected


def _derivative(p: Poly) -> Poly:
    """The formal derivative of p, through the list oracle."""
    return Poly(formal_derivative(p.nums), p.den)


def test_derivative_identity():
    for n in range(1, 51):
        assert pbar_derivative(n).coeffs == tuple(formal_derivative(pbar_poly(n).coeffs))


def test_shape_invariants():
    for n in range(1, 51):
        p = pbar_poly(n)
        assert p.degree == n
        assert p.coeffs[0] == 0
        assert all(c > 0 for c in p.coeffs[1:])
        assert p.coeffs[-1] == F(2**n, factorial(n))


def test_eval_examples():
    assert pbar_poly(2)(1) == 4
    assert Poly([7, 1, 5])(0) == 7
    assert pbar_poly(3)(2) == 32


def test_evaluation_identity_at_one():
    for n in range(0, 61):
        assert pbar_poly(n)(1) == pbar_exact(n)


def test_product_gap_examples():
    assert product_gap_poly(1, 1) == Poly([0, -2, 2])
    assert product_gap_poly(1, 2) == Poly([0, -8, 0, 8], 3)
    assert product_gap_poly(2, 2) == Poly([0, -6, -10, 12, 10], 3)


def test_product_gap_anchors():
    for a in range(1, 11):
        for b in range(1, 11):
            gap = product_gap_poly(a, b)
            assert gap(0) == 0
            assert gap.coeffs[1] == -F(sigma_bar(a + b), a + b)  # the slope at 0


def test_series_expand_examples():
    assert series_expand(0) == (Poly([1]),)
    assert series_expand(2) == (Poly([1]), Poly([0, 2]), Poly([0, 2, 2]))


def test_series_expand_matches_recursion():
    for n, coeff in enumerate(series_expand(100)):
        assert coeff == pbar_poly(n)


@pytest.mark.parametrize("n, k, expected", [(2, 2, 12), (0, 5, 1), (3, 1, 8)])
def test_colored_count_examples(n, k, expected):
    assert colored_count_via_product(n, k) == expected


def test_colored_count_matches_polynomial():
    for n in range(0, 61):
        for k in range(1, 5):
            assert colored_count_via_product(n, k) == pbar_poly(n)(k)


def test_monotonicity_on_grid():
    xs = [F(1), F(3, 2), F(2), F(5, 2), F(3)]
    polys = [pbar_poly(n) for n in range(42)]
    derivs = [_derivative(p) for p in polys]
    for n in range(1, 41):
        for x in xs:
            assert polys[n](x) < polys[n + 1](x)
            assert 2 <= derivs[n](x) < derivs[n + 1](x)


any_points = st.fractions(max_denominator=9, min_value=F(-5), max_value=F(5))


@given(st.integers(min_value=0, max_value=60), any_points)
def test_scaled_values_match_fraction_evaluation(n, x):
    # The scalar theta recursion against the coefficient memo, read two ways:
    # integer Horner on its scaled coefficients, and Poly's power sum.
    p, q = x.numerator, x.denominator
    values = scaled_values(n, x)
    derivs = scaled_values(n, x, derivative=True)
    assert len(values) == len(derivs) == n + 1
    for m, coeffs in enumerate(polynomials._q_prefix(n)):
        slopes = [i * c for i, c in enumerate(coeffs)][1:]
        assert values[m] == polynomials._horner(polynomials._scaled_coeffs(coeffs, q), p)
        assert derivs[m] == polynomials._horner(polynomials._scaled_coeffs(slopes, q), p)
        poly = pbar_poly(m)
        assert values[m] == q**m * factorial(m) * poly(x)
        assert derivs[m] == (q ** (m - 1) * factorial(m) * _derivative(poly)(x) if m else 0)


def test_scaled_values_rejects_negative_n():
    with pytest.raises(ValueError):
        scaled_values(-1, 2)


def test_scaled_values_build_no_coefficient_memo():
    with _memos_restored() as (q_memo, _):
        del q_memo[1:]
        scaled_values(80, F(3, 2), derivative=True)
        scaled_values(80, 1)
        assert len(q_memo) == 1


@pytest.mark.parametrize("derivative", [False, True])
def test_scaled_values_at_1_check_every_value_against_pbar(derivative):
    n = 30
    scaled_values(n, 1)
    with _memos_restored() as (_, pbar_memo):
        pbar_memo[n - 1] += 1  # a wrong value from the pbar recursion
        with pytest.raises(ArithmeticError, match=f"P_{n - 1}\\(1\\) disagrees with pbar"):
            scaled_values(n, 1, derivative)
        scaled_values(n, 2, derivative)  # only x = 1 reads pbar
    assert scaled_values(n, 1)[n] == factorial(n) * pbar_exact(n)


def _q(n):
    """The integer memo entry Q_n = n! * P_n."""
    return polynomials._q_prefix(n)[n]


def test_integer_memo_matches_series_expand():
    for n, coeff in enumerate(series_expand(60)):
        assert list(_q(n)) == [c * factorial(n) for c in coeff.coeffs]


def test_theta_memo_matches_the_sigma_bar_recursion():
    # Built from an empty memo, so the three guards run on every entry.
    with _memos_restored() as (q_memo, _):
        del q_memo[1:]
        memo = polynomials._q_prefix(150)
    assert [list(q) for q in memo] == sigma_bar_memo(150)


def test_integer_memo_matches_colored_product():
    for n in range(0, 21):
        for k in range(1, 4):
            value = sum(c * k**j for j, c in enumerate(_q(n)))
            assert value == factorial(n) * colored_count_via_product(n, k)


def test_product_gap_matches_poly_arithmetic():
    for a in range(1, 9):
        for b in range(1, 9):
            product = poly_mul(pbar_poly(a).coeffs, pbar_poly(b).coeffs)
            expected = [u - v for u, v in zip(product, pbar_poly(a + b).coeffs, strict=True)]
            assert product_gap_poly(a, b).coeffs == tuple(expected)


def test_traced_roots_reads_the_gap_polynomials(tmp_path):
    # The benchmark tracer's hook on product_gap_poly reads each gap
    # polynomial's coeffs; a Poly change that broke it would otherwise
    # surface only in a traced benchmark run.
    spans = tmp_path / "spans.json"
    argv = ["roots", "--amax", "2", "--bmax", "2", "--format", "json"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "0", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counters = json.loads(spans.read_text())["counters"]
    assert counters["polynomials.product_gap_poly.max_coeff_bits"] > 0


@contextmanager
def _memos_restored():
    """Yield both memos and put their saved contents back afterwards."""
    q_memo, pbar_memo = polynomials._q_memo, divisors_module._pbar_memo
    saved_q, saved_pbar = q_memo[:], pbar_memo[:]
    try:
        yield q_memo, pbar_memo
    finally:
        q_memo[:] = saved_q
        pbar_memo[:] = saved_pbar


# Each corruption, and the message of the memo check that must catch it.
_CORRUPTIONS = {"pbar": "pbar", "memo": "pbar", "linear": "x coefficient", "leading": "leading coefficient"}


@pytest.mark.parametrize("corrupted", list(_CORRUPTIONS))
def test_memo_cross_check_catches_a_corrupted_route(corrupted):
    n = 30
    pbar_poly(n)
    with _memos_restored() as (q_memo, pbar_memo):
        del q_memo[n:]
        q = list(q_memo[n - 1])
        if corrupted == "pbar":
            pbar_memo[n] += 1  # a wrong value from the theta recursion
        elif corrupted == "memo":
            q[-1] += 1
        elif corrupted == "linear":
            q[1], q[2] = q[1] + 1, q[2] - 1  # keeps Q_{n-1}(1), so the sum check passes
        else:
            q[-1], q[-2] = q[-1] + 1, q[-2] - 1  # keeps Q_{n-1}(1) and every x coefficient
        q_memo[n - 1] = tuple(q)
        with pytest.raises(ArithmeticError, match=_CORRUPTIONS[corrupted]):
            pbar_poly(n)
    assert pbar_poly(n)(1) == pbar_exact(n)
