"""Divisor sums and the exact overpartition-count recursion."""

import math

import pytest
from hypothesis import given, strategies as st

from overpoly.divisors import divisors, pbar_exact, pbar_prefix, sigma, sigma_bar, tau_alt


def _divisors_oracle(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _pbar_series_oracle(n_max):
    """Coefficients of prod_{m<=n_max} (1+q^m)/(1-q^m), truncated.

    Independent of the recursion: one linear convolution per factor.
    """
    series = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        bumped = series[:]
        for i in range(n_max - m + 1):
            if series[i]:
                bumped[i + m] += series[i]
        series = bumped
        for i in range(m, n_max + 1):
            series[i] += series[i - m]
    return series


def _pbar_sigma_bar_oracle(n_max):
    """pbar(0..n_max) from n pbar(n) = sum_k sigma_bar(k) pbar(n-k), exact division.

    An O(n^2) route independent of the theta recursion in pbar_prefix.
    """
    values = [1]
    for n in range(1, n_max + 1):
        q, r = divmod(sum(sigma_bar(k) * values[n - k] for k in range(1, n + 1)), n)
        assert r == 0
        values.append(q)
    return tuple(values)


# Frozen from the series oracle; re-derived below.
PBAR_FIRST = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504]


def test_divisor_enumeration_matches_scan():
    for n in range(1, 400):
        assert divisors(n) == _divisors_oracle(n)


@pytest.mark.parametrize("n, expected", [(1, 1), (3, 4), (6, 12)])
def test_sigma_examples(n, expected):
    assert sigma(n) == expected


@pytest.mark.parametrize("n, expected", [(1, -1), (3, -4), (6, -4)])
def test_tau_alt_examples(n, expected):
    assert tau_alt(n) == expected


@pytest.mark.parametrize("n, expected", [(1, 2), (2, 4), (6, 16)])
def test_sigma_bar_examples(n, expected):
    assert sigma_bar(n) == expected


@pytest.mark.parametrize("func", [sigma, tau_alt, sigma_bar, divisors])
def test_domain_errors_at_zero(func):
    with pytest.raises(ValueError):
        func(0)


def test_pbar_domain_error():
    with pytest.raises(ValueError):
        pbar_exact(-1)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_sigma_multiplicative_on_coprime_pairs(m, n):
    if math.gcd(m, n) == 1:
        assert sigma(m * n) == sigma(m) * sigma(n)


def test_sigma_minus_tau_is_sigma_bar():
    for n in range(1, 2001):
        assert sigma(n) - tau_alt(n) == sigma_bar(n)


def test_sigma_bar_lower_bound_and_power_of_two_equality():
    for n in range(1, 2001):
        assert sigma_bar(n) >= 2 * n
        assert (sigma_bar(n) == 2 * n) == (n & (n - 1) == 0)


def test_sigma_bar_below_power_of_two():
    # n = 2^s - 1 is odd, so sigma_bar(n) = 2 sigma(n) >= 2n + 2
    for s in range(2, 15):
        n = 2**s - 1
        assert sigma_bar(n) >= 2 * n + 2


def test_sigma_log_upper_bound():
    for m in range(1, 1001):
        assert sigma(m) <= m * (1 + math.log(m)) + 1e-9


@pytest.mark.parametrize("n, expected", [(0, 1), (3, 8), (4, 14)])
def test_pbar_examples(n, expected):
    assert pbar_exact(n) == expected


def test_pbar_matches_series_oracle():
    oracle = _pbar_series_oracle(40)
    assert pbar_prefix(40) == oracle
    assert oracle[: len(PBAR_FIRST)] == PBAR_FIRST


@pytest.fixture(scope="module")
def sigma_bar_oracle_600():
    # Built once outside the timed examples: the O(n^2) oracle alone can pass hypothesis's deadline.
    return _pbar_sigma_bar_oracle(600)


@given(st.integers(min_value=0, max_value=600))
def test_theta_recursion_matches_sigma_bar_recursion(sigma_bar_oracle_600, n):
    assert pbar_prefix(n) == list(sigma_bar_oracle_600[: n + 1])


def test_pbar_strictly_increasing():
    values = pbar_prefix(500)
    assert all(values[n] < values[n + 1] for n in range(500))

