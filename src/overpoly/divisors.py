"""Divisor sums and the exact integer recursion for the overpartition counting function.

Three arithmetic functions drive everything downstream:

    sigma(n)      sum of the positive divisors of n
    tau_alt(n)    alternating divisor sum  sum_{d | n} (-1)^(n/d) * d
    sigma_bar(n)  2^(m+1) * sigma(l)  where n = 2^m * l with l odd

They are linked by the identity sigma - tau_alt = sigma_bar.  sigma_bar is
computed from the 2-adic valuation directly and the difference sigma - tau_alt
only serves as a cross-check, so a bug in one path cannot mask the other.

pbar(n), the number of overpartitions of n, has the generating function
prod_{m>=1} (1+q^m)/(1-q^m), the reciprocal of Gauss's theta product

    prod_{m>=1} (1-q^m)/(1+q^m) = 1 + 2 sum_{k>=1} (-1)^k q^(k^2).

Multiplying the two gives the integer recursion (Corteel & Lovejoy,
"Overpartitions", Trans. AMS 356, 2004)

    pbar(n) = 2 sum_{k>=1, k^2<=n} (-1)^(k+1) pbar(n - k^2),      pbar(0) = 1,

about sqrt(n) additions per entry and no products or divisions.  The
sigma_bar recursion n pbar(n) = sum_k sigma_bar(k) pbar(n-k) is an independent
route to the same numbers, which the tests keep as an oracle; the polynomial
memo in `polynomials` checks every entry against pbar through P_n(1) = pbar(n).
The full prefix pbar(0..n) is memoized because every verification pass
consumes contiguous ranges.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

__all__ = ["divisors", "sigma", "tau_alt", "sigma_bar", "pbar_exact", "pbar_prefix"]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending.  Trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"divisors undefined for n={n}; need n >= 1")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


@lru_cache(maxsize=None)
def sigma(n: int) -> int:
    """Sum of the positive divisors of n >= 1."""
    return sum(divisors(n))


def tau_alt(n: int) -> int:
    """Alternating divisor sum  sum_{d | n} (-1)^(n/d) * d.  May be negative."""
    return sum(d if (n // d) % 2 == 0 else -d for d in divisors(n))


def sigma_bar(n: int) -> int:
    """2^(m+1) * sigma(l) for n = 2^m * l with l odd.  Equals sigma(n) - tau_alt(n)."""
    if n < 1:
        raise ValueError(f"sigma_bar undefined for n={n}; need n >= 1")
    m = 0
    l = n
    while l % 2 == 0:
        l //= 2
        m += 1
    return (2 << m) * sigma(l)


_pbar_memo: list[int] = [1]


def _grow_pbar_memo(n: int) -> None:
    """Extend _pbar_memo through pbar(n) by Gauss's theta recursion."""
    if n < 0:
        raise ValueError(f"pbar undefined for n={n}; need n >= 0")
    while len(_pbar_memo) <= n:
        m = len(_pbar_memo)
        alternating = 0  # sum_k (-1)^(k+1) pbar(m - k^2), nested from the largest k down
        for k in range(isqrt(m), 0, -1):
            alternating = _pbar_memo[m - k * k] - alternating
        _pbar_memo.append(2 * alternating)


def pbar_prefix(n: int) -> list[int]:
    """The list [pbar(0), ..., pbar(n)] from Gauss's theta recursion."""
    _grow_pbar_memo(n)
    return _pbar_memo[: n + 1]


def pbar_exact(n: int) -> int:
    """Number of overpartitions of n, exact."""
    _grow_pbar_memo(n)
    return _pbar_memo[n]
