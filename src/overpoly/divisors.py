"""Divisor sums and the exact integer recursion for the overpartition counting function.

Two arithmetic functions drive everything downstream:

    sigma(n)      sum of the positive divisors of n
    sigma_bar(n)  2^(m+1) * sigma(l)  where n = 2^m * l with l odd

sigma_bar is computed from the 2-adic valuation directly.  It equals sigma
minus the alternating divisor sum sum_{d | n} (-1)^(n/d) * d, which the
tests compute on their own (tau_alt in tests/oracles.py) as a cross-check,
so a bug in one path cannot mask the other.

pbar(n), the number of overpartitions of n, has the generating function
prod_{m>=1} (1+q^m)/(1-q^m), the reciprocal of Gauss's theta product

    prod_{m>=1} (1-q^m)/(1+q^m) = 1 + 2 sum_{k>=1} (-1)^k q^(k^2).

Multiplying the two gives the integer recursion (Corteel & Lovejoy,
"Overpartitions", Trans. AMS 356, 2004)

    pbar(n) = 2 sum_{k>=1, k^2<=n} (-1)^(k+1) pbar(n - k^2),      pbar(0) = 1,

about sqrt(n) additions per entry and no products or divisions.  The terms
of one sign are gathered in C: while the memo holds pbar(0..m-1), pbar(m - k^2)
is memo[-k^2], so for every m with isqrt(m) = r the odd-k and the even-k
offsets are the same two lists.  They become two itemgetters, plus and minus,
once per block r^2 <= m < (r+1)^2, and each entry of the block is
2 * (sum(plus(memo)) - sum(minus(memo))).  The sigma_bar recursion
n pbar(n) = sum_k sigma_bar(k) pbar(n-k) is an independent route to the same
numbers, which the tests keep as an oracle; the polynomial memo in
`polynomials` checks every entry against pbar through P_n(1) = pbar(n).
The full prefix pbar(0..n) is memoized because every verification pass
consumes contiguous ranges.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import itemgetter

__all__ = ["divisors", "sigma", "sigma_bar", "pbar_exact", "pbar_prefix"]


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


def sigma_bar(n: int) -> int:
    """2^(m+1) * sigma(l) for n = 2^m * l with l odd: sigma(n) minus the alternating divisor sum."""
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
    memo = _pbar_memo
    while len(memo) <= n:
        m = len(memo)
        r = isqrt(m)
        odd = [-k * k for k in range(1, r + 1, 2)]
        even = [-k * k for k in range(2, r + 1, 2)]
        # An itemgetter of one index returns the item, not a tuple: below m = 16
        # both gathers also take pbar(m-1), which cancels in the difference.
        pad = [-1] * max(0, 2 - len(even))
        plus, minus = itemgetter(*odd, *pad), itemgetter(*even, *pad)
        for _ in range(m, min(n, r * r + 2 * r) + 1):
            memo.append(2 * (sum(plus(memo)) - sum(minus(memo))))


def pbar_prefix(n: int) -> list[int]:
    """The list [pbar(0), ..., pbar(n)] from Gauss's theta recursion."""
    _grow_pbar_memo(n)
    return _pbar_memo[: n + 1]


def pbar_exact(n: int) -> int:
    """Number of overpartitions of n, exact."""
    _grow_pbar_memo(n)
    return _pbar_memo[n]
