"""Reference routines that the tests compare the package against.

Most work on plain lists of coefficients, ascending by degree, Fraction or
int, or on plain numbers, and share no code with overpoly.  The package's
Poly has no ring arithmetic, so poly_mul and formal_derivative are the
tests' product and derivative of coefficient lists.  Routes only the tests
read live here too: tau_alt for the sigma_bar identity, is_canonical for
enumeration order, and decode and load, which read back what serial.encode
writes.  canonical_image is the one that calls the package: it sends both
raw sides of a map's case function, slice and built parts together, through
canonicalize, where the maps check only the parts a case built.
"""

import math
import re
from fractions import Fraction

import mpmath as mp

from overpoly.bijections import ImagePair
from overpoly.enumeration import canonicalize

_FRACTION = r"^-?\d+/\d+$"


def poly_mul(a, b) -> list:
    """Coefficients of the product of the polynomials a and b, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def formal_derivative(cs) -> list:
    """Coefficients of the derivative: i * cs[i] moved down to degree i - 1."""
    return [i * c for i, c in enumerate(cs)][1:]


def fraction_shift(coeffs, c) -> list[Fraction]:
    """Coefficients of p(x + c), by repeated synthetic division."""
    out = [Fraction(v) for v in coeffs]
    c = Fraction(c)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def fraction_variations_in_interval(coeffs, lo, hi) -> int:
    """Sign variations of (1+t)^d p((lo + hi*t)/(1+t)), the Moebius transform
    of p onto (lo, hi), from two Fraction shifts."""
    lo, hi = Fraction(lo), Fraction(hi)
    scaled = [c * (hi - lo) ** i for i, c in enumerate(fraction_shift(coeffs, lo))]
    signs = [v > 0 for v in fraction_shift(scaled[::-1], 1) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sigma_bar_memo(n_max) -> list[list[int]]:
    """[Q_0, ..., Q_n_max] with Q_m = m! * P_m, from the defining recursion
    m * P_m = x * sum_{k=1..m} sigma_bar(k) * P_{m-k}, scaled by m! as
    Q_m = x * sum_k sigma_bar(k) * (m-1)!/(m-k)! * Q_{m-k}, with
    sigma_bar(k) = 2 * sum of the divisors d of k with k/d odd."""
    sb = [0] + [2 * sum(d for d in range(1, k + 1) if k % d == 0 and (k // d) % 2) for k in range(1, n_max + 1)]
    qs = [[1]]
    for m in range(1, n_max + 1):
        acc = [0] * (m + 1)
        falling = 1  # (m-1)! / (m-k)!
        for k in range(1, m + 1):
            c = sb[k] * falling
            for i, v in enumerate(qs[m - k]):
                acc[i + 1] += c * v
            falling *= m - k
        qs.append(acc)
    return qs


def mpmath_sandwich_terms(n, exact, dps=50) -> tuple[float, float, bool]:
    """(main term, remainder bound, |exact - main| <= bound) of the truncated
    series for pbar(n) = exact, in mpmath at dps significant digits: the main
    term M(n) = (mu cosh mu - sinh mu) / (4 pi n^(3/2)) and the bound
    2^(5/2) sinh(mu/2) / (n mu), mu = pi sqrt(n), both as doubles.  At
    dps = 50 this is how the package computed them before it moved to the
    decimal module."""
    with mp.workdps(dps):
        mu = mp.pi * mp.sqrt(n)
        half = mp.exp(mu / 2)
        full = half * half
        cosh_mu, sinh_mu = (full + 1 / full) / 2, (full - 1 / full) / 2
        main = (mu * cosh_mu - sinh_mu) / (4 * mp.pi * mp.power(n, mp.mpf(3) / 2))
        bound = mp.power(2, mp.mpf(5) / 2) * (half - 1 / half) / 2 / (n * mu)
        return float(main), float(bound), abs(exact - main) <= bound


def ie8_pair_scan(pb, a_max, band) -> tuple[list, float, tuple]:
    """Every pair (a, j) of the ie8 machine check, 1 <= j < a <= a_max, scored
    over the doubles pb = [pbar(0), ...]: pbar(a+j) > (1 + ln 2a) pbar(j).

    The triples (a, b, k) with b - k = j share the pair's relative slack
    (lhs - rhs) / max(|lhs|, |rhs|, 1).  Returns the ((a, b, k), slack)
    entries with slack below band, in scan order (a, then b, then k), the
    minimum slack and its first triple in that order, (a, j + 1, 1).
    """
    near, min_slack, argmin = [], math.inf, None
    for a in range(2, a_max + 1):
        factor = 1 + math.log(2 * a)
        close = {}  # j -> slack below band, j ascending
        for j in range(1, a):
            lhs, rhs = pb[a + j], factor * pb[j]
            slack = (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
            if slack < band:
                close[j] = slack
            if slack < min_slack:
                min_slack, argmin = slack, (a, j + 1, 1)
        near += [((a, b, b - j), close[j]) for b in range(2, a + 1) for j in reversed(close) if j < b]
    return near, min_slack, argmin


def tau_alt(n: int) -> int:
    """Alternating divisor sum sum_{d | n} (-1)^(n/d) * d, by trial division to sqrt(n).  May be negative."""
    if n < 1:
        raise ValueError(f"tau_alt undefined for n={n}; need n >= 1")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            for e in {d, n // d}:
                total += e if (n // e) % 2 == 0 else -e
    return total


def is_canonical(parts) -> bool:
    """Are the parts in canonical order: size, then color, descending, plain copies before the overlined one?"""
    return list(parts) == sorted(parts, key=lambda p: (-p[0], -p[1], p[2]))


def decode(value):
    """The reverse of serial.encode: "p/q" strings to Fractions, lists to tuples, dicts value by value."""
    if isinstance(value, str) and re.match(_FRACTION, value):
        return Fraction(value)
    if isinstance(value, list):
        return tuple(decode(v) for v in value)
    if isinstance(value, dict):
        return {k: decode(v) for k, v in value.items()}
    return value


def load(cls, data: dict):
    """Rebuild a record of class cls from its encode() output."""
    return cls(**decode(data))


def canonical_image(case_function, parts, b: int, k: int | None) -> ImagePair:
    """The image of parts under a map's case function, each raw side (slice
    and built parts together) through canonicalize with color bound k, None
    for the uncolored maps."""
    _, left, left_built, right, right_built = case_function(parts, b)
    return ImagePair(canonicalize(left + left_built, k), canonicalize(right + right_built, k))
