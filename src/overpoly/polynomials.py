"""Exact polynomials over one integer denominator, and the overpartition
polynomial family.

pbar_poly(n) is the degree-n polynomial with constant term 0 (for n >= 1),
defined by pbar_poly(0) = 1 and

    n * P_n(x) = x * sum_{k=1..n} sigma_bar(k) * P_{n-k}(x),

so that P_n(k) counts k-colored overpartitions of n and P_n(1) = pbar(n).
All coefficients of P_n are strictly positive for n >= 1 and the leading
coefficient is 2^n / n!.

The family is stored as integer coefficient vectors Q_m = m! * P_m.  In that
scaling the recursion reads

    Q_m = x * sum_{k=1..m} sigma_bar(k) * (m-1)!/(m-k)! * Q_{m-k},

with the falling factorial (m-1)!/(m-k)! updated as k grows, so building the
memo takes integer products and sums only and never divides.  Each new entry
is checked against the Gauss-identity route for pbar: sum(Q_m) = m! pbar(m),
or ArithmeticError.  The memo grows sequentially under a lock and is safe to
read concurrently once warm; Poly values are built from it on request, as
Poly(Q_m, m!).

The module also provides, from the same integer vectors:

  * pbar_derivative(n) = sum_{k=1..n} sigma_bar(k)/k * P_{n-k}, which must
    equal the formal coefficient-wise derivative of pbar_poly(n); scaled by
    n! it is sum_k sigma_bar(k) * C(n,k) * (k-1)! * Q_{n-k};
  * product_gap_poly(a, b) = P_a * P_b - P_{a+b}, whose largest non-negative
    real root marks where the product inequality P_a(x) P_b(x) > P_{a+b}(x)
    starts to hold; scaled by (a+b)! it is C(a+b, a) * Q_a * Q_b - Q_{a+b},
    and the root table isolates and re-checks its integer numerators;
  * scaled_values(n, p/q): the integers q^m * Q_m(p/q) for m <= n (and
    q^(m-1) * Q_m'(p/q) for the derivative), by homogeneous integer Horner
    (homogeneous_value), so that comparisons of P_m values at a rational
    point need no Fraction;
  * series_expand(N): the truncated formal exponential of
    x * sum_{n<=N} sigma_bar(n) q^n / n, whose q^n coefficient must reproduce
    pbar_poly(n) exactly;
  * colored_count_via_product(n, k): the coefficient of q^n in the integer
    q-series prod_m ((1+q^m)/(1-q^m))^k, an expansion route independent of
    the recursion.

A Poly is its integer numerators over one positive denominator, normalized
by construction; polynomial equality is structural and Poly values are
immutable.  Poly evaluates by an integer power sum, a separate code path from
homogeneous_value's Horner loop, so each can re-check the other's results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm

from .divisors import pbar_prefix, sigma_bar

__all__ = [
    "Poly",
    "pbar_poly",
    "pbar_derivative",
    "product_gap_poly",
    "scaled_values",
    "homogeneous_value",
    "SeriesTable",
    "series_exp",
    "series_expand",
    "colored_count_via_product",
]


class Poly:
    """Immutable dense univariate polynomial with rational coefficients.

    nums holds integer numerators ascending by degree with no trailing zeros,
    over one denominator den > 0 with gcd(den, *nums) = 1, so equal
    polynomials have equal fields.  Poly(rationals) takes the coefficients
    themselves; Poly(integers, den) takes numerators over den >= 1.  The zero
    polynomial has nums == (), den == 1 and degree -1.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=(), den: int | None = None):
        if den is None:
            rationals = [Fraction(c) for c in coeffs]
            den = lcm(*(f.denominator for f in rationals))
            nums = [f.numerator * (den // f.denominator) for f in rationals]
        elif den < 1:
            raise ValueError(f"Poly denominator must be >= 1, got {den}")
        else:
            nums = list(coeffs)
        while nums and nums[-1] == 0:
            nums.pop()
        g = gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(c // g for c in nums))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError(f"Poly is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"Poly is immutable; cannot delete {name}")

    def __reduce__(self):
        return Poly, (self.nums, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending by degree."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        return Poly([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                if a:
                    for j, b in enumerate(other.nums):
                        out[i + j] += a * b
            return Poly(out, self.den * other.den)
        c = Fraction(other)
        return Poly([a * c.numerator for a in self.nums], self.den * c.denominator)

    __rmul__ = __mul__

    def __call__(self, x) -> Fraction:
        """Exact value at a rational point x = p/q: the integer power sum
        sum_i nums[i] p^i q^(d-i) over den * q^d, for the degree d."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        d = max(self.degree, 0)
        return Fraction(sum(c * p**i * q ** (d - i) for i, c in enumerate(self.nums)), self.den * q**d)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        """Highest degree first, as in "1/3*x^2 - x + 2"; the zero polynomial is "0"."""
        terms = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c:
                power = "x" if i == 1 else f"x^{i}"
                body = str(abs(c)) if i == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
                terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]


_q_memo: list[tuple[int, ...]] = [(1,)]
_q_lock = threading.Lock()


def _q_prefix(n: int) -> list[tuple[int, ...]]:
    """[Q_0, ..., Q_n] with Q_m = m! * P_m as ascending integer coefficients."""
    if len(_q_memo) <= n:
        with _q_lock:
            pb = pbar_prefix(n)
            while len(_q_memo) <= n:
                m = len(_q_memo)
                acc = [0] * m
                falling = 1  # (m-1)! / (m-k)!
                for k in range(1, m + 1):
                    c = sigma_bar(k) * falling
                    acc[: m - k + 1] = [u + c * v for u, v in zip(acc, _q_memo[m - k])]
                    falling *= m - k
                entry = (0, *acc)
                if sum(entry) != factorial(m) * pb[m]:
                    raise ArithmeticError(
                        f"P_{m}(1) disagrees with pbar({m}) from the theta recursion"
                    )
                _q_memo.append(entry)
    return _q_memo[: n + 1]


def pbar_poly(n: int) -> Poly:
    """The overpartition polynomial P_n as an exact rational polynomial."""
    if n < 0:
        raise ValueError(f"pbar_poly undefined for n={n}; need n >= 0")
    return Poly(_q_prefix(n)[n], factorial(n))


def pbar_derivative(n: int) -> Poly:
    """P_n'(x) via the identity sum_{k=1..n} sigma_bar(k)/k * P_{n-k}(x).

    Computed from the identity, not by differentiating pbar_poly(n); the two
    routes must agree exactly and the tests check this coefficient by
    coefficient.
    """
    if n < 1:
        raise ValueError(f"pbar_derivative undefined for n={n}; need n >= 1")
    qs = _q_prefix(n - 1)
    acc = [0] * n
    for k in range(1, n + 1):
        c = sigma_bar(k) * comb(n, k) * factorial(k - 1)
        acc[: n - k + 1] = [u + c * v for u, v in zip(acc, qs[n - k])]
    return Poly(acc, factorial(n))


def product_gap_poly(a: int, b: int) -> Poly:
    """P_a * P_b - P_{a+b}, built as C(a+b, a) * Q_a * Q_b - Q_{a+b} over (a+b)!.

    Constant term is 0 and the derivative at 0 is -sigma_bar(a+b)/(a+b).
    """
    if a < 1 or b < 1:
        raise ValueError(f"the gap polynomial needs a, b >= 1; got a={a}, b={b}")
    qs = _q_prefix(a + b)
    scaled = [-c for c in qs[a + b]]
    binom = comb(a + b, a)
    for i, u in enumerate(qs[a]):
        c = binom * u
        for j, v in enumerate(qs[b]):
            scaled[i + j] += c * v
    return Poly(scaled, factorial(a + b))


def _homogeneous_horner(coeffs, p: int, q_pows) -> int:
    """acc -> acc * p + c * q^j at the j-th step down from the leading
    coefficient: sum_i c_i p^i q^(d-i), integer products and sums only."""
    acc = 0
    for c, q_pow in zip(reversed(coeffs), q_pows):
        acc = acc * p + c * q_pow
    return acc


def homogeneous_value(coeffs, x) -> int:
    """q^d * f(p/q) for x = p/q in lowest terms and the integer coefficients
    of f, of degree d: a positive multiple of f(x), so it has the sign of f(x)."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    return _homogeneous_horner(coeffs, p, [q**j for j in range(len(coeffs))])


def scaled_values(n_max: int, x, derivative: bool = False) -> list[int]:
    """[N_0, ..., N_{n_max}] with N_m = q^m * Q_m(p/q) for x = p/q in lowest terms.

    Q_m = m! * P_m, so P_m(x) = N_m / (q^m * m!).  With derivative set, N_m is
    q^(m-1) * Q_m'(p/q) instead (N_0 = 0), so P_m'(x) = N_m / (q^(m-1) * m!).
    Homogeneous Horner, with the powers of q computed once for every m.
    """
    if n_max < 0:
        raise ValueError(f"scaled_values needs n_max >= 0; got {n_max}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    q_pows = [q**j for j in range(n_max + 1)]
    out = []
    for coeffs in _q_prefix(n_max):
        if derivative:
            coeffs = [i * c for i, c in enumerate(coeffs)][1:]
        out.append(_homogeneous_horner(coeffs, p, q_pows))
    return out


@dataclass(frozen=True)
class SeriesTable:
    """Truncated q-series whose coefficients are polynomials in x.

    coeff_polys[n] is the coefficient of q^n, for 0 <= n <= order.
    """

    order: int
    coeff_polys: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.coeff_polys) != self.order + 1:
            raise ValueError("coeff_polys must have length order + 1")
        if self.coeff_polys[0] != Poly([1]):
            raise ValueError("constant coefficient of the series must be 1")


def series_exp(linear_coeffs, order: int) -> list[Poly]:
    """exp of a q-series with zero constant term, truncated at q^order.

    linear_coeffs[k] (1-indexed via linear_coeffs[k-1]) is the Poly-in-x
    coefficient of q^k of the exponent B.  Uses the standard recurrence for
    E = exp(B):  n * e_n = sum_{k=1..n} k * b_k * e_{n-k},  e_0 = 1.
    """
    es = [Poly([1])]
    for n in range(1, order + 1):
        acc = Poly()
        for k in range(1, n + 1):
            bk = linear_coeffs[k - 1]
            if bk:
                acc = acc + (k * bk) * es[n - k]
        es.append(acc * Fraction(1, n))
    return es


def series_expand(order: int) -> SeriesTable:
    """Truncated exp(x * sum_{n<=order} sigma_bar(n) q^n / n).

    The coefficient of q^n must equal pbar_poly(n) exactly for all n <= order;
    the generating-function equivalence tests enforce it.
    """
    if order < 0:
        raise ValueError(f"series_expand needs order >= 0; got {order}")
    exponent = [Poly([0, Fraction(sigma_bar(k), k)]) for k in range(1, order + 1)]
    return SeriesTable(order, tuple(series_exp(exponent, order)))


def colored_count_via_product(n: int, k: int) -> int:
    """Coefficient of q^n in prod_{m=1..n} ((1+q^m)/(1-q^m))^k, all-integer.

    (1+q^m)^k expands by binomial coefficients and 1/(1-q^m)^k by
    stars-and-bars coefficients; every factor is truncated at q^n.  Must equal
    pbar_poly(n)(k).
    """
    if n < 0:
        raise ValueError(f"colored_count_via_product needs n >= 0; got {n}")
    if k < 1:
        raise ValueError(f"colored_count_via_product needs k >= 1; got {k}")
    series = [0] * (n + 1)
    series[0] = 1
    for m in range(1, n + 1):
        plus = [0] * (n + 1)
        for j in range(n // m + 1):
            plus[m * j] = comb(k, j)
        inv = [0] * (n + 1)
        for j in range(n // m + 1):
            inv[m * j] = comb(k + j - 1, j)
        series = _mul_trunc(series, plus, n)
        series = _mul_trunc(series, inv, n)
    return series[n]


def _mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), n - i + 1)):
                if b[j]:
                    out[i + j] += x * b[j]
    return out
