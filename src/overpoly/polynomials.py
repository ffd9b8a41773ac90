"""Exact polynomials over one integer denominator, and the overpartition
polynomial family.

pbar_poly(n) is the degree-n polynomial with constant term 0 (for n >= 1),
defined by pbar_poly(0) = 1 and

    n * P_n(x) = x * sum_{k=1..n} sigma_bar(k) * P_{n-k}(x),

so that P_n(k) counts k-colored overpartitions of n and P_n(1) = pbar(n).
All coefficients of P_n are strictly positive for n >= 1 and the leading
coefficient is 2^n / n!.

The family is stored as integer coefficient vectors Q_m = m! * P_m.  The
recursion above is the definition, but the memo is built from a sparser one:
F = sum_n P_n(x) q^n is theta(q)^(-x) for Gauss's
theta(q) = prod_m (1-q^m)/(1+q^m) = 1 + 2 sum_{s>=1} (-1)^s q^(s^2), so
theta * q F' = -x * q theta' * F, which in the Q scaling reads

    Q_m = sum_{s>=1, s^2<=m} 2 (-1)^(s+1) (m-1)!/(m-s^2)! * ((m-s^2) + s^2 x) * Q_{m-s^2},

about sqrt(m) vector updates per entry instead of m, with the falling
factorial (m-1)!/(m-s^2)! updated as s grows: integer products and sums
only, no division.  Each new entry must pass three exact checks, or
ArithmeticError: sum(Q_m) = m! pbar(m) from divisors; the x coefficient
Q_m[1] = (m-1)! sigma_bar(m), the sigma_bar recursion at first order, which
sees a change that moves weight between degrees and so keeps the sum; and
the leading coefficient Q_m[m] = 2^m.  The tests compare the memo entry by
entry with the sigma_bar recursion itself.  The polynomials are built from
the memo on request, as Poly(Q_m, m!); values at a point are not (see
scaled_values).

The module also provides:

  * pbar_derivative(n) = sum_{k=1..n} sigma_bar(k)/k * P_{n-k}, which must
    equal the formal coefficient-wise derivative of pbar_poly(n); scaled by
    n! it is sum_k sigma_bar(k) * C(n,k) * (k-1)! * Q_{n-k};
  * product_gap_poly(a, b) = P_a * P_b - P_{a+b}, whose largest non-negative
    real root marks where the product inequality P_a(x) P_b(x) > P_{a+b}(x)
    starts to hold; scaled by (a+b)! it is C(a+b, a) * Q_a * Q_b - Q_{a+b},
    and the root table isolates and re-checks its integer numerators;
  * scaled_values(n, p/q): the integers q^m * Q_m(p/q) for m <= n (or
    q^(m-1) * Q_m'(p/q) for the derivative), from the same theta recursion
    run on these scalars, so that comparisons of P_m values at a rational
    point need no Fraction and no coefficient vector: about n^1.5 integer
    products instead of the memo's n^2.5; at x = 1 every value is checked
    against m! pbar(m);
  * series_expand(N): the q^0..q^N coefficients of the formal exponential of
    x * sum_{n<=N} sigma_bar(n) q^n / n, from their own integer sigma_bar
    recursion, not the memo; entry n must reproduce pbar_poly(n) exactly;
  * colored_count_via_product(n, k): the coefficient of q^n in the integer
    q-series prod_m ((1+q^m)/(1-q^m))^k, one in-place multiplication by 1+q^m
    and division by 1-q^m per part size and color, a counting route
    independent of the recursion.

A Poly, Poly(nums, den=1), is its integer numerators over one positive
denominator, normalized by construction; polynomial equality is structural
and Poly values are immutable.  Poly has no ring arithmetic: the library
only compares, prints and evaluates the polynomials that it builds from
integer vectors.  Poly evaluates by an integer power sum, _power_sum, which
the root table's re-check also reads for its endpoint signs.  The root
search takes its signs from the one integer Horner loop here, _horner on
_scaled_coeffs.  A value at a point thus has three routes that share no
evaluation code: scaled_values, and Horner or Poly's power sum on the memo's
coefficients.  The tests compare all three, and the descent points that
verification finds through scaled_values are re-checked by Poly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, gcd, isqrt, prod
from operator import mul

from .divisors import pbar_prefix, sigma_bar

__all__ = [
    "Poly",
    "pbar_poly",
    "pbar_derivative",
    "product_gap_poly",
    "scaled_values",
    "series_expand",
    "colored_count_via_product",
]


class Poly:
    """Immutable dense univariate polynomial with rational coefficients.

    Poly(nums, den=1) is the integers nums, ascending by degree, over the
    denominator den >= 1; a non-integer entry raises TypeError.  The fields
    are canonical: nums has no trailing zeros and gcd(den, *nums) = 1, so
    equal polynomials have equal fields.  The zero polynomial has
    nums == (), den == 1 and degree -1.  There is no ring arithmetic.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums=(), den: int = 1):
        if den < 1:
            raise ValueError(f"Poly denominator must be >= 1, got {den}")
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        g = gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(c // g for c in nums))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError(f"Poly is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"Poly is immutable; cannot delete {name}")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending by degree."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __call__(self, x) -> Fraction:
        """Exact value at a rational point x = p/q: the integer power sum
        _power_sum(nums, p, q) over den * q^d, for the degree d."""
        x = Fraction(x)
        q = x.denominator
        return Fraction(_power_sum(self.nums, x.numerator, q), self.den * q ** max(self.degree, 0))

    def __repr__(self) -> str:
        return f"Poly({list(self.nums)!r}, {self.den})"

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


def _power_sum(nums, p: int, q: int) -> int:
    """sum_i nums[i] p^i q^(d-i) for d = len(nums) - 1: q^d times the value at
    p/q of the polynomial with ascending coefficients nums, so for q > 0 it
    has that value's sign.  Poly's evaluator and the root table's re-check."""
    p_pows = accumulate(repeat(p, len(nums) - 1), mul, initial=1)
    q_pows = list(accumulate(repeat(q, len(nums) - 1), mul, initial=1))
    return sum(map(mul, map(mul, nums, p_pows), reversed(q_pows)))


_q_memo: list[tuple[int, ...]] = [(1,)]


def _q_prefix(n: int) -> list[tuple[int, ...]]:
    """[Q_0, ..., Q_n] with Q_m = m! * P_m as ascending integer coefficients."""
    if len(_q_memo) <= n:
        pb = pbar_prefix(n)
        while len(_q_memo) <= n:
            m = len(_q_memo)
            acc = [0] * (m + 1)
            falling = 2  # 2 * (m-1)! / (m-s^2)!
            for s in range(1, isqrt(m) + 1):
                k = m - s * s
                c = falling if s % 2 else -falling
                const, linear = c * k, c * s * s
                if k:  # the constant part vanishes at s^2 = m
                    acc[: k + 1] = [u + const * v for u, v in zip(acc, _q_memo[k])]
                acc[1 : k + 2] = [u + linear * v for u, v in zip(acc[1:], _q_memo[k])]
                falling *= prod(range(k - 2 * s, k + 1))
            if sum(acc) != factorial(m) * pb[m]:
                raise ArithmeticError(f"P_{m}(1) disagrees with pbar({m}) from the theta recursion")
            if acc[1] != factorial(m - 1) * sigma_bar(m):
                raise ArithmeticError(f"the x coefficient of P_{m} disagrees with sigma_bar({m})/{m}")
            if acc[m] != 2**m:
                raise ArithmeticError(f"the leading coefficient of P_{m} is not 2^{m}/{m}!")
            _q_memo.append(tuple(acc))
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


def _scaled_coeffs(nums, q: int) -> list[int]:
    """Descending coefficients of q^d p(m / q) as a polynomial in m, for the
    integer coefficients nums of p of degree d: nums[d - j] * q^j, top first.

    At an integer m its value has the sign of p(m / q).
    """
    q_pows = accumulate(repeat(q, len(nums) - 1), mul, initial=1)
    return [c * q_pow for c, q_pow in zip(reversed(nums), q_pows)]


def _horner(desc, m: int) -> int:
    """Value at the integer m of the integer polynomial with descending coefficients desc."""
    acc = 0
    for c in desc:
        acc = acc * m + c
    return acc


def scaled_values(n_max: int, x, derivative: bool = False) -> list[int]:
    """[N_0, ..., N_{n_max}] with N_m = q^m * Q_m(p/q) for x = p/q in lowest terms.

    Q_m = m! * P_m, so P_m(x) = N_m / (q^m * m!).  With derivative set, the
    list is [D_0, ..., D_{n_max}] with D_m = q^(m-1) * Q_m'(p/q) instead
    (D_0 = 0), so P_m'(x) = D_m / (q^(m-1) * m!).

    The theta recursion of the memo runs on these integers directly: with
    k = m - s^2 and c = 2 (-1)^(s+1) (m-1)!/k! q^(s^2-1), each s adds
    c * (k q + s^2 p) * N_k to N_m and c * (s^2 N_k + (k q + s^2 p) D_k) to
    D_m.  No coefficient vector is built.  At x = 1 every N_m must equal
    m! pbar(m) from divisors, or ArithmeticError.
    """
    if n_max < 0:
        raise ValueError(f"scaled_values needs n_max >= 0; got {n_max}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    q_pows = [q ** (s * s - 1) for s in range(1, isqrt(n_max) + 1)]
    values, slopes = [1], [0]
    for m in range(1, n_max + 1):
        value = slope = 0
        falling = 2  # 2 * (m-1)! / (m-s^2)!
        for s, q_pow in zip(range(1, isqrt(m) + 1), q_pows):
            k = m - s * s
            c = (falling if s % 2 else -falling) * q_pow
            linear = k * q + s * s * p
            value += c * linear * values[k]
            if derivative:
                slope += c * (s * s * values[k] + linear * slopes[k])
            falling *= prod(range(k - 2 * s, k + 1))
        values.append(value)
        slopes.append(slope)
    if x == 1:
        scale = 1  # m!
        for m, (value, count) in enumerate(zip(values, pbar_prefix(n_max))):
            scale *= m or 1
            if value != scale * count:
                raise ArithmeticError(f"P_{m}(1) disagrees with pbar({m}) from the theta recursion")
    return slopes if derivative else values


def series_expand(order: int) -> tuple[Poly, ...]:
    """The coefficients of q^0..q^order in exp(x * sum_{n<=order} sigma_bar(n) q^n / n).

    The integers E_n = n! e_n obey E_n = x sum_{k=1..n} sigma_bar(k)
    (n-1)!/(n-k)! E_{n-k}, E_0 = 1, without the memo.  Entry n is Poly(E_n, n!)
    and must equal pbar_poly(n) exactly; the equivalence tests enforce it.
    """
    if order < 0:
        raise ValueError(f"series_expand needs order >= 0; got {order}")
    es = [[1]]
    for n in range(1, order + 1):
        acc = [0] * (n + 1)
        falling = 1  # (n-1)! / (n-k)!
        for k in range(1, n + 1):
            c = sigma_bar(k) * falling
            acc[1 : n - k + 2] = [u + c * v for u, v in zip(acc[1:], es[n - k])]
            falling *= n - k
        es.append(acc)
    return tuple(Poly(e, factorial(n)) for n, e in enumerate(es))


def colored_count_via_product(n: int, k: int) -> int:
    """Coefficient of q^n in prod_{m=1..n} ((1+q^m)/(1-q^m))^k, all-integer.

    One series truncated at q^n is updated in place: for each m and each of
    the k colors, it is multiplied by 1+q^m from the top down (an overlined
    part m) and divided by 1-q^m from the bottom up (any number of plain
    parts m), integer additions only.  Must equal pbar_poly(n)(k).
    """
    if n < 0:
        raise ValueError(f"colored_count_via_product needs n >= 0; got {n}")
    if k < 1:
        raise ValueError(f"colored_count_via_product needs k >= 1; got {k}")
    series = [1] + [0] * n
    for m in range(1, n + 1):
        for _ in range(k):
            for i in range(n, m - 1, -1):
                series[i] += series[i - m]
            for i in range(m, n + 1):
                series[i] += series[i - m]
    return series[n]
