"""Certified isolation of the largest non-negative real root.

The certificate language is Descartes' rule of signs on transformed
polynomials:

  * no roots in (c, oo):   sign variations of p(x + c) equal zero;
  * roots in (c, d):       bounded by the variations of the Moebius transform
                           (1+t)^deg * p((c + d*t)/(1+t)); zero variations
                           certify the interval empty, one variation certifies
                           exactly one root inside.

isolate_max_root() deflates the root at 0 and starts from the smallest power
of two B = 2^e whose scaled polynomial p(B(1 + t)) has no sign variations and
a nonzero constant term, so that no root lies in [B, oo).  Some e up to
ceil(log2) of the Cauchy bound always passes, because every coefficient of
p(c + t) is positive once c exceeds the real part of every root.

When p(0) < 0 < p(B), it bisects (0, B) by the exact sign of p until the
bracket is no wider than the requested width.  Every point of the bisection
is an integer m over one power of two q, so its sign is that of the integer
polynomial q^d p(m/q) at m: integer Horner on coefficients scaled once per
search, with no rational arithmetic per step.  The rounding refinement does
the same over the denominator 5^places * 2^k of its decimal cuts.  The
bisection's bracket holds a sign change, but not necessarily the largest
root, so it is kept only when p(hi(1 + t)) has no sign variations, the same
test as the one for B.  Otherwise the search runs on the squarefree part:
the integer Vincent-Collins-Akritas method in the form of Rouillier &
Zimmermann, "Efficient isolation of polynomial's real roots" (J. Comput.
Appl. Math. 162, 2004).  x = B*t maps (0, B) onto (0, 1); every node of its
bisection tree carries a positive integer multiple of p restricted to its
interval and rescaled to (0, 1), derives its children from it with one
halving and one Taylor shift by 1, and the dyadic subintervals are scanned
right to left.  Both ends of a bracket from either search are dyadic
rationals; the optional rounding refinement may move one of them to a
decimal boundary.

The power-of-two start keeps the coefficients small: the gap polynomials of
the root table have their roots below 1, far under their Cauchy bounds (1e11
at cell (10, 10)), and B = 2^e adds only e*i bits to the i-th coefficient.
No floating point enters any decision.

A second route to the same certificates shares no code with the search:
variations_in_interval and no_roots_above rest on one integer shift by a
rational, q^d * p((u + t)/q) for the point u/q, and take the signs they need
from Poly evaluation.  With the endpoint signs of Poly's integer power sum,
no_roots_above is the re-check of every emitted bracket.  squarefree_part is
an integer primitive pseudo-remainder gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .polynomials import Poly

__all__ = [
    "sign_variations",
    "cauchy_root_bound",
    "squarefree_part",
    "variations_in_interval",
    "no_roots_above",
    "RootBracket",
    "isolate_max_root",
    "round_half_away",
]


def sign_variations(coeffs) -> int:
    """Number of sign changes in a coefficient sequence, zeros skipped."""
    count = 0
    prev = 0
    for c in coeffs:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _integer_shift(nums, x: Fraction) -> list[int]:
    """Ascending integer coefficients of q^d * p((u + t)/q), for x = u/q and p of degree d.

    The i-th one is q^(d-i) times that of p(x + t), so zero sign variations
    certify that p has no root in (x, oo).  Each synthetic-division pass of the
    shift by u, acc -> acc * u + c from the top coefficient down, is one accumulate.
    """
    u, q = x.numerator, x.denominator
    desc = [c * q**i for i, c in enumerate(reversed(nums))]
    if u:
        for end in range(len(desc), 1, -1):
            desc[:end] = accumulate(desc[:end], lambda acc, c: acc * u + c)
    return desc[::-1]


def cauchy_root_bound(p: Poly) -> Fraction:
    """1 + max |a_i| / |lead|: strictly exceeds the modulus of every root."""
    if p.degree < 1:
        raise ValueError("root bound needs a nonconstant polynomial")
    return 1 + Fraction(max(abs(c) for c in p.nums[:-1]), abs(p.nums[-1]))


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _primitive(a: list[int]) -> list[int]:
    """a over the gcd of its entries, with a positive last entry (empty stays empty)."""
    content = math.gcd(*a) or 1
    return [c // content if a[-1] > 0 else -c // content for c in a]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lead(b)^k * a = q * b + r, deg r < deg b and k = len(q)."""
    q, r = [0] * (len(a) - len(b) + 1), list(a)
    for off in reversed(range(len(q))):
        top = r.pop()
        q = [b[-1] * c for c in q]
        q[off] = top
        r = [b[-1] * c for c in r]
        for i, c in enumerate(b[:-1]):
            r[off + i] -= top * c
    return q, _trim(r)


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors collapsed: exactly p / monic(gcd(p, p')).

    The gcd g is the last nonzero primitive pseudo-remainder, an integer
    polynomial that by Gauss's lemma divides the numerators of p in Z[x].
    """
    if p.degree < 1:
        return p
    g, b = _primitive(list(p.nums)), _primitive([i * c for i, c in enumerate(p.nums)][1:])
    while b:
        g, b = b, _primitive(_pseudo_divide(g, b)[1])
    if len(g) == 1:
        return p
    quotient, rest = _pseudo_divide(p.nums, g)
    if rest:
        raise ArithmeticError("gcd does not divide its polynomial")
    # lead(g)^k * p.nums = quotient * g, so p / monic(g) = quotient / (lead(g)^(k-1) * p.den).
    return Poly(quotient, p.den * g[-1] ** (len(quotient) - 1))


def variations_in_interval(p: Poly, lo, hi) -> int:
    """Descartes bound on the number of roots of p in the open interval (lo, hi).

    Zero certifies no roots; one certifies exactly one (the bound has the same
    parity as the root count).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        raise ValueError(f"need lo < hi; got [{lo}, {hi}]")
    # _integer_shift gives q^d p(lo + t/q); t = q (hi - lo) s = (a/b) s maps
    # s in (0, 1) onto (lo, hi), and b^d clears the new denominators.
    width = lo.denominator * (hi - lo)
    a, b, d = width.numerator, width.denominator, p.degree
    scaled = [c * a**i * b ** (d - i) for i, c in enumerate(_integer_shift(p.nums, lo))]
    return sign_variations(_integer_shift(scaled[::-1], Fraction(1)))


_NO_ROOTS_MAX_DEPTH = 64  # halvings of (c, Cauchy bound) before no_roots_above gives up


def no_roots_above(p: Poly, c) -> bool:
    """Certify that p has no real roots in (c, oo).

    Tries the direct shift certificate first; if variations remain (complex
    roots can keep them positive), subdivides (c, cauchy bound) until every
    piece certifies empty.  Returns False if a piece cannot be certified
    within _NO_ROOTS_MAX_DEPTH halvings (in particular when a root really is there).
    """
    c = Fraction(c)
    if sign_variations(_integer_shift(p.nums, c)) == 0:
        return True
    bound = cauchy_root_bound(p)
    if bound <= c:
        return True

    def empty(lo: Fraction, hi: Fraction, depth: int) -> bool:
        if variations_in_interval(p, lo, hi) == 0:
            return True
        if depth >= _NO_ROOTS_MAX_DEPTH:
            return False
        mid = (lo + hi) / 2
        if p(mid) == 0:
            return False
        return empty(lo, mid, depth + 1) and empty(mid, hi, depth + 1)

    return p(bound) != 0 and empty(c, bound, 0)


class RootBracket(NamedTuple):
    """[lo, hi] containing the largest non-negative real root; has_root is
    False when the polynomial has no non-negative root at all (bracket pinned
    at 0)."""

    lo: Fraction
    hi: Fraction
    has_root: bool


def round_half_away(q: Fraction, places: int = 2) -> str:
    """Decimal string with `places` digits, ties away from zero."""
    sign = -1 if q < 0 else 1
    scaled = abs(q) * 10**places
    units = scaled.numerator // scaled.denominator
    if scaled - units >= Fraction(1, 2):
        units += 1
    units *= sign
    head, tail = divmod(abs(units), 10**places)
    prefix = "-" if units < 0 else ""
    return f"{prefix}{head}.{tail:0{places}d}"


def _shift1(coeffs: list[int]) -> list[int]:
    """Coefficients of q(t + 1), ascending like the input.

    Each synthetic-division pass is a running sum from the top coefficient
    down, so the passes run as itertools.accumulate over the descending list.
    """
    desc = coeffs[::-1]
    for end in range(len(desc), 1, -1):
        desc[:end] = accumulate(desc[:end])
    return desc[::-1]


def _descartes01(q: list[int]) -> int:
    """Sign variations of (1+t)^deg q(1/(1+t)), q reversed and shifted by 1:
    the Descartes bound on the roots of q in (0, 1)."""
    return sign_variations(_shift1(q[::-1]))


def _rightmost_cell(unit: list[int], narrow_depth: int):
    """Right-first dyadic Descartes search for the largest root of q on (0, 1).

    `unit` is a squarefree integer polynomial with no roots in [1, oo).  A node
    (k, c) stands for the interval (c/2^k, (c+1)/2^k) and carries a positive
    multiple of q(c/2^k + t/2^k), so its Descartes bound on (0, 1) is the one
    of q on the node's interval.  The left child is 2^d q(t/2) and the right
    child is the left one shifted by 1; the right child's constant term is
    zero exactly when the midpoint is a root.

    Returns (k, c, False) for the rightmost one-variation interval with
    k >= narrow_depth, (k, c, True) when the point c/2^k is the largest root,
    and None when q has no root in (0, 1).
    """
    d = len(unit) - 1
    stack = [(0, 0, unit)]
    while stack:
        k, c, q = stack.pop()
        if q is None:
            return k, c, True
        v = _descartes01(q)
        if v == 0:
            continue
        if v == 1 and k >= narrow_depth:
            return k, c, False
        left = [a << (d - i) for i, a in enumerate(q)]
        right = _shift1(left)
        # Popped after the right child's whole subtree: the left half, or the
        # midpoint itself when it is an exact root.
        stack.append((k + 1, 2 * c + 1, None) if right[0] == 0 else (k + 1, 2 * c, left))
        stack.append((k + 1, 2 * c + 1, right))
    return None


def _scaled_coeffs(nums, q: int) -> list[int]:
    """Descending coefficients of q^d p(m / q) as a polynomial in m, for the
    integer coefficients nums of p of degree d: nums[d - j] * q^j, top first.

    At an integer m its value has the sign of p(m / q).
    """
    q_pows = accumulate(repeat(q, len(nums) - 1), mul, initial=1)
    return [c * q_pow for c, q_pow in zip(reversed(nums), q_pows)]


def _sign_at(desc: list[int], m: int) -> int:
    """Sign of the integer polynomial with descending coefficients desc at the integer m, by Horner."""
    acc = 0
    for c in desc:
        acc = acc * m + c
    return (acc > 0) - (acc < 0)


def _settle_rounding(nums, lo: Fraction, hi: Fraction, places: int):
    """Shrink a dyadic bracket until both ends round to the same `places` digits.

    p(lo) < 0 < p(hi) for the integer coefficients nums of p, or lo == hi.
    Each step cuts at the rounding boundary just above lo, or at the midpoint
    when that boundary is hi itself, and keeps the side where the sign
    changes; a root on the cut ends it.  Both ends and every cut are integers
    over one denominator 5^places * 2^k, whose signs come from _sign_at.
    """
    k = max(places + 1, lo.denominator.bit_length() - 1, hi.denominator.bit_length() - 1)
    den = 5**places << k
    lo, hi = lo.numerator * den // lo.denominator, hi.numerator * den // hi.denominator
    desc = None
    while True:
        # floor(x * 10^places + 1/2) for x = n / den is floor(n * 2^places / 2^k + 1/2).
        units = ((lo << places + 1) + (1 << k)) >> k + 1
        if units == ((hi << places + 1) + (1 << k)) >> k + 1:
            return Fraction(lo, den), Fraction(hi, den)
        cut = (2 * units + 1) << k - places - 1  # (units + 1/2) / 10^places
        if cut >= hi:
            lo, hi, k, den, desc = lo << 1, hi << 1, k + 1, den << 1, None
            cut = (lo + hi) >> 1
        if desc is None:
            desc = _scaled_coeffs(nums, den)
        sign = _sign_at(desc, cut)
        if sign == 0:
            lo = hi = cut
        elif sign > 0:
            hi = cut
        else:
            lo = cut


def _scaled_shift(ints: list[int], x: Fraction) -> list[int]:
    """Ascending integer coefficients of q^d p(x(1 + t)), for x = u/q > 0 and p of degree d.

    Zero sign variations certify that the integer polynomial p has no root in
    (x, oo); the constant term is q^d p(x).
    """
    u, q, d = x.numerator, x.denominator, len(ints) - 1
    return _shift1([c * u**i * q ** (d - i) for i, c in enumerate(ints)])


def _bound_exponent(ints: list[int], cauchy: Fraction) -> int:
    """Smallest e >= 0 such that no root of the integer polynomial lies in [2^e, oo).

    The certificate: p(2^e + t) has no sign variations and a nonzero constant
    term p(2^e).  It holds at the first e with 2^e >= the Cauchy bound, so a
    search that gets past that e has a broken certificate.
    """
    e = 0
    while True:
        shifted = _scaled_shift(ints, Fraction(2**e))
        if shifted[0] != 0 and sign_variations(shifted) == 0:
            return e
        if 2**e >= cauchy:
            raise AssertionError("power-of-two bound failed past the Cauchy bound")
        e += 1


def _narrow_depth(e: int, width: Fraction) -> int:
    """Smallest k >= 0 with 2^(e - k) <= width: the halvings of (0, 2^e) down to the width."""
    k = 0
    while width.denominator << e > width.numerator << k:
        k += 1
    return k


def isolate_max_root(p: Poly, width, places: int | None = None) -> RootBracket:
    """Bracket the largest non-negative real root of p within the given width.

    Both searches work inside (0, B) for the smallest B = 2^e (e >= 0) for
    which p(B + t) has no sign variations and p(B) != 0, so both ends of a
    bracket from a search are dyadic rationals.  When p(0) < 0 < p(B),
    bisection by the exact sign of p halves (0, B) down to the width, and its
    bracket is kept if p(hi(1 + t)) has no sign variations.  Each sign is
    integer Horner at the numerator m of a point m/2^s, on the numerators of
    p scaled once by the powers of 2^s (_scaled_coeffs, _sign_at).
    Otherwise the Descartes search runs on the squarefree part.
    Certificates: the returned hi has no roots of p above it, and either
    lo == hi is an exact root or the open interval (lo, hi) holds the largest
    root, where p changes sign (after the fallback, its squarefree part
    does).  With `places`, the bracket is refined further until lo and hi
    round half away from zero to the same `places`-digit decimal.  Requires a
    nonconstant p; the sign of the leading coefficient is normalized away.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    nums = list(p.nums)
    if nums[-1] < 0:
        nums = [-c for c in nums]
    zero_mult = 0
    while nums[0] == 0:
        nums.pop(0)
        zero_mult += 1
    if len(nums) == 1:
        return RootBracket(Fraction(0), Fraction(0), zero_mult > 0)

    deflated = Poly(nums, p.den)
    e = _bound_exponent(nums, cauchy_root_bound(deflated))
    depth = _narrow_depth(e, width)
    if nums[0] < 0:
        # Every point of the bisection is an integer m over 2^s.
        s = max(depth - e, 0)
        desc = _scaled_coeffs(nums, 1 << s)
        lo, hi = 0, 1 << e + s
        for _ in range(depth):
            mid = (lo + hi) >> 1
            sign = _sign_at(desc, mid)
            if sign == 0:
                lo = hi = mid
                break
            if sign > 0:
                hi = mid
            else:
                lo = mid
        lo, hi = Fraction(lo, 1 << s), Fraction(hi, 1 << s)
        if places is not None:
            lo, hi = _settle_rounding(nums, lo, hi, places)
        if sign_variations(_scaled_shift(nums, hi)) == 0:
            return RootBracket(lo, hi, True)

    reduced = squarefree_part(deflated)
    # A positive integer multiple of reduced(2^e * t), content removed.
    unit = [c << (e * i) for i, c in enumerate(reduced.nums)]
    content = math.gcd(*unit)
    unit = [c // content for c in unit]

    cell = _rightmost_cell(unit, depth)
    if cell is None:
        return RootBracket(Fraction(0), Fraction(0), zero_mult > 0)
    k, c, exact = cell
    lo = Fraction(c << e, 2**k)
    if exact:
        return RootBracket(lo, lo, True)
    hi = Fraction((c + 1) << e, 2**k)
    if places is not None:
        lo, hi = _settle_rounding(reduced.nums, lo, hi, places)
    return RootBracket(lo, hi, True)
