"""Certified isolation of the largest non-negative real root.

The certificate language is Descartes' rule of signs on transformed
polynomials:

  * no roots in (c, oo):   sign variations of p(x + c) equal zero;
  * roots in (c, d):       bounded by the variations of the Moebius transform
                           (1+t)^deg * p((c + d*t)/(1+t)); zero variations
                           certify the interval empty, one variation certifies
                           exactly one root inside.

isolate_max_root() has one contract: after the root at 0 is deflated and the
leading coefficient made positive, p(0) < 0.  Every gap polynomial
P_a P_b - P_{a+b} meets it, with deflated constant term
-(a+b-1)! sigma_bar(a+b).  The search starts from the smallest power of two
B = 2^e whose scaled polynomial p(B(1 + t)) has no sign variations and a
nonzero constant term, so that no root lies in [B, oo).  Some e up to
ceil(log2) of the Cauchy bound always passes, because every coefficient of
p(c + t) is positive once c exceeds the real part of every root.  So
p(0) < 0 < p(B), and (0, B) holds a sign change.

One loop, _refine, narrows the bracket along that sign change: it halves a
dyadic bracket down to the requested width, then makes the decimal cuts of
the optional rounding.  Each point is an integer m over one denominator q,
and its sign is that of the integer Horner value q^d p(m/q)
(polynomials._horner on _scaled_coeffs), so no
step builds a rational.  The bracket holds a sign change but not necessarily
the largest root, so it is returned only when p(hi(1 + t)) has no sign
variations, the same test as the one for B; otherwise ArithmeticError is
raised.  Bracket ends are dyadic until the rounding moves one to a decimal
boundary.

The power-of-two start keeps the coefficients small: the gap polynomials of
the root table have their roots below 1, far under their Cauchy bounds (1e11
at cell (10, 10)), and B = 2^e adds only e*i bits to the i-th coefficient.
No floating point enters any decision.

A second route to the same certificates shares no code with the search:
variations_in_interval and no_roots_above rest on one integer shift by a
rational, q^d * p((u + t)/q) for the point u/q, which _integer_shift runs as
its own shift by 1 of the coefficients scaled by powers of q and u, then an
exact division by powers of u.  With the endpoint signs of the integer power
sum that Poly evaluates by (polynomials._power_sum) and the integer rounding
of round_half_away, no_roots_above is the re-check of every emitted bracket.
squarefree_part is an integer primitive pseudo-remainder gcd; neither it nor
variations_in_interval is on the search's path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .polynomials import Poly, _horner, _scaled_coeffs
from .serial import Record

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
    certify that p has no root in (x, oo).  For u != 0 and s = t/u the value is
    sum_j nums[j] q^(d-j) u^j (1 + s)^j: descending coefficient i is scaled by
    q^i u^(d-i), the shift by 1 is d running sums from the top coefficient
    down, one plain accumulate each, and ascending coefficient i of the result
    is divided exactly by u^i.  At u = 0 the coefficients scaled by q^i are
    the answer.  The zero polynomial, which no shift certifies, raises ValueError.
    """
    if not nums:
        raise ValueError("the zero polynomial vanishes everywhere: no certificate")
    u, q = x.as_integer_ratio()
    d = len(nums) - 1
    q_pows = accumulate(repeat(q, d), mul, initial=1)
    if not u:
        return [c * q_pow for c, q_pow in zip(reversed(nums), q_pows)][::-1]
    u_pows = list(accumulate(repeat(u, d), mul, initial=1))
    desc = [c * q_pow * u_pow for c, q_pow, u_pow in zip(reversed(nums), q_pows, reversed(u_pows))]
    for end in range(len(desc), 1, -1):
        desc[:end] = accumulate(desc[:end])
    return [c // u_pow for c, u_pow in zip(reversed(desc), u_pows)]


def cauchy_root_bound(p: Poly) -> Fraction:
    """1 + max |a_i| / |lead|: strictly exceeds the modulus of every root."""
    if p.degree < 1:
        raise ValueError("root bound needs a nonconstant polynomial")
    lead = abs(p.nums[-1])
    return Fraction(lead + max(abs(c) for c in p.nums[:-1]), lead)


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
    parity as the root count).  The zero polynomial raises ValueError.
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


def no_roots_above(p: Poly, c) -> bool:
    """Certify that p has no real roots in (c, oo): p(c + t) has no sign variations.

    True is a certificate.  False means only "not certified": complex roots
    can leave sign variations where no real root lies above c.  The zero
    polynomial raises ValueError.
    """
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return sign_variations(_integer_shift(p.nums, c)) == 0


class RootBracket(Record):
    """[lo, hi] containing the largest non-negative real root: lo == hi is
    that root exactly, and otherwise p changes sign in (lo, hi).

    lo, hi (Fraction)
    """

    __slots__ = ()

    def __new__(cls, lo, hi):
        return tuple.__new__(cls, (lo, hi))


def round_half_away(q: Fraction, places: int = 2) -> str:
    """Decimal string with `places` >= 0 digits after the point, ties away
    from zero; at places = 0 it has no point.

    For q = n/d, |q| rounds to floor(|q| 10^places + 1/2) units of
    10^-places, which is (2|n| 10^places + d) // (2d).  A value that rounds
    to zero prints without a sign.
    """
    if places < 0:
        raise ValueError(f"round_half_away needs places >= 0; got {places}")
    n, d = q.as_integer_ratio()
    units = (2 * abs(n) * 10**places + d) // (2 * d)
    prefix = "-" if n < 0 and units else ""
    if not places:
        return f"{prefix}{units}"
    head, tail = divmod(units, 10**places)
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


def _refine(nums, lo: Fraction | int, hi: Fraction | int, width: Fraction, places: int | None) -> tuple[Fraction, Fraction]:
    """Narrow the dyadic bracket (lo, hi) of the one sign change of p in it.

    p has the integer coefficients nums and is < 0 on (lo, x) and > 0 on
    (x, hi] for its one root x there, or lo == hi.  Each step cuts at the
    midpoint while the bracket is wider than `width`; then, with `places`, at
    the rounding boundary just above lo (the midpoint when that is hi) until
    lo and hi round half away from zero to the same `places` digits.  A step
    keeps the side of the sign change; a root on the cut ends it.  Ends and
    cuts are integers over one denominator, a power of two times 5^places
    from the first decimal cut on.  Past _boundary_halvings midpoint cuts
    toward a rounding boundary at hi, p has no sign change in the bracket,
    and ArithmeticError is raised.
    """
    # The smallest n >= 0 with hi - lo <= 2^n width, and the smallest power of
    # two over which lo, hi and the midpoints of all n halvings are integers,
    # from hi - lo = diff / base in integers.
    (lo_num, lo_den), (hi_num, hi_den) = lo.as_integer_ratio(), hi.as_integer_ratio()
    width_num, width_den = width.as_integer_ratio()
    diff, base = hi_num * lo_den - lo_num * hi_den, lo_den * hi_den
    halvings = max(0, (diff * width_den - 1) // (base * width_num)).bit_length()
    base <<= halvings
    den = max(lo_den, hi_den, base // math.gcd(diff, base))
    lo, hi = lo_num * den // lo_den, hi_num * den // hi_den
    desc = halvings_left = None
    while True:
        if (hi - lo) * width_den > width_num * den:
            cut = (lo + hi) >> 1
        elif places is None:
            break
        else:
            # Every decimal cut (2 units + 1) / (2 * 10^places) is an integer over den.
            tie = 2 * 10**places
            if den % tie:
                scale = math.lcm(den, tie) // den
                lo, hi, den, desc = lo * scale, hi * scale, den * scale, None
            units = (lo * tie + den) // (2 * den)  # floor(lo * 10^places + 1/2) for lo / den
            if units == (hi * tie + den) // (2 * den):
                break
            cut = (2 * units + 1) * (den // tie)
            if cut >= hi:
                if halvings_left is None:
                    halvings_left = _boundary_halvings(nums, Fraction(hi, den), places)
                if halvings_left <= 0:
                    raise ArithmeticError(f"no sign change below the rounding boundary {Fraction(hi, den)}")
                halvings_left -= 1
                lo, hi, den, desc = lo << 1, hi << 1, den << 1, None
                cut = (lo + hi) >> 1
        if desc is None:
            desc = _scaled_coeffs(nums, den)
        value = _horner(desc, cut)
        if value == 0:
            lo = hi = cut
        elif value > 0:
            hi = cut
        else:
            lo = cut
    return Fraction(lo, den), Fraction(hi, den)


def _boundary_halvings(nums, hi: Fraction, places: int) -> int:
    """Most midpoint cuts _refine needs toward a rounding boundary hi > 0.

    hi = (2u + 1) / (2 * 10^places) ends a bracket (lo, hi) with lo >= 0 and
    at most 10^-places wide.  (2 * 10^places)^d p(hi) is a nonzero integer
    for the integer coefficients nums of degree d, and |p'| <= M on [0, hi]
    for M = sum i |c_i| max(1, hi)^(i - 1), so a root x < hi has
    hi - x >= 1/K with K = (2 * 10^places)^d M.  The cut after K.bit_length()
    halvings lies above x, and hi moves off the boundary.
    """
    reach = max(1, math.ceil(hi))
    slope = sum(i * abs(c) * reach ** (i - 1) for i, c in enumerate(nums[1:], 1))
    return ((2 * 10**places) ** (len(nums) - 1) * slope).bit_length()


def _scaled_shift(ints: list[int], x: Fraction) -> list[int]:
    """Ascending integer coefficients of q^d p(x(1 + t)), for x = u/q > 0 and p of degree d.

    Zero sign variations certify that the integer polynomial p has no root in
    (x, oo); the constant term is q^d p(x).  _scaled_coeffs by q, read back
    as ascending and scaled by u, gives the ascending ints[i] u^i q^(d-i).
    """
    u, q = x.as_integer_ratio()
    return _shift1(_scaled_coeffs(_scaled_coeffs(ints, q), u))


def _bound_exponent(ints: list[int], cauchy: Fraction) -> int:
    """Smallest e >= 0 such that no root of the integer polynomial lies in [2^e, oo).

    The certificate: p(2^e + t) has no sign variations and a nonzero constant
    term p(2^e), read from p(2^e (1 + t)), the shift by 1 of the ascending
    coefficients ints[i] 2^(e*i).  It holds at the first e with 2^e >= the Cauchy bound, so a
    search that gets past that e has a broken certificate.
    """
    e = 0
    while True:
        shifted = _shift1([c << (e * i) for i, c in enumerate(ints)])
        if shifted[0] != 0 and sign_variations(shifted) == 0:
            return e
        if 1 << e >= cauchy:
            raise AssertionError("power-of-two bound failed past the Cauchy bound")
        e += 1


def isolate_max_root(p: Poly, width, places: int | None = None) -> RootBracket:
    """Bracket the largest non-negative real root of p within the given width.

    Requires a nonconstant p; the sign of the leading coefficient is
    normalized away, and p = c x^k gives [0, 0].  Otherwise p over its
    largest power of x must be negative at 0, or ValueError is raised.
    _refine narrows (0, B) by the exact sign of p, for the smallest B = 2^e
    (e >= 0) for which p(B + t) has no sign variations and p(B) != 0, so
    lo == hi is an exact root or p changes sign in (lo, hi).  The bracket is
    returned only when p(hi(1 + t)) has no sign variations, so no root lies
    above hi; otherwise ArithmeticError is raised.  With `places`, _refine
    goes on until lo and hi round half away from zero to the same
    `places`-digit decimal.
    """
    if not isinstance(width, Fraction):
        width = Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    nums = list(p.nums)
    if nums[-1] < 0:
        nums = [-c for c in nums]
    while nums[0] == 0:
        nums.pop(0)
    if len(nums) == 1:
        return RootBracket(Fraction(0), Fraction(0))
    if nums[0] > 0:
        raise ValueError("p over its largest power of x is positive at 0; the search needs it negative")

    # The Cauchy bound of p is that of nums: the sign flip, the deflation and
    # the common denominator leave max |a_i| / |lead| as it is.
    e = _bound_exponent(nums, cauchy_root_bound(p))
    lo, hi = _refine(nums, 0, 1 << e, width, places)
    if sign_variations(_scaled_shift(nums, hi)) != 0:
        raise ArithmeticError(f"the bracket [{lo}, {hi}] fails its certificate: p(hi(1 + t)) has sign variations")
    return RootBracket(lo, hi)
