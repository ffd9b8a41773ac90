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

Every bracket is narrowed by one loop, _refine, which follows the sign
change of p: it halves a dyadic bracket down to the requested width, then
makes the decimal cuts of the optional rounding.  Each point is an integer m
over one denominator q, and its sign is that of the integer Horner value
q^d p(m/q) (polynomials._horner on _scaled_coeffs, shared with
scaled_values), so no step builds a rational.  When p(0) < 0 < p(B), _refine
starts from (0, B); its bracket holds a sign change but not necessarily the
largest root, so it is kept only when p(hi(1 + t)) has no sign variations,
the same test as the one for B.  Otherwise _refine narrows the first cell
with one sign variation that a right-to-left Descartes search finds for the
squarefree part: the integer Vincent-Collins-Akritas method of Rouillier &
Zimmermann, "Efficient isolation of polynomial's real roots" (J. Comput.
Appl. Math. 162, 2004).  x = B*t maps (0, B) onto (0, 1); each node of its
bisection tree carries a positive integer multiple of p on its interval,
rescaled to (0, 1), and derives its children with one halving and one
Taylor shift by 1.  The half of a one-variation cell that holds the root has
one variation too, so following the sign change ends on the cell a deeper
Descartes search would return.  Bracket ends are dyadic until the rounding
moves one to a decimal boundary.

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
from itertools import accumulate
from typing import NamedTuple

from .polynomials import Poly, _horner, _scaled_coeffs

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


def _rightmost_cell(unit: list[int]):
    """Right-first dyadic Descartes search for the largest root of q on (0, 1).

    `unit` is a squarefree integer polynomial with no roots in [1, oo).  A node
    (k, c) stands for the interval (c/2^k, (c+1)/2^k) and carries a positive
    multiple of q(c/2^k + t/2^k), so its Descartes bound on (0, 1) is the one
    of q on the node's interval.  The left child is 2^d q(t/2) and the right
    child is the left one shifted by 1; the right child's constant term is
    zero exactly when the midpoint is a root.

    Returns (k, c, False) for the first one-variation interval, which holds
    the largest root and no other, (k, c, True) when the point c/2^k is the
    largest root, and None when q has no root in (0, 1).
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
        if v == 1:
            return k, c, False
        left = [a << (d - i) for i, a in enumerate(q)]
        right = _shift1(left)
        # Popped after the right child's whole subtree: the left half, or the
        # midpoint itself when it is an exact root.
        stack.append((k + 1, 2 * c + 1, None) if right[0] == 0 else (k + 1, 2 * c, left))
        stack.append((k + 1, 2 * c + 1, right))
    return None


def _refine(nums, lo: Fraction, hi: Fraction, width: Fraction, places: int | None) -> tuple[Fraction, Fraction]:
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
    # two over which lo, hi and the midpoints of all n halvings are integers.
    span = (hi - lo) / width
    halvings = max(0, (span.numerator - 1) // span.denominator).bit_length()
    den = max(lo.denominator, hi.denominator, ((hi - lo) / (1 << halvings)).denominator)
    lo, hi = lo.numerator * den // lo.denominator, hi.numerator * den // hi.denominator
    desc = halvings_left = None
    while True:
        if (hi - lo) * width.denominator > width.numerator * den:
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
    return _shift1(_scaled_coeffs(_scaled_coeffs(ints, x.denominator), x.numerator))


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


def isolate_max_root(p: Poly, width, places: int | None = None) -> RootBracket:
    """Bracket the largest non-negative real root of p within the given width.

    Both searches work inside (0, B) for the smallest B = 2^e (e >= 0) for
    which p(B + t) has no sign variations and p(B) != 0.  When
    p(0) < 0 < p(B), _refine narrows (0, B) by the exact sign of p, and its
    bracket is kept if p(hi(1 + t)) has no sign variations.  Otherwise
    _rightmost_cell finds the dyadic cell of the largest root of the
    squarefree part, and _refine narrows that cell on the squarefree part.
    Certificates: the returned hi has no roots of p above it, and either
    lo == hi is an exact root or the open interval (lo, hi) holds the largest
    root, where p changes sign (after the fallback, its squarefree part
    does).  With `places`, _refine goes on until lo and hi round half away
    from zero to the same `places`-digit decimal.  Requires a nonconstant p;
    the sign of the leading coefficient is normalized away.
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
    if nums[0] < 0:
        lo, hi = _refine(nums, Fraction(0), Fraction(1 << e), width, places)
        if sign_variations(_scaled_shift(nums, hi)) == 0:
            return RootBracket(lo, hi, True)

    reduced = squarefree_part(deflated)
    # A positive integer multiple of reduced(2^e * t), content removed.
    unit = [c << (e * i) for i, c in enumerate(reduced.nums)]
    content = math.gcd(*unit)
    unit = [c // content for c in unit]

    cell = _rightmost_cell(unit)
    if cell is None:
        return RootBracket(Fraction(0), Fraction(0), zero_mult > 0)
    k, c, exact = cell
    lo = Fraction(c << e, 1 << k)
    hi = lo if exact else Fraction((c + 1) << e, 1 << k)
    return RootBracket(*_refine(reduced.nums, lo, hi, width, places), True)
