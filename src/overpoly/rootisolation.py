"""Certified isolation of the largest non-negative real root.

The certificate language is Descartes' rule of signs on transformed
polynomials:

  * no roots in (c, oo):   sign variations of p(x + c) equal zero;
  * roots in (c, d):       bounded by the variations of the Moebius transform
                           (1+t)^deg * p((c + d*t)/(1+t)); zero variations
                           certify the interval empty, one variation certifies
                           exactly one root inside.

isolate_max_root() deflates the root at 0, reduces to the squarefree part,
and starts from the smallest power of two B = 2^e whose shifted polynomial
p(B + t) has no sign variations and a nonzero constant term, so that no root
lies in [B, oo).  Some e up to ceil(log2) of the Cauchy bound always passes,
because every coefficient of p(c + t) is positive once c exceeds the real
part of every root.  It then scans the dyadic subintervals of (0, B) right to
left, bisecting until the rightmost root is pinned in a bracket no wider than
the requested width.  Both ends of that bracket are dyadic rationals; the
optional rounding refinement may move one of them to a decimal boundary.

The search is the integer Vincent-Collins-Akritas method in the form of
Rouillier & Zimmermann, "Efficient isolation of polynomial's real roots"
(J. Comput. Appl. Math. 162, 2004).  Denominators are cleared and x = B*t maps
(0, B) onto (0, 1); every node of the bisection tree carries a positive
integer multiple of p restricted to its interval and rescaled to (0, 1), and
derives its children from it with one halving and one Taylor shift by 1.  The
squarefree reduction is skipped when gcd(p, p') = 1 modulo a large prime.
The power-of-two start keeps the coefficients small: the gap polynomials of
the root table have their roots below 1, far under their Cauchy bounds (1e11
at cell (10, 10)), and B = 2^e adds only e*i bits to the i-th coefficient.
No floating point enters any decision.

The Fraction routines (taylor_shift, variations_in_interval, no_roots_above,
squarefree_part) are an independent route to the same certificates: the
exact squarefree fallback, and the fallback of the re-check of every emitted
bracket.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .polynomials import Poly

__all__ = [
    "sign_variations",
    "taylor_shift",
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


def _shift(coeffs: list[Fraction], c: Fraction) -> list[Fraction]:
    """Coefficients of p(x + c), by repeated synthetic division."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def taylor_shift(p: Poly, c) -> Poly:
    """p(x + c) as a Poly."""
    return Poly(_shift(list(p.coeffs), Fraction(c)))


def cauchy_root_bound(p: Poly) -> Fraction:
    """1 + max |a_i| / |lead|: strictly exceeds the modulus of every root."""
    if p.degree < 1:
        raise ValueError("root bound needs a nonconstant polynomial")
    lead = abs(p.leading)
    rest = [abs(c) for c in p.coeffs[:-1]]
    return Fraction(1) + (max(rest) / lead if rest else Fraction(0))


def _divmod_exact(a: list[Fraction], b: list[Fraction]):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while r and len(r) >= len(b):
        f = r[-1] / b[-1]
        off = len(r) - len(b)
        q[off] = f
        for i in range(len(b)):
            r[off + i] -= f * b[i]
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        _, r = _divmod_exact(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors collapsed: p / gcd(p, p')."""
    if p.degree < 1:
        return p
    coeffs = list(p.coeffs)
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    g = _gcd(coeffs, deriv)
    if len(g) == 1:
        return p
    q, r = _divmod_exact(coeffs, g)
    if r:
        raise ArithmeticError("gcd does not divide its polynomial")
    return Poly(q)


def variations_in_interval(p: Poly, lo, hi) -> int:
    """Descartes bound on the number of roots of p in the open interval (lo, hi).

    Zero certifies no roots; one certifies exactly one (the bound has the same
    parity as the root count).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        raise ValueError(f"need lo < hi; got [{lo}, {hi}]")
    shifted = _shift(list(p.coeffs), lo)
    width = hi - lo
    scaled = [c * width**i for i, c in enumerate(shifted)]
    moebius = _shift(list(reversed(scaled)), Fraction(1))
    return sign_variations(moebius)


def no_roots_above(p: Poly, c, max_depth: int = 64) -> bool:
    """Certify that p has no real roots in (c, oo).

    Tries the direct shift certificate first; if variations remain (complex
    roots can keep them positive), subdivides (c, cauchy bound) until every
    piece certifies empty.  Returns False if a piece cannot be certified
    within max_depth halvings (in particular when a root really is there).
    """
    c = Fraction(c)
    if sign_variations(_shift(list(p.coeffs), c)) == 0:
        return True
    bound = cauchy_root_bound(p)
    if bound <= c:
        return True

    def empty(lo: Fraction, hi: Fraction, depth: int) -> bool:
        if variations_in_interval(p, lo, hi) == 0:
            return True
        if depth >= max_depth:
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


# Mersenne primes for the modular squarefree certificate, tried in order until
# one does not divide the leading coefficient.
_SQUAREFREE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def _integer_coeffs(coeffs) -> list[int]:
    """The rational coefficients times the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs]


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _coprime_mod(a: list[int], b: list[int], prime: int) -> bool:
    """Whether gcd(a, b) is a nonzero constant over the integers mod prime."""
    a = _trim([c % prime for c in a])
    b = _trim([c % prime for c in b])
    while b:
        inverse = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            f = a[-1] * inverse % prime
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - f * c) % prime
            _trim(a)
        a, b = b, a
    return len(a) == 1


def _certainly_squarefree(ints: list[int]) -> bool:
    """True only if gcd(p, p') = 1 over Q; False means undecided.

    A gcd g of positive degree over Q has a primitive integer multiple that
    divides p in Z[x], so its leading coefficient divides lead(p).  Modulo a
    prime not dividing lead(p), g keeps its degree and divides both p and p',
    so the gcd there has positive degree too.
    """
    deriv = [i * c for i, c in enumerate(ints)][1:]
    for prime in _SQUAREFREE_PRIMES:
        if ints[-1] % prime:
            return _coprime_mod(ints, deriv, prime)
    return False


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


def _settle_rounding(p: Poly, lo: Fraction, hi: Fraction, places: int):
    """Shrink a bracket until both ends round to the same `places` digits.

    (lo, hi) holds exactly one root of the squarefree p and hi is not a root,
    so p changes sign only there.  Each step cuts at the rounding boundary
    just above lo, or at the midpoint when that boundary is hi itself, and
    keeps the side where the sign changes; a root on the cut ends it.
    """
    scale = 10**places
    half = Fraction(1, 2)
    hi_positive = p(hi) > 0
    while round_half_away(lo, places) != round_half_away(hi, places):
        cut = (math.floor(lo * scale + half) + half) / scale
        if cut >= hi:
            cut = (lo + hi) / 2
        value = p(cut)
        if value == 0:
            return cut, cut
        if (value > 0) == hi_positive:
            hi = cut
        else:
            lo = cut
    return lo, hi


def _bound_exponent(ints: list[int], cauchy: Fraction) -> int:
    """Smallest e >= 0 such that no root of the integer polynomial lies in [2^e, oo).

    The certificate: p(2^e + t) has no sign variations and a nonzero constant
    term p(2^e).  It holds at the first e with 2^e >= the Cauchy bound, so a
    search that gets past that e has a broken certificate.
    """
    e = 0
    while True:
        shifted = _shift1([c << (e * i) for i, c in enumerate(ints)])
        if shifted[0] != 0 and sign_variations(shifted) == 0:
            return e
        if 2**e >= cauchy:
            raise AssertionError("power-of-two bound failed past the Cauchy bound")
        e += 1


def isolate_max_root(p: Poly, width, places: int | None = None) -> RootBracket:
    """Bracket the largest non-negative real root of p within the given width.

    The search starts from the smallest B = 2^e (e >= 0) for which p(B + t)
    has no sign variations and p(B) != 0, and bisects (0, B), so both ends of
    a bracket from the search are dyadic rationals.  Certificates: the
    returned hi has no roots of p above it (Descartes, via the bound and the
    scan invariant), and either lo == hi is an exact root or the open interval
    (lo, hi) carries Moebius variation count 1 (exactly one root).  With
    `places`, the bracket is refined further until lo and hi round half away
    from zero to the same `places`-digit decimal.  Requires a nonconstant p;
    the sign of the leading coefficient is normalized away.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    coeffs = list(p.coeffs)
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    zero_mult = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    if len(coeffs) == 1:
        return RootBracket(Fraction(0), Fraction(0), zero_mult > 0)

    reduced = Poly(coeffs)
    ints = _integer_coeffs(reduced.coeffs)
    if not _certainly_squarefree(ints):
        reduced = squarefree_part(reduced)
        ints = _integer_coeffs(reduced.coeffs)
    e = _bound_exponent(ints, cauchy_root_bound(reduced))
    # A positive integer multiple of reduced(2^e * t), content removed.
    unit = [c << (e * i) for i, c in enumerate(ints)]
    content = math.gcd(*unit)
    unit = [c // content for c in unit]

    narrow_depth = 0
    while Fraction(2**e, 2**narrow_depth) > width:
        narrow_depth += 1
    cell = _rightmost_cell(unit, narrow_depth)
    if cell is None:
        return RootBracket(Fraction(0), Fraction(0), zero_mult > 0)
    k, c, exact = cell
    lo = Fraction(c << e, 2**k)
    if exact:
        return RootBracket(lo, lo, True)
    hi = Fraction((c + 1) << e, 2**k)
    if places is not None:
        lo, hi = _settle_rounding(reduced, lo, hi, places)
    return RootBracket(lo, hi, True)
