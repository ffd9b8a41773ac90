"""The inequality-verification suite.

Exact big-integer and exact-rational checks for the product inequalities and
their grids, the monotonicity chains, descent certificates below 1, the
analytic sandwich with the truncated-series main term, the machine check over
the full triple range, log-concavity, and the certified table of largest
non-negative real roots of the gap polynomials.

The grid checks (th3, th4, th5 and the descent search) compare integers
only: with x = p/q and N_m = q^m * m! * P_m(x) from scaled_values, every
inequality between P_m values at x is multiplied through by its positive
common denominator.  The descent certificates are re-checked by evaluating
pbar_poly with Poly's integer power sum, a separate code path.

Every checker decides through one verdict rule, _decide: each checker
records the key of every wrong-way comparison in scan order, and the first is
the counterexample.  Exception sets are data, not code: each claim's declared
exceptions live in a constant next to its checker, and a run only "holds"
when it fails nowhere, has nothing inconclusive, and finds exactly the
declared exceptions, so a regression that accidentally "fixes" an exception
fails loudly.

Transcendental comparisons run in double precision with a relative
inconclusive band of 1e-9, and _band is the one place a slack is classified:
a comparison whose relative slack is inside the band is flagged rather than
counted as pass or fail.  The single exception is the truncation-remainder
check, where the bound sits below double-precision resolution of the
compared quantities for large n (the bound over the count shrinks like
2^(9/2) e^(-mu/2)/mu, which drops under 2^-52 before n reaches 400); that one
comparison is evaluated in the standard library's decimal arithmetic, whose
exp and sqrt are correctly rounded, at 20 significant digits more than
pbar(n) has and at least 50, and reported alongside double-precision display
values.  The bound is at least 1 from n = 2 on, so the rounding error of the
main term stays far below it.

Double precision also caps the ranges: e^(pi sqrt n) is a finite double up
to SANDWICH_N_MAX, e^(pi sqrt(a)/3) up to IE11_A_MAX, and float(pbar(n)) up
to PBAR_FLOAT_N_MAX.  A range past its cap raises ValueError naming the cap,
before any pbar is computed.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import serial
from .divisors import pbar_exact, pbar_prefix
from .polynomials import _power_sum, pbar_poly, product_gap_poly, scaled_values
from .rootisolation import isolate_max_root, no_roots_above, round_half_away

__all__ = [
    "INCONCLUSIVE_BAND",
    "DEFAULT_GRID_XS",
    "DEFAULT_COLOR_COUNTS",
    "DEFAULT_DESCENT_NS",
    "DEFAULT_WIDTH",
    "TH1_EXCEPTIONS",
    "TH4_EXCEPTIONS",
    "IE11_THRESHOLD",
    "IE11_A_MAX",
    "SANDWICH_N_MAX",
    "PBAR_FLOAT_N_MAX",
    "VerifyReport",
    "BoundTriple",
    "RootRecord",
    "check_th1",
    "check_th3_grid",
    "check_th4_grid",
    "check_colored",
    "check_le3",
    "check_logconcave",
    "find_descent_x",
    "check_descent",
    "sandwich",
    "sandwich_verdict",
    "check_ie7",
    "check_ie8",
    "check_ie11",
    "isolate_max_root",
    "roots_table",
    "roots_csv",
    "certify_root_record",
    "CLAIMS",
    "run_claim",
]

INCONCLUSIVE_BAND = 1e-9

DEFAULT_GRID_XS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
DEFAULT_COLOR_COUNTS = (2, 3)
DEFAULT_DESCENT_NS = (3, 7, 15, 31)

DEFAULT_WIDTH = Fraction(1, 10**4)  # root-bracket width

TH1_EXCEPTIONS = frozenset({(1, 1), (2, 1)})
# Ordered pairs; the symmetric (1, 2, 1) mirrors (2, 1, 1).
TH4_EXCEPTIONS = frozenset(
    {(1, 1, Fraction(1)), (2, 1, Fraction(1)), (1, 2, Fraction(1))}
)

IE11_THRESHOLD = 94  # ie11 is claimed for every a >= 94; below it, only reported

SANDWICH_N_MAX = 51044  # the largest n with e^(pi sqrt n) a finite double
IE11_A_MAX = 459402  # the largest a with e^(pi sqrt(a)/3) a finite double
PBAR_FLOAT_N_MAX = 52925  # the largest n with float(pbar(n)) finite


@serial.record
class VerifyReport(NamedTuple):
    """One claim checked over one range."""

    claim: str
    range_checked: str
    holds: bool
    exceptions: tuple = ()
    counterexample: object = None
    inconclusive: tuple = ()
    stats: dict = {}  # the default dict is shared, so no report mutates its stats


def _rel_slack(lhs: float, rhs: float) -> float:
    """Slack of lhs > rhs, relative to the larger magnitude (floor 1)."""
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _band(near) -> tuple[list, list]:
    """(failed keys, inconclusive keys) from (key, relative slack) pairs, in scan order.

    A slack <= -INCONCLUSIVE_BAND fails and one inside the band is
    inconclusive; any other passes, so callers may leave those pairs out.
    """
    failed, inconclusive = [], []
    for key, slack in near:
        if slack <= -INCONCLUSIVE_BAND:
            failed.append(key)
        elif slack < INCONCLUSIVE_BAND:
            inconclusive.append(key)
    return failed, inconclusive


def _decide(claim, range_checked, failed=(), inconclusive=(), found=None, declared=None, **stats) -> VerifyReport:
    """The report of one claim: failed[0] is the counterexample, and the claim
    holds only with no failure, nothing inconclusive and, when declared
    exceptions are given, the equalities found exactly equal to them."""
    return VerifyReport(
        claim=claim,
        range_checked=range_checked,
        holds=not failed and not inconclusive and (declared is None or set(found) == declared),
        exceptions=() if declared is None else tuple(sorted(found)),
        counterexample=failed[0] if failed else None,
        inconclusive=tuple(inconclusive),
        stats=stats,
    )


def _grid(xs) -> tuple[Fraction, ...]:
    xs = tuple(Fraction(x) for x in xs)
    if not xs or any(x < 1 for x in xs):
        raise ValueError("grid points must be rationals >= 1")
    _need_distinct("grid points", xs)
    return xs


def _need_distinct(name: str, values: tuple) -> None:
    repeated = sorted(v for v, count in Counter(values).items() if count > 1)
    if repeated:
        raise ValueError(f"{name} must be distinct; {', '.join(map(str, repeated))} repeated")


def _need_range(name: str, value: int, least: int, most: int | None = None) -> None:
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"need {name} <= {most}, got {value}")


def check_th1(n_max: int) -> VerifyReport:
    """pbar(a) pbar(b) > pbar(a+b) for a >= b >= 1, a+b <= n_max, exact integers.

    Equality is declared at (1,1) and (2,1) and nowhere else.
    """
    _need_range("n_max", n_max, 2)
    pb = pbar_prefix(n_max)
    found, failed = [], []
    for total in range(2, n_max + 1):
        for b in range(1, total // 2 + 1):
            a = total - b
            lhs, rhs = pb[a] * pb[b], pb[total]
            if lhs == rhs:
                found.append((a, b))
            elif lhs < rhs:
                failed.append((a, b))
    return _decide(
        "th1",
        f"a >= b >= 1, a+b <= {n_max}",
        failed,
        found=found,
        declared={e for e in TH1_EXCEPTIONS if e[0] + e[1] <= n_max},
        pairs=sum(t // 2 for t in range(2, n_max + 1)),
    )


def check_th3_grid(n_max: int, xs=DEFAULT_GRID_XS) -> VerifyReport:
    """P_n(x) < P_{n+1}(x) and 2 <= P_n'(x) < P_{n+1}'(x), exact, on a grid of x >= 1.

    With x = p/q, N_m = q^m m! P_m(x) and D_m = q^(m-1) m! P_m'(x), the
    checks read (n+1) q N_n < N_{n+1}, 2 n! q^(n-1) <= D_n and
    (n+1) q D_n < D_{n+1}.
    """
    xs = _grid(xs)
    _need_range("n_max", n_max, 2)
    grid = [
        (x, x.denominator, scaled_values(n_max, x), scaled_values(n_max, x, derivative=True))
        for x in xs
    ]
    failed = []
    for n in range(1, n_max):
        for x, q, values, derivs in grid:
            if not (n + 1) * q * values[n] < values[n + 1]:
                failed.append(("value", n, x))
            elif not (
                2 * math.factorial(n) * q ** (n - 1) <= derivs[n]
                and (n + 1) * q * derivs[n] < derivs[n + 1]
            ):
                failed.append(("derivative", n, x))
    return _decide("th3", f"1 <= n < {n_max}, x in {{{', '.join(map(str, xs))}}}", failed)


def check_th4_grid(a_max: int, xs=DEFAULT_GRID_XS) -> VerifyReport:
    """P_a(x) P_b(x) > P_{a+b}(x), exact, over all ordered pairs with a+b <= a_max.

    Equality is declared at (a, b, x) in {(1,1,1), (2,1,1), (1,2,1)} and
    nowhere else; any reversed inequality is a counterexample.  Scaled by
    q^(a+b) (a+b)! at x = p/q, the comparison is C(a+b, a) N_a N_b vs N_{a+b}.
    """
    xs = _grid(xs)
    _need_range("a_max", a_max, 2)
    grid = [(x, scaled_values(a_max, x)) for x in xs]
    found, failed = [], []
    for total in range(2, a_max + 1):
        for a in range(1, total):
            b = total - a
            binom = math.comb(total, a)
            for x, values in grid:
                lhs = binom * values[a] * values[b]
                rhs = values[total]
                if lhs == rhs:
                    found.append((a, b, x))
                elif lhs < rhs:
                    failed.append((a, b, x))
    return _decide(
        "th4",
        f"a, b >= 1, a+b <= {a_max}, x in {{{', '.join(map(str, xs))}}}",
        failed,
        found=found,
        declared={e for e in TH4_EXCEPTIONS if e[0] + e[1] <= a_max and e[2] in xs},
    )


def check_colored(a_max: int, k_set=DEFAULT_COLOR_COUNTS) -> VerifyReport:
    """P_a(k) P_b(k) > P_{a+b}(k) strictly, exact, for every k >= 2 in k_set.

    Scaled by (a+b)!, the comparison is C(a+b, a) N_a N_b > N_{a+b}.
    """
    k_set = tuple(k_set)
    if not k_set or any(k < 2 for k in k_set):
        raise ValueError("colored check needs a non-empty set of k >= 2")
    _need_distinct("color counts", k_set)
    _need_range("a_max", a_max, 2)
    failed = []
    for k in k_set:
        vals = scaled_values(a_max, k)
        for total in range(2, a_max + 1):
            for b in range(1, total // 2 + 1):
                a = total - b
                if not math.comb(total, a) * vals[a] * vals[b] > vals[total]:
                    failed.append((a, b, k))
    return _decide("th5", f"a >= b >= 1, a+b <= {a_max}, k in {set(k_set)}", failed)


def check_le3(n_max: int) -> VerifyReport:
    """pbar(n) > 1 + ln(2n), double precision, with minimum-slack reporting."""
    _need_range("n_max", n_max, 1, PBAR_FLOAT_N_MAX)
    pb = [float(v) for v in pbar_prefix(n_max)]
    slacks = [(n, _rel_slack(pb[n], 1 + math.log(2 * n))) for n in range(1, n_max + 1)]
    argmin, min_slack = min(slacks, key=lambda pair: pair[1])
    return _decide("le3", f"1 <= n <= {n_max}", *_band(slacks), min_rel_slack=min_slack, argmin=argmin)


def check_logconcave(n_max: int) -> VerifyReport:
    """pbar(n)^2 >= pbar(n-1) pbar(n+1) for 2 <= n <= n_max, exact integers."""
    _need_range("n_max", n_max, 2)
    pb = pbar_prefix(n_max + 1)
    equalities, failed = [], []
    for n in range(2, n_max + 1):
        lhs, rhs = pb[n] ** 2, pb[n - 1] * pb[n + 1]
        if lhs == rhs:
            equalities.append(n)
        elif lhs < rhs:
            failed.append(n)
    return _decide("logconcave", f"2 <= n <= {n_max}", failed, equalities=tuple(equalities))


def find_descent_x(n: int) -> Fraction:
    """A rational x in (0, 1) with the exact certificate P_{n+1}(x) < P_n(x).

    Defined for n+1 = 2^s with s > 1, where the difference polynomial has
    negative derivative at 0; searches x = 1/2, 1/4, ... down to 2^-40.  At
    x = 1/q the test is N_{n+1} < (n+1) q N_n in scaled_values terms.
    """
    m = n + 1
    if n < 3 or m & (m - 1) != 0:
        raise ValueError(f"descent point needs n+1 = 2^s with s > 1; got n={n}")
    for s in range(1, 41):
        q = 2**s
        values = scaled_values(m, Fraction(1, q))
        if values[m] < m * q * values[n]:
            return Fraction(1, q)
    raise RuntimeError(f"descent search exhausted below 2**-40 for n={n}")


def check_descent(ns=DEFAULT_DESCENT_NS) -> VerifyReport:
    """Descent certificates for each n in ns, re-verified by Poly evaluation."""
    ns = tuple(ns)
    if not ns:
        raise ValueError("descent check needs at least one n")
    _need_distinct("descent inputs", ns)
    points, failed = {}, []
    for n in ns:
        x = find_descent_x(n)
        if not (0 < x < 1 and pbar_poly(n + 1)(x) < pbar_poly(n)(x)):
            failed.append(n)
        points[str(n)] = x
    return _decide("descent", f"n in {ns}", failed, points=points)


@serial.record
class BoundTriple(NamedTuple):
    """Sandwich bounds and truncated-series data for one n."""

    n: int
    lower: float
    upper: float
    exact: int
    mu: float
    main_term: float
    remainder_bound: float
    remainder_ok: bool


@lru_cache(maxsize=None)
def _pi(digits: int) -> Decimal:
    """pi to the given number of significant digits, by the series of the
    decimal module's documentation, with two guard digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        ctx.prec = digits
        return +s


def sandwich(n: int) -> BoundTriple:
    """e^mu (1 - 1/sqrt(n)) / 8n  <  pbar(n)  <  e^mu (1 + 1/n) / 8n, mu = pi sqrt(n).

    Also evaluates the truncated-series main term
    M(n) = (pi sqrt(n) cosh(mu) - sinh(mu)) / (4 pi n^{3/2}) and the remainder
    bound 2^{5/2} sinh(mu/2) / (n mu); remainder_ok is their comparison,
    computed in decimal arithmetic at 20 significant digits more than pbar(n)
    has and at least 50 (see the module note on precision).  n runs from 1
    to SANDWICH_N_MAX, where e^mu is still a finite double.
    """
    if n < 1:
        raise ValueError(f"sandwich needs n >= 1, got {n}")
    if n > SANDWICH_N_MAX:
        raise ValueError(f"sandwich needs n <= {SANDWICH_N_MAX}, got {n}")
    exact = pbar_exact(n)
    mu = math.pi * math.sqrt(n)
    scale = math.exp(mu) / (8 * n)
    lower = scale * (1 - 1 / math.sqrt(n))
    upper = scale * (1 + 1 / n)
    digits = max(50, len(str(exact)) + 20)
    with localcontext() as ctx:
        ctx.prec = digits
        pi, root = _pi(digits), Decimal(n).sqrt()
        mu_hp = pi * root
        half = (mu_hp / 2).exp()  # cosh mu, sinh mu and sinh(mu/2) all from one exponential
        full = half * half
        cosh_mu, sinh_mu = (full + 1 / full) / 2, (full - 1 / full) / 2
        main = (mu_hp * cosh_mu - sinh_mu) / (4 * pi * n * root)
        bound = Decimal(32).sqrt() * (half - 1 / half) / 2 / (n * mu_hp)
        remainder_ok = abs(exact - main) <= bound
    return BoundTriple(
        n=n,
        lower=lower,
        upper=upper,
        exact=exact,
        mu=mu,
        main_term=float(main),
        remainder_bound=float(bound),
        remainder_ok=remainder_ok,
    )


def sandwich_verdict(t: BoundTriple) -> tuple[dict, list, list]:
    """Classify one sandwich row: (slacks, inconclusive labels, failed labels).

    The "lower" and "upper" relative slacks are inconclusive inside
    INCONCLUSIVE_BAND and failed below it; "remainder" fails when the
    truncation bound does not hold, which is claimed from n = 2 on.
    """
    slacks = {"lower": _rel_slack(float(t.exact), t.lower), "upper": _rel_slack(t.upper, float(t.exact))}
    failed, inconclusive = _band(slacks.items())
    if t.n >= 2 and not t.remainder_ok:
        failed.append("remainder")
    return slacks, inconclusive, failed


def check_ie7(n_max: int, n_min: int = 1) -> VerifyReport:
    """Sandwich strict for n_min..n_max; remainder bound holds for n >= 2."""
    _need_range("n_min", n_min, 1)
    _need_range("n_max", n_max, n_min, SANDWICH_N_MAX)
    pbar_prefix(n_max)
    failed, inconclusive = [], []
    min_lower_slack = min_upper_slack = math.inf
    for n in range(n_min, n_max + 1):
        slacks, unsure, wrong = sandwich_verdict(sandwich(n))
        failed.extend((label, n) for label in wrong)
        inconclusive.extend((label, n) for label in unsure)
        min_lower_slack = min(min_lower_slack, slacks["lower"])
        min_upper_slack = min(min_upper_slack, slacks["upper"])
    return _decide(
        "ie7",
        f"{n_min} <= n <= {n_max} (remainder from n=2)",
        failed,
        inconclusive,
        min_lower_rel_slack=min_lower_slack,
        min_upper_rel_slack=min_upper_slack,
    )


def check_ie8(a_max: int) -> VerifyReport:
    """pbar(a+b-k) > (1 + ln(2a)) pbar(b-k) for all 1 <= k < b <= a <= a_max.

    Exact pbar values, double-precision logarithm, minimum slack reported.
    The machine check runs a_max = IE11_THRESHOLD - 1: ie11 is claimed for
    every a from IE11_THRESHOLD on, so ie8 is checked below it.  The slack of (a, b, k)
    depends on j = b - k only, so each (a, j) is computed once; (a, j + 1, 1)
    is the first triple with that j in the scan order (a, then b, then k).
    """
    _need_range("a_max", a_max, 2, (PBAR_FLOAT_N_MAX + 1) // 2)
    pb = [float(v) for v in pbar_prefix(2 * a_max - 1)]
    near = []  # slacks from the band up pass; the rest go to _band, with no call per triple
    min_slack, argmin = math.inf, None
    for a in range(1, a_max + 1):
        factor = 1 + math.log(2 * a)
        close = {}  # j -> slack inside the band or below, j ascending
        for j in range(1, a):
            slack = _rel_slack(pb[a + j], factor * pb[j])
            if slack < INCONCLUSIVE_BAND:
                close[j] = slack
            if slack < min_slack:
                min_slack, argmin = slack, (a, j + 1, 1)
        near += [((a, b, b - j), close[j]) for b in range(2, a + 1) for j in reversed(close) if j < b]
    return _decide(
        "ie8",
        f"1 <= k < b <= a <= {a_max}",
        *_band(near),
        triples=math.comb(a_max + 1, 3),
        min_rel_slack=min_slack,
        argmin=argmin,
    )


def _ie11_sides(a: int) -> tuple[float, float]:
    lhs = math.exp(math.pi * math.sqrt(a) / 3)
    rhs = (1 + math.log(2 * a)) * (1 + a) * 2 / (1 - 1 / math.sqrt(a))
    return lhs, rhs


def check_ie11(a_lo: int, a_hi: int) -> VerifyReport:
    """e^(pi sqrt(a)/3) > (1 + ln(2a)) (1+a) * 2 / (1 - 1/sqrt(a)).

    Reports the smallest a in [a_lo, a_hi] where the inequality holds and
    confirms it holds for every a >= IE11_THRESHOLD in range.
    """
    _need_range("a_lo", a_lo, 2)
    _need_range("a_hi", a_hi, a_lo, IE11_A_MAX)
    slacks = [(a, _rel_slack(*_ie11_sides(a))) for a in range(a_lo, a_hi + 1)]
    failed, inconclusive = _band(slacks)
    not_passing = {*failed, *inconclusive}
    return _decide(
        "ie11",
        f"{a_lo} <= a <= {a_hi}, claim from a >= {IE11_THRESHOLD}",
        [a for a in failed if a >= IE11_THRESHOLD],
        inconclusive,
        first_passing=next((a for a, _ in slacks if a not in not_passing), None),
        threshold=IE11_THRESHOLD,
    )


@serial.record
class RootRecord(NamedTuple):
    """Certified bracket for the largest non-negative real root of one gap polynomial."""

    a: int
    b: int
    bracket_lo: Fraction
    bracket_hi: Fraction
    rounded: str


def roots_table(a_max: int, b_max: int, width=DEFAULT_WIDTH) -> list[RootRecord]:
    """Certified max-root brackets for every gap polynomial cell, row-major.

    The gap polynomial is symmetric in (a, b), so only cells with a <= b are
    isolated, one after another, and each result is copied to (b, a).  Each
    distinct cell builds its gap polynomial once; the search and the re-check
    of certify_root_record both read it.  A failed search certificate or
    re-check raises ArithmeticError naming the cell.
    """
    _need_range("a_max", a_max, 1)
    _need_range("b_max", b_max, 1)
    width = Fraction(width)
    cells = [(a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)]
    by_pair = {}
    for a, b in sorted({(min(a, b), max(a, b)) for a, b in cells}):
        gap = product_gap_poly(a, b)
        try:
            lo, hi = isolate_max_root(gap, width, places=2)
        except ArithmeticError as exc:
            raise ArithmeticError(f"cell ({a}, {b}): {exc}") from None
        record = RootRecord(a, b, lo, hi, round_half_away(lo))
        if not _certify_bracket(record, gap, width):
            raise ArithmeticError(f"root record for cell ({a}, {b}) failed its re-check")
        by_pair[a, b] = record
    return [by_pair[min(a, b), max(a, b)]._replace(a=a, b=b) for a, b in cells]


def roots_csv(records) -> str:
    """The root table as CSV with header a,b,root."""
    lines = ["a,b,root"]
    lines.extend(f"{r.a},{r.b},{r.rounded}" for r in records)
    return "\n".join(lines) + "\n"


def certify_root_record(record: RootRecord, width=DEFAULT_WIDTH) -> bool:
    """Re-verify a RootRecord against its polynomial with exact arithmetic.

    Checks the bracket width, that both ends round to the printed two-decimal
    value, the endpoint signs (value <= 0 at lo or an exact root inside, > 0 at
    hi unless hi is itself the root), and that no root lies above bracket_hi.
    The polynomial is product_gap_poly(a, b), built here.  The re-check is
    the endpoint signs, from the integer power sum that Poly evaluates by
    (polynomials._power_sum), a separate path from the Horner signs of the
    search, and one direct shift, no_roots_above at bracket_hi.  Neither uses
    the root search's power-of-two bound, Taylor shift, bisection or rounding
    steps.
    """
    return _certify_bracket(record, product_gap_poly(record.a, record.b), Fraction(width))


def _certify_bracket(record: RootRecord, gap, width: Fraction) -> bool:
    """certify_root_record against the given gap polynomial of the record's cell.

    All on integers: for an end u/q the power sum gap.nums[i] u^i q^(d-i) has
    the sign of gap(u/q), and the width test is cross-multiplied.
    """
    lo, hi = record.bracket_lo, record.bracket_hi
    (lo_num, lo_den), (hi_num, hi_den) = lo.as_integer_ratio(), hi.as_integer_ratio()
    width_num, width_den = width.as_integer_ratio()
    span = hi_num * lo_den - lo_num * hi_den  # hi - lo = span / (lo_den hi_den)
    if lo_num < 0 or span < 0 or span * width_den > width_num * lo_den * hi_den:
        return False
    if not round_half_away(lo) == round_half_away(hi) == record.rounded:
        return False
    if not (lo_num == 0 or _power_sum(gap.nums, lo_num, lo_den) <= 0):
        return False
    if _power_sum(gap.nums, hi_num, hi_den) < 0:
        return False
    return no_roots_above(gap, hi)


# Each claim: (checker name in this module, {range parameter: default}).
# Names, not functions, are stored so that a checker rebound on the module
# (by a test or a tracer) is the one that runs.
CLAIMS = {
    "th1": ("check_th1", {"n_max": 120}),
    "th3": ("check_th3_grid", {"n_max": 40, "xs": DEFAULT_GRID_XS}),
    "th4": ("check_th4_grid", {"a_max": 40, "xs": DEFAULT_GRID_XS}),
    "th5": ("check_colored", {"a_max": 40, "k_set": DEFAULT_COLOR_COUNTS}),
    "le3": ("check_le3", {"n_max": 500}),
    "ie7": ("check_ie7", {"n_max": 500}),
    "ie8": ("check_ie8", {"a_max": IE11_THRESHOLD - 1}),
    "ie11": ("check_ie11", {"a_lo": 2, "a_hi": 500}),
    "logconcave": ("check_logconcave", {"n_max": 500}),
    "descent": ("check_descent", {"ns": DEFAULT_DESCENT_NS}),
}


def run_claim(claim: str, **ranges) -> VerifyReport:
    """Run a named claim; a range left out or None takes the claim's default,
    and a range parameter the claim does not take raises ValueError."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    checker, defaults = CLAIMS[claim]
    unknown = sorted(set(ranges) - set(defaults))
    if unknown:
        raise ValueError(f"claim {claim} does not take {', '.join(unknown)}; it takes {', '.join(defaults)}")
    params = {name: default if ranges.get(name) is None else ranges[name] for name, default in defaults.items()}
    return globals()[checker](**params)
