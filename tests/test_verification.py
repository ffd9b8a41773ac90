"""Verification-suite checks at module scale (full desk ranges live in the acceptance suite)."""

import inspect
import json
import math
from fractions import Fraction
from unittest.mock import patch

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from oracles import fraction_shift, mpmath_sandwich_terms

from overpoly import polynomials, rootisolation, verification
from overpoly.bijections import AuditReport
from overpoly.divisors import pbar_exact, pbar_prefix
from overpoly.polynomials import Poly, pbar_poly, product_gap_poly, scaled_values
from overpoly.serial import encode, load
from overpoly.verification import (
    BoundTriple,
    CLAIMS,
    DEFAULT_GRID_XS,
    DEFAULT_WIDTH,
    IE11_A_MAX,
    PBAR_FLOAT_N_MAX,
    RootRecord,
    SANDWICH_N_MAX,
    TH1_EXCEPTIONS,
    TH4_EXCEPTIONS,
    VerifyReport,
    certify_root_record,
    check_colored,
    check_descent,
    check_ie7,
    check_ie8,
    check_ie11,
    check_le3,
    check_logconcave,
    check_th1,
    check_th3_grid,
    check_th4_grid,
    find_descent_x,
    roots_csv,
    roots_table,
    round_half_away,
    run_claim,
    sandwich,
    sandwich_verdict,
)

F = Fraction


def test_th1_small():
    report = check_th1(30)
    assert report.holds
    assert set(report.exceptions) == TH1_EXCEPTIONS
    assert pbar_exact(1) ** 2 == pbar_exact(2) == 4
    assert pbar_exact(2) * pbar_exact(1) == pbar_exact(3) == 8


def test_th1_boundary_range():
    report = check_th1(3)
    assert report.holds
    assert set(report.exceptions) == {(1, 1), (2, 1)}


def test_th3_grid_small():
    assert check_th3_grid(12).holds
    with pytest.raises(ValueError):
        check_th3_grid(5, xs=[F(1, 2)])


def test_th4_grid_small():
    report = check_th4_grid(12)
    assert report.holds
    assert set(report.exceptions) == {
        (1, 1, F(1)),
        (2, 1, F(1)),
        (1, 2, F(1)),
    }


def test_th4_grid_without_x_equal_one():
    report = check_th4_grid(10, xs=[F(3, 2), F(2)])
    assert report.holds
    assert report.exceptions == ()


def test_colored_small():
    report = check_colored(12, (2, 3))
    assert report.holds
    assert report.exceptions == ()
    with pytest.raises(ValueError):
        check_colored(10, (1,))


def test_le3():
    report = check_le3(200)
    assert report.holds
    assert report.stats["argmin"] == 1
    assert pbar_exact(1) > 1 + math.log(2)
    assert pbar_exact(2) > 1 + math.log(4)


def test_logconcave():
    report = check_logconcave(100)
    assert report.holds
    assert report.stats["equalities"] == (2,)  # 16 = 2 * 8, reported as-is
    assert pbar_exact(3) ** 2 == 64 >= pbar_exact(2) * pbar_exact(4) == 56


def test_descent_certificates():
    x3 = find_descent_x(3)
    assert 0 < x3 < 1
    # by hand against (2x^4 + 8x^3 + 10x^2 - 2x)/3
    delta = lambda x: F(2 * x**4 + 8 * x**3 + 10 * x**2 - 2 * x, 3)
    assert delta(x3) < 0
    assert delta(F(1, 10)) < 0  # the hand-checkable point
    report = check_descent((3, 7))
    assert report.holds
    assert report.stats["points"]["3"] == x3


@pytest.mark.parametrize("wrong", ["point", "search arithmetic"])
def test_descent_recheck_rejects_a_wrong_point(monkeypatch, wrong):
    # P_4 - P_3 = (2x^4 + 8x^3 + 10x^2 - 2x)/3 is 21/8 > 0 at x = 1/2, so 1/2 is
    # no descent point for n = 3.  The search's scaled values, negated, accept
    # it; the re-check through Poly evaluation must not share that arithmetic.
    if wrong == "point":
        monkeypatch.setattr(verification, "find_descent_x", lambda n: F(1, 2))
    else:
        values = verification.scaled_values
        monkeypatch.setattr(verification, "scaled_values", lambda *args: [-v for v in values(*args)])
        assert verification.find_descent_x(3) == F(1, 2)
    report = check_descent((3,))
    assert not report.holds and report.counterexample == 3
    assert report.stats["points"] == {"3": F(1, 2)}


def test_descent_domain_errors():
    for n in (2, 4, 1, 0):
        with pytest.raises(ValueError):
            find_descent_x(n)


def test_repeated_grid_points_color_counts_and_descent_inputs_rejected():
    for check in (check_th3_grid, check_th4_grid):
        with pytest.raises(ValueError, match="1 repeated"):
            check(4, (1, 2, F(2, 2)))
    with pytest.raises(ValueError, match="2 repeated"):
        check_colored(4, (2, 3, 2))
    with pytest.raises(ValueError, match="3 repeated"):
        check_descent((3, 7, 3))


def test_sandwich_examples():
    t1 = sandwich(1)
    assert t1.lower == 0.0 and t1.lower < t1.exact == 2 < t1.upper
    assert t1.upper == pytest.approx(math.exp(math.pi) / 4, rel=1e-12)
    t4 = sandwich(4)
    assert t4.exact == 14
    assert t4.lower == pytest.approx(math.exp(2 * math.pi) / 64, rel=1e-12)
    assert t4.upper == pytest.approx(math.exp(2 * math.pi) * 1.25 / 32, rel=1e-12)
    assert t4.lower < 14 < t4.upper and t4.remainder_ok
    t100 = sandwich(100)
    assert t100.lower < t100.exact < t100.upper and t100.remainder_ok
    with pytest.raises(ValueError):
        sandwich(0)


def test_sandwich_matches_the_mpmath_oracle():
    # The decimal evaluation gives the same doubles and verdicts as mpmath at 50 digits.
    pb = pbar_prefix(3000)
    for n in [*range(1, 601), *range(601, 3001, 29)]:
        t = sandwich(n)
        assert (t.main_term, t.remainder_bound, t.remainder_ok) == mpmath_sandwich_terms(n, pb[n]), n


def test_pi_has_every_digit_of_the_working_precision():
    # A fixed-length constant gives false remainder verdicts once pbar(n) outgrows it.
    for digits in (50, 140, 400):
        with mp.workdps(digits):
            assert str(verification._pi(digits)) == mp.nstr(mp.pi, digits, strip_zeros=False)


@pytest.mark.parametrize("n", [4834, 5000, 6500, 8000, 20000])
def test_remainder_holds_where_50_digits_are_too_few(n):
    # pbar(4834) has 91 digits: at a fixed 50 digits the main term's rounding
    # error exceeds the bound, and ie7 reported a false counterexample there.
    # At 20000, an 80-digit pi is too short as well.
    exact = pbar_exact(n)
    assert not mpmath_sandwich_terms(n, exact)[2]
    assert mpmath_sandwich_terms(n, exact, dps=400)[2]
    assert sandwich(n).remainder_ok


def test_double_precision_caps_are_the_last_finite_values():
    assert math.isfinite(math.exp(math.pi * math.sqrt(SANDWICH_N_MAX)))
    with pytest.raises(OverflowError):
        math.exp(math.pi * math.sqrt(SANDWICH_N_MAX + 1))
    assert all(map(math.isfinite, verification._ie11_sides(IE11_A_MAX)))
    with pytest.raises(OverflowError):
        verification._ie11_sides(IE11_A_MAX + 1)
    assert math.isfinite(float(pbar_exact(PBAR_FLOAT_N_MAX)))
    with pytest.raises(OverflowError):
        float(pbar_exact(PBAR_FLOAT_N_MAX + 1))


def test_ranges_stop_at_the_double_precision_caps(monkeypatch):
    # The CLI tests run each cap and the value past it; this one runs ie7 at its cap.
    assert check_ie7(SANDWICH_N_MAX, n_min=SANDWICH_N_MAX - 3).holds
    # Every cap is checked before any pbar work.
    monkeypatch.setattr(verification, "pbar_prefix", None)
    monkeypatch.setattr(verification, "pbar_exact", None)
    with pytest.raises(ValueError, match=f"^sandwich needs n <= {SANDWICH_N_MAX}, got {SANDWICH_N_MAX + 1}$"):
        sandwich(SANDWICH_N_MAX + 1)
    with pytest.raises(ValueError, match=f"^need n_max <= {SANDWICH_N_MAX}, got {SANDWICH_N_MAX + 1}$"):
        check_ie7(SANDWICH_N_MAX + 1)
    with pytest.raises(ValueError, match=f"^need a_hi <= {IE11_A_MAX}, got {IE11_A_MAX + 1}$"):
        check_ie11(2, IE11_A_MAX + 1)
    with pytest.raises(ValueError, match=f"^need n_max <= {PBAR_FLOAT_N_MAX}, got {PBAR_FLOAT_N_MAX + 1}$"):
        check_le3(PBAR_FLOAT_N_MAX + 1)
    with pytest.raises(ValueError, match="^need a_max <= 26463, got 26464$"):
        check_ie8(26464)


def test_main_term_closed_form_matches_finite_differences():
    # d/dn [sinh(pi sqrt(n))/sqrt(n)] re-derived by symmetric differences
    def direct(n):
        return math.sinh(math.pi * math.sqrt(n)) / math.sqrt(n)

    for n in (2, 5, 10, 50):
        h = 1e-6 * n
        fd = (direct(n + h) - direct(n - h)) / (2 * h)
        mu = math.pi * math.sqrt(n)
        closed = (mu * math.cosh(mu) - math.sinh(mu)) / (2 * n**1.5)
        assert fd == pytest.approx(closed, rel=1e-7)
        # sandwich's main term is that derivative over 2 pi
        assert sandwich(n).main_term == pytest.approx(closed / (2 * math.pi), rel=1e-12)


def test_ie7_scan_small():
    report = check_ie7(60)
    assert report.holds
    assert not report.inconclusive


def test_ie8_examples_and_small_range():
    assert pbar_exact(3) == 8 > (1 + math.log(4)) * pbar_exact(1)
    report = check_ie8(20)
    assert report.holds
    assert report.stats["argmin"] == (2, 2, 1)
    assert report.stats["min_rel_slack"] > 0.1


def _ie8_by_triples(a_max):
    """check_ie8's report from one slack per triple (a, b, k), in scan order."""
    pb = [float(v) for v in pbar_prefix(2 * a_max - 1)]
    near, min_slack, argmin, triples = [], math.inf, None, 0
    for a in range(1, a_max + 1):
        factor = 1 + math.log(2 * a)
        for b in range(2, a + 1):
            for k in range(1, b):
                triples += 1
                slack = verification._rel_slack(pb[a + b - k], factor * pb[b - k])
                if slack < verification.INCONCLUSIVE_BAND:
                    near.append(((a, b, k), slack))
                if slack < min_slack:
                    min_slack, argmin = slack, (a, b, k)
    return verification._decide(
        "ie8",
        f"1 <= k < b <= a <= {a_max}",
        *verification._band(near),
        triples=triples,
        min_rel_slack=min_slack,
        argmin=argmin,
    )


@pytest.mark.parametrize("band", [0.6, 0.9])
@pytest.mark.parametrize("a_max", [12, 30])
def test_ie8_near_pairs_expand_to_the_triples_in_scan_order(monkeypatch, band, a_max):
    # A band this wide puts several pairs (a, b - k) inside it, each standing for
    # many triples; the default band never reaches this path.
    monkeypatch.setattr(verification, "INCONCLUSIVE_BAND", band)
    report = check_ie8(a_max)
    assert report.inconclusive
    assert report == _ie8_by_triples(a_max)


def test_ie11():
    report = check_ie11(2, 200)
    assert report.holds
    first = report.stats["first_passing"]
    assert 2 < first <= 94
    lhs = math.exp(math.pi * math.sqrt(94) / 3)
    rhs = (1 + math.log(188)) * 95 * 2 / (1 - 1 / math.sqrt(94))
    assert lhs > rhs
    lhs2 = math.exp(math.pi * math.sqrt(2) / 3)
    rhs2 = (1 + math.log(4)) * 3 * 2 / (1 - 1 / math.sqrt(2))
    assert lhs2 < rhs2  # fails at a=2, as expected


def test_round_half_away():
    assert round_half_away(F(1)) == "1.00"
    assert round_half_away(F(845, 1000)) == "0.85"
    assert round_half_away(F(844, 1000)) == "0.84"
    assert round_half_away(F(-845, 1000)) == "-0.85"
    assert round_half_away(F(2999, 1000)) == "3.00"


def test_roots_table_known_cells():
    records = {(r.a, r.b): r for r in roots_table(3, 3)}
    assert records[(1, 1)].rounded == "1.00"
    assert records[(1, 2)].rounded == "1.00"
    assert records[(2, 2)].rounded == "0.84"
    assert records[(3, 3)].rounded == "0.57"
    for record in records.values():
        assert record.bracket_hi - record.bracket_lo <= F(1, 10**4)
        assert certify_root_record(record)


def test_roots_table_symmetry():
    records = {(r.a, r.b): r for r in roots_table(4, 4)}
    for a in range(1, 5):
        for b in range(1, 5):
            assert records[(a, b)].rounded == records[(b, a)].rounded


def test_roots_table_certificates_hold():
    for record in roots_table(6, 6):
        assert certify_root_record(record), (record.a, record.b)


def test_gap_positive_beyond_rounded_root():
    from overpoly.polynomials import product_gap_poly

    records = roots_table(6, 6)
    for record in records:
        gap = product_gap_poly(record.a, record.b)
        threshold = F(record.rounded) + F(1, 100)
        for x in DEFAULT_GRID_XS:
            if x > threshold:
                assert gap(x) > 0, (record.a, record.b, x)


def test_roots_csv_format():
    records = roots_table(2, 2)
    text = roots_csv(records)
    lines = text.splitlines()
    assert lines[0] == "a,b,root"
    assert lines[1] == "1,1,1.00"
    assert len(lines) == 5
    assert text.endswith("\n")


def test_reports_round_trip_json():
    for report in (
        check_th1(10),
        check_th4_grid(6),
        check_descent((3,)),
        check_ie8(6),
    ):
        rebuilt = load(VerifyReport, json.loads(json.dumps(encode(report))))
        assert rebuilt == report
    record = roots_table(1, 1)[0]
    assert load(RootRecord, json.loads(json.dumps(encode(record)))) == record
    triple = sandwich(5)
    assert load(BoundTriple, json.loads(json.dumps(encode(triple)))) == triple


def test_verify_report_stats_default_to_an_empty_dict():
    assert VerifyReport("th1", "r", True).stats == {}


@pytest.mark.parametrize(
    "report, field",
    [
        (VerifyReport("th1", "r", True), "holds"),
        (BoundTriple(5, 1.0, 2.0, 12, 7.0, 1.5, 0.5, True), "exact"),
        (RootRecord(1, 1, F(1), F(1), "1.00"), "rounded"),
        (AuditReport("g1", 3, None, 1, 6, 6, 8, True, True, False, None, None), "injective"),
    ],
    ids=["VerifyReport", "BoundTriple", "RootRecord", "AuditReport"],
)
def test_report_fields_cannot_be_assigned(report, field):
    before = getattr(report, field)
    with pytest.raises(AttributeError):
        setattr(report, field, "changed")
    assert getattr(report, field) == before


SMALL_RANGES = {
    "th1": {"n_max": 20},
    "th3": {"n_max": 8, "xs": (F(1), F(2))},
    "th4": {"a_max": 8},
    "th5": {"a_max": 8, "k_set": (2,)},
    "le3": {"n_max": 50},
    "ie7": {"n_max": 30},
    "ie8": {"a_max": 10},
    "ie11": {"a_lo": 90, "a_hi": 120},
    "logconcave": {"n_max": 50},
    "descent": {"ns": (3, 7)},
}


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_run_claim_dispatch(claim):
    report = run_claim(claim, **SMALL_RANGES[claim])
    assert report.claim == claim and report.holds
    checker, _ = CLAIMS[claim]
    assert report == getattr(verification, checker)(**SMALL_RANGES[claim])


def test_run_claim_rejects_unknown_claims_and_ranges():
    with pytest.raises(ValueError, match="unknown claim"):
        run_claim("no-such-claim")
    with pytest.raises(ValueError, match="does not take a_max"):
        run_claim("th1", a_max=5)
    with pytest.raises(ValueError, match="does not take xs"):
        run_claim("logconcave", xs=(F(2),))


def test_run_claim_fills_defaults():
    assert run_claim("th1", n_max=None) == check_th1(120)
    assert run_claim("ie11").range_checked == "2 <= a <= 500, claim from a >= 94"
    assert run_claim("ie8").range_checked == "1 <= k < b <= a <= 93"


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_claim_registry_matches_checker_signature(claim):
    checker, defaults = CLAIMS[claim]
    params = inspect.signature(getattr(verification, checker)).parameters
    assert set(defaults) <= set(params)
    required = {name for name, p in params.items() if p.default is inspect.Parameter.empty}
    assert required <= set(defaults)
    # A default kept in both places must be the same value, or they drift apart.
    for name, default in defaults.items():
        if name not in required:
            assert params[name].default == default, (claim, name)


def test_run_claim_looks_checker_up_by_name(monkeypatch):
    # A registry holding function objects would miss a checker rebound on the module.
    sentinel = VerifyReport("th1", "patched", True)
    calls = []
    monkeypatch.setattr(verification, "check_th1", lambda **kw: calls.append(kw) or sentinel)
    assert run_claim("th1") is sentinel
    assert calls == [{"n_max": 120}]


def _triple(n, lower, exact, upper, remainder_ok=True):
    return BoundTriple(n, lower, upper, exact, 0.0, 0.0, 0.0, remainder_ok)


def test_sandwich_verdict_classifies_like_ie7():
    slacks, unsure, failed = sandwich_verdict(sandwich(5))
    assert unsure == failed == [] and slacks["lower"] > 0 and slacks["upper"] > 0
    assert sandwich_verdict(_triple(3, 11.0, 10, 12.0))[2] == ["lower"]
    assert sandwich_verdict(_triple(3, 9.0, 10, 10.0 + 1e-12))[1:] == (["upper"], [])
    assert sandwich_verdict(_triple(3, 9.0, 10, 9.5, remainder_ok=False))[2] == ["upper", "remainder"]
    assert sandwich_verdict(_triple(1, 1.0, 2, 3.0, remainder_ok=False))[2] == []


def test_ie7_reports_first_failure_and_every_inconclusive_n(monkeypatch):
    def fake(n):
        if n in (3, 5):
            return _triple(n, 11.0, 10, 12.0)  # lower bound above the count
        if n == 4:
            return _triple(n, 9.0, 10, 10.0 + 1e-12)  # upper slack inside the band
        return _triple(n, 9.0, 10, 11.0)

    monkeypatch.setattr(verification, "sandwich", fake)
    report = check_ie7(6)
    assert not report.holds
    assert report.counterexample == ("lower", 3)
    assert report.inconclusive == (("upper", 4),)


def _lhs_at_slack(rhs, slack):
    """The lhs whose _rel_slack against a positive rhs is slack."""
    return rhs * (1 + slack) if slack < 0 else rhs / (1 - slack)


def _one_comparison(claim, slack, monkeypatch):
    """Run claim over a range with one comparison, at the given relative slack; return (report, key)."""
    if claim == "le3":
        rhs = 1 + math.log(2)
        monkeypatch.setattr(verification, "pbar_prefix", lambda n: [1, _lhs_at_slack(rhs, slack)])
        return check_le3(1), 1
    if claim == "ie8":
        rhs = 1 + math.log(4)  # (1 + ln 4) pbar(1), with pbar(1) = 1
        monkeypatch.setattr(verification, "pbar_prefix", lambda n: [1, 1, 4, _lhs_at_slack(rhs, slack)])
        return check_ie8(2), (2, 2, 1)
    if claim == "ie11":
        monkeypatch.setattr(verification, "_ie11_sides", lambda a: (_lhs_at_slack(50.0, slack), 50.0))
        return check_ie11(100, 100), 100
    monkeypatch.setattr(verification, "sandwich", lambda n: _triple(n, 10.0, _lhs_at_slack(10.0, slack), 20.0))
    return check_ie7(1), ("lower", 1)


@pytest.mark.parametrize("claim", ["le3", "ie8", "ie11", "ie7"])
@pytest.mark.parametrize("slack, verdict", [(-2e-9, "fail"), (-5e-10, "inconclusive"), (5e-10, "inconclusive"), (2e-9, "pass")])
def test_banded_claims_share_one_verdict_rule(monkeypatch, claim, slack, verdict):
    report, key = _one_comparison(claim, slack, monkeypatch)
    assert report.holds == (verdict == "pass")
    assert report.counterexample == (key if verdict == "fail" else None)
    assert report.inconclusive == ((key,) if verdict == "inconclusive" else ())


def test_default_width_is_shared():
    assert DEFAULT_WIDTH == F(1, 10**4)
    assert inspect.signature(roots_table).parameters["width"].default is DEFAULT_WIDTH
    assert inspect.signature(certify_root_record).parameters["width"].default is DEFAULT_WIDTH


def test_default_grid():
    assert DEFAULT_GRID_XS == (F(1), F(3, 2), F(2), F(5, 2), F(3))


def test_gap_polynomial_symmetric():
    from overpoly.polynomials import product_gap_poly

    for a in range(1, 7):
        for b in range(1, 7):
            assert product_gap_poly(a, b) == product_gap_poly(b, a)


def test_roots_table_isolates_each_symmetric_pair_once(monkeypatch):
    from overpoly import verification

    seen = []
    isolate = verification.isolate_max_root

    def counting(poly, width, places=None):
        seen.append(poly)
        return isolate(poly, width, places)

    monkeypatch.setattr(verification, "isolate_max_root", counting)
    records = roots_table(3, 5)
    assert [(r.a, r.b) for r in records] == [(a, b) for a in range(1, 4) for b in range(1, 6)]
    assert len(seen) == len(set(seen)) == 12  # pairs a <= b with a <= 3, b <= 5
    for record in records:
        assert certify_root_record(record)


def test_roots_table_rejects_a_bad_bracket(monkeypatch):
    from overpoly import verification

    isolate = verification.isolate_max_root

    def shifted(poly, width, places=None):
        lo, hi = isolate(poly, width, places)
        return lo + F(1, 10), hi + F(1, 10)

    monkeypatch.setattr(verification, "isolate_max_root", shifted)
    with pytest.raises(ArithmeticError):
        roots_table(2, 2)


def test_certify_checks_the_rounding():
    record = roots_table(2, 2)[3]
    assert record.rounded == "0.84" and certify_root_record(record)
    wrong = RootRecord(record.a, record.b, record.bracket_lo, record.bracket_hi, "0.85")
    assert not certify_root_record(wrong)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=8).filter(lambda c: c[-1] != 0),
    st.fractions(min_value=0, max_value=4, max_denominator=12),
)
def test_integer_recheck_agrees_with_fraction_shift(coeffs, hi):
    poly = Poly(coeffs)
    value, oracle = poly(hi), fraction_shift(coeffs, hi)[0]
    assert (value > 0) - (value < 0) == (oracle > 0) - (oracle < 0)
    variations = rootisolation.sign_variations(rootisolation._integer_shift(coeffs, hi))
    assert variations == rootisolation.sign_variations(fraction_shift(coeffs, hi))
    if variations == 0:
        assert rootisolation.no_roots_above(poly, hi)


def test_recheck_rejects_a_bracket_below_the_largest_root(monkeypatch):
    # (2x - 1)(4x - 3)(5x - 4): a sign change up through 1/2 as through 4/5, so
    # a bracket at 1/2 passes the endpoint signs and only the check above hi
    # can reject it.
    monkeypatch.setattr(verification, "product_gap_poly", lambda a, b: Poly([-12, 55, -82, 40]))
    below = RootRecord(1, 1, F(49999, 100000), F(50001, 100000), "0.50")
    assert not certify_root_record(below)
    top = RootRecord(1, 1, F(79999, 100000), F(80001, 100000), "0.80")
    assert certify_root_record(top)


def test_recheck_rejects_a_real_bracket_moved_down():
    record = roots_table(2, 2)[3]
    moved = RootRecord(2, 2, record.bracket_lo - F(1, 1000), record.bracket_hi - F(1, 1000), "0.84")
    assert certify_root_record(record) and not certify_root_record(moved)


def test_recheck_catches_a_negated_search_sign(monkeypatch):
    horner = rootisolation._horner
    monkeypatch.setattr(rootisolation, "_horner", lambda desc, m: -horner(desc, m))
    # Cell (1, 3) is the first whose root is not the exact midpoint 1: its
    # negated bisection ends on (0, 2^-14), which fails the search's own test above hi.
    with pytest.raises(ArithmeticError, match=r"^cell \(1, 3\): the bracket \[0, 1/16384\] fails its certificate"):
        roots_table(4, 4)
    # Cell (3, 6) has its root near 0.48: the negated bisection runs up to
    # (1 - 2^-14, 1), which passes the search's own test above hi, so only the
    # re-check's own endpoint signs can reject it.
    lo, hi = rootisolation.isolate_max_root(product_gap_poly(3, 6), DEFAULT_WIDTH, places=2)
    assert (lo, hi) == (F(16383, 16384), 1)
    assert not certify_root_record(RootRecord(3, 6, lo, hi, round_half_away(lo)))


def test_search_and_recheck_share_no_evaluator(monkeypatch):
    records = [r for r in roots_table(6, 6) if r.a <= r.b]
    gaps = {(r.a, r.b): product_gap_poly(r.a, r.b) for r in records}

    def refuse(*args):
        raise LookupError("an evaluator of the other route was called")

    def refuse_everywhere(m, functions):
        """Rebind each function to `refuse` under every name the package binds it to."""
        for module in (polynomials, rootisolation, verification):
            for name, value in list(vars(module).items()):
                if any(value is f for f in functions):
                    m.setattr(module, name, refuse)

    with monkeypatch.context() as m:  # the search's evaluators
        refuse_everywhere(m, (rootisolation._shift1, rootisolation._horner, rootisolation._scaled_coeffs))
        with pytest.raises(LookupError):
            rootisolation.isolate_max_root(gaps[1, 1], DEFAULT_WIDTH, places=2)
        assert all(verification._certify_bracket(r, gaps[r.a, r.b], DEFAULT_WIDTH) for r in records)
    with monkeypatch.context() as m:  # the re-check's
        refuse_everywhere(m, (rootisolation._integer_shift, polynomials._power_sum))
        with pytest.raises(LookupError):
            verification._certify_bracket(records[0], gaps[1, 1], DEFAULT_WIDTH)
        for r in records:
            assert rootisolation.isolate_max_root(gaps[r.a, r.b], DEFAULT_WIDTH, places=2) == (r.bracket_lo, r.bracket_hi)


def test_roots_table_builds_each_gap_polynomial_once(monkeypatch):
    calls = []
    build = verification.product_gap_poly
    monkeypatch.setattr(verification, "product_gap_poly", lambda a, b: calls.append((a, b)) or build(a, b))
    records = roots_table(10, 10)
    assert len(calls) == len(set(calls)) == 55  # one per cell a <= b
    assert certify_root_record(records[-1]) and len(calls) == 56  # the public re-check builds its own


def _inflated_prefix(at):
    """pbar_prefix with pbar(m) multiplied by 100 for every m in `at`."""
    return lambda n: [v * 100 if m in at else v for m, v in enumerate(pbar_prefix(n))]


def _inflated_values(at, factor=100, derivative_only=False):
    """scaled_values with P_m (so N_m and its derivative) multiplied by factor for every m in `at`.

    With derivative_only, only P_m' is multiplied.
    """

    def inflated(n_max, x, derivative=False):
        values = scaled_values(n_max, x, derivative)
        if derivative_only and not derivative:
            return values
        return [v * factor if m in at else v for m, v in enumerate(values)]

    return inflated


def test_th1_reports_the_first_counterexample(monkeypatch):
    # pbar(10) and pbar(20) inflated: every split of 10 and of 20 fails.
    monkeypatch.setattr(verification, "pbar_prefix", _inflated_prefix({10, 20}))
    report = check_th1(24)
    assert not report.holds and report.counterexample == (9, 1)


def test_th1_fails_when_a_declared_exception_disappears(monkeypatch):
    # pbar(1) = 3 turns both declared equalities (1,1) and (2,1) into strict inequalities.
    monkeypatch.setattr(verification, "pbar_prefix", lambda n: [3 if m == 1 else v for m, v in enumerate(pbar_prefix(n))])
    report = check_th1(20)
    assert not report.holds and report.counterexample is None and report.exceptions == ()


def test_th3_reports_a_derivative_counterexample(monkeypatch):
    # Only P_6' doubled: the values still rise, but the derivative step 6 -> 7 at x = 3/2 fails.
    monkeypatch.setattr(verification, "scaled_values", _inflated_values({6}, 2, derivative_only=True))
    report = check_th3_grid(12, xs=[F(3, 2)])
    assert not report.holds and report.counterexample == ("derivative", 6, F(3, 2))


def test_th3_reports_the_first_counterexample(monkeypatch):
    monkeypatch.setattr(verification, "scaled_values", _inflated_values({5, 9}))
    report = check_th3_grid(12)
    assert not report.holds and report.counterexample == ("value", 5, F(1))


def test_th4_reports_the_first_counterexample(monkeypatch):
    monkeypatch.setattr(verification, "scaled_values", _inflated_values({10, 14}))
    report = check_th4_grid(16)
    assert not report.holds and report.counterexample == (1, 9, F(1))
    assert set(report.exceptions) == TH4_EXCEPTIONS


def test_colored_reports_the_first_counterexample(monkeypatch):
    monkeypatch.setattr(verification, "scaled_values", _inflated_values({10, 14}))
    report = check_colored(16)
    assert not report.holds and report.counterexample == (9, 1, 2)


def test_logconcave_reports_the_first_counterexample(monkeypatch):
    # pbar(11) inflated breaks log-concavity at n = 10 and at n = 12.
    monkeypatch.setattr(verification, "pbar_prefix", _inflated_prefix({11}))
    report = check_logconcave(20)
    assert not report.holds and report.counterexample == 10


# The Fraction Horner routes that the integer grid checks replaced, kept as oracles.


def _fraction_polys(n_max, at, factor):
    return [pbar_poly(n) * factor if n in at else pbar_poly(n) for n in range(n_max + 1)]


def _fraction_th3(n_max, xs, at, factor, derivative_only):
    polys = _fraction_polys(n_max, () if derivative_only else at, factor)
    derivs = [p.derivative() for p in _fraction_polys(n_max, at, factor)]
    for n in range(1, n_max):
        for x in xs:
            if not polys[n](x) < polys[n + 1](x):
                return ("value", n, x)
            if not 2 <= derivs[n](x) < derivs[n + 1](x):
                return ("derivative", n, x)
    return None


def _fraction_th4(n_max, xs, at, factor):
    polys = _fraction_polys(n_max, at, factor)
    values = {x: [p(x) for p in polys] for x in xs}
    found, counterexample = [], None
    for total in range(2, n_max + 1):
        for a in range(1, total):
            for x in xs:
                lhs, rhs = values[x][a] * values[x][total - a], values[x][total]
                if lhs == rhs:
                    found.append((a, total - a, x))
                elif lhs < rhs and counterexample is None:
                    counterexample = (a, total - a, x)
    return tuple(sorted(found)), counterexample


def _fraction_th5(n_max, ks, at, factor):
    polys = _fraction_polys(n_max, at, factor)
    for k in ks:
        vals = [p(k) for p in polys]
        for total in range(2, n_max + 1):
            for b in range(1, total // 2 + 1):
                if not vals[total - b] * vals[b] > vals[total]:
                    return (total - b, b, k)
    return None


grid_points = st.integers(min_value=1, max_value=6).flatmap(
    lambda q: st.integers(min_value=q, max_value=6 * q).map(lambda p: F(p, q))
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.lists(grid_points, min_size=1, max_size=4, unique=True),
    st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3, unique=True),
    st.sets(st.integers(min_value=0, max_value=24), max_size=2),
    st.sampled_from([2, 100]),
    st.booleans(),
)
def test_integer_grid_verdicts_match_fraction_route(n_max, xs, ks, at, factor, derivative_only):
    with patch.object(verification, "scaled_values", _inflated_values(at, factor, derivative_only)):
        th3 = check_th3_grid(n_max, xs)
        th4 = check_th4_grid(n_max, xs)
        th5 = check_colored(n_max, ks)
    assert th3.counterexample == _fraction_th3(n_max, xs, at, factor, derivative_only)
    assert th3.holds == (th3.counterexample is None)
    value_at = () if derivative_only else at
    assert (th4.exceptions, th4.counterexample) == _fraction_th4(n_max, xs, value_at, factor)
    assert th5.counterexample == _fraction_th5(n_max, ks, value_at, factor)
    assert th5.holds == (th5.counterexample is None)
