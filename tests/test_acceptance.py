"""Acceptance suite: every exit criterion at its stated range and tolerance.

Each criterion prints one pass/fail line; the heavyweight full ranges live
here rather than in the per-module tests.
"""

import math
import time
from fractions import Fraction

from overpoly.bijections import audit
from overpoly.cli import main
from overpoly.divisors import pbar_exact, pbar_prefix, sigma, sigma_bar, tau_alt
from overpoly.enumeration import count_ops, forbid
from overpoly.polynomials import (
    colored_count_via_product,
    pbar_derivative,
    pbar_poly,
    series_expand,
)
from overpoly.verification import (
    check_colored,
    check_ie7,
    check_ie8,
    check_ie11,
    check_logconcave,
    check_th1,
    check_th4_grid,
    find_descent_x,
)

F = Fraction

# Expected two-decimal maximal positive real roots of the gap polynomials,
# rows a = 1..10, columns b = 1..10.
EXPECTED_MAX_ROOTS = [
    ["1.00", "1.00", "0.80", "0.81", "0.78", "0.74", "0.72", "0.72", "0.70", "0.69"],
    ["1.00", "0.84", "0.70", "0.70", "0.65", "0.61", "0.60", "0.59", "0.57", "0.56"],
    ["0.80", "0.70", "0.57", "0.56", "0.51", "0.48", "0.47", "0.46", "0.44", "0.43"],
    ["0.81", "0.70", "0.56", "0.54", "0.51", "0.47", "0.46", "0.45", "0.43", "0.42"],
    ["0.78", "0.65", "0.51", "0.51", "0.47", "0.43", "0.42", "0.41", "0.39", "0.39"],
    ["0.74", "0.61", "0.48", "0.47", "0.43", "0.40", "0.39", "0.38", "0.36", "0.35"],
    ["0.72", "0.60", "0.47", "0.46", "0.42", "0.39", "0.38", "0.37", "0.35", "0.34"],
    ["0.72", "0.59", "0.46", "0.45", "0.41", "0.38", "0.37", "0.36", "0.34", "0.33"],
    ["0.70", "0.57", "0.44", "0.43", "0.39", "0.36", "0.35", "0.34", "0.32", "0.31"],
    ["0.69", "0.56", "0.43", "0.42", "0.39", "0.35", "0.34", "0.33", "0.31", "0.30"],
]


def _report(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_root_table(capsys):
    start = time.monotonic()
    code = main(["roots", "--amax", "10", "--bmax", "10", "--format", "csv"])
    elapsed = time.monotonic() - start
    lines = capsys.readouterr().out.splitlines()
    ok = code == 0 and lines[0] == "a,b,root" and len(lines) == 101
    got = {}
    for line in lines[1:]:
        a, b, root = line.split(",")
        got[(int(a), int(b))] = root
    for a in range(1, 11):
        for b in range(1, 11):
            want = EXPECTED_MAX_ROOTS[a - 1][b - 1]
            ok = ok and abs(float(got[(a, b)]) - float(want)) <= 0.01 + 1e-12
    ok = ok and got[(1, 1)] == got[(1, 2)] == got[(2, 1)] == "1.00"
    ok = ok and got[(2, 2)] == "0.84"
    ok = ok and elapsed < 60
    # the gap polynomial is strictly positive at every grid point beyond its
    # rounded largest root
    from overpoly.polynomials import product_gap_poly
    from overpoly.verification import DEFAULT_GRID_XS

    for (a, b), root in got.items():
        gap = product_gap_poly(a, b)
        threshold = F(root) + F(1, 100)
        for x in DEFAULT_GRID_XS:
            if x > threshold:
                ok = ok and gap(x) > 0
    with capsys.disabled():
        print(f"\n[roots 10x10 in {elapsed:.1f}s]", end=" ")
    _report(1, "root table within 0.01", ok)


def test_criterion_02_oracle_equivalence():
    ok = all(pbar_exact(n) == count_ops(n, 1) for n in range(23))
    ok = ok and all(pbar_poly(n)(2) == count_ops(n, 2) for n in range(13))
    ok = ok and all(pbar_poly(n)(3) == count_ops(n, 3) for n in range(9))
    ok = ok and count_ops(2, 2) == 12
    ok = ok and pbar_exact(3) == 8
    ok = ok and count_ops(3, 1, forbid((1, 1))) == 4
    ok = ok and count_ops(6, 1, forbid((1, 1))) == 16
    _report(2, "enumeration oracle equivalence", ok)


def test_criterion_03_product_inequality_exact():
    report = check_th1(120)
    ok = report.holds and set(report.exceptions) == {(1, 1), (2, 1)}
    _report(3, "pbar product inequality to 120, zero tolerance", ok)


def test_criterion_04_derivative_identity():
    ok = all(
        pbar_derivative(n) == pbar_poly(n).derivative() for n in range(1, 51)
    )
    _report(4, "derivative identity to 50, exact", ok)


def test_criterion_05_generating_function_identity():
    coeff_polys = series_expand(12)
    ok = all(coeff_polys[n] == pbar_poly(n) for n in range(13))
    ok = ok and all(
        colored_count_via_product(n, k) == pbar_poly(n)(k)
        for n in range(13)
        for k in range(1, 5)
    )
    _report(5, "generating-function identity", ok)


def test_criterion_06_sigma_bar_consistency():
    ok = True
    for n in range(1, 10**4 + 1):
        if sigma(n) - tau_alt(n) != sigma_bar(n):
            ok = False
            break
        if sigma_bar(n) < 2 * n or (sigma_bar(n) == 2 * n) != (n & (n - 1) == 0):
            ok = False
            break
    _report(6, "sigma - tau = sigma_bar to 10^4, exact", ok)


def test_criterion_07_bijection_audits():
    def strict(report):
        return report.well_defined and report.injective and not report.surjective

    ok = all(strict(audit("f", a, b)) for a in range(2, 9) for b in range(2, a + 1))
    for a in range(1, 13):
        report = audit("g1", a)
        ok = ok and report.well_defined and report.injective
        if a >= 3:
            ok = ok and not report.surjective
    ok = ok and all(strict(audit("g2", a)) for a in range(2, 13))
    for k, cap in ((2, 12), (3, 8)):
        for a in range(2, 7):
            for b in range(1, a + 1):
                if a + b <= cap:
                    ok = ok and strict(audit("fk", a, b, k))
            if a + 1 <= cap:
                ok = ok and strict(audit("gk", a, k=k))
    _report(7, "bijection audits, exhaustive", ok)


def test_criterion_08_descent_certificates():
    ok = True
    for n in (3, 7, 15, 31):
        x = find_descent_x(n)
        ok = ok and 0 < x < 1
        ok = ok and pbar_poly(n + 1)(x) < pbar_poly(n)(x)
    x3 = find_descent_x(3)
    hand_delta = F(2 * x3**4 + 8 * x3**3 + 10 * x3**2 - 2 * x3, 3)
    ok = ok and hand_delta < 0
    _report(8, "descent certificates at 3, 7, 15, 31", ok)


def test_criterion_09_analytic_sandwich():
    report = check_ie7(500, n_min=2)
    ok = report.holds and not report.inconclusive and report.counterexample is None
    _report(9, "sandwich and truncation remainder to 500", ok)


def test_criterion_10_machine_check():
    start = time.monotonic()
    report8 = check_ie8(93)
    elapsed = time.monotonic() - start
    ok = report8.holds and elapsed < 10
    report11 = check_ie11(2, 500)
    ok = ok and report11.holds
    first = report11.stats["first_passing"]
    ok = ok and first is not None and first <= 94
    print(f"[ie8 in {elapsed:.2f}s; smallest passing a = {first}]", end=" ")
    _report(10, "machine check over the full triple range", ok)


def test_criterion_11_logconcavity():
    report = check_logconcave(500)
    ok = report.holds
    _report(11, "log-concavity to 500, exact", ok)


def test_criterion_12_grid_inequalities():
    xs = (F(1), F(3, 2), F(2), F(5, 2), F(3))
    report4 = check_th4_grid(40, xs)
    ok = report4.holds
    ok = ok and set(report4.exceptions) == {
        (1, 1, F(1)),
        (2, 1, F(1)),
        (1, 2, F(1)),
    }
    report5 = check_colored(40, (2, 3))
    ok = ok and report5.holds and report5.exceptions == ()
    _report(12, "polynomial grid inequalities to a+b=40", ok)
