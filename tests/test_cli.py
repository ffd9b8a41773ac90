"""Command-line interface: output formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import load

from overpoly import bijections, cli
from overpoly.bijections import AuditReport, expected_verdict
from overpoly.cli import build_parser, main
from overpoly.enumeration import count_ops, format_parts
from overpoly.verification import BoundTriple, RootRecord, VerifyReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_eval_prints_value(capsys):
    code, out, _ = run(capsys, "poly", "3", "--eval", "1")
    assert code == 0
    assert out == "8\n"


def test_poly_eval_rational_point(capsys):
    code, out, _ = run(capsys, "poly", "2", "--eval", "3/2")
    assert code == 0
    assert out == "15/2\n"  # 2*(9/4) + 2*(3/2)


def test_poly_text_and_json(capsys):
    code, out, _ = run(capsys, "poly", "2")
    assert code == 0 and "2*x^2 + 2*x" in out
    code, out, _ = run(capsys, "poly", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["coeffs"] == ["0/1", "2/1", "2/1"]


def test_poly_derivative(capsys):
    code, out, _ = run(capsys, "poly", "2", "--derivative")
    assert code == 0 and "4*x + 2" in out


def test_series(capsys):
    code, out, _ = run(capsys, "series", "2")
    assert code == 0
    assert out.splitlines() == ["q^0: 1", "q^1: 2*x", "q^2: 2*x^2 + 2*x"]
    # Recorded while the series was a generic exponential on Poly values.
    code, out, _ = run(capsys, "series", "80", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "562ba02c317182f5e0abf2eff817accee431d0c62bc45e1f863a6df8b2229a5e"
    )


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--colors", "2", "--count")
    assert code == 0 and out == "count = 12\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_count_streams(capsys, monkeypatch, fmt):
    # --count must not build the list of overpartitions.
    def no_list(*args, **kwargs):
        raise AssertionError("enumerate --count built the full list")

    monkeypatch.setattr("overpoly.cli.enumerate_ops", no_list)
    code, out, _ = run(capsys, "enumerate", "12", "--colors", "2", "--count", "--format", fmt)
    count = count_ops(12, 2)
    assert code == 0
    if fmt == "json":
        assert json.loads(out) == {"n": 12, "colors": 2, "count": count}
    else:
        assert out == f"count = {count}\n"


def test_enumerate_forbid(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--forbid", "1_1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count = 4"
    assert len(lines) == 5


@pytest.mark.parametrize("forbid", ["1_1_1", "0_1", "1_0", "1_5"])
def test_enumerate_rejects_a_bad_ban(capsys, forbid):
    # Each of these used to be ignored (1_1_1 banned (1, 11)) and print count = 8.
    code, out, err = run(capsys, "enumerate", "3", "--count", "--colors", "1", "--forbid", forbid)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{forbid}'" in err


def test_enumerate_cap_exceeded(capsys):
    code, _, err = run(capsys, "enumerate", "26")
    assert code == 2
    assert "cap" in err
    code, out, err = run(capsys, "bijection", "g1", "--a", "26", "--cap", "25")
    assert code == 2 and out == ""
    assert err.startswith("resource error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["enumerate", "0", "--cap", "-1", "--count"], ["bijection", "g1", "--a", "3", "--cap", "-1"]]
)
def test_negative_cap_is_a_usage_error(capsys, argv):
    # A negative cap used to be reported as a resource limit that weight 0 exceeds.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: need cap >= 0, got -1\n")


@pytest.mark.parametrize(
    "argv, message",
    [(["-1"], "weight must be >= 0, got -1"), (["5", "--colors", "0"], "color count must be >= 1, got 0")],
)
def test_enumerate_rejects_a_bad_weight_or_color_count(capsys, argv, message):
    assert run(capsys, "enumerate", *argv) == (2, "", f"error: {message}\n")


def test_enumerate_cap_flag(capsys):
    code, out, _ = run(capsys, "enumerate", "26", "--cap", "26", "--count")
    assert code == 0 and out.startswith("count = ")


def test_bijection_audit(capsys):
    code, out, _ = run(capsys, "bijection", "f", "--a", "2", "--b", "2")
    assert code == 0
    assert "injective=True" in out and "surjective=False" in out


def test_bijection_json_round_trip(capsys):
    code, out, _ = run(capsys, "bijection", "g1", "--a", "3", "--format", "json")
    assert code == 0
    report = load(AuditReport, json.loads(out))
    assert report.map_name == "g1" and report.injective


def test_bijection_reports_a_collision_and_exits_1(capsys, monkeypatch):
    # Every case-1 input of g1 goes to one image, as in the collapsed-case audit test.
    original, collapsed_to = bijections.peel_one, []

    def collapsed(lam, a):
        image = original(lam, a)
        if bijections.dispatch_case("g1", lam, a) != 1:
            return image
        if not collapsed_to:
            collapsed_to.append(image)
        return collapsed_to[0]

    monkeypatch.setattr(bijections, "peel_one", collapsed)
    report = bijections.audit("g1", 5)
    lam, mu = report.collision_witness
    assert not expected_verdict(report)
    code, out, _ = run(capsys, "bijection", "g1", "--a", "5")
    assert code == 1 and f"collision: {format_parts(lam)} and {format_parts(mu)}" in out.splitlines()
    code, out, _ = run(capsys, "bijection", "g1", "--a", "5", "--format", "json")
    assert code == 1 and load(AuditReport, json.loads(out)) == report


@pytest.mark.parametrize("argv", [["g1", "--a", "3"], ["g2", "--a", "3"], ["gk", "--a", "3", "--colors", "2"]])
def test_bijection_peel_rejects_b(capsys, argv):
    # The peels never read b; --b 7 used to exit 0 and print "b": 7.
    code, out, err = run(capsys, "bijection", *argv, "--b", "7", "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "takes no b" in err


def test_bijection_bad_cell_is_not_a_cap_error(capsys):
    # Weight 31 is over the default cap, but b = 1 is what is wrong.
    code, out, err = run(capsys, "bijection", "f", "--a", "30", "--b", "1")
    assert code == 2 and out == "" and err.startswith("error: ") and "b >= 2" in err


def test_verify_th1(capsys):
    code, out, _ = run(capsys, "verify", "th1", "--nmax", "30")
    assert code == 0
    assert "holds=True" in out


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "logconcave", "--nmax", "50", "--format", "json")
    assert code == 0
    report = load(VerifyReport, json.loads(out))
    assert report.holds and report.claim == "logconcave"


def test_verify_ie8_at_its_cap(capsys):
    # Log-concavity of pbar leaves one pair per a to score, so the cap runs in about a second.
    code, out, _ = run(capsys, "verify", "ie8", "--amax", "26463", "--format", "json")
    assert code == 0
    report = load(VerifyReport, json.loads(out))
    assert report.holds and report.range_checked == "1 <= k < b <= a <= 26463"
    assert report.stats["argmin"] == (2, 2, 1)


def test_verify_with_grid_flag(capsys):
    code, out, _ = run(capsys, "verify", "th4", "--amax", "10", "--xs", "1,3/2,2")
    assert code == 0 and "holds=True" in out


def test_roots_csv(capsys):
    code, out, _ = run(capsys, "roots", "--amax", "2", "--bmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,root"
    assert lines[1:] == ["1,1,1.00", "1,2,1.00", "2,1,1.00", "2,2,0.84"]


def test_roots_json_round_trip(capsys):
    code, out, _ = run(capsys, "roots", "--amax", "1", "--bmax", "2", "--format", "json")
    assert code == 0
    records = [load(RootRecord, json.loads(line)) for line in out.splitlines()]
    assert [(r.a, r.b) for r in records] == [(1, 1), (1, 2)]
    assert all(r.rounded == "1.00" for r in records)


def test_failed_certificate_exits_1(capsys, monkeypatch):
    import overpoly.rootisolation as rootisolation

    horner = rootisolation._horner
    monkeypatch.setattr(rootisolation, "_horner", lambda desc, m: -horner(desc, m))
    code, out, err = run(capsys, "roots", "--amax", "2", "--bmax", "2")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cell (2, 2): the bracket ")


def test_bounds_single(capsys):
    code, out, _ = run(capsys, "bounds", "4")
    assert code == 0
    assert "exact=14" in out and "remainder_ok=True" in out


def test_bounds_scan_json(capsys):
    code, out, _ = run(capsys, "bounds", "--nmax", "5", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == [1, 2, 3, 4, 5]
    assert [r["exact"] for r in rows] == [2, 4, 8, 14, 24]


def test_bounds_requires_target(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2 and "nmax" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_exit_follows_sandwich_verdict(capsys, monkeypatch):
    def fake(n):
        upper = 10.0 + (1e-12 if n == 3 else 1.0)  # n = 3: upper slack inside the band
        return BoundTriple(n, 9.0, upper, 10, 0.0, 0.0, 0.0, n != 2)

    monkeypatch.setattr("overpoly.cli.sandwich", fake)
    assert run(capsys, "bounds", "1")[0] == 0
    assert run(capsys, "bounds", "2")[0] == 1  # remainder bound fails from n = 2
    assert run(capsys, "bounds", "3")[0] == 1  # inconclusive, as in ie7
    code, out, _ = run(capsys, "bounds", "--nmax", "3")
    assert code == 1 and len(out.splitlines()) == 3


def test_verify_text_prints_inconclusive_as_json(capsys, monkeypatch):
    def fake(n):
        upper = 10.0 + (1e-12 if n == 4 else 1.0)  # n = 4: upper slack inside the band
        return BoundTriple(n, 9.0, upper, 10, 0.0, 0.0, 0.0, True)

    monkeypatch.setattr("overpoly.verification.sandwich", fake)
    code, out, _ = run(capsys, "verify", "ie7", "--nmax", "5")
    assert code == 1
    assert out.splitlines()[1] == 'inconclusive=[["upper", 4]]'  # was [('upper', 4)]


def test_determinism(capsys):
    argv = ("verify", "th4", "--amax", "12", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ("roots", "--amax", "3", "--bmax", "3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_malformed_rational_exits_2(capsys):
    code, _, err = run(capsys, "poly", "3", "--eval", "x/y")
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("poly", "-1", "--eval", "1"), "pbar_poly undefined for n=-1; need n >= 0"),
        (("poly", "0", "--eval", "1", "--derivative"), "pbar_derivative undefined for n=0; need n >= 1"),
    ],
    ids=["value n=-1", "derivative n=0"],
)
def test_poly_eval_out_of_range_keeps_the_polynomial_error(capsys, argv, message):
    # --eval builds no polynomial, but names the one it evaluates.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "poly", "3", "--frob")
    assert code == 2


DATA = Path(__file__).parent / "data"


def test_roots_json_matches_golden(capsys):
    # Recorded from the power-of-two frame: every bracket end is dyadic.
    code, out, _ = run(capsys, "roots", "--amax", "8", "--bmax", "8", "--format", "json")
    assert code == 0
    assert out.encode() == (DATA / "roots_8x8.json").read_bytes()


def test_roots_json_agrees_with_the_cauchy_frame():
    # roots_8x8_cauchy.json was recorded when the search bisected (0, Cauchy bound).
    new, old = ([json.loads(line) for line in (DATA / name).read_text().splitlines()]
                for name in ("roots_8x8.json", "roots_8x8_cauchy.json"))
    assert len(new) == len(old) == 64
    for record, reference in zip(new, old):
        assert (record["a"], record["b"], record["rounded"]) == (reference["a"], reference["b"], reference["rounded"])
        assert Fraction(record["bracket_lo"]) <= Fraction(reference["bracket_hi"])
        assert Fraction(reference["bracket_lo"]) <= Fraction(record["bracket_hi"])
        for end in ("bracket_lo", "bracket_hi"):
            denominator = Fraction(record[end]).denominator
            # A power of two: no 8x8 bracket needed the rounding refinement to cut
            # on a decimal boundary such as 57/200 (cell (8, 18) does).
            assert denominator & (denominator - 1) == 0


def test_roots_csv_matches_golden(capsys):
    # Recorded from the Cauchy-frame search; the rounded values do not depend on the frame.
    code, out, _ = run(capsys, "roots", "--amax", "20", "--bmax", "20", "--format", "csv")
    assert code == 0
    assert out.encode() == (DATA / "roots_20x20.csv").read_bytes()


def test_roots_30x30_json_is_pinned(capsys):
    # Recorded while the search was the Descartes scan alone, before it began with sign bisection.
    code, out, _ = run(capsys, "roots", "--amax", "30", "--bmax", "30", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4535cf534a6eba83bcd380fd1282f099cdbedfbadcdbd86b501047fc003adc6"
    )


def test_roots_50x50_json_is_pinned(capsys):
    # Recorded while the bisection still took its signs from Poly evaluation.
    code, out, _ = run(capsys, "roots", "--amax", "50", "--bmax", "50", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3b1db0af738871e339d746cab8509835744acaae45c89192ac4c122d8355accd"
    )


@pytest.mark.parametrize("claim, flag, value", [("th5", "--kset", "2,x"), ("descent", "--ns", "3, y")])
def test_verify_names_a_bad_integer(capsys, claim, flag, value):
    # The message used to name the parser's helper, _int_list, instead of the bad chunk.
    code, out, err = run(capsys, "verify", claim, flag, value)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f"argument {flag}: not an integer: '{value[-1]}'")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "th1", "--nmax", "1_2"],
        ["verify", "th5", "--amax", "4", "--kset", "1_0"],
        ["verify", "descent", "--ns", "3,1_5"],
        ["verify", "ie11", "--alo", "\u0669\u0664"],
        ["poly", "\u0663"],
        ["series", "1_0"],
        ["enumerate", "3", "--count", "--cap", "1_000"],
        ["bijection", "g1", "--a", "\u0663"],
        ["roots", "--amax", "\uff13", "--bmax", "3"],
        ["bounds", "--nmax", "\uff13"],
    ],
)
def test_integer_arguments_take_only_ascii_digits(capsys, argv):
    # int() reads '1_2' as 12 and Arabic-Indic or fullwidth digits as their values;
    # each of these used to run and exit 0.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert ": not an integer: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "3", "--eval", "1_0/3"],
        ["poly", "3", "--eval", "\u0661"],
        ["roots", "--width", "\u0661/\u0661\u0660\u0660"],
        ["verify", "th4", "--amax", "3", "--xs", "1,\u0662"],
    ],
)
def test_rational_arguments_take_only_ascii(capsys, argv):
    # Fraction() reads '1_0/3' as 10/3 and Arabic-Indic digits as their values;
    # each of these used to run and exit 0.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert ": not an exact rational: " in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "51045"), "sandwich needs n <= 51044, got 51045"),
        (("bounds", "--nmax", "51045"), "need nmax <= 51044, got 51045"),
        (("verify", "ie7", "--nmax", "60000"), "need n_max <= 51044, got 60000"),
        (("verify", "ie11", "--ahi", "460000"), "need a_hi <= 459402, got 460000"),
        (("verify", "le3", "--nmax", "52926"), "need n_max <= 52925, got 52926"),
        (("verify", "ie8", "--amax", "26464"), "need a_max <= 26463, got 26464"),
    ],
    ids=["bounds n", "bounds --nmax", "ie7", "ie11", "le3", "ie8"],
)
def test_ranges_past_double_precision_exit_2(capsys, argv, message):
    # Each used to end in OverflowError, exit 1, the code of a failed check.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [("bounds", "51044"), ("verify", "ie11", "--alo", "459400", "--ahi", "459402"), ("verify", "le3", "--nmax", "52925")],
    ids=" ".join,
)
def test_largest_ranges_in_double_precision_run(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "remainder_ok=True" in out or "holds=True" in out


def test_bounds_scan_to_3000_is_pinned(capsys):
    # Recorded while the remainder check ran in mpmath at 50 digits.
    code, out, _ = run(capsys, "bounds", "--nmax", "3000", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "34dc693bc09325f33f59b9b7939b6f412567b93ce7679f2c45188fec77ec9e4c"
    )


@pytest.mark.parametrize(
    "argv",
    [["th4", "--amax", "4", "--xs", "1,1,2"], ["th3", "--nmax", "4", "--xs", "2,4/2"],
     ["th5", "--amax", "4", "--kset", "2,3,2"], ["descent", "--ns", "3,3"]],
)
def test_verify_rejects_repeated_values(capsys, argv):
    # th4 --xs 1,1,2 used to list each x = 1 exception twice.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and "repeated" in err


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter on this tree's src, run to completion; stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def _modules_loaded_by_cli_import(*modules, runs=()):
    """Those of modules loaded after importing overpoly.cli and running main on each argv in runs."""
    code = (
        "import sys, overpoly.cli\n"
        f"if any(overpoly.cli.main(argv) for argv in {runs!r}): sys.exit(1)\n"
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    return result.stdout.decode().splitlines()[-1]


def _modules_imported_by_entry_point(*argv) -> list[str]:
    """The modules a `python -X importtime -m overpoly.cli ARGV` process imported after site, in import order."""
    result = _python("-X", "importtime", "-m", "overpoly.cli", *argv)
    names = [
        line.rpartition("|")[2].strip()
        for line in result.stderr.decode().splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    ]
    return names[names.index("site") + 1 :] if "site" in names else names


@pytest.mark.parametrize("argv", [["roots", "--amax", "x"], ["-h"]], ids=" ".join)
def test_entry_point_leaves_locale_unloaded(argv):
    # Help and errors go through argparse, which run() gives its messages
    # untranslated: gettext's first lookup imports locale.
    imported = _modules_imported_by_entry_point(*argv)
    assert "argparse" in imported and "locale" not in imported


@pytest.mark.parametrize(
    "argv",
    [["verify", "ie8"], ["bijection", "g1", "--a", "3"], ["roots", "--amax", "2", "--bmax", "2"],
     ["roots", "--amax", "2", "--bmax", "2", "--format", "json"],
     ["verify", "logconcave", "--nmax", "30", "--format", "json"],
     ["verify", "th4", "--amax", "6", "--xs", "1,5/4,7/3", "--format", "json"],
     ["bijection", "fk", "--a", "4", "--b", "3", "--colors", "2", "--format", "json"],
     ["poly", "30", "--eval", "2", "--format", "json"]],
    ids=" ".join,
)
def test_entry_point_leaves_argparse_unloaded(argv):
    # A well-formed command is parsed from the subcommand table; argparse imports gettext.
    imported = _modules_imported_by_entry_point(*argv)
    assert "overpoly" in imported and not {"argparse", "gettext", "locale"} & set(imported)


def test_cli_import_leaves_mpmath_unloaded():
    assert _modules_loaded_by_cli_import("mpmath") == "[]"


def test_sandwich_runs_leave_mpmath_unloaded():
    # The remainder check runs in the decimal module, which fractions already loads.
    runs = (["verify", "ie7", "--nmax", "5"], ["bounds", "3"])
    assert _modules_loaded_by_cli_import("mpmath", runs=runs) == "[]"


def test_cli_import_leaves_process_pool_unloaded():
    assert _modules_loaded_by_cli_import("multiprocessing", "concurrent.futures.process") == "[]"


def test_cli_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize; the report records are serial.Record tuples.
    assert _modules_loaded_by_cli_import("dataclasses", "inspect") == "[]"


def test_cli_json_output_leaves_json_unloaded():
    # serial.dumps writes every payload; json's scanner, decoder and encoder cost each process ~1.7 ms.
    runs = (
        *(argv + ["--format", "json"] for argv in (
            ["poly", "5"], ["poly", "5", "--eval", "1/2"], ["series", "4"], ["enumerate", "4"],
            ["bijection", "g1", "--a", "6"], ["verify", "th1", "--nmax", "6"], ["roots", "--amax", "2", "--bmax", "2"],
            ["bounds", "5"],
        )),
        ["verify", "th1", "--nmax", "6"],  # the text format prints exceptions and stats as JSON
    )
    assert _modules_loaded_by_cli_import("json", "json.decoder", runs=runs) == "[]"


def test_cli_import_leaves_typing_unloaded():
    # -S, because site's .pth files may import typing themselves.  A
    # typing.NamedTuple record compiles each field's annotation at import.
    result = _python("-S", "-c", "import sys, overpoly.cli; print('typing' in sys.modules)")
    assert (result.returncode, result.stdout) == (0, b"False\n"), result.stderr


GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_cli_json_matches_golden(capsys, entry):
    # Each entry was recorded before a refactor of the code it runs (JSON and text output alike).
    code, out, _ = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


def test_cli_process_matches_golden():
    # The same entries through the process entry point, which freezes the
    # import-time heap before main runs; two processes at a time.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda entry: _python("-m", "overpoly.cli", *entry["argv"]), GOLDEN))
    mismatched = [
        entry["argv"]
        for entry, result in zip(GOLDEN, results)
        if (result.returncode, result.stdout) != (entry["exit"], entry["stdout"].encode())
    ]
    assert mismatched == []


@pytest.mark.parametrize("argv, code", [(["poly", "3"], 0), (["enumerate", "-1"], 2)])
def test_run_keeps_atexit_handlers_and_the_exit_code(argv, code):
    # os._exit would skip the handler; run exits through sys.exit after gc.freeze.
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('atexit: frozen' if gc.get_freeze_count() else 'atexit: not frozen'))\n"
        f"sys.argv = ['overpoly', *{argv!r}]\n"
        "runpy.run_module('overpoly.cli', run_name='__main__')\n"
    )
    result = _python("-c", script)
    expected = b"pbar_poly(3) = 4/3*x^3 + 4*x^2 + 8/3*x\n" if code == 0 else b""
    assert (result.returncode, result.stdout) == (code, expected + b"atexit: frozen\n")


def test_import_and_main_freeze_nothing():
    # Tests and the benchmark's tracer call main in-process.
    script = "import gc, overpoly.cli\noverpoly.cli.main(['poly', '3'])\nprint(gc.get_freeze_count())"
    result = _python("-c", script)
    assert result.returncode == 0 and result.stdout.splitlines()[-1] == b"0"


PARSE_ONLY_ARGVS = [
    [], ["-h"], ["bogus"], ["verify"], ["roots", "extra"], ["--format", "json", "verify"],
    ["roots", "--amax", "x"], ["-h", "roots"], ["poly"], ["poly", "3", "--frob"],
    ["bijection", "zz", "--a", "3"], ["roots", "--am", "2"], ["roots", "-h", "extra"],
    *([command, "-h"] for command in ("poly", "series", "enumerate", "bijection", "verify", "roots", "bounds")),
]


@pytest.mark.parametrize("argv", PARSE_ONLY_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
@pytest.mark.parametrize("columns", ["40", "80"])
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv, columns):
    # main builds only the parser of its first argument; help, usage lines
    # (wrapped to the terminal width) and errors must not show it.
    monkeypatch.setenv("COLUMNS", columns)
    outcome = run(capsys, *argv)
    monkeypatch.setattr("overpoly.cli.build_parser", lambda command=None: build_parser())
    assert run(capsys, *argv) == outcome


@pytest.mark.parametrize("columns", ["40", "80"])
def test_entry_point_prints_what_main_prints(capsys, monkeypatch, columns):
    # run() takes argparse's messages untranslated, main the stock ones; two processes at a time.
    monkeypatch.setenv("COLUMNS", columns)
    argvs = [*PARSE_ONLY_ARGVS, ["poly", "3", "--eval", "1/0"], ["verify", "th4", "--xs", "1,x"]]
    expected = [run(capsys, *argv) for argv in argvs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda argv: _python("-m", "overpoly.cli", *argv), argvs))
    assert [(r.returncode, r.stdout.decode(), r.stderr.decode()) for r in results] == expected


def _argparse_attributes(argv):
    """vars() of argparse's namespace for argv, or None where it prints help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(argv[0] if argv else None).parse_args(argv))
        except SystemExit:
            return None


def test_exact_parser_reads_the_golden_argvs_as_argparse_does():
    declined = []
    for entry in GOLDEN:
        exact = cli._parse_exact(entry["argv"])
        if exact is None:
            declined.append(entry["argv"])
        else:
            assert vars(exact) == _argparse_attributes(entry["argv"]), entry["argv"]
    # An '=' form and a negative number are left to argparse.
    assert declined == [
        ["poly", "30", "--eval=-2/3", "--format", "json"],
        ["poly", "30", "--eval=-2/3"],
        ["poly", "-1", "--eval", "1", "--format", "json"],
    ]


@pytest.mark.parametrize(
    "argv",
    [*PARSE_ONLY_ARGVS, ["enumerate", "3", "--forbid"], ["roots", "--amax"], ["enumerate", "3", "--count", "--count"],
     ["roots", "--amax=3"], ["bounds", "--", "3"], ["poly", "3", "--eval", "-1"], ["verify", "th1", "--nm", "3"]],
    ids=lambda argv: " ".join(argv) or "no-args",
)
def test_exact_parser_leaves_help_and_errors_to_argparse(argv):
    assert cli._parse_exact(argv) is None


# Per type: values it takes, and values the exact parser must leave to argparse.
_SAMPLE_VALUES = {
    cli._int: (["0", "3", "12", "+4", " 7 "], ["-2", "1_0", "x", "\u0663", ""]),
    cli._rational: (["1", "3/2", "0.25", "5/4"], ["-1/2", "1/0", "x/y", "1_0/3", ""]),
    cli._int_list: (["2,3", "3,7,15", "3, 7", ""], ["2,x", "-1,2"]),
    cli._rational_list: (["1,3/2,2", "2, 5/2", ""], ["1,x", "-1"]),
    None: (["1_1", "1_1,2_1", ""], ["-1_1"]),
}


def _argvs(command):
    """argvs for command: each argument present or not, in a random order, with a
    valid or an invalid value, plus at most one group argparse must take itself:
    a flag without its value or with one it does not take, a repeated flag, an
    '=' form, an abbreviation, -h, '--', '-' or an unknown flag."""
    well_formed, odd = [], [st.sampled_from([["-h"], ["--help"], ["--"], ["-"], ["--frob"]])]
    for name, spec in cli._COMMANDS[command][2]:
        valid, invalid = _SAMPLE_VALUES[spec.get("type")]
        if "choices" in spec:
            valid, invalid = spec["choices"], ["zz", ""]
        invalid = st.one_of(st.sampled_from(invalid), st.text(alphabet="0123456789-+/,_x =", max_size=4))
        # Four valid values in five.
        value = st.integers(0, 4).flatmap(lambda r, ok=st.sampled_from(valid), bad=invalid: ok if r else bad)
        if name[0] != "-":
            group = value.map(lambda v: [v])
        elif spec.get("action") == "store_true":
            group = st.just([name])
            odd.append(value.map(lambda v, name=name: [name, v]))
        else:
            group = value.map(lambda v, name=name: [name, v])
            odd.append(st.just([name]))
        well_formed.append(st.integers(0, 3).flatmap(lambda r, g=group: g if r else st.none()))  # three in four
        odd += [group, value.map(lambda v, name=name: [f"{name}={v}"])]
        if len(name) > 3:
            odd.append(st.tuples(st.integers(3, len(name) - 1), value).map(lambda t, name=name: [name[: t[0]], t[1]]))
    groups = st.tuples(st.tuples(*well_formed), st.lists(st.one_of(odd), max_size=1)).map(
        lambda drawn: [g for g in drawn[0] if g is not None] + drawn[1]
    )
    return groups.flatmap(st.permutations).map(lambda chosen: [command, *(w for g in chosen for w in g)])


_ARGVS = {command: _argvs(command) for command in cli._COMMANDS}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exact_parser_agrees_with_argparse_or_declines(command, data):
    # Random flag subsets and orders, bad values, repeats, '=' forms, abbreviations and values starting with '-'.
    argv = data.draw(_ARGVS[command])
    exact = cli._parse_exact(argv)
    assert exact is None or vars(exact) == _argparse_attributes(argv)


def test_a_one_subcommand_parser_holds_only_that_subcommand():
    assert build_parser("roots").parse_args(["roots", "--amax", "3"]).amax == 3
    with pytest.raises(SystemExit):
        build_parser("roots").parse_args(["poly", "3"])


def test_verify_text_prints_rationals_as_p_over_q(capsys):
    code, out, _ = run(capsys, "verify", "th4", "--amax", "6")
    assert code == 0
    assert out.splitlines()[1] == 'exceptions=[[1, 1, "1/1"], [1, 2, "1/1"], [2, 1, "1/1"]]'
    assert "Fraction" not in out


def test_verify_text_counterexample_is_p_over_q(capsys, monkeypatch):
    report = VerifyReport("th4", "r", False, counterexample=(1, 9, Fraction(3, 2)))
    monkeypatch.setattr("overpoly.cli.run_claim", lambda *args, **kwargs: report)
    code, out, _ = run(capsys, "verify", "th4")
    assert code == 1
    assert out.splitlines()[1] == 'counterexample=[1, 9, "3/2"]'


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "th3", "--nmax", "0"),
        ("verify", "th5", "--amax", "0"),
        ("verify", "le3", "--nmax", "0"),
        ("verify", "ie7", "--nmax", "0"),
        ("verify", "th3", "--nmax", "-2"),
        ("verify", "th4", "--amax", "-3"),
        ("verify", "ie11", "--alo", "9", "--ahi", "3"),
        ("roots", "--amax", "0"),
        ("roots", "--amax", "1", "--bmax", "1", "--width=0"),
        ("roots", "--amax", "1", "--bmax", "1", "--width=-1/2"),
        ("bounds", "--nmax", "0"),
        ("bounds", "--nmax", "-3"),
    ],
    ids=" ".join,
)
def test_empty_or_negative_range_exits_2(capsys, argv):
    # A zero range is not the default range, and an empty range does not hold.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "th1", "--amax", "5"), "--amax"),
        (("verify", "logconcave", "--xs", "2"), "--xs"),
        (("verify", "descent", "--nmax", "9"), "--nmax"),
        (("bounds", "5", "--nmax", "2"), "--nmax"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_inapplicable_input_exits_2(capsys, argv, flag):
    # Each of these used to run the default range and exit 0.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_verify_usage_names_flags(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert "--nmax NMAX" in out and "--kset KSET" in out and "N_MAX" not in out
    assert "{th1,th3,th4,th5,le3,ie7,ie8,ie11,logconcave,descent}" in out


@pytest.mark.parametrize(
    "argv, lines_read",
    [(["enumerate", "3"], 0), (["enumerate", "12", "--colors", "2"], 1)],
)
def test_stdout_closed_early_exits_1_quietly(argv, lines_read):
    # Nothing read: the last flush fails.  One line read from about 400 kB:
    # a write inside the command fails.  Neither is a usage error.
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    if not lines_read:
        reader.close()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "overpoly.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
    )
    os.close(write_end)
    for _ in range(lines_read):
        reader.readline()
    reader.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == b""
