"""Command-line interface: output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from overpoly.bijections import AuditReport
from overpoly.cli import main
from overpoly.serial import load
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


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--colors", "2", "--count")
    assert code == 0 and out == "count = 12\n"


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


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "poly", "3", "--frob")
    assert code == 2


def test_config_overrides_caps(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {"1": 26}}))
    code, out, _ = run(capsys, "--config", str(config), "enumerate", "26", "--count")
    assert code == 0
    assert out.startswith("count = ")


def test_config_caps_merge_over_the_defaults(tmp_path, capsys):
    # A cap for one color count used to drop the defaults of all the others.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"caps": {"1": 26}}))
    code, out, _ = run(capsys, "--config", str(config), "enumerate", "5", "--colors", "2", "--count")
    assert code == 0 and out == "count = 168\n"
    config.write_text(json.dumps({"caps": {"2": 4}}))
    code, out, _ = run(capsys, "--config", str(config), "enumerate", "5", "--colors", "2", "--count", "--cap", "5")
    assert code == 0 and out == "count = 168\n"  # the flag wins over the config
    code, _, err = run(capsys, "--config", str(config), "enumerate", "5", "--colors", "2", "--count")
    assert code == 2 and "exceeds the cap 4" in err


def test_config_width(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"width": "1/100"}))
    code, out, _ = run(capsys, "--config", str(config), "roots", "--amax", "1", "--bmax", "1")
    assert code == 0 and out.splitlines()[1] == "1,1,1.00"


def test_missing_config_exits_2(capsys):
    code, _, err = run(capsys, "--config", "/nonexistent.json", "poly", "3")
    assert code == 2 and "error" in err


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


@pytest.mark.parametrize("claim", ["th3", "th4"])
def test_config_xs_grid(tmp_path, capsys, claim):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"xs": ["2", "5/2"]}))
    code, out, _ = run(capsys, "--config", str(config), "verify", claim, "--format", "json")
    assert code == 0
    assert json.loads(out)["range_checked"].endswith("x in {2, 5/2}")
    code, out, _ = run(capsys, "--config", str(config), "verify", claim, "--xs", "3")
    assert code == 0 and "x in {3}" in out  # the flag wins over the config


@pytest.mark.parametrize(
    "payload",
    [
        {"xz": ["2"]},
        {"width": "1/100", "speed": 1},
        ["xs"],
        {"xs": "2"},
        {"caps": [1]},
        {"caps": {"1": None}},
        {"caps": {"1": 2.5}},
        {"caps": {"x": 3}},
        {"width": None},
        {"width": [1]},
        {"xs": [None]},
        {"xs": ["1", "1", "2"]},
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code, out, err = run(capsys, "--config", str(config), "verify", "th4", "--amax", "4")
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize(
    "payload, argv",
    [
        ({"caps": [1]}, ["enumerate", "3"]),
        ({"caps": [1]}, ["bijection", "g1", "--a", "3"]),
        ({"caps": {"1": None}}, ["enumerate", "3"]),
        ({"caps": {"1": 2.5}}, ["enumerate", "3"]),
        ({"width": None}, ["roots", "--amax", "1", "--bmax", "1"]),
        ({"width": [1]}, ["roots", "--amax", "1", "--bmax", "1"]),
        ({"width": True}, ["roots", "--amax", "1", "--bmax", "1"]),
        ({"width": float("inf")}, ["poly", "2"]),
        ({"width": 1e400}, ["roots", "--amax", "1", "--bmax", "1"]),
        ({"width": "-1/2"}, ["poly", "3"]),
        ({"width": "-1/2"}, ["roots", "--amax", "1", "--bmax", "1"]),
    ],
)
def test_config_type_error_names_the_key(tmp_path, capsys, payload, argv):
    # Each of these used to print a traceback and exit 1, or (2.5) run with cap 2;
    # a width of -1/2 used to pass on poly, and roots did not name the key.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    code, out, err = run(capsys, "--config", str(config), *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: config key {next(iter(payload))} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["bogus", "workers"])
def test_unknown_config_key_exits_2(tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 2}))
    code, out, err = run(capsys, "--config", str(config), "roots", "--amax", "1", "--bmax", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: unknown config keys ['{key}']; known keys are ") and err.count("\n") == 1


@pytest.mark.parametrize("claim, flag, value", [("th5", "--kset", "2,x"), ("descent", "--ns", "3, y")])
def test_verify_names_a_bad_integer(capsys, claim, flag, value):
    # The message used to name the parser's helper, _int_list, instead of the bad chunk.
    code, out, err = run(capsys, "verify", claim, flag, value)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f"argument {flag}: not an integer: '{value[-1]}'")


@pytest.mark.parametrize(
    "argv",
    [["th4", "--amax", "4", "--xs", "1,1,2"], ["th3", "--nmax", "4", "--xs", "2,4/2"],
     ["th5", "--amax", "4", "--kset", "2,3,2"], ["descent", "--ns", "3,3"]],
)
def test_verify_rejects_repeated_values(capsys, argv):
    # th4 --xs 1,1,2 used to list each x = 1 exception twice.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and "repeated" in err


def _modules_loaded_by_cli_import(*modules):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, overpoly.cli; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_leaves_mpmath_unloaded():
    assert _modules_loaded_by_cli_import("mpmath") == "[]"


def test_cli_import_leaves_process_pool_unloaded():
    assert _modules_loaded_by_cli_import("multiprocessing", "concurrent.futures.process") == "[]"


GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_cli_json_matches_golden(capsys, entry):
    # Each entry was recorded before a refactor of the code it runs (JSON and text output alike).
    code, out, _ = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


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


def test_config_xs_is_ignored_by_claims_without_a_grid(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"xs": ["2", "5/2"]}))
    code, out, _ = run(capsys, "--config", str(config), "verify", "logconcave", "--nmax", "20")
    assert code == 0 and "holds=True" in out


def test_verify_usage_names_flags(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert "--nmax NMAX" in out and "--kset KSET" in out and "N_MAX" not in out
    assert "{th1,th3,th4,th5,le3,ie7,ie8,ie11,logconcave,descent}" in out
