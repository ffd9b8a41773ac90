"""Checks that a CLI command's output is correct, by meaning rather than bytes.

Byte comparison would wrongly fail changes that legitimately alter `stats`,
bracket endpoints or field order, so each command kind is checked for what it
asserts:

  * roots: every record passes `certify_root_record`, the cells are exactly
    the requested grid, and each `rounded` equals the value recorded at the
    seed commit;
  * poly N --eval k: the value equals `pbar_exact(N)` for k = 1 and
    `colored_count_via_product(N, k)` otherwise;
  * verify: `holds`, `exceptions`, `counterexample` and `inconclusive` match
    the recorded verdict of the claim;
  * bijection: `expected_verdict` holds, and the domain, image and codomain
    sizes match the recorded ones.

Every command must also exit with code 0.  The recorded values live in
expected.json; the checks call into the benchmarked tree, so `overpoly` must
be importable when an Oracle is created.
"""

from __future__ import annotations

import json
import re
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _norm(value):
    """JSON value with "p/q" strings read as Fractions and lists as tuples."""
    if isinstance(value, str) and _RATIONAL.match(value):
        return Fraction(value)
    if isinstance(value, list):
        return tuple(_norm(v) for v in value)
    return value


def _as_multiset(values) -> list:
    return sorted((_norm(v) for v in values), key=repr)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def command_key(argv: list[str]) -> str:
    """The command without its subcommand and output format, e.g. 'g1 --a 24'."""
    rest = list(argv[1:])
    if rest[-2:] == ["--format", "json"]:
        rest = rest[:-2]
    return " ".join(rest)


class Oracle:
    """Judges (argv, exit code, stdout) triples; identical triples are judged once."""

    def __init__(self, expected: dict):
        from overpoly.bijections import expected_verdict
        from overpoly.divisors import pbar_exact
        from overpoly.polynomials import colored_count_via_product
        from overpoly.verification import RootRecord, certify_root_record

        self.expected = expected
        self._expected_verdict = expected_verdict
        self._pbar_exact = pbar_exact
        self._colored_count = colored_count_via_product
        self._root_record = RootRecord
        self._certify = certify_root_record
        self._judged: dict[tuple, bool] = {}

    def check(self, argv: list[str], returncode: int, stdout: str) -> bool:
        key = (tuple(argv), returncode, stdout)
        if key not in self._judged:
            self._judged[key] = self._judge(argv, returncode, stdout)
        return self._judged[key]

    def _judge(self, argv, returncode, stdout) -> bool:
        if returncode != 0:
            print(f"oracle: {' '.join(argv)} exited with {returncode}", file=sys.stderr)
            return False
        try:
            ok = getattr(self, f"_check_{argv[0]}")(argv, stdout)
        except Exception:  # a malformed output is a failed command, not a crash
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            print(f"oracle: wrong output from {' '.join(argv)}", file=sys.stderr)
        return ok

    def _check_roots(self, argv, stdout) -> bool:
        rounded = self.expected["roots_rounded"]
        want = {(a, b) for a in range(1, int(_flag(argv, "--amax")) + 1)
                for b in range(1, int(_flag(argv, "--bmax")) + 1)}
        seen = set()
        for line in stdout.splitlines():
            data = json.loads(line)
            record = self._root_record(
                a=data["a"],
                b=data["b"],
                bracket_lo=Fraction(data["bracket_lo"]),
                bracket_hi=Fraction(data["bracket_hi"]),
                rounded=data["rounded"],
            )
            cell = (record.a, record.b)
            if cell in seen or not self._certify(record):
                return False
            if record.rounded != rounded[f"{record.a},{record.b}"]:
                return False
            seen.add(cell)
        return seen == want

    def _check_poly(self, argv, stdout) -> bool:
        n, k = int(argv[1]), int(_flag(argv, "--eval"))
        data = json.loads(stdout)
        want = self._pbar_exact(n) if k == 1 else self._colored_count(n, k)
        return data["n"] == n and Fraction(data["x"]) == k and Fraction(data["value"]) == want

    def _check_verify(self, argv, stdout) -> bool:
        claim = argv[1]
        data = json.loads(stdout)
        want = self.expected["verdicts"][claim]
        return (
            data["claim"] == claim
            and data["holds"] is want["holds"]
            and _norm(data["counterexample"]) == _norm(want["counterexample"])
            and _as_multiset(data["exceptions"]) == _as_multiset(want["exceptions"])
            and _as_multiset(data["inconclusive"]) == _as_multiset(want["inconclusive"])
        )

    def _check_bijection(self, argv, stdout) -> bool:
        data = json.loads(stdout)
        want = self.expected["audits"][command_key(argv)]
        sizes = ("domain_size", "image_size", "codomain_size")
        return (
            data["map_name"] == argv[1]
            and self._expected_verdict(SimpleNamespace(**data))
            and all(data[s] == want[s] for s in sizes)
        )
