"""The benchmark's workloads: which CLI commands one pass sends, drawn from a seed.

Each command is the argument list of one `python -m overpoly.cli` process.
The seed draws three things, and nothing else:

  * the `--xs` grid of `verify th4 --amax 80` (checks): five rationals in
    [1, 3] with denominator <= 4, always including 1, so the declared
    equality exceptions at x = 1 are always reached;
  * k in {1, 2, 3} for `poly 120 --eval k` (counts);
  * the order of the commands within each pass.

DEFAULT_SEED reproduces the commands exactly as documented: no `--xs` flag
(the CLI's default grid), k = 1, and the listed order in every pass.

`small=True` gives the shrunk sizes of the self-test; their verdicts and
sizes are recorded in expected.json next to the full-size ones.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("roots", "counts", "checks")

CLAIMS = ("th1", "th3", "th4", "th5", "le3", "ie7", "ie8", "ie11", "logconcave", "descent")

# Grid candidates for the th4 --xs draw: every p/q in [1, 3] with q <= 4.
GRID_CANDIDATES = tuple(sorted({Fraction(p, q) for q in range(1, 5) for p in range(q, 3 * q + 1)}))

# Shrunk ranges for the self-test; each keeps the claim's declared exceptions
# inside the range, so the recorded verdicts still apply.
_SMALL_CLAIM_ARGS = {
    "th1": ["--nmax", "20"],
    "th3": ["--nmax", "8"],
    "th4": ["--amax", "8"],
    "th5": ["--amax", "8"],
    "le3": ["--nmax", "50"],
    "ie7": ["--nmax", "50"],
    "ie8": ["--amax", "10"],
    "ie11": ["--ahi", "120"],
    "logconcave": ["--nmax", "50"],
    "descent": ["--ns", "3,7"],
}

_AUDITS = (
    ["g1", "--a", "24"],
    ["g2", "--a", "23"],
    ["fk", "--a", "7", "--b", "5", "--colors", "2"],
    ["gk", "--a", "7", "--colors", "3"],
)
_SMALL_AUDITS = (
    ["g1", "--a", "8"],
    ["g2", "--a", "8"],
    ["fk", "--a", "4", "--b", "3", "--colors", "2"],
    ["gk", "--a", "4", "--colors", "2"],
)


def _rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def draw_grid(rng: random.Random) -> list[Fraction]:
    """Five grid points in [1, 3], denominators <= 4, always including 1."""
    others = [q for q in GRID_CANDIDATES if q != 1]
    return sorted([Fraction(1), *rng.sample(others, 4)])


class Workload:
    """The commands of one workload for one seed, and the order of each pass."""

    def __init__(self, name: str, seed: int, small: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self._rng = random.Random(seed)
        self.commands = self._build(small)

    def _build(self, small: bool) -> list[list[str]]:
        default = self.seed == DEFAULT_SEED
        if self.name == "roots":
            size = "3" if small else "10"
            return [["roots", "--amax", size, "--bmax", size, "--format", "json"]]
        if self.name == "counts":
            k = 1 if default else self._rng.choice((1, 2, 3))
            nmax, n = ("300", "30") if small else ("3000", "120")
            return [
                ["verify", "logconcave", "--nmax", nmax, "--format", "json"],
                ["poly", n, "--eval", str(k), "--format", "json"],
            ]
        commands = [
            ["verify", claim, *(_SMALL_CLAIM_ARGS[claim] if small else []), "--format", "json"]
            for claim in CLAIMS
        ]
        th4 = ["verify", "th4", "--amax", "20" if small else "80"]
        if not default:
            th4 += ["--xs", ",".join(_rational(x) for x in draw_grid(self._rng))]
        commands.append(th4 + ["--format", "json"])
        for audit in _SMALL_AUDITS if small else _AUDITS:
            commands.append(["bijection", *audit, "--format", "json"])
        return commands

    def pass_order(self) -> list[list[str]]:
        """The commands of the next pass, in the seed's order."""
        if self.seed == DEFAULT_SEED:
            return list(self.commands)
        order = list(self.commands)
        self._rng.shuffle(order)
        return order
