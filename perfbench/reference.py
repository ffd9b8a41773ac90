"""A fixed calibration job, run in a fresh interpreter between the commands.

It does the same kinds of work as the overpoly CLI, written here once and
never changed: interpreter start and standard-library imports, power series
over Python integers, exact Fraction arithmetic (Taylor shifts and sign
variations), and enumeration of partitions into tuples and sets.  It does
not import overpoly, so a change to the package cannot change its time.
run.py times it next to every timed child and scales the child's time by it
(see run.py), to take out the speed changes of a shared machine.

It prints one checksum line, which run.py compares with CHECKSUM.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction

CHECKSUM = 1038926723


def overpartition_counts(n: int) -> list[int]:
    """Coefficients of prod (1 + q^k) / (1 - q^k) up to q^n."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for j in range(n, k - 1, -1):
            series[j] += series[j - k]
        for j in range(k, n + 1):
            series[j] += series[j - k]
    return series


def shifted_variations(coeffs: list[int], c: Fraction) -> int:
    """Sign variations of p(x + c), by repeated synthetic division."""
    out = [Fraction(v) for v in coeffs]
    size = len(out)
    for i in range(size - 1):
        for j in range(size - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    signs = [1 if v > 0 else -1 for v in out if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def partitions(n: int, largest: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    found = []
    for part in range(min(n, largest), 0, -1):
        found.extend((part, *rest) for rest in partitions(n - part, part))
    return found


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.parse_args()
    series = overpartition_counts(700)
    poly = [(-1) ** (i * i // 3) * series[i] for i in range(48)]
    variations = [shifted_variations(poly, Fraction(p, 29)) for p in (-7, -3, -1, 1, 2, 5)]
    parts = partitions(30, 30)
    distinct = {frozenset(p) for p in parts}
    checksum = (sum(series) + sum(variations) + len(parts) + len(distinct)) % (2**31 - 1)
    print(json.dumps({"checksum": checksum}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
