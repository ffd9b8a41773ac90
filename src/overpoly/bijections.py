"""The five case-defined injections behind the product inequalities, with an auditor.

Each map sends a constrained overpartition of a combined weight to a pair of
smaller constrained overpartitions:

    "f"   splits weight a+b (no plain 1's or 2's) into weight a (no plain 1's)
          and weight b (no plain 2's), cutting at the split point;
    "g1"  peels one unit off weight a+1 (no plain 1's);
    "g2"  peels two units off weight a+2 (no plain 1's);
    "fk"  the k-colored split: no plain 1's in color 1 and color 2 upstream,
          one ban on each side downstream;
    "gk"  the k-colored single-unit peel.

"plain" means non-overlined: a ban on (size, color) never excludes the
overlined copy.  Every map is a finite union of mutually exclusive cases.
Each map is written once, as one private function (parts, b) -> (case,
left, right): it reads its context once, evaluates all the guards, insists
that exactly one fires, and builds that case's image.  The public maps
rebuild both sides as part multisets and canonicalize them, which absorbs
the ad-hoc rearrangements the case formulas would otherwise need.

MAPS is the one registry of the five maps.  The public maps and
dispatch_case go through one runner that checks the cell and then the
domain against the map's entry before it calls the entry's function; audit
reads the same entry.

audit() streams the exact domain from iter_ops, applies the public map once
per element, and reports well-definedness (every image lands in the
enumerated codomain), injectivity (pairwise distinct images), surjectivity
(image covers the codomain), and witnesses.  It keeps one dict from each
image to the position of its first preimage, not the domain: the collision
witness, the first repeated image in domain order with its first preimage,
is fetched by enumerating again.  Images are compared as canonical values,
never as strings.
"""

from __future__ import annotations

import math
from itertools import compress, count, islice
from typing import NamedTuple

from . import serial
from .enumeration import (
    NO_CONSTRAINT,
    Constraint,
    Part,
    canonicalize,
    enumerate_ops,
    forbid,
    iter_ops,
    weight,
)

__all__ = [
    "SplitPoint",
    "ImagePair",
    "AuditReport",
    "split_point",
    "split_pair",
    "peel_one",
    "peel_two",
    "split_pair_colored",
    "peel_one_colored",
    "dispatch_case",
    "MapEntry",
    "MAPS",
    "MAP_NAMES",
    "audit",
    "expected_verdict",
]

NO_ONES = forbid((1, 1))  # plain 1_1; the colored maps ban it too
NO_TWOS = forbid((2, 1))
NO_ONES_NO_TWOS = forbid((1, 1), (2, 1))
NO_ONES_C2 = forbid((1, 2))
NO_ONES_C1_C2 = forbid((1, 1), (1, 2))

# The small parts the maps emit, built once and shared by every image.
ONE, ONE_BAR = Part(1, 1, False), Part(1, 1, True)
TWO, TWO_BAR = Part(2, 1, False), Part(2, 1, True)
ONE_C2 = Part(1, 2, False)


class MapEntry(NamedTuple):
    """One injection: its functions and the cells (a, b, k) it is defined on."""

    apply: str  # the public map in this module
    case: str  # its case-and-image function, (parts, b) -> (case, left, right)
    colored: bool  # k >= 2 when colored, else k = 1
    fixed_b: int | None  # the b a peel shears off; None for a split, which takes b
    least_a: int
    least_b: int
    domain: Constraint  # on weight a + b
    left: Constraint  # on weight a
    right: Constraint  # on weight b


# Names, not functions, are stored so that a map rebound on the module (by a
# test or a tracer) is the one that audit applies.
MAPS = {
    "f": MapEntry("split_pair", "_split", False, None, 2, 2, NO_ONES_NO_TWOS, NO_ONES, NO_TWOS),
    "g1": MapEntry("peel_one", "_peel_one", False, 1, 1, 1, NO_ONES, NO_ONES, NO_CONSTRAINT),
    "g2": MapEntry("peel_two", "_peel_two", False, 2, 2, 2, NO_ONES, NO_ONES, NO_CONSTRAINT),
    "fk": MapEntry("split_pair_colored", "_split_colored", True, None, 2, 1, NO_ONES_C1_C2, NO_ONES, NO_ONES_C2),
    "gk": MapEntry("peel_one_colored", "_peel_one_colored", True, 1, 2, 1, NO_ONES, NO_ONES, NO_CONSTRAINT),
}
MAP_NAMES = tuple(MAPS)


class SplitPoint(NamedTuple):
    """Where an overpartition of weight >= b is cut to shear off weight b.

    index is 1-based; the part there contributes `take` to the tail side and
    keeps `keep`, so take + (sizes after index) = b and 0 < take <= size.
    """

    index: int
    take: int
    keep: int


class ImagePair(NamedTuple):
    """A pair of overpartitions, each canonical, with weights summing to the domain weight."""

    left: tuple[Part, ...]
    right: tuple[Part, ...]


def split_point(parts, b: int) -> SplitPoint:
    """Largest index whose tail sum still reaches b, with the take/keep split."""
    if b < 1:
        raise ValueError(f"split weight must be >= 1, got {b}")
    if not parts:
        raise ValueError("cannot split an empty overpartition")
    if weight(parts) < b:
        raise ValueError(f"weight {weight(parts)} below split weight {b}")
    tail = 0
    for j in range(len(parts), 0, -1):
        tail += parts[j - 1][0]
        if tail >= b:
            take = b - (tail - parts[j - 1][0])
            return SplitPoint(j, take, parts[j - 1][0] - take)
    raise AssertionError("unreachable: total weight checked above")


def _one_case(guards, context) -> int:
    """Index of the one truthy guard.  compress stops at a second truthy
    guard, so the list of hits is built only for the RuntimeError that names
    them when there are none or several."""
    hits = compress(count(), guards)
    case = next(hits, None)
    if case is None or next(hits, None) is not None:
        hits = [i for i, g in enumerate(guards) if g]
        raise RuntimeError(f"case dispatch not exclusive/exhaustive for {context}: {hits}")
    return case


def dispatch_case(map_name: str, parts, a: int, b: int | None = None, k: int = 1) -> int:
    """0-based index of the unique case a map applies to the given input."""
    return _run(map_name, parts, a, b, k)[0]


def _require_cell(map_name: str, a: int, b: int | None, k: int) -> tuple[MapEntry, int]:
    """The map's entry and the weight b (a peel's own), once the cell is checked against the entry."""
    if map_name not in MAPS:
        raise ValueError(f"unknown map {map_name!r}")
    entry = MAPS[map_name]
    if (b is None) == (entry.fixed_b is None):
        takes = "needs b" if b is None else f"peels b = {entry.fixed_b} and takes no b"
        raise ValueError(f"map {map_name} {takes}; got b={b}")
    b = entry.fixed_b if b is None else b
    if (k < 2 if entry.colored else k != 1) or a < entry.least_a or b < entry.least_b:
        rule = f"{'k >= 2' if entry.colored else 'k = 1'}, a >= {entry.least_a}, b >= {entry.least_b}"
        raise ValueError(f"map {map_name} needs {rule}; got a={a}, b={b}, k={k}")
    return entry, b


def _run(map_name: str, parts, a: int, b: int | None, k: int) -> tuple[int, tuple, tuple]:
    """One application of a map: the cell, then the domain, then (case, left, right), sides not yet canonical."""
    entry, b = _require_cell(map_name, a, b, k)
    _require_domain(parts, a + b, k, entry.domain, f"map {map_name}")
    return globals()[entry.case](parts, b)


def _split(parts, b: int):
    i, take, keep = split_point(parts, b)
    over = parts[i - 1][2]
    prev_over = parts[i - 2][2] if i >= 2 else None
    case = _one_case(
        [
            keep == 0,
            keep >= 1 and over,
            keep >= 2 and not over,
            keep == 1 and not over and prev_over is False,
            keep == 1 and not over and prev_over is True,
        ],
        parts,
    )
    if case == 0:
        return case, parts[: i - 1], parts[i - 1 :]
    right = parts[i:] + (ONE,) * take
    if case <= 2:
        return case, parts[: i - 1] + (Part(keep, 1, case == 1),), right
    prev_size = parts[i - 2][0]
    high, low = (prev_size + 2) // 2, (prev_size + 1) // 2
    return case, parts[: i - 2] + (Part(high, 1, case == 4), Part(low, 1, False)), right


def split_pair(parts, a: int, b: int) -> ImagePair:
    """The uncolored split map: weight a+b, no plain 1's or 2's, into (a, b)."""
    if a < b:
        raise ValueError(f"split map needs a >= b; got a={a}, b={b}")
    _, left, right = _run("f", parts, a, b, 1)
    return ImagePair(canonicalize(left), canonicalize(right))


def _peel_one(parts, b: int):
    size, _, over = parts[-1]
    case = _one_case(
        [size >= 2 and over, size >= 3 and not over, size == 2 and not over, size == 1],
        parts,
    )
    if case <= 1:
        return case, parts[:-1] + (Part(size - b, 1, case == 0),), (ONE,)
    if case == 2:
        return case, parts[:-1] + (ONE_BAR,), (ONE_BAR,)
    return case, parts[:-1], parts[-1:]


def peel_one(parts, a: int) -> ImagePair:
    """The uncolored single-unit peel: weight a+1, no plain 1's, into (a, 1)."""
    _, left, right = _run("g1", parts, a, None, 1)
    return ImagePair(canonicalize(left), canonicalize(right))


def _peel_two(parts, b: int):
    size, _, over = parts[-1]
    prev = parts[-2] if len(parts) >= 2 else None
    case = _one_case(
        [
            size >= 3 and over,
            size >= 4 and not over,
            size == 3 and not over,
            size == 2 and not over,
            size == 2 and over,
            size == 1 and prev is not None and prev[2],
            size == 1 and prev is not None and prev[:] == (2, 1, False),
            size == 1 and prev is not None and prev[0] >= 3 and not prev[2],
        ],
        parts,
    )
    if case <= 1:
        return case, parts[:-1] + (Part(size - b, 1, case == 0),), (TWO,)
    if case == 2:
        return case, parts[:-1] + (ONE_BAR,), (TWO_BAR,)
    if case == 3:
        return case, parts[:-1], (ONE, ONE)
    if case == 4:
        return case, parts[:-1], (TWO_BAR,)
    if case == 6:
        return case, parts[:-2] + (ONE_BAR,), (ONE, ONE)
    return case, parts[:-2] + (Part(prev[0] - 1, 1, case == 5),), (ONE, ONE_BAR)


def peel_two(parts, a: int) -> ImagePair:
    """The uncolored two-unit peel: weight a+2, no plain 1's, into (a, 2)."""
    _, left, right = _run("g2", parts, a, None, 1)
    return ImagePair(canonicalize(left), canonicalize(right))


def _split_colored(parts, b: int):
    i, take, keep = split_point(parts, b)
    _, color, over = parts[i - 1]
    prev = parts[i - 2] if i >= 2 else None
    keep_one_plain_c1 = keep == 1 and not over and color == 1
    case = _one_case(
        [
            keep == 0,
            keep >= 1 and over,
            keep >= 2 and not over,
            keep == 1 and not over and color != 1,
            keep_one_plain_c1 and prev is not None and prev[:] == (2, 1, False),
            keep_one_plain_c1 and prev is not None and prev[:] != (2, 1, False) and not prev[2],
            keep_one_plain_c1 and prev is not None and prev[2],
        ],
        parts,
    )
    if case == 0:
        return case, parts[: i - 1], parts[i - 1 :]
    right = parts[i:] + (ONE,) * take
    if case <= 3:
        return case, parts[: i - 1] + (Part(keep, color, case == 1),), right
    if case == 4:
        return case, parts[: i - 2] + (ONE_C2, ONE_C2, ONE_BAR), right
    return case, parts[: i - 2] + (Part(prev[0] - 1, prev[1], case == 6), ONE_C2, ONE_C2), right


def split_pair_colored(parts, a: int, b: int, k: int) -> ImagePair:
    """The k-colored split map: weight a+b, no plain 1_1's or 1_2's, into (a, b)."""
    _, left, right = _run("fk", parts, a, b, k)
    return ImagePair(canonicalize(left, k), canonicalize(right, k))


def _peel_one_colored(parts, b: int):
    size, color, over = parts[-1]
    prev = parts[-2] if len(parts) >= 2 else None
    is_two_c1 = (size, color, over) == (2, 1, False)
    case = _one_case(
        [
            size >= 2 and over,
            size >= 2 and not over and not is_two_c1,
            is_two_c1 and prev is not None and prev[2],
            is_two_c1 and prev is not None and not prev[2] and prev[:] != (2, 1, False),
            is_two_c1 and prev is not None and prev[:] == (2, 1, False),
            size == 1,
        ],
        parts,
    )
    if case <= 1:
        return case, parts[:-1] + (Part(size - b, color, case == 0),), (ONE,)
    if case == 4:
        return case, parts[:-2] + (ONE_C2, ONE_C2, ONE_BAR), (ONE,)
    if case == 5:
        return case, parts[:-1], parts[-1:]
    return case, parts[:-2] + (Part(prev[0] - 1, prev[1], case == 2), ONE_C2, ONE_C2), (ONE,)


def peel_one_colored(parts, a: int, k: int) -> ImagePair:
    """The k-colored single-unit peel: weight a+1, no plain 1_1's, into (a, 1)."""
    _, left, right = _run("gk", parts, a, None, k)
    return ImagePair(canonicalize(left, k), canonicalize(right, k))


def _require_domain(parts, total: int, k: int, constraint: Constraint, label: str):
    """One pass over parts: sizes >= 1, colors in 1..k, the bans, canonical
    order and at most one overline per (size, color), then the weight.  Each
    part is compared with the previous part's size, color and overline.  The
    ValueError names the first bad part."""
    forbidden = constraint.forbidden
    seen, last_size, last_color, last_over = 0, math.inf, 0, False
    for part in parts:
        size, color, overlined = part
        if size < 1:
            fault = "has size below 1"
        elif not 1 <= color <= k:
            raise ValueError(f"{label}: color {color} outside 1..{k}")
        elif not overlined and (size, color) in forbidden:
            fault = "violates the domain constraint"
        elif size < last_size or size == last_size and (color < last_color or color == last_color and not last_over):
            seen += size
            last_size, last_color, last_over = size, color, overlined
            continue
        elif overlined and size == last_size and color == last_color:
            fault = "repeats an overlined (size, color)"
        else:
            fault = "is out of canonical order"
        raise ValueError(f"{label}: part {Part(*part)} {fault}")
    if seen != total:
        raise ValueError(f"{label}: input weight {seen} != {total}")


@serial.record
class AuditReport(NamedTuple):
    """Outcome of exhaustively testing a map on one parameter cell."""

    map_name: str
    a: int
    b: int | None
    k: int
    domain_size: int
    image_size: int
    codomain_size: int
    well_defined: bool
    injective: bool
    surjective: bool
    collision_witness: tuple | None
    unhit_witness: tuple | None


def audit(map_name: str, a: int, b: int | None = None, k: int = 1, cap: int | None = None) -> AuditReport:
    """Exhaustively test one map: well-definedness, injectivity, surjectivity, witnesses."""
    entry, b_weight = _require_cell(map_name, a, b, k)
    if b is not None and a < b:
        raise ValueError(f"map {map_name} needs a >= b; got a={a}, b={b}")
    apply_map = globals()[entry.apply]
    map_args = (a, *(() if entry.fixed_b is not None else (b,)), *((k,) if entry.colored else ()))
    domain = iter_ops(a + b_weight, k, entry.domain, cap=cap)
    left_cod = enumerate_ops(a, k, entry.left, cap=cap)
    right_cod = enumerate_ops(b_weight, k, entry.right, cap=cap)
    codomain_size = len(left_cod) * len(right_cod)

    # Each image maps to the 1-based position of its first preimage in domain
    # order; repeat holds the positions of the first repeated image, if any.
    first_preimage: dict[ImagePair, int] = {}
    repeat = None
    domain_size = 0
    for domain_size, lam in enumerate(domain, 1):
        first = first_preimage.setdefault(apply_map(lam, *map_args), domain_size)
        if first != domain_size and repeat is None:
            repeat = (first, domain_size)

    left_set, right_set = set(left_cod), set(right_cod)
    well_defined = all(l in left_set and r in right_set for (l, r) in first_preimage)

    injective = repeat is None
    collision = None
    if not injective:
        # The stream has moved past both preimages; fetch them from a fresh one.
        again = enumerate(islice(iter_ops(a + b_weight, k, entry.domain, cap=cap), repeat[1]), 1)
        collision = tuple(lam for position, lam in again if position in repeat)

    surjective = len(first_preimage) == codomain_size and well_defined
    unhit = None if surjective else next(
        ((l, r) for l in left_cod for r in right_cod if (l, r) not in first_preimage), None
    )

    return AuditReport(
        map_name=map_name,
        a=a,
        b=b,
        k=k,
        domain_size=domain_size,
        image_size=len(first_preimage),
        codomain_size=codomain_size,
        well_defined=well_defined,
        injective=injective,
        surjective=surjective,
        collision_witness=collision,
        unhit_witness=unhit,
    )


def expected_verdict(report: AuditReport) -> bool:
    """Does the report match what the counting inequalities assert for that cell?

    Every map must be well-defined and injective.  Strict non-surjectivity is
    asserted everywhere except the single-unit peel at a <= 2, where only
    `>=` is claimed and the audit may legitimately find a bijection.
    """
    if not (report.well_defined and report.injective):
        return False
    if report.map_name == "g1" and report.a <= 2:
        return True
    return not report.surjective
