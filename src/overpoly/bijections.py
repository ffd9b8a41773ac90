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
overlined copy.  Every map is a finite union of mutually exclusive cases;
dispatch evaluates all guards and insists exactly one fires.  Outputs are
rebuilt as part multisets and canonicalized, which absorbs the ad-hoc
rearrangements the case formulas would otherwise need.

MAPS is the one registry of the five maps; dispatch_case, audit and the
maps' own parameter checks all read their entry there.

audit() enumerates the exact domain, applies the map everywhere, and reports
well-definedness (every image lands in the enumerated codomain), injectivity
(pairwise distinct images), surjectivity (image covers the codomain), and
witnesses.  Images are compared as canonical values, never as strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .enumeration import (
    NO_CONSTRAINT,
    Constraint,
    Part,
    canonicalize,
    enumerate_ops,
    forbid,
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


class MapEntry(NamedTuple):
    """One injection: its functions and the cells (a, b, k) it is defined on."""

    apply: str  # the public map in this module
    case: str  # its case function
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
    "f": MapEntry("split_pair", "_split_case", False, None, 2, 2, NO_ONES_NO_TWOS, NO_ONES, NO_TWOS),
    "g1": MapEntry("peel_one", "_peel_one_case", False, 1, 1, 1, NO_ONES, NO_ONES, NO_CONSTRAINT),
    "g2": MapEntry("peel_two", "_peel_two_case", False, 2, 2, 2, NO_ONES, NO_ONES, NO_CONSTRAINT),
    "fk": MapEntry("split_pair_colored", "_split_colored_case", True, None, 2, 1, NO_ONES_C1_C2, NO_ONES, NO_ONES_C2),
    "gk": MapEntry("peel_one_colored", "_peel_one_colored_case", True, 1, 2, 1, NO_ONES, NO_ONES, NO_CONSTRAINT),
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


@dataclass(frozen=True)
class ImagePair:
    """A pair of overpartitions, each canonical, with weights summing to the domain weight."""

    left: tuple[Part, ...]
    right: tuple[Part, ...]

    def as_tuple(self):
        return (self.left, self.right)


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
    hits = [i for i, g in enumerate(guards) if g]
    if len(hits) != 1:
        raise RuntimeError(f"case dispatch not exclusive/exhaustive for {context}: {hits}")
    return hits[0]


def dispatch_case(map_name: str, parts, a: int, b: int | None = None, k: int = 1) -> int:
    """0-based index of the unique case a map applies to the given input."""
    entry = _entry(map_name)
    return globals()[entry.case](parts, *(() if entry.fixed_b is not None else (b,)))


def _entry(map_name: str) -> MapEntry:
    if map_name not in MAPS:
        raise ValueError(f"unknown map {map_name!r}")
    return MAPS[map_name]


def _require_cell(map_name: str, a: int, b: int | None, k: int) -> tuple[MapEntry, int]:
    """The map's entry and the weight b (a peel's own), once the cell is checked against the entry."""
    entry = _entry(map_name)
    if (b is None) == (entry.fixed_b is None):
        takes = "needs b" if b is None else f"peels b = {entry.fixed_b} and takes no b"
        raise ValueError(f"map {map_name} {takes}; got b={b}")
    b = entry.fixed_b if b is None else b
    if (k < 2 if entry.colored else k != 1) or a < entry.least_a or b < entry.least_b:
        rule = f"{'k >= 2' if entry.colored else 'k = 1'}, a >= {entry.least_a}, b >= {entry.least_b}"
        raise ValueError(f"map {map_name} needs {rule}; got a={a}, b={b}, k={k}")
    return entry, b


def _require_input(map_name: str, parts, a: int, b: int | None = None, k: int = 1) -> None:
    """Check one application of a map against its entry: the cell, then the domain."""
    entry, b = _require_cell(map_name, a, b, k)
    _require_domain(parts, a + b, k, entry.domain, f"map {map_name}")


def _split_case(parts, b: int) -> int:
    i, _, keep = split_point(parts, b)
    part = parts[i - 1]
    prev_over = parts[i - 2][2] if i >= 2 else None
    return _one_case(
        [
            keep == 0,
            keep >= 1 and part[2],
            keep >= 2 and not part[2],
            keep == 1 and not part[2] and prev_over is False,
            keep == 1 and not part[2] and prev_over is True,
        ],
        parts,
    )


def split_pair(parts, a: int, b: int) -> ImagePair:
    """The uncolored split map: weight a+b, no plain 1's or 2's, into (a, b)."""
    if a < b:
        raise ValueError(f"split map needs a >= b; got a={a}, b={b}")
    _require_input("f", parts, a, b)
    i, take, keep = split_point(parts, b)
    case = _split_case(parts, b)
    ones = (Part(1, 1, False),) * take
    if case == 0:
        left, right = parts[: i - 1], parts[i - 1 :]
    elif case == 1:
        left, right = parts[: i - 1] + (Part(keep, 1, True),), parts[i:] + ones
    elif case == 2:
        left, right = parts[: i - 1] + (Part(keep, 1, False),), parts[i:] + ones
    else:
        prev_size = parts[i - 2][0]
        high, low = (prev_size + 2) // 2, (prev_size + 1) // 2
        left = parts[: i - 2] + (Part(high, 1, case == 4), Part(low, 1, False))
        right = parts[i:] + ones
    return ImagePair(canonicalize(left), canonicalize(right))


def _peel_one_case(parts) -> int:
    size, _, over = parts[-1]
    return _one_case(
        [size >= 2 and over, size >= 3 and not over, size == 2 and not over, size == 1],
        parts,
    )


def peel_one(parts, a: int) -> ImagePair:
    """The uncolored single-unit peel: weight a+1, no plain 1's, into (a, 1)."""
    _require_input("g1", parts, a)
    case = _peel_one_case(parts)
    last = parts[-1]
    one, one_bar = Part(1, 1, False), Part(1, 1, True)
    if case == 0:
        left, right = parts[:-1] + (Part(last.size - 1, 1, True),), (one,)
    elif case == 1:
        left, right = parts[:-1] + (Part(last.size - 1, 1, False),), (one,)
    elif case == 2:
        left, right = parts[:-1] + (one_bar,), (one_bar,)
    else:
        left, right = parts[:-1], (last,)
    return ImagePair(canonicalize(left), canonicalize(right))


def _peel_two_case(parts) -> int:
    size, _, over = parts[-1]
    prev = parts[-2] if len(parts) >= 2 else None
    return _one_case(
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


def peel_two(parts, a: int) -> ImagePair:
    """The uncolored two-unit peel: weight a+2, no plain 1's, into (a, 2)."""
    _require_input("g2", parts, a)
    case = _peel_two_case(parts)
    last = parts[-1]
    prev = parts[-2] if len(parts) >= 2 else None
    one, one_bar = Part(1, 1, False), Part(1, 1, True)
    two, two_bar = Part(2, 1, False), Part(2, 1, True)
    if case == 0:
        left, right = parts[:-1] + (Part(last.size - 2, 1, True),), (two,)
    elif case == 1:
        left, right = parts[:-1] + (Part(last.size - 2, 1, False),), (two,)
    elif case == 2:
        left, right = parts[:-1] + (one_bar,), (two_bar,)
    elif case == 3:
        left, right = parts[:-1], (one, one)
    elif case == 4:
        left, right = parts[:-1], (two_bar,)
    elif case == 5:
        left, right = parts[:-2] + (Part(prev.size - 1, 1, True),), (one, one_bar)
    elif case == 6:
        left, right = parts[:-2] + (one_bar,), (one, one)
    else:
        left, right = parts[:-2] + (Part(prev.size - 1, 1, False),), (one, one_bar)
    return ImagePair(canonicalize(left), canonicalize(right))


def _split_colored_case(parts, b: int) -> int:
    i, _, keep = split_point(parts, b)
    part = parts[i - 1]
    color, over = part[1], part[2]
    prev = parts[i - 2] if i >= 2 else None
    keep_one_plain_c1 = keep == 1 and not over and color == 1
    return _one_case(
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


def split_pair_colored(parts, a: int, b: int, k: int) -> ImagePair:
    """The k-colored split map: weight a+b, no plain 1_1's or 1_2's, into (a, b)."""
    _require_input("fk", parts, a, b, k)
    i, take, keep = split_point(parts, b)
    case = _split_colored_case(parts, b)
    part = parts[i - 1]
    prev = parts[i - 2] if i >= 2 else None
    ones1 = (Part(1, 1, False),) * take
    one2 = Part(1, 2, False)
    if case == 0:
        left, right = parts[: i - 1], parts[i - 1 :]
    elif case == 1:
        left, right = parts[: i - 1] + (Part(keep, part.color, True),), parts[i:] + ones1
    elif case == 2:
        left, right = parts[: i - 1] + (Part(keep, part.color, False),), parts[i:] + ones1
    elif case == 3:
        left, right = parts[: i - 1] + (Part(1, part.color, False),), parts[i:] + ones1
    elif case == 4:
        left = parts[: i - 2] + (one2, one2, Part(1, 1, True))
        right = parts[i:] + ones1
    elif case == 5:
        left = parts[: i - 2] + (Part(prev.size - 1, prev.color, False), one2, one2)
        right = parts[i:] + ones1
    else:
        left = parts[: i - 2] + (Part(prev.size - 1, prev.color, True), one2, one2)
        right = parts[i:] + ones1
    return ImagePair(canonicalize(left, k), canonicalize(right, k))


def _peel_one_colored_case(parts) -> int:
    last = parts[-1]
    size, over = last[0], last[2]
    prev = parts[-2] if len(parts) >= 2 else None
    is_two_c1 = last[:] == (2, 1, False)
    return _one_case(
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


def peel_one_colored(parts, a: int, k: int) -> ImagePair:
    """The k-colored single-unit peel: weight a+1, no plain 1_1's, into (a, 1)."""
    _require_input("gk", parts, a, k=k)
    case = _peel_one_colored_case(parts)
    last = parts[-1]
    prev = parts[-2] if len(parts) >= 2 else None
    one1 = Part(1, 1, False)
    one2 = Part(1, 2, False)
    if case == 0:
        left, right = parts[:-1] + (Part(last.size - 1, last.color, True),), (one1,)
    elif case == 1:
        left, right = parts[:-1] + (Part(last.size - 1, last.color, False),), (one1,)
    elif case == 2:
        left = parts[:-2] + (Part(prev.size - 1, prev.color, True), one2, one2)
        right = (one1,)
    elif case == 3:
        left = parts[:-2] + (Part(prev.size - 1, prev.color, False), one2, one2)
        right = (one1,)
    elif case == 4:
        left, right = parts[:-2] + (one2, one2, Part(1, 1, True)), (one1,)
    else:
        left, right = parts[:-1], (last,)
    return ImagePair(canonicalize(left, k), canonicalize(right, k))


def _require_domain(parts, total: int, k: int, constraint: Constraint, label: str):
    if weight(parts) != total:
        raise ValueError(f"{label}: input weight {weight(parts)} != {total}")
    for size, color, overlined in parts:
        if color > k:
            raise ValueError(f"{label}: color {color} outside 1..{k}")
        if not constraint.allows(size, color, overlined):
            raise ValueError(f"{label}: part {Part(size, color, overlined)} violates the domain constraint")


@dataclass(frozen=True)
class AuditReport:
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


def audit(map_name: str, a: int, b: int | None = None, k: int = 1, caps=None) -> AuditReport:
    """Exhaustively test one map: well-definedness, injectivity, surjectivity, witnesses."""
    entry, b_weight = _require_cell(map_name, a, b, k)
    if b is not None and a < b:
        raise ValueError(f"map {map_name} needs a >= b; got a={a}, b={b}")
    apply_map = globals()[entry.apply]
    map_args = (a, *(() if entry.fixed_b is not None else (b,)), *((k,) if entry.colored else ()))
    domain = enumerate_ops(a + b_weight, k, entry.domain, caps=caps)
    left_cod = enumerate_ops(a, k, entry.left, caps=caps)
    right_cod = enumerate_ops(b_weight, k, entry.right, caps=caps)
    codomain_size = len(left_cod) * len(right_cod)

    images: list[tuple] = [apply_map(lam, *map_args).as_tuple() for lam in domain]
    image_set = set(images)

    left_set, right_set = set(left_cod), set(right_cod)
    well_defined = all(l in left_set and r in right_set for (l, r) in images)

    injective = len(image_set) == len(images)
    collision = None
    if not injective:
        seen: dict[tuple, int] = {}
        for idx, im in enumerate(images):
            if im in seen:
                collision = (domain[seen[im]], domain[idx])
                break
            seen[im] = idx

    surjective = len(image_set) == codomain_size and well_defined
    unhit = None
    if not surjective:
        for l in left_cod:
            for r in right_cod:
                if (l, r) not in image_set:
                    unhit = (l, r)
                    break
            if unhit is not None:
                break

    return AuditReport(
        map_name=map_name,
        a=a,
        b=b,
        k=k,
        domain_size=len(domain),
        image_size=len(image_set),
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
