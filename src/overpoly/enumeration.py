"""Brute-force generation of k-colored overpartitions in canonical order.

A part is a (size, color, overlined) triple.  An overpartition is a tuple of
parts in canonical order: sizes non-increasing, colors non-increasing within
equal size, and the non-overlined copies of a (size, color) pair before the
single optional overlined copy.  At most one part per (size, color) may be
overlined.

A Constraint bans chosen (size, color) pairs for NON-overlined parts only:
"no 1's" still admits one overlined 1.  Generation walks the (size, color)
pairs in canonical descending order, choosing the multiplicity of
non-overlined copies and then the optional overline, so output is canonical
by construction, duplicate-free, and deterministic.  iter_ops is one lazy
generator; it builds each light suffix (weight at most n // 2) once and
shares it across every prefix that ends at the same pair and weight.

This module exists to be dumb and trustworthy: it is the independent oracle
against which the polynomial counts are checked.  Enumeration is capped per
color count (weights beyond the cap raise CapExceededError); a caller may
pass its own cap in place of the default for that count.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterator, Mapping

__all__ = [
    "Part",
    "Constraint",
    "NO_CONSTRAINT",
    "forbid",
    "CapExceededError",
    "DEFAULT_CAPS",
    "weight",
    "canonicalize",
    "is_canonical",
    "iter_ops",
    "enumerate_ops",
    "count_ops",
    "format_parts",
]


class Part(namedtuple("Part", "size color overlined", defaults=(1, False))):
    """One part: size (int), color (int, default 1), overlined (bool, default False)."""

    __slots__ = ()

    def __str__(self) -> str:
        bar = "~" if self.overlined else ""
        return f"{self.size}{bar}_{self.color}"


_POSITIVE = "0*[1-9][0-9]*"
_BAN = f"({_POSITIVE})(?:_({_POSITIVE}))?"  # s or s_c in decimal digits


class Constraint(namedtuple("Constraint", "forbidden", defaults=(frozenset(),))):
    """Forbidden (size, color) pairs, banned for non-overlined parts only.

    forbidden (frozenset[tuple[int, int]], default empty): the banned pairs.
    """

    __slots__ = ()

    def allows(self, size: int, color: int, overlined: bool) -> bool:
        return overlined or (size, color) not in self.forbidden

    @staticmethod
    def parse(text: str) -> "Constraint":
        """Parse "1_1,2_1" into a Constraint; empty string means no constraint.

        Each ban is s or s_c (color 1 if left out) in decimal digits with
        s, c >= 1; any other ban raises ValueError naming it.
        """
        pairs = set()
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            match = re.fullmatch(_BAN, chunk)
            if not match:
                raise ValueError(f"bad ban {chunk!r}: need s or s_c with integers s, c >= 1")
            pairs.add((int(match[1]), int(match[2] or 1)))
        return Constraint(frozenset(pairs))


NO_CONSTRAINT = Constraint()


def forbid(*pairs: tuple[int, int]) -> Constraint:
    return Constraint(frozenset(pairs))


# Worst-case set sizes stay under ~1e7 objects with these weights; callers can
# pass their own cap.  Color counts beyond 3 are only ever enumerated at
# tiny weights (closed-form spot checks), hence the conservative fallback.
DEFAULT_CAPS: Mapping[int, int] = {1: 25, 2: 12, 3: 8}
DEFAULT_CAP_OTHER = 4


class CapExceededError(Exception):
    """Enumeration weight exceeds the cap for its color count."""


def weight(parts) -> int:
    """Sum of part sizes."""
    return sum(p[0] for p in parts)


def _canonical_key(p):
    return (-p[0], -p[1], p[2])


def canonicalize(parts, k: int | None = None) -> tuple[Part, ...]:
    """Arrange parts in the unique canonical order, validating them.

    Raises ValueError on a non-positive size, a color outside 1..k (when k is
    given), or two overlined parts sharing a (size, color) pair.  Parts
    already in canonical order are validated in one pass and not sorted.
    """
    in_order, all_parts = True, True
    last_size, last_color, last_over = math.inf, 0, False
    for p in parts:
        size, color, overlined = p
        if size < 1:
            raise ValueError(f"part size must be >= 1, got {size}")
        if color < 1 or (k is not None and color > k):
            bounds = "below 1" if k is None else f"outside 1..{k}"
            raise ValueError(f"part color {color} {bounds}")
        # In canonical order a (size, color) pair follows only larger pairs or
        # its own non-overlined copies, so a repeated overline meets its twin.
        if size > last_size or size == last_size and (color > last_color or color == last_color and last_over):
            if overlined and size == last_size and color == last_color:
                raise ValueError(f"duplicate overline for (size={size}, color={color})")
            in_order = False
        all_parts = all_parts and type(p) is Part
        last_size, last_color, last_over = size, color, overlined
    if not in_order:
        return canonicalize(sorted(parts, key=_canonical_key), k)
    return tuple(parts) if all_parts else tuple(p if type(p) is Part else Part(*p) for p in parts)


def is_canonical(parts) -> bool:
    return list(parts) == sorted(parts, key=_canonical_key)


def iter_ops(
    n: int,
    k: int = 1,
    constraint: Constraint = NO_CONSTRAINT,
    cap: int | None = None,
) -> Iterator[tuple[Part, ...]]:
    """Every k-colored overpartition of weight n satisfying the constraint.

    Canonical form, no duplicates, deterministic order.  The order is that of
    a descent over all (size, color) pairs in canonical order, choosing for
    each the multiplicity of non-overlined copies first and then the optional
    overline.  Only pairs that receive at least one copy are recursed into,
    and the next used pair is tried last to first: a later one leaves more
    leading pairs empty, so that descent lists it sooner.  Pairs larger than
    the remaining weight are never tried.  A cap of None is the default cap
    for k, and a negative cap is a ValueError.  The cap and domain are
    validated eagerly; the returned iterator is lazy.

    The suffixes of each weight w <= n // 2 are built once per first pair
    that fits w and kept for the life of the iterator; heavier levels
    recurse.  There are at most k w + 1 such pairs and each list holds
    distinct overpartitions of w, so the memo holds at most the sum over
    w <= n // 2 of (k w + 1) pbar_k(w) tuples.  With nothing banned it holds
    4,946 next to the 31,066 yielded at n = 25, and 46,316 next to 398,640
    at n = 35.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"need cap >= 0, got {cap}")
    if n < 0:
        raise ValueError(f"weight must be >= 0, got {n}")
    if k < 1:
        raise ValueError(f"color count must be >= 1, got {k}")
    if cap is None:
        cap = DEFAULT_CAPS.get(k, DEFAULT_CAP_OTHER)
    if n > cap:
        raise CapExceededError(
            f"enumeration of weight {n} with {k} colors exceeds the cap {cap}"
        )
    pairs = [(s, c) for s in range(n, 0, -1) for c in range(k, 0, -1)]
    plain_parts = [Part(s, c, False) for s, c in pairs]
    bar_parts = [Part(s, c, True) for s, c in pairs]
    plain_allowed = [constraint.allows(s, c, False) for s, c in pairs]
    light = n // 2
    memo: dict[tuple[int, int], list[tuple[Part, ...]]] = {}

    def choices(first: int, remaining: int):
        """(j, head, left) for each way to fill the next used pair j: its copies, then the weight left.

        Pairs too large for the remaining weight yield nothing; callers start at the first that fits.
        """
        for j in range(len(pairs) - 1, first - 1, -1):
            size = pairs[j][0]
            bar = bar_parts[j]
            head = ()
            for plain in range(remaining // size + 1 if plain_allowed[j] else 1):
                left = remaining - plain * size
                if plain:
                    head += (plain_parts[j],)
                    yield j, head, left
                if left >= size:
                    yield j, head + (bar,), left - size

    def suffixes(first: int, remaining: int) -> list[tuple[Part, ...]]:
        """Every suffix of weight `remaining` <= n // 2 from pair `first` on, built once."""
        # (n - remaining) * k is the first pair whose size fits the remaining weight.
        key = (max(first, (n - remaining) * k), remaining)
        if key not in memo:
            out = memo[key] = []
            for j, head, left in choices(*key):
                if left:
                    out += map(head.__add__, suffixes(j + 1, left))
                else:
                    out.append(head)
        return memo[key]

    def descend(first: int, remaining: int, prefix: tuple[Part, ...]):
        for j, head, left in choices(max(first, (n - remaining) * k), remaining):
            head = prefix + head
            if not left:
                yield head
            elif left <= light:
                yield from map(head.__add__, suffixes(j + 1, left))
            else:
                yield from descend(j + 1, left, head)

    if n == 0:
        return iter([()])
    return descend(0, n, ())


def enumerate_ops(
    n: int,
    k: int = 1,
    constraint: Constraint = NO_CONSTRAINT,
    cap: int | None = None,
) -> list[tuple[Part, ...]]:
    """All k-colored overpartitions of n satisfying the constraint, as a list."""
    return list(iter_ops(n, k, constraint, cap))


def count_ops(
    n: int,
    k: int = 1,
    constraint: Constraint = NO_CONSTRAINT,
    cap: int | None = None,
) -> int:
    """Number of k-colored overpartitions of n satisfying the constraint."""
    return sum(1 for _ in iter_ops(n, k, constraint, cap))


def format_parts(parts) -> str:
    """Human-readable rendering, e.g. (4_3, 4_2, 4~_2)."""
    return "(" + ", ".join(str(Part(*p)) for p in parts) + ")"
