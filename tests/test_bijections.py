"""The five injections and their exhaustive audits."""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from oracles import canonical_image, load

from overpoly import bijections
from overpoly.bijections import (
    MAP_NAMES,
    MAPS,
    AuditReport,
    ImagePair,
    audit,
    dispatch_case,
    expected_verdict,
    peel_one,
    peel_one_colored,
    peel_two,
    split_pair,
    split_pair_colored,
    split_point,
)
from overpoly.enumeration import Part, count_ops, enumerate_ops, forbid, weight
from overpoly.serial import encode

B = True  # overlined


def parts(*triples):
    return tuple(Part(*t) for t in triples)


def test_one_case_raises_unless_exactly_one_guard_is_truthy():
    assert bijections._one_case([False, 0, "x", None], "ctx") == 2  # guards count by truthiness
    with pytest.raises(RuntimeError, match=r"^case dispatch not exclusive/exhaustive for ctx: \[\]$"):
        bijections._one_case([False, None, 0], "ctx")
    with pytest.raises(RuntimeError, match=r"^case dispatch not exclusive/exhaustive for ctx: \[1, 3\]$"):
        bijections._one_case([False, True, 0, 5], "ctx")
    # One True among Falses takes a fast path; equal-to-True and truthy must still agree.
    with pytest.raises(RuntimeError, match=r"^case dispatch not exclusive/exhaustive for ctx: \[0, 1\]$"):
        bijections._one_case([True, 2], "ctx")
    assert bijections._one_case([0, 1], "ctx") == 1
    assert bijections._one_case([None, True], "ctx") == 1


def test_split_point_examples():
    assert split_point(parts((4, 1, False)), 2) == (1, 2, 2)
    assert split_point(parts((3, 1, False), (1, 1, B)), 2) == (1, 1, 2)
    assert split_point(parts((2, 1, B), (1, 2, B)), 1) == (2, 1, 0)


def test_split_point_errors():
    with pytest.raises(ValueError, match="^cannot split an empty overpartition$"):
        split_point((), 1)
    with pytest.raises(ValueError, match="^weight 2 below split weight 3$"):
        split_point(parts((2, 1, False)), 3)
    with pytest.raises(ValueError, match="^weight 3 below split weight 5$"):
        split_point(parts((2, 1, B), (1, 1, False)), 5)


def test_split_pair_examples():
    assert split_pair(parts((4, 1, False)), 2, 2) == ImagePair(
        parts((2, 1, False)), parts((1, 1, False), (1, 1, False))
    )
    assert split_pair(parts((4, 1, B)), 2, 2) == ImagePair(
        parts((2, 1, B)), parts((1, 1, False), (1, 1, False))
    )
    assert split_pair(parts((3, 1, B), (1, 1, B)), 2, 2) == ImagePair(
        parts((2, 1, B)), parts((1, 1, False), (1, 1, B))
    )


def test_peel_one_examples():
    assert peel_one(parts((4, 1, False)), 3) == ImagePair(
        parts((3, 1, False)), parts((1, 1, False))
    )
    assert peel_one(parts((2, 1, False), (2, 1, False)), 3) == ImagePair(
        parts((2, 1, False), (1, 1, B)), parts((1, 1, B))
    )
    assert peel_one(parts((3, 1, False), (1, 1, B)), 3) == ImagePair(
        parts((3, 1, False)), parts((1, 1, B))
    )


def test_peel_two_examples():
    assert peel_two(parts((4, 1, False)), 2) == ImagePair(
        parts((2, 1, False)), parts((2, 1, False))
    )
    assert peel_two(parts((2, 1, False), (2, 1, B)), 2) == ImagePair(
        parts((2, 1, False)), parts((2, 1, B))
    )
    assert peel_two(parts((3, 1, B), (1, 1, B)), 2) == ImagePair(
        parts((2, 1, B)), parts((1, 1, False), (1, 1, B))
    )


def test_split_pair_colored_examples():
    assert split_pair_colored(parts((3, 2, False)), 2, 1, 2) == ImagePair(
        parts((2, 2, False)), parts((1, 1, False))
    )
    assert split_pair_colored(parts((2, 1, B), (1, 2, B)), 2, 1, 2) == ImagePair(
        parts((2, 1, B)), parts((1, 2, B))
    )
    assert split_pair_colored(parts((3, 1, B)), 2, 1, 2) == ImagePair(
        parts((2, 1, B)), parts((1, 1, False))
    )


def test_peel_one_colored_examples():
    assert peel_one_colored(parts((3, 1, False)), 2, 2) == ImagePair(
        parts((2, 1, False)), parts((1, 1, False))
    )
    assert peel_one_colored(parts((2, 1, False), (1, 1, B)), 2, 2) == ImagePair(
        parts((2, 1, False)), parts((1, 1, B))
    )
    assert peel_one_colored(parts((2, 2, B), (1, 2, False)), 2, 2) == ImagePair(
        parts((2, 2, B)), parts((1, 2, False))
    )


def test_domain_preconditions():
    with pytest.raises(ValueError):
        split_pair(parts((3, 1, False)), 2, 1)  # b < 2
    with pytest.raises(ValueError):
        split_pair(parts((3, 1, False), (1, 1, False)), 2, 2)  # plain 1 in domain
    with pytest.raises(ValueError):
        peel_one(parts((3, 1, False)), 3)  # wrong weight
    with pytest.raises(ValueError):
        peel_one_colored(parts((3, 1, False)), 2, 1)  # k < 2
    with pytest.raises(ValueError):
        split_pair_colored(parts((2, 2, False), (1, 2, B)), 1, 2, 2)  # a < 2
    with pytest.raises(ValueError):
        dispatch_case("g1", parts((3, 1, False)), a=-5, k=99)  # both used to give case 1
    with pytest.raises(ValueError):
        dispatch_case("g1", parts((3, 1, False)), 2, 7)  # a peel takes no b


@pytest.mark.parametrize(
    "given, match",
    [
        ((Part(2), Part(3)), "part 3_1 is out of canonical order"),  # used to map to ((2,2),(1))
        ((Part(2, 1, True), Part(2, 1, True)), "part 2~_1 repeats an overlined"),  # used to map
        ((Part(4), Part(0)), "part 0_1 has size below 1"),  # used to raise RuntimeError
    ],
    ids=["unordered", "two overlines", "size 0"],
)
def test_maps_reject_inputs_that_are_not_overpartitions(given, match):
    a = weight(given) - 1
    with pytest.raises(ValueError, match=match):
        peel_one(given, a)
    with pytest.raises(ValueError, match=match):
        dispatch_case("g1", given, a)


def test_domain_check_names_colors_below_1():
    with pytest.raises(ValueError, match="^map gk: color 0 outside 1..2$"):
        peel_one_colored(parts((3, 0, False)), 2, 2)


def _key_order_fault(given, total, k, forbidden, label):
    """The domain check's error text, or None, from (-size, -color, overlined) key order."""
    seen, prev = 0, None
    for part in given:
        size, color, overlined = part
        key = (-size, -color, overlined)
        if size < 1:
            fault = "has size below 1"
        elif not 1 <= color <= k:
            return f"{label}: color {color} outside 1..{k}"
        elif not overlined and (size, color) in forbidden:
            fault = "violates the domain constraint"
        elif prev is not None and key < prev:
            fault = "is out of canonical order"
        elif overlined and key == prev:
            fault = "repeats an overlined (size, color)"
        else:
            seen, prev = seen + size, key
            continue
        return f"{label}: part {Part(*part)} {fault}"
    return None if seen == total else f"{label}: input weight {seen} != {total}"


def test_domain_check_agrees_with_the_key_order():
    # Every sequence of up to three parts with size 0..2, color 0..3 and either overline.
    pool = list(product(range(3), range(4), (False, True)))
    ban = forbid((1, 1))
    for length in range(4):
        for given in product(pool, repeat=length):
            for total in (weight(given), weight(given) + 1):
                try:
                    bijections._require_domain(given, total, 2, ban, "x")
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == _key_order_fault(given, total, 2, ban.forbidden, "map x"), given


def _domain(map_name, a, b, k):
    if map_name == "f":
        return enumerate_ops(a + b, 1, forbid((1, 1), (2, 1)))
    if map_name == "g1":
        return enumerate_ops(a + 1, 1, forbid((1, 1)))
    if map_name == "g2":
        return enumerate_ops(a + 2, 1, forbid((1, 1)))
    if map_name == "fk":
        return enumerate_ops(a + b, k, forbid((1, 1), (1, 2)))
    return enumerate_ops(a + 1, k, forbid((1, 1)))


CASE_COUNTS = {"f": 5, "g1": 4, "g2": 8, "fk": 7, "gk": 6}
CELLS = [("f", 5, 4, 1), ("g1", 6, None, 1), ("g2", 6, None, 1), ("fk", 5, 3, 2), ("gk", 5, None, 2)]


@pytest.mark.parametrize("map_name, a, b, k", CELLS)
def test_exactly_one_case_fires_and_all_cases_occur(map_name, a, b, k):
    seen = set()
    for lam in _domain(map_name, a, b, k):
        case = dispatch_case(map_name, lam, a, b, k)  # raises unless exactly one guard fires
        assert 0 <= case < CASE_COUNTS[map_name]
        seen.add(case)
    assert seen == set(range(CASE_COUNTS[map_name]))


# sha256 of repr([(dispatch_case(...), map(...)) for each domain element in enumerate_ops order]).
# The golden audits pin only counts; these pin every case number and image.
IMAGE_HASHES = {
    ("f", 9, 6, 1): "7b10804159df21dd0757e141e593a4cf646bffdcba805300621b58802ee6b959",
    ("f", 12, 3, 1): "5f79bbd36cea90b0be632248f8978f382f30f3150d57d528991a930d05cde13d",
    ("g1", 12, None, 1): "7a27fddfa457223fb1cdc1941594381a15abb7e7e02c7cbc98a1395fc1adf62f",
    ("g1", 3, None, 1): "61c43f80228c4a238622210bc8ea58b98c49a4d6a3f7e845b216d33af8d33430",
    ("g2", 14, None, 1): "581ebbe39859b4a2b772b93a006ab6b0612f7ed8e84c35a2d182fa435f702b34",
    ("g2", 5, None, 1): "9129d72401fca83e3ed373e6da60f9ed45250ebb0f6b25d0f06b87f2f8c1a166",
    ("fk", 6, 4, 2): "e31b615f0b1ed6ebcb3e681970efb504bd258b4700978c819a676e1cfee24a5b",
    ("fk", 4, 4, 3): "85fea6d5c00fb43542a4b4156fa34b7f1e1e8ebeb70d363d9a3ac30e79094cfd",
    ("gk", 6, None, 3): "de433ce66d8a0a2cb52a039abfb5a483814f3f924f261e913c7122230cdc1972",
    ("gk", 9, None, 2): "527f43354ae5c82e9308bee05ef88e6261ef2155742decddc9b6a6f16f96d108",
}


@pytest.mark.parametrize("cell", IMAGE_HASHES)
def test_case_and_image_of_every_domain_element_are_pinned(cell):
    map_name, a, b, k = cell
    entry = MAPS[map_name]
    apply_map = getattr(bijections, entry.apply)
    map_args = (a, *(() if b is None else (b,)), *((k,) if entry.colored else ()))
    pairs = [(dispatch_case(map_name, lam, a, b, k), apply_map(lam, *map_args)) for lam in _domain(*cell)]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == IMAGE_HASHES[cell]


@pytest.mark.parametrize("map_name, a, b, k", [*CELLS, *IMAGE_HASHES])
def test_every_image_is_its_case_sides_canonicalized(map_name, a, b, k):
    # The maps check only the parts a case built; the oracle sends both whole sides through canonicalize.
    entry = MAPS[map_name]
    apply_map, case_function = getattr(bijections, entry.apply), getattr(bijections, entry.case)
    map_args = (a, *(() if b is None else (b,)), *((k,) if entry.colored else ()))
    weight_b, side_k = entry.fixed_b or b, k if entry.colored else None
    for lam in _domain(map_name, a, b, k):
        expected = canonical_image(case_function, lam, weight_b, side_k)
        assert repr(apply_map(lam, *map_args)) == repr(expected), lam


# sha256 of repr(audit(*cell)), recorded when the maps sent both sides of every image through canonicalize.
FAST_PATH_REPORTS = {
    ("g1", 12, None, 1): "bcf031a4550e29e499aa7e328202f9dc9c553449231034cb1b60b10d28b3e453",
    ("g2", 14, None, 1): "c724061083555640b4eefd345a79f455d238ea2a3f7af9ab2d3d9ddb1a16420a",
    ("fk", 6, 4, 2): "e2aa4ebdf552948f6d6dc523d6c7b274b1c8101bde84dbc9603606814d349a1c",
    ("gk", 6, None, 3): "d4dae7bf7eadd1e01cf7e86e3e2f84bc2154ce0ead46589ca2cdae1569d0919b",
    ("f", 8, 5, 1): "bcb9aecdc2e105084ff0395729d290a1419ad03e4706364d5ecddad87c80b6fe",  # 6 inputs halve an odd size into two equal parts
}


@pytest.mark.parametrize("cell", FAST_PATH_REPORTS, ids=lambda cell: " ".join(map(str, cell)))
def test_audit_builds_every_image_without_canonicalize(monkeypatch, cell):
    # Every case emits its built parts in canonical order, so no side of a valid input is sorted or re-checked.
    original, calls = bijections.canonicalize, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bijections, "canonicalize", counted)
    report = audit(*cell)
    assert calls == []
    assert hashlib.sha256(repr(report).encode()).hexdigest() == FAST_PATH_REPORTS[cell]


# Each rebuilds the left side's built parts from (slice, built).
BAD_BUILDS = {
    "size 0": lambda kept, built: built + (Part(0),),
    "color above k": lambda kept, built: (Part(1, 3),),  # in order after every slice here
    "overline repeated at the seam": lambda kept, built: (kept[-1],) + built,
    "out of order": lambda kept, built: built + (Part(kept[0][0] + 1),),
    "not a Part": lambda kept, built: built + ((1, 1, True),),
}


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("bad", BAD_BUILDS)
@pytest.mark.parametrize(
    "case_name, apply_map, given, map_args, b, k",
    [
        ("_peel_one", peel_one, parts((5, 1, B), (3, 1, False)), (7,), 1, None),
        ("_split_colored", split_pair_colored, parts((6, 1, B), (5, 2, B), (3, 1, False)), (12, 2, 2), 2, 2),
    ],
    ids=["g1", "fk"],
)
def test_a_bad_built_part_is_left_to_canonicalize(monkeypatch, case_name, apply_map, given, map_args, b, k, bad):
    original = getattr(bijections, case_name)

    def built_badly(lam, b):
        case, left, left_built, right, right_built = original(lam, b)
        return case, left, BAD_BUILDS[bad](left, left_built), right, right_built

    monkeypatch.setattr(bijections, case_name, built_badly)
    expected = _outcome(lambda: canonical_image(built_badly, given, b, k))
    assert repr(_outcome(lambda: apply_map(given, *map_args))) == repr(expected)  # a plain tuple would show
    if bad in ("size 0", "overline repeated at the seam") or bad == "color above k" and k is not None:
        assert expected.startswith("ValueError: part ") or expected.startswith("ValueError: duplicate overline")
    else:  # sorted or converted to Part; the uncolored maps bound no color
        _, left, left_built, _, _ = built_badly(given, b)
        assert expected.left == tuple(sorted(left + left_built, key=lambda p: (-p[0], -p[1], p[2])))


@pytest.mark.parametrize("map_name, a, b, k", CELLS)
def test_maps_take_parts_as_plain_tuples(map_name, a, b, k):
    # The domain check reads plain (size, color, overlined) tuples; the maps used to read .size and .color.
    # Such inputs, or a list of Parts, take canonicalize's route and still give an image of Parts.
    apply_map = getattr(bijections, MAPS[map_name].apply)
    map_args = (a, *(() if b is None else (b,)), *((k,) if MAPS[map_name].colored else ()))
    for lam in _domain(map_name, a, b, k):
        expected = repr(apply_map(lam, *map_args))
        assert repr(apply_map(tuple(map(tuple, lam)), *map_args)) == expected
        assert repr(apply_map(list(lam), *map_args)) == expected


def test_weight_conservation():
    for a, b in [(3, 2), (4, 4)]:
        for lam in _domain("f", a, b, 1):
            pair = split_pair(lam, a, b)
            assert weight(pair.left) == a and weight(pair.right) == b
    for lam in _domain("gk", 5, None, 2):
        pair = peel_one_colored(lam, 5, 2)
        assert weight(pair.left) == 5 and weight(pair.right) == 1


def test_audit_split_pair_small():
    report = audit("f", 2, 2)
    assert report.well_defined and report.injective and not report.surjective
    assert report.domain_size == 4
    assert report.codomain_size == 6
    # the pair of bare overlined 2's is never hit
    assert report.unhit_witness == (parts((2, 1, B)), parts((2, 1, B)))


def test_audit_split_pair_range():
    for a in range(2, 8):
        for b in range(2, a + 1):
            report = audit("f", a, b)
            assert report.well_defined and report.injective and not report.surjective, (a, b)


def test_audit_peel_one_range():
    for a in range(1, 11):
        report = audit("g1", a)
        assert report.well_defined and report.injective, a
        if a >= 3:
            assert not report.surjective, a
        else:
            # only >= is claimed at a = 1, 2 and the audit finds equality
            assert report.surjective, a
        assert expected_verdict(report)


def test_peel_one_unhit_shape_at_three():
    report = audit("g1", 3)
    unhit = (parts((2, 1, B), (1, 1, B)), parts((1, 1, B)))
    assert not report.surjective
    assert report.unhit_witness == unhit
    images = {
        peel_one(lam, 3) for lam in enumerate_ops(4, 1, forbid((1, 1)))
    }
    assert unhit not in images


def test_audit_peel_two_range():
    for a in range(2, 11):
        report = audit("g2", a)
        assert report.well_defined and report.injective and not report.surjective, a


def test_audit_colored_maps_small():
    for k in (2, 3):
        for a in range(2, 5):
            for b in range(1, a + 1):
                report = audit("fk", a, b, k)
                assert report.well_defined and report.injective and not report.surjective
        for a in range(2, 5):
            report = audit("gk", a, k=k)
            assert report.well_defined and report.injective and not report.surjective


def test_colored_peel_count_corollary():
    # pbar_k(2 | no 1_1) * pbar_k(2) - pbar_k(4 | no 1_1) = (10k^4 + 4k^3 - 10k^2 + 2k)/3
    for k in (2, 3):
        gap = count_ops(2, k, forbid((1, 1))) * count_ops(2, k) - count_ops(
            4, k, forbid((1, 1))
        )
        assert gap == Fraction(10 * k**4 + 4 * k**3 - 10 * k**2 + 2 * k, 3)
        assert gap > 0


def test_audit_rejects_bad_parameters():
    with pytest.raises(ValueError):
        audit("f", 2, 2, k=2)
    with pytest.raises(ValueError):
        audit("f", 2, None)
    with pytest.raises(ValueError):
        audit("gk", 2, k=1)
    with pytest.raises(ValueError):
        audit("nope", 2)


@pytest.mark.parametrize("map_name, a, b, k", CELLS)
def test_maps_entry_agrees_with_the_hand_written_domain(map_name, a, b, k):
    entry = MAPS[map_name]
    assert callable(getattr(bijections, entry.apply)) and callable(getattr(bijections, entry.case))
    assert (b is None) == (entry.fixed_b is not None)
    weight_b = entry.fixed_b or b
    assert enumerate_ops(a + weight_b, k, entry.domain) == _domain(map_name, a, b, k)
    report = audit(map_name, a, b, k)
    assert report.codomain_size == len(enumerate_ops(a, k, entry.left)) * len(enumerate_ops(weight_b, k, entry.right))
    assert MAP_NAMES == tuple(MAPS)


@pytest.mark.parametrize("map_name, a, b, k", CELLS)
def test_audit_applies_the_map_bound_on_the_module(monkeypatch, map_name, a, b, k):
    # A benchmark tracer counts map applications by rebinding the public maps.
    original, calls = getattr(bijections, MAPS[map_name].apply), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bijections, MAPS[map_name].apply, counted)
    report = audit(map_name, a, b, k)
    assert len(calls) == report.domain_size > 0


def _brute_force_witnesses(apply_map, map_name, a, b, k):
    """The audit's two witnesses from whole lists, in enumerate_ops order."""
    entry = MAPS[map_name]
    weight_b = entry.fixed_b or b
    map_args = (a, *(() if b is None else (b,)), *((k,) if entry.colored else ()))
    domain = enumerate_ops(a + weight_b, k, entry.domain)
    images = [apply_map(lam, *map_args) for lam in domain]
    repeats = [(images.index(image), j) for j, image in enumerate(images) if images.index(image) != j]
    collision = (domain[repeats[0][0]], domain[repeats[0][1]]) if repeats else None
    codomain = [(l, r) for l in enumerate_ops(a, k, entry.left) for r in enumerate_ops(weight_b, k, entry.right)]
    unhit = next((pair for pair in codomain if pair not in images), None)
    return collision, unhit, len(set(images))


@pytest.mark.parametrize("map_name, a, b, k", CELLS)
def test_audit_witnesses_of_a_collapsed_case_match_a_brute_force_pass(monkeypatch, map_name, a, b, k):
    original, collapsed_to = getattr(bijections, MAPS[map_name].apply), []

    def collapsed(lam, *args):
        # Every input of case 1 goes to the image of the first one the map saw.
        image = original(lam, *args)
        if dispatch_case(map_name, lam, a, b, k) != 1:
            return image
        if not collapsed_to:
            collapsed_to.append(image)
        return collapsed_to[0]

    monkeypatch.setattr(bijections, MAPS[map_name].apply, collapsed)
    report = audit(map_name, a, b, k)
    collision, unhit, image_size = _brute_force_witnesses(collapsed, map_name, a, b, k)
    assert collision is not None and not report.injective and not report.surjective
    assert report.collision_witness == collision
    assert report.unhit_witness == unhit
    assert report.image_size == image_size < report.domain_size


@pytest.mark.parametrize("map_name, a, b, k", CELLS)
def test_audit_witnesses_of_images_outside_the_codomain_match_a_brute_force_pass(monkeypatch, map_name, a, b, k):
    original = getattr(bijections, MAPS[map_name].apply)
    outside = (parts((1, 1, False)), ())  # every map's left side bans a plain 1

    def leaking(lam, *args):
        # Every input of case 1 goes to one pair outside the codomain.
        return outside if dispatch_case(map_name, lam, a, b, k) == 1 else original(lam, *args)

    monkeypatch.setattr(bijections, MAPS[map_name].apply, leaking)
    report = audit(map_name, a, b, k)
    collision, unhit, image_size = _brute_force_witnesses(leaking, map_name, a, b, k)
    assert not report.well_defined and not report.injective and not report.surjective
    assert report.collision_witness == collision is not None
    assert report.unhit_witness == unhit
    assert report.image_size == image_size


def test_audit_is_not_surjective_when_every_pair_is_hit_but_an_image_misses(monkeypatch):
    # g1 at a = 2 maps 4 onto 4.  With one element gone from the left codomain,
    # both remaining pairs are hit and the two images on that element miss.
    full = bijections.enumerate_ops

    def short_left(n, *args, **kwargs):
        found = full(n, *args, **kwargs)
        return found[:-1] if n == 2 else found

    monkeypatch.setattr(bijections, "enumerate_ops", short_left)
    report = audit("g1", 2)
    assert (report.domain_size, report.codomain_size, report.image_size, report.unhit_witness) == (4, 2, 4, None)
    assert not report.well_defined and report.injective and not report.surjective


@pytest.mark.parametrize(
    "cell, cap, mib", [(("g1", 24), None, 2), (("f", 12, 12), 24, 0.25)], ids=["g1 24", "f 12 12 cap 24"]
)
def test_audit_memory_peak_stays_below_a_byte_per_codomain_pair(cell, cap, mib):
    # One byte per codomain pair, not one image per domain element: a dict of
    # images peaked at 3.4 and 0.57 MiB here.  The f cell has 43,520 codomain
    # pairs for 2,416 inputs, so a word per pair would not fit either.
    tracemalloc.start()
    try:
        audit(*cell, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


@pytest.mark.parametrize("map_name, k", [("g1", 1), ("g2", 1), ("gk", 2)])
def test_audit_rejects_a_b_for_a_peel(map_name, k):
    # Each peel shears off a fixed b; a given b used to be echoed in the report.
    with pytest.raises(ValueError, match="takes no b; got b=7"):
        audit(map_name, 3, 7, k)


@pytest.mark.parametrize(
    "cell",
    [("f", 30, 1), ("f", 2, 3), ("f", 3, None), ("f", 2, 2, 2), ("fk", 2, 3, 2), ("fk", 1, 1, 2),
     ("fk", 30, 2, 1), ("g1", 0), ("g2", 1), ("gk", 1, None, 2), ("gk", 30, None, 1)],
)
def test_audit_rejects_a_bad_cell_before_enumerating(monkeypatch, cell):
    with pytest.raises(ValueError):  # (f, 30, 1): not the cap error of weight 31
        audit(*cell)
    monkeypatch.setattr(bijections, "enumerate_ops", lambda *args, **kwargs: pytest.fail("enumerated"))
    monkeypatch.setattr(bijections, "iter_ops", lambda *args, **kwargs: pytest.fail("enumerated"))
    with pytest.raises(ValueError):
        audit(*cell)


def test_colored_split_map_takes_b_above_a():
    # Only the audit asks a >= b of a split; the map itself is defined for b > a.
    pair = split_pair_colored(parts((3, 2, False), (2, 2, False)), 2, 3, 2)
    assert weight(pair.left) == 2 and weight(pair.right) == 3


def test_audit_report_json_round_trip():
    report = audit("f", 3, 2)
    rebuilt = load(AuditReport, json.loads(json.dumps(encode(report))))
    assert rebuilt == report


def test_audit_report_encodes_parts_as_lists_in_field_order():
    # Recorded before the report records became NamedTuples.
    witness = (parts((2, 1, B), (1, 1, B)), parts((1, 1, B)))
    report = AuditReport("g1", 3, None, 1, 4, 3, 4, True, True, False, witness, (witness[0], ()))
    assert json.dumps(encode(report)) == (
        '{"map_name": "g1", "a": 3, "b": null, "k": 1, "domain_size": 4, "image_size": 3, '
        '"codomain_size": 4, "well_defined": true, "injective": true, "surjective": false, '
        '"collision_witness": [[[2, 1, true], [1, 1, true]], [[1, 1, true]]], '
        '"unhit_witness": [[[2, 1, true], [1, 1, true]], []]}'
    )
