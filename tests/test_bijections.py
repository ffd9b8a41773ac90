"""The five injections and their exhaustive audits."""

import json
from fractions import Fraction

import pytest

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
from overpoly.serial import encode, load

B = True  # overlined


def parts(*triples):
    return tuple(Part(*t) for t in triples)


def test_split_point_examples():
    assert split_point(parts((4, 1, False)), 2) == (1, 2, 2)
    assert split_point(parts((3, 1, False), (1, 1, B)), 2) == (1, 1, 2)
    assert split_point(parts((2, 1, B), (1, 2, B)), 1) == (2, 1, 0)


def test_split_point_errors():
    with pytest.raises(ValueError):
        split_point((), 1)
    with pytest.raises(ValueError):
        split_point(parts((2, 1, False)), 3)


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
        peel_one(lam, 3).as_tuple() for lam in enumerate_ops(4, 1, forbid((1, 1)))
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
