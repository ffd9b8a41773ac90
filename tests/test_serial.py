"""serial.dumps against json.dumps, and the contract of the record classes."""

import json
import pickle
import sys
from copy import copy as shallow_copy
from fractions import Fraction
from pathlib import Path

import pytest

from overpoly.bijections import MAPS, AuditReport, ImagePair, MapEntry, SplitPoint
from overpoly.enumeration import Constraint, Part, forbid
from overpoly.rootisolation import RootBracket
from overpoly.serial import dumps
from overpoly.verification import BoundTriple, RootRecord, VerifyReport

DATA = Path(__file__).resolve().parent / "data"
# The text format of verify prints these report fields as JSON after "name=".
_TEXT_JSON_FIELDS = ("exceptions=", "counterexample=", "inconclusive=", "stats=")


def _golden_payloads():
    for entry in json.loads((DATA / "cli_golden.json").read_text()):
        for line in entry["stdout"].splitlines():
            if "--format" in entry["argv"] and entry["argv"][entry["argv"].index("--format") + 1] == "json":
                yield json.loads(line)
            elif line.startswith(_TEXT_JSON_FIELDS):
                yield json.loads(line.partition("=")[2])


GOLDEN_PAYLOADS = list(_golden_payloads())

EDGE_VALUES = [
    "",
    "plain ascii",
    'a "quoted" word',
    "back\\slash",
    "\b\f\n\r\t",
    "".join(map(chr, range(0x20))),
    "del \x7f",
    "caf\u00e9 \u2264 \uffff",
    "astral \U0001d11e \U0010ffff",
    "lone \ud800 surrogate",
    float("inf"),
    float("-inf"),
    float("nan"),
    -0.0,
    5e-324,
    1e16,
    1.5,
    0.1,
    10**300,
    -(10**300),
    0,
    True,
    False,
    None,
    [],
    {},
    [[], {}, [[1, 2.5], {"x": None}]],
    {"b": [1, {"z": True, "a": False}], "a": {"d": {}, "c": []}, "é": "\n"},
    (1, ("two", 3.0)),
]


@pytest.mark.parametrize("sort_keys", [False, True])
def test_dumps_matches_json_on_every_golden_payload(sort_keys):
    assert len(GOLDEN_PAYLOADS) > 52
    for payload in GOLDEN_PAYLOADS:
        assert dumps(payload, sort_keys=sort_keys) == json.dumps(payload, sort_keys=sort_keys)


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_dumps_matches_json_on_edge_values(value, sort_keys):
    assert dumps(value, sort_keys=sort_keys) == json.dumps(value, sort_keys=sort_keys)


@pytest.mark.parametrize("value", [Fraction(1, 2), {"set": {1}}, [b"bytes"]])
def test_dumps_rejects_values_encode_never_returns(value):
    with pytest.raises(TypeError):
        dumps(value)


# class, fields, defaults, a sample and its repr, recorded while the records were typing.NamedTuple classes
RECORDS = [
    (Part, ("size", "color", "overlined"), {"color": 1, "overlined": False},
     Part(3, 2, True), "Part(size=3, color=2, overlined=True)"),
    (Constraint, ("forbidden",), {"forbidden": frozenset()},
     forbid((1, 1)), "Constraint(forbidden=frozenset({(1, 1)}))"),
    (MapEntry, ("apply", "case", "colored", "fixed_b", "least_a", "least_b", "domain", "left", "right"), {},
     MAPS["g1"],
     "MapEntry(apply='peel_one', case='_peel_one', colored=False, fixed_b=1, least_a=1, least_b=1, "
     "domain=Constraint(forbidden=frozenset({(1, 1)})), left=Constraint(forbidden=frozenset({(1, 1)})), "
     "right=Constraint(forbidden=frozenset()))"),
    (SplitPoint, ("index", "take", "keep"), {},
     SplitPoint(2, 1, 3), "SplitPoint(index=2, take=1, keep=3)"),
    (ImagePair, ("left", "right"), {},
     ImagePair((Part(2),), (Part(1, 1, True),)),
     "ImagePair(left=(Part(size=2, color=1, overlined=False),), right=(Part(size=1, color=1, overlined=True),))"),
    (AuditReport, ("map_name", "a", "b", "k", "domain_size", "image_size", "codomain_size", "well_defined",
                   "injective", "surjective", "collision_witness", "unhit_witness"), {},
     AuditReport("g1", 5, None, 1, 12, 12, 12, True, True, False, None, ((Part(2),), ())),
     "AuditReport(map_name='g1', a=5, b=None, k=1, domain_size=12, image_size=12, codomain_size=12, "
     "well_defined=True, injective=True, surjective=False, collision_witness=None, "
     "unhit_witness=((Part(size=2, color=1, overlined=False),), ()))"),
    (RootBracket, ("lo", "hi"), {},
     RootBracket(Fraction(3, 2), Fraction(7, 4)), "RootBracket(lo=Fraction(3, 2), hi=Fraction(7, 4))"),
    (VerifyReport, ("claim", "range_checked", "holds", "exceptions", "counterexample", "inconclusive", "stats"),
     {"exceptions": (), "counterexample": None, "inconclusive": (), "stats": {}},
     VerifyReport("th1", "n <= 5", True),
     "VerifyReport(claim='th1', range_checked='n <= 5', holds=True, exceptions=(), counterexample=None, "
     "inconclusive=(), stats={})"),
    (BoundTriple, ("n", "lower", "upper", "exact", "mu", "main_term", "remainder_bound", "remainder_ok"), {},
     BoundTriple(3, 1.5, 2.5, 4, 5.441398092702653, 3.9, 0.25, True),
     "BoundTriple(n=3, lower=1.5, upper=2.5, exact=4, mu=5.441398092702653, main_term=3.9, "
     "remainder_bound=0.25, remainder_ok=True)"),
    (RootRecord, ("a", "b", "bracket_lo", "bracket_hi", "rounded"), {},
     RootRecord(1, 2, Fraction(1, 3), Fraction(1, 2), "0.42"),
     "RootRecord(a=1, b=2, bracket_lo=Fraction(1, 3), bracket_hi=Fraction(1, 2), rounded='0.42')"),
]


@pytest.mark.parametrize("cls, fields, defaults, sample, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults, sample, text):
    assert cls._fields == fields and cls._field_defaults == defaults
    assert type(sample) is cls and repr(sample) == text
    copy = pickle.loads(pickle.dumps(sample))
    assert type(copy) is cls and copy == sample
    changed = sample._replace(**{fields[-1]: None})
    assert type(changed) is cls and changed == (*sample[:-1], None)
    assert not hasattr(sample, "__dict__")
    assert cls.__doc__ and cls.__name__ == cls.__qualname__
    # _make, _replace, keyword construction, defaults and copy as namedtuple has them, messages included
    assert cls._make(iter(sample)) == sample and type(cls._make(sample)) is cls
    with pytest.raises(TypeError, match=rf"^Expected {len(fields)} arguments, got {len(fields) + 1}$"):
        cls._make((*sample, None))
    with pytest.raises(ValueError, match=r"^Got unexpected field names: \['bogus'\]$"):
        sample._replace(bogus=1)
    assert cls(**dict(zip(fields, sample))) == sample
    required = {name: value for name, value in zip(fields, sample) if name not in defaults}
    built = cls(**required)
    assert built == (*required.values(), *defaults.values())
    assert all(getattr(built, name) is value for name, value in cls._field_defaults.items())  # shared
    assert type(shallow_copy(sample)) is cls and shallow_copy(sample) == sample


@pytest.mark.parametrize("cls", [r[0] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS])
def test_record_constructor_is_compiled_from_its_module(cls):
    # namedtuple compiles each __new__ from a string, which costs every process ~0.1 ms a class.
    assert cls.__new__.__code__.co_filename == sys.modules[cls.__module__].__file__

