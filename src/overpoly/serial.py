"""JSON-safe encoding for report payloads.

Fractions become "p/q" strings (always with the slash), record classes (the
NamedTuples marked with @record) become {field: value} objects in field
order, and every other tuple becomes a list; decoding reverses the first and
last, and load rebuilds a record, so a report round-trips through
json.dumps/loads into an equal value.  Payload strings that themselves look
like "p/q" would be mis-decoded; report fields never contain such strings.
"""

from __future__ import annotations

import re
from fractions import Fraction

_FRACTION_RE = re.compile(r"^-?\d+/\d+$")
_RECORDS: set[type] = set()


def record(cls):
    """Class decorator: encode writes instances of cls as {field: value} objects."""
    _RECORDS.add(cls)
    return cls


def encode(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if type(value) in _RECORDS:
        return {name: encode(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    return value


def decode(value):
    if isinstance(value, str) and _FRACTION_RE.match(value):
        return Fraction(value)
    if isinstance(value, list):
        return tuple(decode(v) for v in value)
    if isinstance(value, dict):
        return {k: decode(v) for k, v in value.items()}
    return value


def load(cls, data: dict):
    """Rebuild a record of class cls from its encode() output."""
    return cls(**decode(data))
