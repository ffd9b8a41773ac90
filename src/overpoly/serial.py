"""JSON-safe encoding for report payloads.

Fractions become "p/q" strings (always with the slash), tuples become lists,
and dataclasses become {field: value} objects; decoding reverses the first
two, and load rebuilds a dataclass, so a report round-trips through
json.dumps/loads into an equal value.  Payload strings that themselves look
like "p/q" would be mis-decoded; report fields never contain such strings.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from fractions import Fraction

_FRACTION_RE = re.compile(r"^-?\d+/\d+$")


def encode(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
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
    """Rebuild a dataclass instance of cls from its encode() output."""
    return cls(**decode(data))
