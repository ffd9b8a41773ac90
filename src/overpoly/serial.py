"""The record base, JSON-safe encoding for report payloads, and the JSON text the CLI prints.

Record is the tuple base of the package's record classes.  Fractions become
"p/q" strings (always with the slash), record classes marked with @record
become {field: value} objects in field order, and every other tuple becomes
a list.  dumps writes what encode returns, as json.dumps does, without
loading the json package.  Nothing in the package reads a payload back; the
tests' decode and load (tests/oracles.py) reverse the encoding.
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's field descriptor, with its own fallback
from fractions import Fraction

_RECORDS: set[type] = set()
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
_INFINITY = float("inf")


class Record(tuple):
    """A tuple whose fields are the parameters of its class's own __new__.

    A subclass sets __slots__ = () and writes __new__(cls, field, ...,
    field=default) returning tuple.__new__(cls, (field, ...)).  From that
    signature the class gets _fields, _field_defaults and a read-only
    attribute per field; the base gives namedtuple's _make, _replace (with
    its errors), repr and pickling, without compiling code from a string.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        new = cls.__new__
        fields = new.__code__.co_varnames[1 : new.__code__.co_argcount]
        defaults = new.__defaults__ or ()
        cls._fields = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults) :], defaults))
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable):
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **changes):
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):
        return tuple(self)


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


def dumps(value, sort_keys: bool = False) -> str:
    """json.dumps(value, sort_keys=sort_keys) for a value made of what encode returns.

    That is dicts with str keys, lists, tuples, str, int, float, bool and
    None, written with the default separators and ASCII escapes, and floats
    as repr writes them, with Infinity, -Infinity and NaN.  Any other value
    raises TypeError.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([dumps(v, sort_keys) for v in value]) + "]"
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else value.items()
        return "{" + ", ".join([f"{_quote(k)}: {dumps(v, sort_keys)}" for k, v in items]) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _quote(text: str) -> str:
    """text as a JSON string literal with ensure_ascii escapes."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    chunks = []
    for char in text:
        code = ord(char)
        if char in _ESCAPES:
            chunks.append(_ESCAPES[char])
        elif 0x20 <= code < 0x7F:
            chunks.append(char)
        elif code < 0x10000:
            chunks.append(f"\\u{code:04x}")
        else:  # a surrogate pair
            code -= 0x10000
            chunks.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(chunks) + '"'
