"""The reading rules shared by every JSON document acceldse accepts.

Each reader returns the value it checked or raises `InvalidDocument` naming
where the bad value sits: `where` names the enclosing value ("operator 3"),
`key` the field name or list index inside it.  Nothing is coerced: an integer
field takes a JSON integer only (not ``true``, ``16.7`` or ``"16"``), a number
must be finite, and an object holds no key outside its known fields.
Messages are built only when a check fails, so large documents read fast.
"""

from __future__ import annotations

import json
import sys

from .errors import InvalidDocument


def _at(where: str, key) -> str:
    if key is None:
        return where
    return f"{where}[{key}]" if type(key) is int else f"{where}: {key}"


def parse_json(text: str, kind: str):
    """Decode `text`; `kind` names the document in the error ("workload document")."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidDocument(f"{kind} is not valid JSON: {exc}") from exc


def read_object(value, where: str, known, required=()) -> dict:
    """`value` as an object whose keys all lie in `known` and include `required`."""
    if type(value) is not dict:
        raise InvalidDocument(f"{where} must be an object, got {type(value).__name__}")
    for k in value:
        if k not in known:
            unknown = sorted(k for k in value if k not in known)
            raise InvalidDocument(f"{where}: unknown fields {unknown}")
    for k in required:
        if k not in value:
            missing = [k for k in required if k not in value]
            s = "s" if len(missing) > 1 else ""
            raise InvalidDocument(f"{where}: missing field{s} {', '.join(missing)}")
    return value


def read_list(value, where: str, key=None, item=None) -> list:
    """`value` as a list; `item(element, where, index)`, if given, reads each element."""
    if type(value) is not list:
        raise InvalidDocument(f"{_at(where, key)} must be a list, got {type(value).__name__}")
    if item is None:
        return value
    at = _at(where, key)
    return [item(v, at, i) for i, v in enumerate(value)]


def read_int(value, where: str, key=None) -> int:
    if type(value) is not int:
        raise InvalidDocument(f"{_at(where, key)} must be an integer, got {value!r}")
    return value


def read_number(value, where: str, key=None) -> float:
    """A finite JSON number, integer or not, as a float."""
    # NaN fails the comparison; an integer beyond the float range fails it exactly
    if (type(value) is float or type(value) is int) and abs(value) <= sys.float_info.max:
        return float(value)
    raise InvalidDocument(f"{_at(where, key)} must be a finite number, got {value!r}")


def construct(cls, where: str, *args, **kwargs):
    """`cls(*args, **kwargs)`, with a `ValueError` from the type's own checks
    reported as a document error at `where`."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise InvalidDocument(f"{where}: {exc}") from exc
