"""The reading rules shared by every JSON document acceldse accepts, and the
one writer of every report it emits.

Each reader returns the value it checked or raises `InvalidDocument` naming
where the bad value sits: `where` names the enclosing value ("operator 3"),
`key` the field name or list index inside it.  Nothing is coerced: an integer
field takes a JSON integer only (not ``true``, ``16.7`` or ``"16"``), a number
must be finite, and an object holds no key outside its known fields.
Messages are built only when a check fails, so large documents read fast.

`write_json` writes a report exactly as ``json.dumps(doc, indent=2)`` plus a
newline, without the pure-Python encoder that ``indent`` selects, and hands
it to its destination in bounded pieces; `json_text` joins those pieces.  A
`Rows` in a report is an array of objects that share one layout, such as
`cost`'s per-operator rows: its layout is compiled once into a ``%``
template (`_template`), and each row, a flat tuple of leaves, is written in
one ``%`` operation, with no per-row dict.  `record_writer` formats
one-line records, such as the `--cache` memo's, as ``json.dumps`` would, on
the same compiler in its compact form.  Every leaf is written by the same
rules (`_leaf`).
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _string
from operator import attrgetter

from .errors import InvalidDocument

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# `write_json` hands its text on in pieces of some tens of KB, so a report's
# whole text is never held at once: a piece is the join of `_BATCH` chunks
# (a leaf each, with its separator and key) or, inside a `Rows`, of the
# rows whose text reaches `_PIECE` characters, or of those left at its end.
_BATCH = 2048
_PIECE = 32 * 1024


class Rows:
    """A JSON array of objects that share one layout, written from flat rows.

    `layout` names the fields of each object in order; a field given as
    ``(name, sublayout)`` holds a nested object of `sublayout`, and the
    names of one object are distinct strings.  `rows` is an iterable,
    read once, of tuples that hold each object's leaves depth first: with
    layout ``("i", ("t", ("a", "b")))`` the row ``(0, 1, 2)`` is the
    object ``{"i": 0, "t": {"a": 1, "b": 2}}``.  A row whose length is not
    its layout's leaf count, or that holds a container, raises `TypeError`
    when written."""

    __slots__ = ("layout", "rows")

    def __init__(self, layout, rows):
        self.layout = layout
        self.rows = rows


def write_json(doc, write) -> None:
    """Pass `doc`'s text, ``json.dumps(doc, indent=2) + "\\n"``, to `write` in
    bounded pieces (see `_BATCH`; the last may be shorter): two-space
    indent, ASCII escapes, floats by `float.__repr__` (NaN and infinities
    as ``json`` writes them), tuples as lists and each `Rows` as the array
    of its objects.  Object keys must be strings; a key or value of any
    other type raises `TypeError`, after the pieces before it have gone to
    `write`."""
    text = _scalar(doc)
    if text is not None:
        write(_NON_FINITE.get(text, text) + "\n")
        return
    chunks: list[str] = []
    _write(doc, chunks, "\n", write)
    chunks.append("\n")
    write("".join(chunks))


def json_text(doc) -> str:
    """`doc`'s text as `write_json` writes it, in one string."""
    pieces: list[str] = []
    write_json(doc, pieces.append)
    return "".join(pieces)


def _scalar(value) -> str | None:
    """The text of a leaf, a float's before `_NON_FINITE` maps it, or None
    for a container; leaves are tested in `json.dumps`'s order (`bool` is an
    `int`).  `float.__repr__`, not `repr`: numpy 2 reprs its scalars as
    ``np.float64(...)``."""
    if isinstance(value, (dict, list, tuple, Rows)):
        return None
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The text of a leaf of exactly one of these types; any other value goes through `_scalar`.
_LEAF_TEXT = {float: float.__repr__, int: int.__repr__, str: _string}


def _leaf(value) -> str:
    """The text of a leaf as ``json.dumps`` writes it; a container raises
    `TypeError`."""
    text = _LEAF_TEXT.get(type(value), _scalar)(value)
    if text is None:
        raise TypeError(f"a {type(value).__name__} is not a leaf")
    return _NON_FINITE.get(text, text)


def _template(layout, newline: str | None) -> str:
    """The ``%`` template of one object of `layout` (see `Rows`), a ``%s``
    for each leaf and every ``%`` of a name doubled.  `newline` is the
    newline and indent before the object's closing brace, as
    ``json.dumps(indent=2)`` writes it, or None for its compact form,
    ``json.dumps``'s default separators."""
    if not layout:
        return "{}"
    inner = None if newline is None else newline + "  "
    items = []
    for field in layout:
        if type(field) is str:
            name, value = field, "%s"
        else:
            name, value = field[0], _template(field[1], inner)
        items.append(_string(name).replace("%", "%%") + ": " + value)
    if newline is None:
        return "{" + ", ".join(items) + "}"
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def record_writer(outer, names):
    """`line(key, obj)`, the one-line record that holds `key` and the fields
    `names` of `obj` under the two keys of `outer`: exactly
    ``json.dumps({outer[0]: key, outer[1]: {name: getattr(obj, name) for
    name in names}}) + "\\n"``, formatted in one string.  `names` holds
    at least two fields; `key` and every field must be leaves."""
    template = _template((outer[0], (outer[1], names)), None) + "\n"
    values = attrgetter(*names)  # a tuple: two or more names

    def line(key, obj) -> str:
        return template % (_leaf(key), *map(_leaf, values(obj)))

    return line


def _write(value, chunks: list, newline: str, write) -> None:
    """Append the text of the container `value`, whose closing bracket sits
    after `newline` (a newline and the indent of its level).  Each leaf
    goes out in one chunk with the separator, and an object's key, before
    it; after each item, a full batch of `chunks` goes to `write` joined,
    and `chunks` starts over.  Only a float's text can be a key of
    `_NON_FINITE`: every other leaf's is quoted, a number or a literal."""
    if type(value) is Rows:
        _write_rows(value, chunks, newline, write)
        return
    keyed = isinstance(value, dict)
    if not value:
        chunks.append("{}" if keyed else "[]")
        return
    inner = newline + "  "
    head = ("{" if keyed else "[") + inner
    for key, item in value.items() if keyed else enumerate(value):
        if keyed:
            head += _string(key) + ": "  # a key that is no str raises TypeError
        text = _LEAF_TEXT.get(type(item), _scalar)(item)
        if text is None:
            chunks.append(head)
            _write(item, chunks, inner, write)
        else:
            chunks.append(head + _NON_FINITE.get(text, text))
        if len(chunks) >= _BATCH:
            write("".join(chunks))
            chunks.clear()
        head = "," + inner
    chunks.append(newline + ("}" if keyed else "]"))


def _write_rows(value: Rows, chunks: list, newline: str, write) -> None:
    """Append the text of `value`, as `_write` appends a list's: each row
    in one chunk, with the separator before it, by one ``%`` operation on
    its layout's template.  Once the rows' chunks reach `_PIECE`
    characters, and after the last row, `chunks` goes to `write` joined and
    starts over."""
    inner = newline + "  "
    body = _template(value.layout, inner)
    following = "," + inner + body
    template = "[" + inner + body
    size = 0
    for row in value.rows:
        text = template % tuple(map(_leaf, row))
        chunks.append(text)
        size += len(text)
        if size >= _PIECE:
            write("".join(chunks))
            chunks.clear()
            size = 0
        template = following
    if size:
        write("".join(chunks))
        chunks.clear()
    chunks.append(newline + "]" if template is following else "[]")


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
