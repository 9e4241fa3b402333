"""The report writer, whole and streamed, against `json.dumps(doc, indent=2)`, with
`Rows` expanded to their objects, and the memo record writer against
`json.dumps(record)`."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acceldse.cli import _record_line
from acceldse.costmodel import CostBreakdown
from acceldse.documents import _BATCH, _PIECE, Rows, json_text, record_writer, write_json
from conftest import plain

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, math.nan,
               math.inf, -math.inf, 0.1, 1e16, 1e-7]
EDGE_STRINGS = ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "€", "\U0001f600", "\ud800",
                "\udfff", "a\ud83d", "</script>"]

floats = st.sampled_from(EDGE_FLOATS) | st.floats()
leaves = (
    floats
    | floats.map(np.float64)
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.booleans()
    | st.none()
    | st.sampled_from(EDGE_STRINGS)
    | st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
)


def nested(max_leaves):
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(st.sampled_from(EDGE_STRINGS) | st.text(max_size=4),
                                         inner, max_size=4)),
        max_leaves=max_leaves,
    )


documents = nested(24)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(documents)
def test_writes_what_json_dumps_writes(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


def streamed(doc) -> list[str]:
    pieces = []
    write_json(doc, pieces.append)
    return pieces


# `n` copies of a document, at the top level or nested: at least `_BATCH`
# chunks, so the writer hands on batches, often many, at any depth.
large_documents = st.builds(
    lambda wrap, doc, n: wrap([doc] * n),
    st.sampled_from([lambda d: d, lambda d: {"a": d, "b": [d]}, lambda d: [[1, d], {}]]),
    nested(6),
    st.integers(_BATCH, 2 * _BATCH),
)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(documents | large_documents)
def test_streamed_pieces_join_to_what_json_dumps_writes(doc):
    expected = json.dumps(doc, indent=2) + "\n"
    assert "".join(streamed(doc)) == expected
    assert json_text(doc) == expected


@pytest.mark.parametrize("doc", [[], {}, (), {"a": []}, [{}, ()], {"a": {"b": {}}}],
                         ids=repr)
def test_empty_containers(doc):
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [np.int64(1), {1, 2}, {1: "a"}, [0, {"a": (np.int64(2),)}],
                                 {"a": {None: 1}}, [np.bool_(True)], {"a": b"x"}],
                         ids=["int64", "set", "int-key", "nested-int64", "none-key", "bool_",
                              "bytes"])
def test_unwritable_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        json_text(doc)
    with pytest.raises(TypeError):
        streamed(doc)


# Field names of `Rows` layouts: empty, with `%` signs, quotes, escapes or non-ASCII.
row_names = st.sampled_from(["", "%", "%s", "%%d", "a%", '"', "\\", "\n", "é", "\U0001f600",
                             "\ud800"]) | st.text(max_size=4)
# Leaves of rows: edge floats, integers up to int64's top, literals and escaped strings.
row_leaves = (st.sampled_from(EDGE_FLOATS)
              | st.integers(-(2**63), 2**63 - 1)
              | st.booleans()
              | st.none()
              | st.sampled_from(EDGE_STRINGS))


def _name(field):
    return field if type(field) is str else field[0]


def layouts(depth):
    """Layouts of objects nested at most `depth` deep, distinct names in each."""
    field = row_names if depth == 1 else row_names | st.tuples(row_names, layouts(depth - 1))
    return st.lists(field, max_size=4, unique_by=_name).map(tuple)


def width(layout) -> int:
    return sum(1 if type(field) is str else width(field[1]) for field in layout)


@st.composite
def row_tables(draw, min_rows=0, max_rows=4):
    """A `Rows` of a layout up to three deep; its rows are a list, so it can
    be written again through `one_pass`."""
    layout = draw(layouts(3))
    row = st.lists(row_leaves, min_size=width(layout), max_size=width(layout)).map(tuple)
    return Rows(layout, draw(st.lists(row, min_size=min_rows, max_size=max_rows)))


@st.composite
def long_row_tables(draw):
    """A `Rows` whose text spans several pieces: one row repeated."""
    table = draw(row_tables(min_rows=1, max_rows=1))
    size = len(json_text(one_pass(table)))
    return Rows(table.layout, table.rows * (2 * _PIECE // size + draw(st.integers(1, 9))))


def one_pass(doc):
    """`doc` with the rows of each `Rows` in it handed on as a one-pass iterator."""
    if type(doc) is Rows:
        return Rows(doc.layout, iter(doc.rows))
    if isinstance(doc, dict):
        return {key: one_pass(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [one_pass(value) for value in doc]
    return doc


# `Rows` at the top level or inside objects and arrays, among other values; a
# `Rows` is drawn twice as often as a leaf.
documents_with_rows = st.recursive(
    row_tables() | row_tables() | leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(EDGE_STRINGS) | st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6,
)


def check_rows_document(doc) -> list[str]:
    """Check `doc`'s text, whole and streamed, against `json.dumps` of its
    `plain` form, and return the streamed pieces."""
    expected = json.dumps(plain(doc), indent=2) + "\n"
    assert json_text(one_pass(doc)) == expected
    pieces = streamed(one_pass(doc))
    assert "".join(pieces) == expected
    return pieces


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(documents_with_rows)
def test_rows_write_what_json_dumps_writes_of_their_objects(doc):
    check_rows_document(doc)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(long_row_tables(), st.sampled_from([lambda t: t, lambda t: {"a": [1, t]},
                                           lambda t: [[t], t]]))
def test_rows_longer_than_a_piece_stream_in_several(table, wrap):
    pieces = check_rows_document(wrap(table))
    assert len(pieces) > 2
    # a piece ends with the row that reaches `_PIECE` characters, or with a `Rows`' last
    # row; the first also holds the few brackets and keys before the rows
    row_size = len(json_text(Rows(table.layout, table.rows[:1])))
    assert max(map(len, pieces)) < _PIECE + 2 * row_size + 100


@pytest.mark.parametrize("doc", [Rows(("a",), []), {"a": Rows((("b", ("c",)),), ())},
                                 [Rows((), iter([]))]], ids=["top", "in-object", "in-array"])
def test_rows_without_rows_write_an_empty_array(doc):
    assert json_text(doc) == json.dumps(plain(doc), indent=2) + "\n"
    assert "[]" in json_text(doc)


@pytest.mark.parametrize("row", [(1,), (1, 2, 3), (1, [2]), ({"b": 1}, 2), (1, (2,)), ()],
                         ids=repr)
def test_rows_refuse_a_row_that_does_not_fit_the_layout(row):
    """A row must hold one leaf per field of the layout, and leaves only."""
    with pytest.raises(TypeError):
        json_text(Rows(("a", ("b", ("c",))), [row]))
    with pytest.raises(TypeError):
        streamed([Rows(("a", ("b", ("c",))), [(1, 2), row])])


# Subnormal, huge, signed-zero and non-finite floats, and cycles up to int64's top.
record_floats = st.sampled_from(EDGE_FLOATS + [2.0**-1074, 2.0**-1022, 2.0**1023, 1e-310]) | floats
breakdowns = st.builds(CostBreakdown, record_floats, record_floats,
                       st.sampled_from([0, 1, 2**53 + 1, 2**63 - 1]) | st.integers(0, 2**63 - 1),
                       record_floats, record_floats)
record_keys = st.text("0123456789abcdef", min_size=64, max_size=64) | st.sampled_from(EDGE_STRINGS)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(record_keys, breakdowns)
def test_memo_record_is_what_json_dumps_writes(key, cost):
    assert _record_line(key, cost) == json.dumps({"key": key, "cost": cost.to_dict()}) + "\n"


def test_record_writer_quotes_names_with_percent_signs():
    class Obj:
        a_d = "%d"
        b = -0.0

    line = record_writer(("k%s", "c%"), ("a_d", "b"))
    assert line("%s", Obj) == json.dumps({"k%s": "%s", "c%": {"a_d": "%d", "b": -0.0}}) + "\n"


@pytest.mark.parametrize("value", [[1.0], {"a": 1}, np.float32(1.0), np.int64(1)], ids=repr)
def test_record_writer_refuses_what_is_no_leaf(value):
    with pytest.raises(TypeError):
        _record_line("k", CostBreakdown(value, 1.0, 1, 1.0, 1.0))
