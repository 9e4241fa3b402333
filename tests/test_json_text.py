"""The report writer, whole and streamed, against `json.dumps(doc, indent=2)`, and the
memo record writer against `json.dumps(record)`."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acceldse.cli import _record_line
from acceldse.costmodel import CostBreakdown
from acceldse.documents import _BATCH, json_text, record_writer, write_json

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
