import json

import numpy as np
import pytest

from acceldse import (
    InvalidDocument,
    OperatorDescriptor,
    encode_operator,
    load_subnet,
)


def test_encode_reference_op(ref_op):
    assert encode_operator(ref_op) == (5, 1, 7, 552, 552, 8, 8)


def test_encode_minimal_and_passthrough():
    assert encode_operator(OperatorDescriptor(1, 1, 1, 1, 1, 8, 8)) == (1, 1, 1, 1, 1, 8, 8)
    assert encode_operator(OperatorDescriptor(3, 2, 4, 16, 32, 4, 2)) == (3, 2, 4, 16, 32, 4, 2)


def test_encode_decode_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        op = OperatorDescriptor(
            kernel=int(rng.integers(1, 8)),
            stride=int(rng.integers(1, 3)),
            out_rows=int(rng.integers(1, 64)),
            in_channels=int(rng.integers(1, 600)),
            out_channels=int(rng.integers(1, 600)),
            act_bits=int(rng.choice([2, 4, 8])),
            wgt_bits=int(rng.choice([2, 4, 8])),
        )
        assert OperatorDescriptor(*encode_operator(op)) == op


def test_invalid_fields_rejected():
    with pytest.raises(ValueError, match="act_bits"):
        OperatorDescriptor(3, 1, 4, 8, 8, 3, 8)
    with pytest.raises(ValueError, match="act_bits"):
        OperatorDescriptor(3, 1, 4, 8, 8, 2.0, 8)
    with pytest.raises(ValueError, match="kernel"):
        OperatorDescriptor(0, 1, 4, 8, 8, 8, 8)
    with pytest.raises(ValueError, match="stride"):
        OperatorDescriptor(3, 0, 4, 8, 8, 8, 8)


def test_in_rows_derivation():
    op = OperatorDescriptor(5, 2, 7, 8, 8, 8, 8)
    assert op.in_rows == (7 - 1) * 2 + 5
    # stride 1: in_rows = out_rows + kernel - 1
    op1 = OperatorDescriptor(5, 1, 7, 8, 8, 8, 8)
    assert op1.in_rows == 7 + 5 - 1


def test_load_subnet_single_operator(ref_op):
    doc = json.dumps({"operators": [{
        "kernel": 5, "stride": 1, "out_rows": 7, "in_channels": 552,
        "out_channels": 552, "act_bits": 8, "wgt_bits": 8}]})
    subnet = load_subnet(doc)
    assert len(subnet) == 1
    assert subnet[0] == ref_op
    # document key order is irrelevant
    shuffled = json.dumps({"operators": [{
        "wgt_bits": 8, "act_bits": 8, "out_channels": 552, "in_channels": 552,
        "out_rows": 7, "stride": 1, "kernel": 5}]})
    assert load_subnet(shuffled) == subnet


def test_load_subnet_errors():
    with pytest.raises(InvalidDocument, match="empty subnet"):
        load_subnet(json.dumps({"operators": []}))
    bad = {"kernel": 3, "stride": 1, "out_rows": 4, "in_channels": 8,
           "out_channels": 8, "act_bits": 3, "wgt_bits": 8}
    with pytest.raises(InvalidDocument, match=r"operator 0.*act_bits"):
        load_subnet(json.dumps({"operators": [bad]}))
    with pytest.raises(InvalidDocument, match="not valid JSON"):
        load_subnet("{nonsense")
    with pytest.raises(InvalidDocument, match=r"operator 1.*missing field stride"):
        ok = dict(bad, act_bits=8)
        missing = {k: v for k, v in ok.items() if k != "stride"}
        load_subnet(json.dumps({"operators": [ok, missing]}))
    with pytest.raises(InvalidDocument, match=r"operator 0.*kernel must be a positive integer"):
        load_subnet(json.dumps({"operators": [dict(bad, act_bits=8, kernel=3.5)]}))


def test_subnet_doc_roundtrip(ref_op):
    subnet = load_subnet(json.dumps({"operators": [
        {"kernel": 5, "stride": 1, "out_rows": 7, "in_channels": 552,
         "out_channels": 552, "act_bits": 8, "wgt_bits": 8},
        {"kernel": 3, "stride": 2, "out_rows": 4, "in_channels": 16,
         "out_channels": 32, "act_bits": 4, "wgt_bits": 2},
    ]}))
    again = load_subnet(json.dumps(subnet.to_dict()))
    assert again == subnet
