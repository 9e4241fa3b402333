import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acceldse import (
    AcceleratorConfig,
    AreaConstants,
    Dataflow,
    InvalidDocument,
    ParamSpace,
    all_loop_orders,
    area,
    load_accel,
    load_space,
    space_cardinality,
)
from acceldse.accel import CACHE_CHOICES_KB, PE_CHOICES
from conftest import PROPERTY, REF_CFG

# Every legal candidate of each config field, in field order.
FULL_CANDIDATES = (PE_CHOICES, PE_CHOICES, CACHE_CHOICES_KB, CACHE_CHOICES_KB,
                   CACHE_CHOICES_KB, tuple(Dataflow), all_loop_orders())
spaces = st.tuples(*(
    st.lists(st.sampled_from(full), min_size=1, max_size=4, unique=True)
    for full in FULL_CANDIDATES
)).map(lambda lists: ParamSpace(*lists))


def test_candidate_list_sizes():
    assert len(PE_CHOICES) == 62
    assert len(CACHE_CHOICES_KB) == 30
    assert CACHE_CHOICES_KB[0] == 64 and CACHE_CHOICES_KB[-1] == 528
    orders = all_loop_orders()
    assert len(orders) == 120
    assert len(set(orders)) == 120


def test_full_space_cardinality():
    assert space_cardinality(ParamSpace()) == 62 * 62 * 30 * 30 * 30 * 3 * 120
    assert space_cardinality(ParamSpace()) == 37_363_680_000


def test_singleton_and_reduced_cardinality(reduced_space_24):
    single = ParamSpace(
        pe_x=(8,), pe_y=(8,), act_cache_kb=(64,), wgt_cache_kb=(64,),
        out_cache_kb=(64,), dataflows=(Dataflow.WS,), loop_orders=("BIOHW",),
    )
    assert space_cardinality(single) == 1
    assert space_cardinality(reduced_space_24) == 24


def test_validate_reference_op(ref_cfg):
    assert AcceleratorConfig(*ref_cfg.as_tuple()) == ref_cfg


def test_validate_violations():
    with pytest.raises(ValueError, match=r"^invalid accelerator config: pe_x 2 is not an "
                                         r"integer in \[3, 64\]$"):
        AcceleratorConfig(2, 16, 384, 384, 384, Dataflow.WS, "BIOHW")
    with pytest.raises(ValueError, match=r"act_cache_kb 70 is not a multiple of 16"):
        AcceleratorConfig(16, 16, 70, 384, 384, Dataflow.WS, "BIOHW")
    with pytest.raises(ValueError, match="loop_order 'BBOHW' is not a permutation of BIOHW"):
        AcceleratorConfig(16, 16, 384, 384, 384, Dataflow.WS, "BBOHW")
    # one error lists every bad field, in field order
    with pytest.raises(ValueError, match=r"^invalid accelerator config: pe_x 0 .*; "
                                         r"loop_order 'XXXXX' .*$"):
        AcceleratorConfig(0, 16, 64, 64, 64, "WS", "XXXXX")


CONFIG_FIELDS = tuple(f.name for f in fields(AcceleratorConfig))
SPACE_FIELDS = tuple(f.name for f in fields(ParamSpace))


def off_domain(full):
    """Values the field whose legal values are `full` refuses: for integer
    fields, integers off the grid or out of range, bools, and floats and
    numpy integers equal to a legal value; for the string fields, strings
    that are no legal value, non-strings and lists."""
    legal = st.sampled_from(full)
    if type(full[0]) is int:
        return st.one_of(st.integers(-600, 600).filter(lambda v: v not in full),
                         st.integers().filter(lambda v: v not in full),
                         st.booleans(), legal.map(float), legal.map(np.int64))
    values = [getattr(v, "value", v) for v in full]
    return st.one_of(st.text("BIOHWSX", max_size=6).filter(lambda v: v not in values),
                     st.none(), st.integers(), legal.map(str.encode), legal.map(list))


def test_every_full_space_candidate_constructs():
    assert ParamSpace(*FULL_CANDIDATES).candidates == ParamSpace().candidates
    for name, full in zip(CONFIG_FIELDS, FULL_CANDIDATES):
        for value in full:
            assert getattr(replace(REF_CFG, **{name: value}), name) == value


@settings(PROPERTY, max_examples=150)
@given(st.data())
def test_off_domain_values_refused_by_both_constructors(data):
    """A value outside a field's domain is refused by `AcceleratorConfig` and
    as a `ParamSpace` candidate, beside a legal one, with a `ValueError`
    naming the field; the type is checked before any lookup, so an
    unhashable value is refused the same way."""
    index = data.draw(st.integers(0, len(CONFIG_FIELDS) - 1))
    name, full = CONFIG_FIELDS[index], FULL_CANDIDATES[index]
    value = data.draw(off_domain(full))
    with pytest.raises(ValueError, match=f"^invalid accelerator config: {name} "):
        replace(REF_CFG, **{name: value})
    with pytest.raises(ValueError, match=f"^{SPACE_FIELDS[index]} candidates .* are not each "):
        ParamSpace(**{SPACE_FIELDS[index]: (data.draw(st.sampled_from(full)), value)})


def test_area_fixed_term_only(ref_cfg):
    constants = AreaConstants(per_pe_mm2=0.0, per_kb_mm2=0.0, fixed_mm2=0.1)
    assert area(ref_cfg, constants) == pytest.approx(0.1)


def test_area_default_example(ref_cfg):
    assert area(ref_cfg) == pytest.approx(0.002 * 256 + 1152 * 0.0005 + 0.1)
    assert area(ref_cfg) == pytest.approx(1.188)


def test_area_monotone_in_pe_count(ref_cfg):
    bigger = AcceleratorConfig(32, 16, 384, 384, 384, Dataflow.WS, "BIHWO")
    assert area(bigger) > area(ref_cfg)


def test_param_space_rejects_illegal_candidates():
    with pytest.raises(ValueError, match=r"pe_x candidates \[2\] are not each an integer"):
        ParamSpace(pe_x=(2, 8))
    with pytest.raises(ValueError, match=r"act_cache_kb candidates \[70\] are not each"):
        ParamSpace(act_cache_kb=(70,))
    with pytest.raises(ValueError, match=r"loop_orders candidates \['BBOHW'\] are not each"):
        ParamSpace(loop_orders=("BBOHW",))
    with pytest.raises(ValueError, match="empty"):
        ParamSpace(pe_x=())


def test_param_space_rejects_repeated_candidates():
    # each distinct config is scored once by the exhaustive engine and drawn
    # with equal odds by the sampling engines only if no candidate repeats
    with pytest.raises(ValueError, match=r"pe_x candidates repeat: \[8\]"):
        ParamSpace(pe_x=(8, 16, 8))
    with pytest.raises(ValueError, match=r"dataflows candidates repeat: \['WS'\]"):
        ParamSpace(dataflows=("WS", Dataflow.WS))
    with pytest.raises(ValueError, match="loop_orders candidates repeat"):
        ParamSpace(loop_orders=all_loop_orders() + ("BIOHW",))
    with pytest.raises(InvalidDocument, match="space document: pe_x candidates repeat"):
        load_space(json.dumps({"pe_x": [8, 8], "dataflow": ["WS", "WS"]}))


def test_load_accel_roundtrip(ref_cfg):
    doc = json.dumps({
        "pe_x": 16, "pe_y": 16, "act_cache_kb": 384, "wgt_cache_kb": 384,
        "out_cache_kb": 384, "dataflow": "WS", "loop_order": "BIHWO"})
    assert load_accel(doc) == ref_cfg


def test_load_accel_errors():
    with pytest.raises(InvalidDocument, match="missing fields"):
        load_accel(json.dumps({"pe_x": 16}))
    with pytest.raises(InvalidDocument, match="invalid accelerator config"):
        load_accel(json.dumps({
            "pe_x": 2, "pe_y": 16, "act_cache_kb": 384, "wgt_cache_kb": 384,
            "out_cache_kb": 384, "dataflow": "WS", "loop_order": "BIHWO"}))
    with pytest.raises(InvalidDocument, match="'XX' is not a valid"):
        load_accel(json.dumps({
            "pe_x": 16, "pe_y": 16, "act_cache_kb": 384, "wgt_cache_kb": 384,
            "out_cache_kb": 384, "dataflow": "XX", "loop_order": "BIHWO"}))


def test_load_space_defaults_and_restriction():
    full = load_space("{}")
    assert space_cardinality(full) == 37_363_680_000
    reduced = load_space(json.dumps({"pe_x": [8, 16], "dataflow": ["WS"]}))
    assert reduced.pe_x == (8, 16)
    assert reduced.dataflows == (Dataflow.WS,)
    assert len(reduced.loop_orders) == 120
    with pytest.raises(InvalidDocument, match="unknown fields"):
        load_space(json.dumps({"pe": [8]}))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_config_at_picks_each_fields_candidate(data):
    """`config_at` reads each field's candidate at its index, so two choice
    tuples give equal configs only if they are equal."""
    space = data.draw(spaces)
    tuples = st.tuples(*(st.integers(0, n - 1) for n in space.field_sizes))
    a, b = data.draw(tuples), data.draw(tuples)
    assert space.config_at(a).as_tuple() == tuple(map(tuple.__getitem__, space.candidates, a))
    assert (space.config_at(a) == space.config_at(b)) == (a == b)


@pytest.mark.parametrize("choices", [(0,) * 6, (0,) * 8])
def test_config_at_refuses_a_choice_tuple_of_the_wrong_length(choices):
    """One index per config field: a shorter or longer tuple is an error,
    not a config built from the fields it happens to cover."""
    with pytest.raises(ValueError):
        ParamSpace().config_at(choices)
