from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acceldse import (
    AcceleratorConfig,
    AreaConstants,
    CostBreakdown,
    CostConstants,
    Dataflow,
    NoFeasibleTiling,
    OperatorDescriptor,
    SubnetDescriptor,
    TilingPlan,
    all_loop_orders,
    area,
    batch_search,
    compute_cycles,
    dram_traffic,
    enumerate_tilings,
    estimate_cost,
    hw_cost,
    map_subnet,
    oracle_search,
    tile_size_choices,
)
from acceldse.accel import CACHE_CHOICES_KB, PE_CHOICES
from acceldse.costmodel import CostWeights, _grid_table, evaluate_tilings, fits_caches_mask
from acceldse.tiling import _candidate_arrays

CFG = AcceleratorConfig(16, 16, 128, 128, 128, Dataflow.WS, "BIHWO")

# Small enough that the sequential oracle stays fast.  Odd and non-power-of-two
# extents give ragged edge tiles; kernel 1 and stride 2 are drawn often.
operators = st.builds(
    OperatorDescriptor,
    kernel=st.sampled_from([1, 1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    out_rows=st.integers(1, 20),
    in_channels=st.integers(1, 72),
    out_channels=st.integers(1, 72),
    act_bits=st.sampled_from([2, 4, 8]),
    wgt_bits=st.sampled_from([2, 4, 8]),
)
configs = st.builds(
    AcceleratorConfig,
    pe_x=st.sampled_from(PE_CHOICES),
    pe_y=st.sampled_from(PE_CHOICES),
    act_cache_kb=st.sampled_from(CACHE_CHOICES_KB),
    wgt_cache_kb=st.sampled_from(CACHE_CHOICES_KB),
    out_cache_kb=st.sampled_from(CACHE_CHOICES_KB),
    dataflow=st.sampled_from(list(Dataflow)),
    loop_order=st.sampled_from(all_loop_orders()),
)
# Derandomized, so every run draws the same examples.
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def test_tile_size_choices():
    assert tile_size_choices(1) == (1,)
    assert tile_size_choices(7) == (1, 2, 4, 8)
    assert tile_size_choices(552) == tuple(2**i for i in range(11))
    assert tile_size_choices(10**6) == tuple(2**i for i in range(11))


def test_raw_candidate_count_reference_op(ref_op, ref_cfg):
    result = batch_search(ref_op, ref_cfg)
    assert result.n_candidates == 4 * 4 * 11 * 11 == 1936
    assert result.n_feasible <= result.n_candidates


def test_unit_operator_single_tiling():
    op = OperatorDescriptor(1, 1, 1, 1, 1, 8, 8)
    plans = enumerate_tilings(op, CFG)
    assert plans == [TilingPlan(1, 1, 1, 1)]


def test_small_caches_exclude_whole_tensor_tiling(ref_op):
    cfg = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIHWO")
    # even clipped to the tensor, the whole-tensor weight tile is ~7.6 MB
    assert 5**2 * 552 * 552 * 1 > 64 * 1024
    whole = TilingPlan(1024, 1024, 8, 8)
    assert whole not in enumerate_tilings(ref_op, cfg)


def test_filter_soundness(ref_op):
    cfg = AcceleratorConfig(16, 16, 96, 96, 96, Dataflow.WS, "BIHWO")
    op = ref_op
    for plan in enumerate_tilings(op, cfg):
        c_ic = min(plan.t_ic, op.in_channels)
        c_oc = min(plan.t_oc, op.out_channels)
        c_ow = min(plan.t_ow, op.out_rows)
        c_oh = min(plan.t_oh, op.out_rows)
        act = c_ic * (c_ow * op.stride + op.kernel - 1) * (c_oh * op.stride + op.kernel - 1)
        assert act * op.act_bits / 8 <= cfg.act_cache_kb * 1024
        assert c_ic * c_oc * op.kernel**2 * op.wgt_bits / 8 <= cfg.wgt_cache_kb * 1024
        assert 4 * c_oc * c_ow * c_oh <= cfg.out_cache_kb * 1024


def test_single_candidate_space_identity():
    op = OperatorDescriptor(1, 1, 1, 1, 1, 8, 8)
    b = batch_search(op, CFG)
    o = oracle_search(op, CFG)
    assert b.best == o.best == TilingPlan(1, 1, 1, 1)
    assert b.cost == o.cost


def test_exhaustive_dominance():
    op = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    result = batch_search(op, CFG)
    w = CostWeights(0.33, 0.33, 0.0)
    best_cost = hw_cost(result.cost, w)
    for plan in enumerate_tilings(op, CFG):
        assert best_cost <= hw_cost(estimate_cost(op, CFG, plan), w)
    assert result.cost == estimate_cost(op, CFG, result.best)


def test_batch_search_deterministic(ref_op, ref_cfg):
    first = batch_search(ref_op, ref_cfg)
    second = batch_search(ref_op, ref_cfg)
    assert first.best == second.best
    assert first.cost == second.cost


def test_no_feasible_tiling():
    # a 724-wide stride-1 kernel needs ~512 KB for even a 1x1 output tile
    op = OperatorDescriptor(724, 1, 1, 1, 1, 8, 8)
    cfg = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIHWO")
    with pytest.raises(NoFeasibleTiling):
        batch_search(op, cfg)
    with pytest.raises(NoFeasibleTiling):
        oracle_search(op, cfg)


def test_map_subnet_single_op():
    op = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    mapping = map_subnet(SubnetDescriptor((op,)), CFG)
    result = batch_search(op, CFG)
    assert mapping.total == result.cost
    assert mapping.per_op[0].best == result.best


@PROPERTY
@given(operators)
@example(OperatorDescriptor(3, 1, 8, 16, 32, 8, 8))
def test_map_subnet_duplication_additivity(op):
    one = map_subnet(SubnetDescriptor((op,)), CFG)
    two = map_subnet(SubnetDescriptor((op, op)), CFG)
    # totals add from zero in operator order, so 0.0 + e + e == 2e exactly
    assert two.total.energy_mj == 2 * one.total.energy_mj
    assert two.total.latency_ms == 2 * one.total.latency_ms
    assert two.total.dram_bytes == 2 * one.total.dram_bytes
    assert two.total.cycles == 2 * one.total.cycles
    assert two.total.area_mm2 == one.total.area_mm2


@PROPERTY
@given(operators, configs)
# the fixed operators this test checked before it drew its inputs
@example(OperatorDescriptor(5, 2, 1, 52, 31, 4, 4), CFG)
@example(OperatorDescriptor(1, 2, 1, 18, 25, 4, 4), CFG)
@example(OperatorDescriptor(1, 1, 1, 4, 10, 8, 2), CFG)
@example(OperatorDescriptor(3, 2, 4, 19, 28, 2, 8), CFG)
@example(OperatorDescriptor(1, 2, 13, 55, 8, 4, 4), CFG)
@example(OperatorDescriptor(3, 2, 11, 43, 4, 8, 4), CFG)
@example(OperatorDescriptor(5, 1, 6, 57, 12, 2, 4), CFG)
@example(OperatorDescriptor(5, 1, 14, 22, 15, 4, 8), CFG)
@example(OperatorDescriptor(5, 2, 5, 2, 50, 8, 8), CFG)
@example(OperatorDescriptor(1, 1, 9, 22, 28, 8, 2), CFG)
def test_batch_matches_oracle_small(op, cfg):
    try:
        b = batch_search(op, cfg)
    except NoFeasibleTiling:
        with pytest.raises(NoFeasibleTiling):
            oracle_search(op, cfg)
        return
    o = oracle_search(op, cfg)
    assert (b.best, b.cost, b.n_feasible, b.n_candidates) == (
        o.best, o.cost, o.n_feasible, o.n_candidates)

    # the scalar views equal the winner's row of one batched pass
    plans = enumerate_tilings(op, cfg)
    rows = evaluate_tilings(op, cfg, *np.array([p.as_tuple() for p in plans]).T)
    i = plans.index(b.best)
    assert compute_cycles(op, cfg, b.best) == rows["compute_cycles"][i]
    traffic = dram_traffic(op, cfg, b.best)
    assert traffic.total_bytes == rows["dram_bytes"][i]
    for name in ("act_bytes", "wgt_bytes", "out_bytes", "act_fetches", "wgt_fetches",
                 "out_fetches", "out_unique_tiles"):
        assert getattr(traffic, name) == rows[name][i]


def test_map_subnet_names_offending_operator():
    good = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    bad = OperatorDescriptor(724, 1, 1, 1, 1, 8, 8)
    cfg = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIHWO")
    with pytest.raises(NoFeasibleTiling, match="operator 1") as excinfo:
        map_subnet(SubnetDescriptor((good, bad)), cfg)
    assert excinfo.value.op_index == 1


# Each area term and weight anywhere in its accepted range, [0, 2**64].
in_range = st.floats(0.0, 2.0**64)
area_variants = st.tuples(in_range, st.builds(AreaConstants, in_range, in_range, in_range))


@PROPERTY
@given(operators, configs, st.floats(0.0, 10.0), st.floats(0.0, 10.0), area_variants)
# an area offset a million times a small operator's cost
@example(OperatorDescriptor(3, 1, 8, 16, 32, 8, 8), CFG, 0.33, 0.33, (1e6, AreaConstants()))
def test_area_cannot_change_a_tiling(op, cfg, lambda_e, lambda_l, variant):
    """No tiling changes the area, so neither `lambda_a` nor the area
    constants change which tiling `batch_search` picks or how many fit; its
    cost differs only in `area_mm2`."""
    lambda_a, area_constants = variant
    constants = CostConstants(area=area_constants)
    try:
        base = batch_search(op, cfg, weights=CostWeights(lambda_e, lambda_l, 0.0))
    except NoFeasibleTiling:
        with pytest.raises(NoFeasibleTiling):
            batch_search(op, cfg, constants, CostWeights(lambda_e, lambda_l, lambda_a))
        return
    varied = batch_search(op, cfg, constants, CostWeights(lambda_e, lambda_l, lambda_a))
    assert (varied.best, varied.n_feasible) == (base.best, base.n_feasible)
    assert varied.cost.area_mm2 == area(cfg, area_constants)
    assert varied.cost == replace(base.cost, area_mm2=varied.cost.area_mm2)


# Wider than `operators`: grid and flat evaluation are cheap at any size.
wide_operators = st.builds(
    OperatorDescriptor,
    kernel=st.integers(1, 11),
    stride=st.integers(1, 4),
    out_rows=st.integers(1, 300),
    in_channels=st.integers(1, 2000),
    out_channels=st.integers(1, 2000),
    act_bits=st.sampled_from([2, 4, 8]),
    wgt_bits=st.sampled_from([2, 4, 8]),
)
# Few enough feasible candidates to cost each one through the scalar views.
tiny_operators = st.builds(
    OperatorDescriptor,
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    out_rows=st.integers(1, 8),
    in_channels=st.integers(1, 16),
    out_channels=st.integers(1, 16),
    act_bits=st.sampled_from([2, 4, 8]),
    wgt_bits=st.sampled_from([2, 4, 8]),
)


@settings(PROPERTY, max_examples=60)
@given(wide_operators, configs)
def test_grid_evaluation_matches_flat(op, cfg):
    """Every output on the open grid, broadcast and raveled, equals the
    output on the flat candidate arrays bit for bit."""
    t_oc, t_ic, t_oh, t_ow = grid = _grid_table(op).grid
    flat = _candidate_arrays(op)[:4]
    shape = np.broadcast_shapes(*(g.shape for g in grid))
    on_grid = evaluate_tilings(op, cfg, t_oc, t_ic, t_ow, t_oh)
    on_grid["fits"] = fits_caches_mask(op, cfg, t_oc, t_ic, t_ow, t_oh)
    on_flat = evaluate_tilings(op, cfg, *flat)
    on_flat["fits"] = fits_caches_mask(op, cfg, *flat)
    assert len(on_flat) == 14 and on_grid.keys() == on_flat.keys()
    for name, values in on_grid.items():
        raveled = np.broadcast_to(values, shape).ravel()
        assert raveled.dtype == on_flat[name].dtype, name
        assert raveled.tobytes() == on_flat[name].tobytes(), name


@settings(PROPERTY, max_examples=25)
@given(tiny_operators, configs)
def test_scalar_views_match_flat_rows(op, cfg):
    """`estimate_cost`, `compute_cycles` and `dram_traffic` of every feasible
    candidate equal its row of one flat pass, with the same field types."""
    plans = enumerate_tilings(op, cfg)
    rows = evaluate_tilings(op, cfg, *np.array([p.as_tuple() for p in plans]).T)
    cost_area = area(cfg, CostConstants().area)
    for i, plan in enumerate(plans):
        cost = estimate_cost(op, cfg, plan)
        expected = CostBreakdown(float(rows["energy_mj"][i]), float(rows["latency_ms"][i]),
                                 int(rows["cycles"][i]), float(rows["dram_bytes"][i]), cost_area)
        assert [(type(v), repr(v)) for v in astuple(cost)] == [
            (type(v), repr(v)) for v in astuple(expected)]
        assert type(compute_cycles(op, cfg, plan)) is int
        assert compute_cycles(op, cfg, plan) == rows["compute_cycles"][i]
        traffic = dram_traffic(op, cfg, plan)
        for f in fields(traffic):
            value = getattr(traffic, f.name)
            row = rows["dram_bytes" if f.name == "total_bytes" else f.name][i]
            assert type(value) is type(row.item()) and repr(value) == repr(row.item()), f.name
