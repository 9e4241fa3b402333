import itertools
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acceldse import (
    AcceleratorConfig,
    AreaConstants,
    CostConstants,
    Dataflow,
    NoFeasibleTiling,
    OperatorDescriptor,
    SubnetDescriptor,
    TilingPlan,
    all_loop_orders,
    area,
    batch_search,
    dram_traffic,
    enumerate_tilings,
    estimate_cost,
    hw_cost,
    map_subnet,
    oracle_search,
    tile_size_choices,
)
from acceldse.accel import CACHE_CHOICES_KB, PE_CHOICES
from acceldse.costmodel import (BREAKDOWN_FIELDS, CostBreakdown, CostWeights, _grid_table,
                                evaluate_tilings, fits_caches_mask, subnet_total)
from acceldse.tiling import _objective
from conftest import (REF_OP, compute_cycles, make_small_subnet, make_synthetic_subnet_22,
                      operator_rows, range_constants, range_operators, segment_argmin)

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


@st.composite
def operator_sets(draw):
    """1-30 operators of the operator range, repeats included."""
    pool = draw(st.lists(range_operators(), min_size=1, max_size=30))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))


# A 724-wide kernel has no feasible tiling at caches of 496 KB or less.
NO_FIT = OperatorDescriptor(724, 1, 1, 1, 1, 8, 8)


@settings(PROPERTY, max_examples=40)
@given(operator_sets(), configs, st.just(CostConstants()) | range_constants,
       st.just(CostWeights()) | st.builds(CostWeights, in_range, in_range, in_range))
@example([OperatorDescriptor(3, 1, 8, 16, 32, 8, 8), NO_FIT, NO_FIT],
         AcceleratorConfig(16, 16, 496, 496, 496, Dataflow.WS, "BIHWO"),
         CostConstants(), CostWeights())
@example([*make_synthetic_subnet_22(), *make_small_subnet(), *make_small_subnet(), REF_OP, REF_OP],
         CFG, CostConstants(e_dram_pj_per_byte=97.0), CostWeights(0.0, 1.0, 0.0))
def test_grid_evaluation_matches_flat(ops, cfg, constants, weights):
    """One flat pass over the operator columns of a set of operators equals
    each operator's own grid outputs and fit mask, broadcast and raveled,
    bit for bit and dtypes included.  A first-minimum segment argmin of the
    masked objective picks `map_subnet`'s winners, whose rows are its
    breakdowns, or finds the first operator it refuses."""
    columns, tiles, starts = operator_rows(ops)
    rows = evaluate_tilings(columns, cfg, *tiles, constants=constants)
    rows["fits"] = fits_caches_mask(columns, cfg, *tiles)
    assert len(rows) == 14
    for op, segment in zip(ops, np.split(np.arange(tiles[0].size), starts[1:])):
        grid = _grid_table(op).grid
        shape = np.broadcast_shapes(*(g.shape for g in grid))
        on_grid = evaluate_tilings(op, cfg, *grid, constants=constants)
        on_grid["fits"] = fits_caches_mask(op, cfg, *grid)
        assert on_grid.keys() == rows.keys()
        for name, values in on_grid.items():
            raveled = np.broadcast_to(values, shape).ravel()
            assert raveled.dtype == rows[name].dtype, name
            assert raveled.tobytes() == rows[name][segment].tobytes(), name

    costs = np.where(rows["fits"], _objective(rows["energy_mj"], rows["latency_ms"], weights),
                     np.inf)
    best = segment_argmin(costs, starts)
    winners = starts + best
    subnet = SubnetDescriptor(tuple(ops))
    no_fit = np.flatnonzero(~np.isfinite(costs[winners]))
    if no_fit.size:
        with pytest.raises(NoFeasibleTiling) as excinfo:
            map_subnet(subnet, cfg, constants, weights)
        assert excinfo.value.op_index == no_fit[0]
        return
    mapping = map_subnet(subnet, cfg, constants, weights)
    area_mm2 = area(cfg, constants.area)
    n_feasible = np.add.reduceat(rows["fits"], starts, dtype=np.int64)
    breakdowns = []
    for op, result, offset, row, fits in zip(ops, mapping.per_op, best, winners, n_feasible):
        assert (result.best, result.n_feasible) == (_grid_table(op).plan(offset), fits)
        cost = CostBreakdown(*(rows[name][row].item() for name in BREAKDOWN_FIELDS[:-1]),
                             area_mm2)
        assert repr(cost) == repr(result.cost)
        breakdowns.append(cost)
    assert subnet_total(breakdowns, area_mm2) == mapping.total


@settings(PROPERTY, max_examples=40)
@given(range_operators(), configs, range_constants, st.data())
def test_scalar_views_match_flat_rows(op, cfg, constants, data):
    """Across the operator and constants ranges, `evaluate_tilings` and
    `fits_caches_mask` at one candidate, given plain ints or `np.int64`s,
    equal its row of one flat pass in all 14 outputs, as the Python `int`,
    `float` or `bool` of the row; and `estimate_cost`, `compute_cycles` and
    `dram_traffic` of a feasible candidate, with the same field types."""
    table = _grid_table(op)
    flat = [cell.ravel() for cell in table.cells]
    rows = evaluate_tilings(op, cfg, *flat, constants=constants)
    rows["fits"] = fits_caches_mask(op, cfg, *flat)
    feasible = np.flatnonzero(rows["fits"]).tolist()
    anywhere = st.integers(0, flat[0].size - 1)
    picks = data.draw(st.lists(st.sampled_from(feasible) | anywhere if feasible else anywhere,
                               min_size=1, max_size=6))
    for i in picks:
        plan = table.plan(i)
        expected = {name: values[i].item() for name, values in rows.items()}
        for kind in (int, np.int64):
            tile = [kind(t) for t in plan.as_tuple()]
            one = evaluate_tilings(op, cfg, *tile, constants=constants)
            one["fits"] = fits_caches_mask(op, cfg, *tile)
            assert len(one) == 14 and one.keys() == expected.keys()
            assert [(type(v), repr(v)) for v in one.values()] == [
                (type(v), repr(v)) for v in expected.values()], kind
        if not expected["fits"]:
            continue
        cost = estimate_cost(op, cfg, plan, constants)
        assert [(type(v), repr(v)) for v in astuple(cost)] == [
            (type(v), repr(v)) for v in (expected["energy_mj"], expected["latency_ms"],
                                         expected["cycles"], expected["dram_bytes"],
                                         area(cfg, constants.area))]
        assert type(compute_cycles(op, cfg, plan)) is int
        assert compute_cycles(op, cfg, plan) == expected["compute_cycles"]
        traffic = dram_traffic(op, cfg, plan)  # bytes and fetches no constant changes
        for f in fields(traffic):
            value = getattr(traffic, f.name)
            row = expected["dram_bytes" if f.name == "total_bytes" else f.name]
            assert type(value) is type(row) and repr(value) == repr(row), f.name


def product_walk(op, cfg):
    """The feasible tilings by a pure-Python walk, independent of the grid
    table: every combination of `tile_size_choices`, t_oc outermost and t_ow
    innermost, kept where the scalar `fits_caches_mask` holds; and the
    number of combinations."""
    dims = (op.out_channels, op.in_channels, op.out_rows, op.out_rows)
    combinations = list(itertools.product(*map(tile_size_choices, dims)))
    plans = [TilingPlan(t_oc, t_ic, t_ow, t_oh) for t_oc, t_ic, t_oh, t_ow in combinations
             if fits_caches_mask(op, cfg, *map(np.int64, (t_oc, t_ic, t_ow, t_oh)))]
    return plans, len(combinations)


def test_enumeration_order_is_the_product_walk_reference_op(ref_op):
    cfg = AcceleratorConfig(16, 16, 96, 96, 96, Dataflow.WS, "BIHWO")
    plans, n_candidates = product_walk(ref_op, cfg)
    assert 0 < len(plans) < n_candidates == 1936
    assert enumerate_tilings(ref_op, cfg) == plans


# Wide channels and few rows: masks of every kind, at most 11 * 11 * 5 * 5
# candidates to walk one by one.
walk_operators = st.builds(
    OperatorDescriptor,
    kernel=st.integers(1, 11),
    stride=st.integers(1, 4),
    out_rows=st.integers(1, 16),
    in_channels=st.integers(1, 2000),
    out_channels=st.integers(1, 2000),
    act_bits=st.sampled_from([2, 4, 8]),
    wgt_bits=st.sampled_from([2, 4, 8]),
)


@settings(PROPERTY, max_examples=30)
@given(walk_operators, configs)
def test_enumeration_order_is_the_product_walk(op, cfg):
    """Exact: where some but not all candidates fit, `enumerate_tilings`
    lists the feasible ones in (t_oc, t_ic, t_oh, t_ow) lexicographic order,
    the order ties break in."""
    plans, n_candidates = product_walk(op, cfg)
    assume(0 < len(plans) < n_candidates)
    assert enumerate_tilings(op, cfg) == plans
