"""The per-operator grid table: closed form on the grid against the loop-nest
walker, the cache-growth law, a cache no caller can corrupt, the field
separability of the cost stages, the monotonicity of one tiling's cost and of
the optimum, and the stage memo's one slot per stage."""

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acceldse import (
    AcceleratorConfig,
    CostWeights,
    Dataflow,
    NoFeasibleTiling,
    OperatorDescriptor,
    ParamSpace,
    TilingPlan,
    all_loop_orders,
    batch_search,
    hw_cost,
)
from acceldse import costmodel
from acceldse.accel import CACHE_CHOICES_KB, PE_CHOICES
from acceldse.costmodel import (TILE_SIZES, CostConstants, _grid_table, evaluate_tilings,
                                fits_caches_mask)
from conftest import PROPERTY, REF_CFG, REF_OP, operator_rows
from nestwalk import walk_traffic

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
# Every extent at most 4, so even the 1-wide tiles of the grid give at most
# 4 tiles per dimension and the walker stays fast at every cell.
walkable_operators = st.builds(
    OperatorDescriptor,
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    out_rows=st.integers(1, 4),
    in_channels=st.integers(1, 4),
    out_channels=st.integers(1, 4),
    act_bits=st.sampled_from([2, 4, 8]),
    wgt_bits=st.sampled_from([2, 4, 8]),
)
# Large enough that small caches leave some operators without a feasible
# tiling; grid evaluation is cheap at any size.
operators = st.builds(
    OperatorDescriptor,
    kernel=st.integers(1, 11),
    stride=st.integers(1, 4),
    out_rows=st.integers(1, 300),
    in_channels=st.integers(1, 2000),
    out_channels=st.integers(1, 2000),
    act_bits=st.sampled_from([2, 4, 8]),
    wgt_bits=st.sampled_from([2, 4, 8]),
)
CACHES = ("act_cache_kb", "wgt_cache_kb", "out_cache_kb")


def grid_outputs(op, cfg, constants=None):
    """`evaluate_tilings` and `fits_caches_mask` on the operator's own grid."""
    grid = _grid_table(op).grid
    out = evaluate_tilings(op, cfg, *grid, constants=constants)
    out["fits"] = fits_caches_mask(op, cfg, *grid)
    return out


def fresh_outputs(op, cfg, constants=None):
    """`grid_outputs` evaluated afresh: on copies of the operator's grid, the
    same open grid but not the table's arrays, so neither the table nor its
    stage memo is read."""
    grid = [g.copy() for g in _grid_table(op).grid]
    out = evaluate_tilings(op, cfg, *grid, constants=constants)
    out["fits"] = fits_caches_mask(op, cfg, *grid)
    return out


def assert_same_bits(got, want, names):
    for name in names:
        assert (got[name].dtype, got[name].shape) == (want[name].dtype, want[name].shape), name
        assert got[name].tobytes() == want[name].tobytes(), name


def table_arrays(value):
    """Every array the table holds, through its tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from table_arrays(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from table_arrays(item)


@settings(PROPERTY, max_examples=60)
@given(walkable_operators, configs)
@example(OperatorDescriptor(3, 2, 4, 4, 4, 8, 8),
         AcceleratorConfig(8, 8, 64, 64, 64, Dataflow.WS, "WHOIB"))
def test_grid_matches_loop_nest_walker(op, cfg):
    """At every cell of the candidate grid the closed form equals the
    brute-force walk: fetch counts, distinct output tiles and bytes."""
    grid = _grid_table(op).grid
    shape = np.broadcast_shapes(*(g.shape for g in grid))
    out = {name: np.broadcast_to(values, shape) for name, values in grid_outputs(op, cfg).items()}
    for cell in np.ndindex(shape):
        walked = walk_traffic(op, cfg, TilingPlan(*(int(np.broadcast_to(g, shape)[cell])
                                                    for g in grid)))
        for operand in ("act", "wgt", "out"):
            assert out[f"{operand}_fetches"][cell] == walked["events"][operand], (operand, cell)
            assert out[f"{operand}_bytes"][cell] == walked[f"{operand}_bytes"], (operand, cell)
        assert out["out_unique_tiles"][cell] == walked["unique"]["out"], cell


def tiling_objective(op, cfg, weights, constants=None):
    """`batch_search`'s optimal weighted objective and feasible count; an
    operator with no feasible tiling scores +inf with none feasible."""
    try:
        result = batch_search(op, cfg, constants, weights)
    except NoFeasibleTiling:
        return float("inf"), 0
    # batch_search weighs energy and latency only: area does not depend on the tiling
    return hw_cost(result.cost, CostWeights(weights.lambda_e, weights.lambda_l, 0.0)), result.n_feasible


@settings(PROPERTY, max_examples=80)
@given(operators, configs, st.sampled_from([*CACHES, "all"]), st.integers(1, 29),
       st.sampled_from([0.0, 0.33, 1.0, 7.5]), st.sampled_from([0.0, 0.33, 1.0, 7.5]))
@example(OperatorDescriptor(724, 1, 1, 1, 1, 8, 8),
         AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIHWO"), "all", 29, 0.33, 0.33)
@example(OperatorDescriptor(5, 1, 7, 552, 552, 8, 8),
         AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.OS, "BIHWO"), "wgt_cache_kb", 1, 1.0, 0.0)
def test_growing_caches_never_worsens_the_optimum(op, cfg, grown, steps, lambda_e, lambda_l):
    """Growing one cache, or all three, by `steps` grid steps (capped at the
    largest size) only adds feasible tilings, so the optimum can only fall."""
    weights = CostWeights(lambda_e, lambda_l, 0.33)
    sizes = {name: CACHE_CHOICES_KB[min(CACHE_CHOICES_KB.index(getattr(cfg, name)) + steps,
                                        len(CACHE_CHOICES_KB) - 1)]
             for name in (CACHES if grown == "all" else (grown,))}
    bigger = AcceleratorConfig(**{**cfg.to_dict(), **sizes})
    objective, n_feasible = tiling_objective(op, cfg, weights)
    grown_objective, grown_feasible = tiling_objective(op, bigger, weights)
    assert grown_objective <= objective
    assert grown_feasible >= n_feasible


@settings(PROPERTY, max_examples=200)
@given(operators, configs, st.sampled_from(["dram_bw_bytes_per_cycle", "act_bits", "wgt_bits"]),
       st.sampled_from([0.0, 0.33, 1.0, 7.5]), st.sampled_from([0.0, 0.33, 1.0, 7.5]), st.data())
def test_more_bandwidth_or_fewer_bits_never_worsens_the_optimum(op, cfg, changed, lambda_e,
                                                                lambda_l, data):
    """Inequality, exact: an operator's optimum, the least `λe·energy +
    λl·latency` over its feasible tilings, does not increase as
    `dram_bw_bytes_per_cycle` grows, nor as `act_bits` or `wgt_bits` drops
    within (2, 4, 8).  An operator with no feasible tiling before the change
    scores +inf, so such an example passes whatever the change gives."""
    weights = CostWeights(lambda_e, lambda_l, 0.33)
    if changed == "dram_bw_bytes_per_cycle":
        bw = st.floats(2.0**-13, 2.0**64)
        low, high = sorted(data.draw(st.tuples(bw, bw)))
        before = tiling_objective(op, cfg, weights, CostConstants(dram_bw_bytes_per_cycle=low))
        after = tiling_objective(op, cfg, weights, CostConstants(dram_bw_bytes_per_cycle=high))
    else:
        fewer = data.draw(st.sampled_from([b for b in (2, 4, 8) if b <= getattr(op, changed)]))
        before = tiling_objective(op, cfg, weights)
        after = tiling_objective(replace(op, **{changed: fewer}), cfg, weights)
    assert after[0] <= before[0]


@settings(PROPERTY, max_examples=25)
@given(operators, configs, configs)
def test_grid_table_cannot_be_corrupted(op, cfg_a, cfg_b):
    """The table's arrays, and every output that is one of them, are
    read-only; scribbling over every writable output of another config
    leaves a later evaluation unchanged."""
    held = list(table_arrays(_grid_table(op)))
    for array in held:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0

    first = grid_outputs(op, cfg_a)
    shared = [name for name, values in first.items()
              if any(np.shares_memory(values, array) for array in held)]
    assert "out_unique_tiles" in shared
    for name in shared:
        with pytest.raises(ValueError):
            first[name].flat[0] = 0

    for values in grid_outputs(op, cfg_b).values():
        if values.flags.writeable:
            values[...] = 0
    again = grid_outputs(op, cfg_a)
    assert again.keys() == first.keys()
    assert_same_bits(again, first, first)

    # every stage has now been asked at least twice, so its slot holds
    # cfg_a's outputs and this evaluation reads them from the memo
    served = grid_outputs(op, cfg_a)
    assert_same_bits(served, first, first)
    memo = list(table_arrays(_grid_table(op).memo))
    for name, values in served.items():
        if name not in ("cycles", "latency_ms"):  # the combine stage's, fresh per call
            assert any(np.shares_memory(values, array) for array in memo + held), name
            with pytest.raises(ValueError):
                values.flat[0] = 0


TRAFFIC = ("mem_cycles", "energy_mj", "dram_bytes", "act_bytes", "wgt_bytes", "out_bytes",
           "act_fetches", "wgt_fetches", "out_fetches", "out_unique_tiles")
SEPARABLE = {
    # changed config fields: the outputs that must not move, bit for bit
    CACHES: ("cycles", "compute_cycles", "latency_ms", *TRAFFIC),
    ("pe_x",): (*TRAFFIC, "fits"),
    ("pe_y",): (*TRAFFIC, "fits"),
    ("loop_order",): ("compute_cycles", "fits"),
}


@settings(PROPERTY, max_examples=150)
@given(operators, configs, configs, st.sampled_from(list(SEPARABLE)))
@example(OperatorDescriptor(5, 1, 7, 552, 552, 8, 8),
         AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIHWO"),
         AcceleratorConfig(9, 31, 512, 128, 64, Dataflow.OS, "OWHIB"), CACHES)
def test_a_field_change_moves_only_the_stages_that_read_it(op, cfg, other, changed):
    """Field separability, exact: a change to the cache sizes leaves every
    `evaluate_tilings` output unchanged; one to `pe_x` or `pe_y` leaves the
    fetches, bytes, memory cycles, energy and fit mask unchanged; one to the
    loop order leaves the compute cycles and the fit mask unchanged.
    Evaluated afresh, so the law holds of the model, not of the memo."""
    moved = replace(cfg, **{name: getattr(other, name) for name in changed})
    assert_same_bits(fresh_outputs(op, moved), fresh_outputs(op, cfg), SEPARABLE[changed])


tiles = st.builds(TilingPlan, *[st.sampled_from(TILE_SIZES)] * 4)


def on_grid_and_scalars(op, cfg, tile, constants=None):
    """The outputs on the operator's memoized grid, and at one tiling as
    int64 scalars."""
    return (grid_outputs(op, cfg, constants),
            evaluate_tilings(op, cfg, *map(np.int64, tile.as_tuple()), constants=constants))


@settings(PROPERTY, max_examples=60)
@given(operators, configs, st.sampled_from(("pe_x", "pe_y")), st.sampled_from(PE_CHOICES), tiles)
def test_more_pes_never_add_compute_cycles(op, cfg, name, value, tile):
    """Inequality, exact: compute cycles do not increase as `pe_x` or `pe_y`
    grows, the dataflow unchanged."""
    larger = replace(cfg, **{name: max(value, getattr(cfg, name))})
    for fewer, more in zip(on_grid_and_scalars(op, cfg, tile),
                           on_grid_and_scalars(op, larger, tile)):
        assert np.all(more["compute_cycles"] <= fewer["compute_cycles"])


# Per cost constant, the output that moves with it and the way it moves as
# the constant grows: -1 never up, +1 never down.
CONSTANT_LAWS = {
    "dram_bw_bytes_per_cycle": ("mem_cycles", -1),
    "f_clk_mhz": ("latency_ms", -1),
    "e_mac_pj": ("energy_mj", 1),
    "e_sram_pj_per_byte": ("energy_mj", 1),
    "e_dram_pj_per_byte": ("energy_mj", 1),
}


@pytest.mark.parametrize("name", CONSTANT_LAWS)
@settings(PROPERTY, max_examples=40)
@given(op=operators, cfg=configs, tile=tiles, data=st.data())
def test_a_growing_constant_moves_its_output_one_way(name, op, cfg, tile, data):
    """Inequalities, exact, for two values of one constant across its range:
    memory cycles do not increase as the DRAM bandwidth grows, latency does
    not increase as the clock grows, and energy does not decrease as any
    energy constant grows."""
    output, way = CONSTANT_LAWS[name]
    values = st.floats(2.0**-13 if name == "dram_bw_bytes_per_cycle" else 2.0**-64, 2.0**64)
    low, high = sorted(data.draw(st.tuples(values, values)))
    at_low, at_high = (on_grid_and_scalars(op, cfg, tile, replace(CostConstants(), **{name: v}))
                       for v in (low, high))
    for before, after in zip(at_low, at_high):
        if way > 0:
            assert np.all(before[output] <= after[output])
        else:
            assert np.all(after[output] <= before[output])


CONFIG_FIELDS = tuple(f.name for f in fields(AcceleratorConfig))
DOMAINS = dict(zip(CONFIG_FIELDS, ParamSpace().candidates))  # the full space
# the default constants, an equal but distinct instance, and other constants
CONSTANTS = (CostConstants(), CostConstants(),
             CostConstants(dram_bw_bytes_per_cycle=8.0, e_mac_pj=0.5, e_sram_pj_per_byte=2.0,
                           e_dram_pj_per_byte=100.0))


@settings(PROPERTY, max_examples=50)
@given(operators, configs,
       st.lists(st.tuples(st.sampled_from(CONFIG_FIELDS), st.integers(0, 2**16),
                          st.integers(0, len(CONSTANTS) - 1)), min_size=1, max_size=12))
def test_memoized_grid_outputs_equal_a_fresh_evaluation(op, cfg, steps):
    """Exact: along a sequence of configs that each change one field of the
    last, as annealing does, and of constants, every grid output read
    through the stage memo equals a fresh evaluation bit for bit."""
    _grid_table(op).memo.clear()
    for name, index, which in [(None, 0, 0), *steps]:
        if name is not None:
            cfg = replace(cfg, **{name: DOMAINS[name][index % len(DOMAINS[name])]})
        got = grid_outputs(op, cfg, CONSTANTS[which])
        assert_same_bits(got, fresh_outputs(op, cfg, CONSTANTS[which]), got)


STAGES = {"fit", "compute", "energy_base", "traffic"}


def test_an_operator_costed_once_holds_no_stage_arrays():
    """The first request of each stage keeps its key but stores nothing, so
    a one-shot operator (`cost` on many distinct operators) costs no memo."""
    _grid_table.cache_clear()
    batch_search(REF_OP, REF_CFG)
    memo = _grid_table(REF_OP).memo
    assert set(memo) == STAGES
    assert all(outputs is None for _, outputs in memo.values())
    assert not list(table_arrays(memo))


def test_flat_calls_build_no_grid_table():
    """Flat rows, of a descriptor or of operator columns, neither build nor
    read an operator's table: `_grid_table` is not even asked."""
    columns, tiles, _ = operator_rows([REF_OP, REF_OP])
    flat = [np.array([1, 2, 4, 64], dtype=np.int64)] * 4
    before = _grid_table.cache_info()
    for operator, tile in ((OperatorDescriptor(3, 1, 9, 21, 37, 4, 8), flat), (columns, tiles)):
        evaluate_tilings(operator, REF_CFG, *tile)
        fits_caches_mask(operator, REF_CFG, *tile)
    assert _grid_table.cache_info() == before


def test_each_stage_keeps_one_slot():
    """Across configs each stage holds one entry, the last key it was asked
    for, with read-only outputs; a repeated key is served from it."""
    table = _grid_table(REF_OP)
    table.memo.clear()
    cfg = REF_CFG
    for name, value in (("pe_x", 9), ("act_cache_kb", 128), ("loop_order", "BOIHW"),
                        ("dataflow", Dataflow.OS), ("pe_x", 16)):
        cfg = replace(cfg, **{name: value})
        batch_search(REF_OP, cfg)
        assert set(table.memo) <= STAGES
    assert set(table.memo) == STAGES
    assert table.memo["fit"][0] == (cfg.act_cache_kb, cfg.wgt_cache_kb, cfg.out_cache_kb)
    assert table.memo["compute"][0] == (cfg.pe_x, cfg.pe_y, cfg.dataflow)
    assert table.memo["traffic"][0] == (cfg.dataflow, cfg.loop_order, CostConstants())
    assert all(outputs is not None for _, outputs in table.memo.values())
    assert not any(array.flags.writeable for array in table_arrays(table.memo))

    out = grid_outputs(REF_OP, cfg)
    assert out["fits"] is table.memo["fit"][1]
    assert out["compute_cycles"] is table.memo["compute"][1]
    assert out["energy_mj"] is table.memo["traffic"][1]["energy_mj"]


# The config fields each stage function reads: its key.
STAGE_KEYS = {
    costmodel._fit_mask: {"act_cache_kb", "wgt_cache_kb", "out_cache_kb"},
    costmodel._compute_cycles: {"pe_x", "pe_y", "dataflow"},
    costmodel._spatial_dims: {"dataflow"},
    costmodel._refetch_factors: {"dataflow", "loop_order"},
    costmodel._energy_base: set(),
    costmodel._traffic: {"dataflow", "loop_order"},
    costmodel._combine: set(),
}


def test_no_stage_function_takes_the_config():
    """A stage takes the fields of its key, never the config, so it cannot
    read a field its memo key leaves out."""
    for stage, key in STAGE_KEYS.items():
        params = inspect.signature(stage).parameters
        assert "cfg" not in params, stage.__name__
        assert not any(p.annotation in (AcceleratorConfig, "AcceleratorConfig")
                       for p in params.values()), stage.__name__
        assert set(CONFIG_FIELDS) & set(params) == key, stage.__name__
