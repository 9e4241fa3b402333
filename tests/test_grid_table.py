"""The per-operator grid table: closed form on the grid against the loop-nest
walker, the cache-growth law, and a cache no caller can corrupt."""

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
    TilingPlan,
    all_loop_orders,
    batch_search,
    hw_cost,
)
from acceldse.accel import CACHE_CHOICES_KB, PE_CHOICES
from acceldse.costmodel import _grid_table, evaluate_tilings, fits_caches_mask
from conftest import PROPERTY
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


def grid_outputs(op, cfg):
    """`evaluate_tilings` and `fits_caches_mask` on the operator's own grid."""
    t_oc, t_ic, t_oh, t_ow = _grid_table(op).grid
    out = evaluate_tilings(op, cfg, t_oc, t_ic, t_ow, t_oh)
    out["fits"] = fits_caches_mask(op, cfg, t_oc, t_ic, t_ow, t_oh)
    return out


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
        t_oc, t_ic, t_oh, t_ow = (int(np.broadcast_to(g, shape)[cell]) for g in grid)
        walked = walk_traffic(op, cfg, TilingPlan(t_oc, t_ic, t_ow, t_oh))
        for operand in ("act", "wgt", "out"):
            assert out[f"{operand}_fetches"][cell] == walked["events"][operand], (operand, cell)
            assert out[f"{operand}_bytes"][cell] == walked[f"{operand}_bytes"], (operand, cell)
        assert out["out_unique_tiles"][cell] == walked["unique"]["out"], cell


def tiling_objective(op, cfg, weights):
    """`batch_search`'s optimal weighted objective and feasible count; an
    operator with no feasible tiling scores +inf with none feasible."""
    try:
        result = batch_search(op, cfg, weights=weights)
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
    for name, values in first.items():
        assert (again[name].dtype, again[name].shape) == (values.dtype, values.shape), name
        assert again[name].tobytes() == values.tobytes(), name
