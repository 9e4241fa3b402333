"""Closed-form DRAM re-fetch rule vs the brute-force loop-nest walker."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acceldse import (
    AcceleratorConfig,
    Dataflow,
    OperatorDescriptor,
    TilingPlan,
    all_loop_orders,
    dram_traffic,
)
from acceldse.costmodel import TILE_SIZES, _grid_table, evaluate_tilings
from conftest import largest_in_range
from nestwalk import walk_traffic

CACHES = dict(act_cache_kb=528, wgt_cache_kb=528, out_cache_kb=528)


def assert_matches(op, cfg, tile):
    closed = dram_traffic(op, cfg, tile)
    walked = walk_traffic(op, cfg, tile)
    assert closed.act_fetches == walked["events"]["act"], (cfg.loop_order, cfg.dataflow)
    assert closed.wgt_fetches == walked["events"]["wgt"], (cfg.loop_order, cfg.dataflow)
    assert closed.out_fetches == walked["events"]["out"], (cfg.loop_order, cfg.dataflow)
    assert closed.out_unique_tiles == walked["unique"]["out"]
    assert closed.act_bytes == walked["act_bytes"]
    assert closed.wgt_bytes == walked["wgt_bytes"]
    assert closed.out_bytes == walked["out_bytes"]


def test_all_orders_all_dataflows_on_two_tile_toy():
    op = OperatorDescriptor(1, 1, 4, 4, 4, 8, 8)
    tile = TilingPlan(2, 2, 2, 2)
    for order in all_loop_orders():
        for dataflow in Dataflow:
            assert_matches(op, AcceleratorConfig(8, 8, dataflow=dataflow, loop_order=order, **CACHES), tile)


def test_random_small_instances():
    # up to 4 tiles per dimension, including degenerate single-tile loops,
    # strides above 1, and larger kernels
    rng = np.random.default_rng(11)
    orders = all_loop_orders()
    dataflows = list(Dataflow)
    for _ in range(60):
        op = OperatorDescriptor(
            kernel=int(rng.choice([1, 3, 5])),
            stride=int(rng.integers(1, 3)),
            out_rows=int(rng.integers(1, 9)),
            in_channels=int(rng.integers(1, 13)),
            out_channels=int(rng.integers(1, 13)),
            act_bits=int(rng.choice([2, 4, 8])),
            wgt_bits=int(rng.choice([2, 4, 8])),
        )
        tile = TilingPlan(*(int(2 ** rng.integers(0, 3)) for _ in range(4)))
        cfg = AcceleratorConfig(
            8, 8,
            dataflow=dataflows[int(rng.integers(3))],
            loop_order=orders[int(rng.integers(120))],
            **CACHES,
        )
        assert_matches(op, cfg, tile)


# Tiled extents stay at most 4 * 1024, so tiles of up to 1024 leave at most
# four tiles per loop and the walk stays short; kernel and stride are not
# tiled and may grow until the operator range stops them.
EDGE_CAPS = {"kernel": 2**40, "stride": 2**40, "out_rows": 4096, "in_channels": 4096,
             "out_channels": 4096}


@st.composite
def range_edge_cases(draw):
    """An operator with one field at the largest value the operator range
    admits, a tiling with at most four tiles per loop, and a config."""
    shape = {"kernel": draw(st.integers(1, 16)), "stride": draw(st.integers(1, 4)),
             **{name: draw(st.integers(1, 4096))
                for name in ("out_rows", "in_channels", "out_channels")},
             "act_bits": draw(st.sampled_from([2, 4, 8])),
             "wgt_bits": draw(st.sampled_from([2, 4, 8]))}
    field = draw(st.sampled_from(sorted(EDGE_CAPS)))
    shape[field] = largest_in_range(shape, field, EDGE_CAPS[field])
    assume(shape[field] > 0)
    op = OperatorDescriptor(**shape)
    tile = TilingPlan(*(draw(st.sampled_from([t for t in TILE_SIZES if -(-extent // t) <= 4]))
                        for extent in (op.out_channels, op.in_channels, op.out_rows,
                                       op.out_rows)))
    cfg = AcceleratorConfig(8, 8, dataflow=draw(st.sampled_from(list(Dataflow))),
                            loop_order=draw(st.sampled_from(all_loop_orders())), **CACHES)
    return op, cfg, tile


def at_largest(field: str, **shape) -> OperatorDescriptor:
    return OperatorDescriptor(**shape, **{field: largest_in_range(shape, field, EDGE_CAPS[field])})


# The two corners the walk can reach.  Activations re-fetched once per
# output-channel tile, the stride at its largest: 2**52.98 bits moved against
# the range's DRAM bound of 2**53.  Weights re-fetched once per output-row
# and -column tile, the kernel at the largest the padded-MAC bound admits:
# 2**49.99 bits.
ACT_CORNER = (at_largest("stride", kernel=1, out_rows=1, in_channels=1025, out_channels=4,
                         act_bits=8, wgt_bits=2),
              AcceleratorConfig(8, 8, dataflow=Dataflow.WS, loop_order="BOIHW", **CACHES),
              TilingPlan(t_oc=1, t_ic=1024, t_ow=1024, t_oh=1024))
WGT_CORNER = (at_largest("kernel", stride=1, out_rows=4, in_channels=1025, out_channels=1,
                         act_bits=2, wgt_bits=8),
              AcceleratorConfig(8, 8, dataflow=Dataflow.OS, loop_order="BHWIO", **CACHES),
              TilingPlan(t_oc=1024, t_ic=1024, t_ow=1, t_oh=1))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(range_edge_cases())
@example(ACT_CORNER)
@example(WGT_CORNER)
def test_walker_matches_at_range_edges(case):
    """Where the operator range stops one field, fetch counts and bytes of
    one tiling equal the walk exactly, and so do those of its cell of the
    candidate grid if it is a candidate.  The walker counts in Python
    integers and exact fractions."""
    op, cfg, tile = case
    walked = walk_traffic(op, cfg, tile)
    walked["dram_bytes"] = sum(walked[f"{operand}_bytes"] for operand in ("act", "wgt", "out"))
    outputs = [evaluate_tilings(op, cfg, *map(np.int64, tile.as_tuple()))]
    grid = _grid_table(op).grid
    # the tile's cell of the grid, empty if the tile is not a candidate
    cell = np.logical_and.reduce(np.broadcast_arrays(*map(np.equal, grid, tile.as_tuple())))
    if cell.any():
        on_grid = evaluate_tilings(op, cfg, *grid)
        outputs.append({name: np.broadcast_to(values, cell.shape)[cell].item()
                        for name, values in on_grid.items()})
    for out in outputs:
        for operand in ("act", "wgt", "out"):
            assert int(out[f"{operand}_fetches"]) == walked["events"][operand], operand
            assert float(out[f"{operand}_bytes"]) == walked[f"{operand}_bytes"], operand
        assert float(out["dram_bytes"]) == walked["dram_bytes"]
