import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from acceldse import (
    AcceleratorConfig,
    AreaConstants,
    CostConstants,
    Dataflow,
    OperatorDescriptor,
    ParamSpace,
    SubnetDescriptor,
    TilingPlan,
)
from acceldse.costmodel import _grid_table, evaluate_tilings
from acceldse.documents import Rows
from acceldse.workload import OPERATOR_FIELDS, encode_operator

# Derandomized, so every run draws the same examples.
PROPERTY = settings(deadline=None, database=None, derandomize=True)

# The 5x5/stride-1/7x7/552-channel reference operator and its 16x16-PE,
# 3x384KB accelerator (weight stationary, output-channel loop innermost),
# used across the suite as the canonical large workload.
REF_OP = OperatorDescriptor(
    kernel=5, stride=1, out_rows=7, in_channels=552, out_channels=552, act_bits=8, wgt_bits=8
)
REF_CFG = AcceleratorConfig(
    pe_x=16, pe_y=16, act_cache_kb=384, wgt_cache_kb=384, out_cache_kb=384,
    dataflow=Dataflow.WS, loop_order="BIHWO",
)


def allocation_peak(call) -> int:
    """The `tracemalloc` peak, in bytes, of running `call()`."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def plain(doc):
    """`doc` with each `Rows` in it, its rows read, expanded to the list of
    its objects: the document `json.dumps` can encode."""
    if type(doc) is Rows:
        return [_row_object(doc.layout, iter(row)) for row in doc.rows]
    if isinstance(doc, dict):
        return {key: plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(value) for value in doc]
    return doc


def _row_object(layout, leaves) -> dict:
    """The object of `layout` that takes its leaves, depth first, from the iterator `leaves`."""
    obj = {}
    for field in layout:
        if type(field) is str:
            obj[field] = next(leaves)
        else:
            obj[field[0]] = _row_object(field[1], leaves)
    return obj


@pytest.fixture
def ref_op():
    return REF_OP


@pytest.fixture
def ref_cfg():
    return REF_CFG


def compute_cycles(op: OperatorDescriptor, cfg: AcceleratorConfig, tile: TilingPlan) -> int:
    """Compute-side cycle count of one tiling (no DRAM term): the
    `compute_cycles` row of `evaluate_tilings` at that tiling."""
    return int(evaluate_tilings(op, cfg, *map(np.int64, tile.as_tuple()))["compute_cycles"])


def choices_of(space: ParamSpace, cfg: AcceleratorConfig) -> tuple[int, ...]:
    """Per-field candidate indices of `cfg` in `space`; the inverse of
    `ParamSpace.config_at`."""
    return tuple(values.index(value) for values, value in zip(space.candidates, cfg.as_tuple()))


def largest_in_range(shape: dict, field: str, cap: int) -> int:
    """The largest value of `field`, at most `cap`, that keeps the operator
    of `shape` in the operator range; 0 if none does.  The range's bounds
    grow with every field, so the values in range form a prefix."""
    def in_range(value):
        try:
            OperatorDescriptor(**{**shape, field: value})
        except ValueError:
            return False
        return True

    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if in_range(mid) else (lo, mid - 1)
    return lo


SHAPE_FIELDS = ("kernel", "stride", "out_rows", "in_channels", "out_channels")


@st.composite
def range_operators(draw):
    """Any operator of the operator range: each shape field, in a drawn
    order, up to the largest value the fields drawn before it admit."""
    shape = {**dict.fromkeys(SHAPE_FIELDS, 1),
             "act_bits": draw(st.sampled_from([2, 4, 8])),
             "wgt_bits": draw(st.sampled_from([2, 4, 8]))}
    for field in draw(st.permutations(SHAPE_FIELDS)):
        shape[field] = draw(st.integers(1, largest_in_range(shape, field, 2**63)))
    return OperatorDescriptor(**shape)


# Operator columns (see the `costmodel` docstring): one int64 array per operator field.
OperatorColumns = namedtuple("OperatorColumns", OPERATOR_FIELDS)


def operator_rows(ops):
    """One row per candidate tiling of each operator of `ops`, operator by
    operator, each operator's rows in its table's `cells` order: the
    operator columns, the four flat tile arrays and each operator's first
    row."""
    cells = [_grid_table(op).cells for op in ops]
    sizes = [field.size for field, *_ in cells]
    columns = OperatorColumns(*(np.repeat(np.array(values, dtype=np.int64), sizes)
                                for values in zip(*map(encode_operator, ops))))
    tiles = [np.concatenate([c[k].ravel() for c in cells]) for k in range(4)]
    return columns, tiles, np.cumsum([0, *sizes[:-1]])


def segment_argmin(values, starts):
    """Per segment of `values` (each runs from its start to the next), the
    offset from its start of its first minimum: a stable sort by segment,
    then by value, keeps equal values in row order."""
    segments = np.repeat(np.arange(len(starts)), np.diff(starts, append=values.size))
    return np.lexsort((values, segments))[starts] - starts


def _in_range(low):
    """Floats of the closed range [low, 2**64], its edges drawn on purpose."""
    return st.sampled_from([low, 2.0**64]) | st.floats(low, 2.0**64)


# Any constants of the constants' range (see `CostConstants`).
range_constants = st.builds(
    CostConstants, _in_range(2.0**-64), _in_range(2.0**-13), _in_range(2.0**-64),
    _in_range(2.0**-64), _in_range(2.0**-64),
    st.builds(AreaConstants, _in_range(0.0), _in_range(0.0), _in_range(0.0)))


def make_synthetic_subnet_22() -> SubnetDescriptor:
    """A mobile-CNN-scale 22-operator subnet with channel sizes up to 552."""
    rows = [56, 56, 28, 28, 28, 28, 14, 14, 14, 14, 14,
            14, 14, 14, 7, 7, 7, 7, 7, 7, 7, 7]
    chans = [16, 24, 24, 32, 32, 64, 64, 112, 112, 184, 184,
             256, 256, 352, 352, 416, 416, 480, 480, 512, 512, 552]
    ops = []
    prev_c = 16
    prev_rows = 56
    for i in range(22):
        kernel = 3 if i % 3 else 5
        stride = 2 if rows[i] != prev_rows else 1
        ops.append(
            OperatorDescriptor(
                kernel=kernel,
                stride=stride,
                out_rows=rows[i],
                in_channels=prev_c,
                out_channels=chans[i],
                act_bits=(8, 4, 2)[i % 3],
                wgt_bits=(8, 4, 2)[(i + 1) % 3],
            )
        )
        prev_c = chans[i]
        prev_rows = rows[i]
    return SubnetDescriptor(tuple(ops))


def make_small_subnet() -> SubnetDescriptor:
    """Three modest operators used by the search-quality experiments."""
    return SubnetDescriptor(
        (
            OperatorDescriptor(3, 1, 16, 64, 128, 8, 8),
            OperatorDescriptor(1, 1, 16, 128, 128, 4, 8),
            OperatorDescriptor(3, 2, 8, 128, 256, 8, 4),
        )
    )


def make_reduced_space_24() -> ParamSpace:
    return ParamSpace(
        pe_x=(8, 16),
        pe_y=(8, 16),
        act_cache_kb=(64,),
        wgt_cache_kb=(64,),
        out_cache_kb=(64,),
        dataflows=(Dataflow.WS, Dataflow.OS, Dataflow.RS),
        loop_orders=("BIOHW", "BOHWI"),
    )


@pytest.fixture
def synthetic_subnet_22():
    return make_synthetic_subnet_22()


@pytest.fixture
def small_subnet():
    return make_small_subnet()


@pytest.fixture
def reduced_space_24():
    return make_reduced_space_24()
