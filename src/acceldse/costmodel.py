"""Analytical energy / latency / area estimator for (operator, accelerator, tiling) triples.

The estimator is closed-form so that every candidate tiling of an operator can
be scored in one vectorized pass.  The model, in full:

Compute cycles
    The operator is split into N_tiles = ceil(OC/t_oc) * ceil(IC/t_ic) *
    ceil(OH/t_oh) * ceil(OW/t_ow) tiles (batch is always 1).  Two tile
    dimensions are mapped onto the PE array depending on the dataflow:
    WS -> (t_ic, t_oc), OS -> (t_ow, t_oh), RS -> (kernel, t_oh).  Each tile
    takes ceil(d1/pe_x) * ceil(d2/pe_y) spatial passes of tile_macs/(d1*d2)
    MACs, divided by the bit-serial speedup (8/act_bits)*(8/wgt_bits) and
    rounded up.  Edge tiles are padded up, never shrunk, so N_tiles * tile_macs
    is the work the array actually performs.

DRAM traffic
    The five tile loops execute in the config's loop order with one buffer per
    operand.  An operand depends on a subset of the loop dimensions
    (weights: I,O; activations: I,H,W; outputs: O,H,W); its distinct tiles
    number unique = the product of those loops' tile counts.  A
    non-stationary operand is re-fetched once per iteration of every loop
    from the outermost down to the deepest loop it depends on; loops whose
    tile count is 1 never force a re-fetch.  In closed form,

        fetches = unique * prod over the loops n it does not depend on of
                  (count[n] if a loop it depends on, nested inside n, has
                   more than one tile, else 1),

    exact in int64.  The dataflow's stationary operand (WS -> weights,
    OS -> outputs, RS -> activations) is instead fetched exactly once per
    distinct tile: fetches = unique.  Per-fetch bytes use the nominal
    (padded) tile extents; activation tiles include the convolution halo.
    Output tiles are written once and cost an extra read+write per revisit
    (partial-sum spill): out_bytes = unique * out_tile * (2 * revisits - 1)
    with revisits = fetches / unique, the product above.

Energy
    energy_pj = padded_macs * e_mac * (act_bits*wgt_bits)/64
              + sram_bytes * e_sram
              + dram_bytes * e_dram
    with sram_bytes = padded_macs * (act_bits+wgt_bits)/8 (operand reads
    feeding the array) plus 2*4*out_elems*ceil(IC/t_ic) (partial sums spilled
    to the output cache once per input-channel tile step).

Latency assumes perfect overlap of compute and DRAM transfers:
cycles = max(compute_cycles, ceil(dram_bytes / dram_bw)), and
latency_ms * f_clk_mhz * 1000 == cycles exactly.

Every function here takes its tile sizes in one of three shapes, always in
`TilingPlan` field order (t_oc, t_ic, t_ow, t_oh): Python `int`s (one tiling,
the K=1 views `estimate_cost` and `dram_traffic`; numpy integer scalars are
taken as `int`s), flat arrays (one tiling per element, of one operator or
of operator columns, below), or an open grid
(`np.meshgrid(..., sparse=True)`: one axis per tile dimension).  At one
tiling every term is a Python `int`, `float` or `bool`, never a numpy
scalar, so each output is one too: the scalar helpers (`_select`,
`_minimum`, `_maximum`, `_float`, `_ceil_int`) apply numpy only to arrays.
On a grid each term is computed on the axes it depends on, so tile counts,
halos and per-operand tile bytes are computed on at most 11 values, and
only the terms that combine all four dimensions have the grid's full size.
An operator's own candidate grid is cached per
operator shape (`_grid_table`) together with every term no config field
changes: tile counts, distinct tiles per operand, padded MACs (as two
factors), partial-sum bytes, and nominal and clipped tile bytes, all
read-only and none of the grid's full size.  The table alone knows the
candidates' order: its axes vary lexicographically in (t_oc, t_ic, t_oh,
t_ow), so ties break toward the earliest candidate in that order, and
`_GridTable.plan` maps a position in the raveled grid to its tiling.  Both
tiling searches pass the table's grid and read their plans through that map.
Feasibility is a separate mask (`fits_caches_mask`) over the same inputs;
`evaluate_tilings` scores infeasible tilings too.

The operator `op` is an `OperatorDescriptor` or, with flat tile arrays,
operator columns: any record with one int64 array per name in
`workload.OPERATOR_FIELDS`, each as long as the tile arrays, so that row i
costs the operator of row i at the tiling of row i.  One flat call then
scores the rows of many operators, as it scores one operator's.  This
holds because the stage functions read operator fields only through numpy
elementwise operations and the scalar helpers; a Python `if`, `min`,
`max`, `int()` or `float()` on an operator field breaks it.

Stages
    Every term a config changes comes from a stage function that takes
    only the config fields of its key, never the config itself:

    * fit mask (`_fit_mask`), keyed on the three cache sizes;
    * compute cycles (`_compute_cycles`), keyed on `pe_x`, `pe_y` and the
      dataflow;
    * traffic and energy (`_traffic`): fetch counts, per-operand and total
      DRAM bytes, memory cycles and energy, keyed on the dataflow, the loop
      order and the constants.  It adds the DRAM term to the energy base
      (`_energy_base`: the MAC plus the SRAM term, which no config field
      changes), so the sum keeps its float order `(mac + sram) + dram`;
    * combine (`_combine`), computed for every config: cycles =
      max(compute, memory cycles) and latency, added to the traffic
      stage's entries.  `tiling.batch_search` then takes the objective and
      the argmin.

    `evaluate_tilings` and `fits_caches_mask` compose the stages once for
    every shape, each stage call going through `_memoized`.  On an
    operator's own candidate grid it memoizes each stage's outputs (and the
    energy base, keyed on the constants) in the operator's table, one slot
    per stage: the last key asked for and its outputs, read-only like the
    table's arrays.  A request with that key is served from the slot; any
    other key replaces it.  An operator's first request of a stage stores
    only the key, so an operator costed once (`cost` over many distinct
    operators) holds no stage arrays.  Off the grid, for one tiling and for
    flat rows, of one operator or of operator columns, no table is built or
    read (`_grid_table_of`): `_memoized` simply computes the stage.

Each element sees the same float operations in every shape, integers are
exact in int64 and byte counts are exact multiples of 1/8 in float64 (for
operators inside the range `workload.OperatorDescriptor` accepts), so the
three shapes, and operator columns, give bit-identical results, memoized
or not.  One tiling's integers are Python `int`s, equal to the int64 values
because nothing in that range overflows int64, and its floats are the same
IEEE doubles.

`COST_MODEL_VERSION` names this model.  Any change to the model's outputs
bumps it, so that the `--cache` memo, whose key includes it, never serves a
cost the current model would not compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .accel import DEFAULT_AREA, AcceleratorConfig, AreaConstants, Dataflow, area, check_range
from .errors import NoFeasibleTiling
from .workload import TILE_POW2_MAX, OperatorDescriptor

COST_MODEL_VERSION = 1

TILE_SIZES = tuple(2**i for i in range(TILE_POW2_MAX + 1))

# Loop dimensions each operand's tile index depends on.
OPERAND_DEPS = {
    "act": ("I", "H", "W"),
    "wgt": ("I", "O"),
    "out": ("O", "H", "W"),
}

STATIONARY_OPERAND = {
    Dataflow.WS: "wgt",
    Dataflow.OS: "out",
    Dataflow.RS: "act",
}


@dataclass(frozen=True)
class TilingPlan:
    """Tile sizes along output-channel / input-channel / output-column / output-row,
    each a plain `int` power of two in `TILE_SIZES` (not a `bool`, float or
    numpy integer, which would write differently into documents and memo keys)."""

    t_oc: int
    t_ic: int
    t_ow: int
    t_oh: int

    def __post_init__(self):
        for name in TILING_FIELDS:
            value = getattr(self, name)
            if type(value) is not int or value not in TILE_SIZES:
                raise ValueError(
                    f"{name} must be a power of two in [1, {TILE_SIZES[-1]}], got {value!r}"
                )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.t_oc, self.t_ic, self.t_ow, self.t_oh)

    def to_dict(self) -> dict:
        """The tiling document of this plan (see `cli._load_tilings`)."""
        return dict(zip(TILING_FIELDS, self.as_tuple()))


TILING_FIELDS = tuple(f.name for f in fields(TilingPlan))


@dataclass(frozen=True)
class CostConstants:
    """Estimator calibration constants.  Defaults are fixed here so that
    calibration never silently changes results.

    Constants range.  `dram_bw_bytes_per_cycle` lies in [2**-13, 2**64],
    every other constant here in [2**-64, 2**64] and each area constant in
    [0, 2**64] (`AreaConstants`); the constructors reject any other value.
    For an operator inside the operator range of
    `acceldse.workload` (padded MACs < 2**63, so SRAM bytes < 2**67, and
    DRAM bytes < 2**50) this keeps `ceil(dram_bytes / bw)` below 2**63, so
    it fits int64, and keeps every per-operator energy in [2**-68, 2**132]
    pJ and latency in [2**-74, 2**118] ms: finite normal floats, far from
    overflow and underflow in the sums over a subnet, the weighted cost and
    the energy-delay-area product.
    """

    f_clk_mhz: float = 200.0
    dram_bw_bytes_per_cycle: float = 16.0
    e_mac_pj: float = 1.0  # per MAC at 8x8 bits, scaled by (wa*wb)/64
    e_sram_pj_per_byte: float = 1.0
    e_dram_pj_per_byte: float = 160.0
    area: AreaConstants = DEFAULT_AREA

    def __post_init__(self):
        check_range(self, {"f_clk_mhz": 2.0**-64, "dram_bw_bytes_per_cycle": 2.0**-13,
                           "e_mac_pj": 2.0**-64, "e_sram_pj_per_byte": 2.0**-64,
                           "e_dram_pj_per_byte": 2.0**-64}, "the cost constants' range")


@dataclass(frozen=True)
class CostWeights:
    """Scalarization weights for energy (mJ), latency (ms), and area (mm²).

    Weights range.  Each weight lies in [0, 2**64]; the constructor rejects
    any other value, NaN included.  Within the constants' range (see
    `CostConstants`) a per-operator energy stays below 2**103 mJ and a
    latency below 2**118 ms, and a legal config's area below 2**77 mm², so
    `hw_cost` adds less than 2**183 per operator and 2**141 for the area:
    finite for any subnet a machine can hold.
    """

    lambda_e: float = 0.33
    lambda_l: float = 0.33
    lambda_a: float = 0.33

    def __post_init__(self):
        check_range(self, dict.fromkeys((f.name for f in fields(self)), 0.0),
                    "the weights' range")


# The one default instance of each type, shared by every call given none: both are frozen.
DEFAULT_CONSTANTS = CostConstants()
DEFAULT_WEIGHTS = CostWeights()


@dataclass(frozen=True)
class CostBreakdown:
    energy_mj: float
    latency_ms: float
    cycles: int
    dram_bytes: float
    area_mm2: float

    def as_tuple(self) -> tuple:
        return (self.energy_mj, self.latency_ms, self.cycles, self.dram_bytes, self.area_mm2)

    def to_dict(self) -> dict:
        return dict(zip(BREAKDOWN_FIELDS, self.as_tuple()))


BREAKDOWN_FIELDS = tuple(f.name for f in fields(CostBreakdown))


def subnet_total(costs, area_mm2: float) -> CostBreakdown:
    """Sum of per-operator breakdowns in operator order; area counts once.

    Operators execute sequentially at batch 1, so energies and latencies add.
    """
    energy = latency = dram = 0.0
    cycles = 0
    for c in costs:
        energy += c.energy_mj
        latency += c.latency_ms
        cycles += c.cycles
        dram += c.dram_bytes
    return CostBreakdown(energy, latency, cycles, dram, area_mm2)


@dataclass(frozen=True)
class TrafficBreakdown:
    """Per-operand DRAM bytes plus the fetch counts behind them."""

    act_bytes: float
    wgt_bytes: float
    out_bytes: float
    total_bytes: float
    act_fetches: int
    wgt_fetches: int
    out_fetches: int
    out_unique_tiles: int


def _ceil_div(a, b):
    return -(-a // b)


def _as_i64(values):
    """Tile sizes as a Python `int` (one tiling, from an `int` or a numpy
    integer scalar) or an int64 array (flat or an open grid)."""
    if isinstance(values, (int, np.integer)):
        return int(values)
    return np.asarray(values, dtype=np.int64)


def _select(condition, a, b):
    """`np.where` that keeps scalar inputs scalar."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def _minimum(a, b):
    """`np.minimum` that keeps scalar inputs scalar."""
    return np.minimum(a, b) if type(a) is np.ndarray else min(a, b)


def _maximum(a, b):
    """`np.maximum` that keeps scalar inputs scalar."""
    return np.maximum(a, b) if type(a) is np.ndarray else max(a, b)


def _float(values):
    """Values as float64: a Python `float` for a scalar, else an array."""
    return np.float64(values) if type(values) is np.ndarray else float(values)


def _ceil_int(values):
    """`ceil` as int64: a Python `int` for a scalar, else an array."""
    return np.int64(np.ceil(values)) if type(values) is np.ndarray else math.ceil(values)


def tile_size_choices(dim: int) -> tuple[int, ...]:
    """Powers of two from 1 up to the smallest power covering `dim`, capped at 2^10."""
    sizes = []
    for size in TILE_SIZES:
        sizes.append(size)
        if size >= dim:
            break
    return tuple(sizes)


def _tile_counts(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh) -> dict:
    """Tile counts per loop dimension.  The batch loop (B) always has one
    tile, so it never changes a count or a fetch and has no entry."""
    return {
        "I": _ceil_div(op.in_channels, t_ic),
        "O": _ceil_div(op.out_channels, t_oc),
        "H": _ceil_div(op.out_rows, t_oh),
        "W": _ceil_div(op.out_rows, t_ow),
    }


def _tile_bytes(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh):
    """Nominal per-fetch bytes for one tile of each operand (padded extents)."""
    halo_w = t_ow * op.stride + op.kernel - 1
    halo_h = t_oh * op.stride + op.kernel - 1
    act = t_ic * halo_w * halo_h * op.act_bits / 8.0
    wgt = t_ic * t_oc * (op.kernel**2) * op.wgt_bits / 8.0
    out = _float(4 * t_oc * t_ow * t_oh)
    return act, wgt, out


def _clipped_tile_bytes(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh):
    """Per-operand bytes of the largest tile actually fetched, the tile
    clipped to the tensor extents: what must fit the caches.  Traffic uses
    the nominal bytes."""
    return _tile_bytes(op, _minimum(t_oc, op.out_channels), _minimum(t_ic, op.in_channels),
                       _minimum(t_ow, op.out_rows), _minimum(t_oh, op.out_rows))


class _Terms(NamedTuple):
    """The cost terms of a set of tilings that no config field changes.

    On a grid each term spans at most three of the four tile axes: the
    products of all four (N_tiles, padded MACs) are kept as two factors of
    two axes each, so a cached table stays a fraction of the grid's size.
    """

    counts: dict  # tile count per loop dimension
    multi: dict  # per loop dimension: more than one tile
    unique: dict  # distinct tiles per operand
    padded_io: object  # padded MACs = padded_io * padded_hw
    padded_hw: object
    psum_bytes: object  # partial sums spilled once per input-channel step
    act_tile: object  # nominal per-fetch bytes
    wgt_tile: object
    unique_out_bytes: object  # every distinct output tile written once


def _config_free_terms(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh) -> _Terms:
    """The terms no config field changes, in the shape of the tile sizes."""
    counts = _tile_counts(op, t_oc, t_ic, t_ow, t_oh)
    unique = {}
    for operand, (first, *rest) in OPERAND_DEPS.items():
        uniq = counts[first]
        for dim in rest:
            uniq = uniq * counts[dim]
        unique[operand] = uniq
    padded_io = (counts["I"] * t_ic) * (counts["O"] * t_oc)
    padded_hw = (counts["H"] * t_oh) * (counts["W"] * t_ow) * op.kernel**2
    psum_bytes = 8.0 * (op.out_channels * op.out_rows**2) * counts["I"]
    act_tile, wgt_tile, out_tile = _tile_bytes(op, t_oc, t_ic, t_ow, t_oh)
    multi = {dim: count > 1 for dim, count in counts.items()}
    unique_out_bytes = unique["out"] * out_tile
    return _Terms(counts, multi, unique, padded_io, padded_hw, psum_bytes, act_tile, wgt_tile,
                  unique_out_bytes)


class _GridTable(NamedTuple):
    """An operator's candidate grid, its config-independent terms, and the
    stage memo: per stage name, one slot `(key, outputs)` (see `_memoized`).

    The table is the one owner of the candidates' order.  Raveled, the grid
    runs lexicographically in (t_oc, t_ic, t_oh, t_ow), the order ties
    break in, and `plan` maps a raveled index to its tiling."""

    grid: tuple  # an open grid in `TilingPlan` field order (t_oc, t_ic, t_ow, t_oh)
    cells: tuple  # the grid broadcast to its full shape: views, no copies
    terms: _Terms
    clipped: tuple  # clipped (act, wgt, out) tile bytes, the fit mask's input
    memo: dict

    def plan(self, index) -> TilingPlan:
        """The candidate at `index` of the raveled grid."""
        return TilingPlan(*(int(field.flat[index]) for field in self.cells))


def _freeze(value):
    """Make every array in `value` (nested in tuples and dicts) read-only,
    and return `value`."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


@lru_cache(maxsize=256)
def _grid_table(op: OperatorDescriptor) -> _GridTable:
    """The operator's `_GridTable`: the open grid of its candidate tile
    sizes, int64, with every term computed on it that does not depend on
    the config, and an empty stage memo.  Every array is read-only, those
    the memo will hold too, so no caller can change what later calls read."""
    dims = (op.out_channels, op.in_channels, op.out_rows, op.out_rows)
    axes = (np.asarray(tile_size_choices(d), dtype=np.int64) for d in dims)
    t_oc, t_ic, t_oh, t_ow = np.meshgrid(*axes, indexing="ij", sparse=True)
    grid = (t_oc, t_ic, t_ow, t_oh)
    return _freeze(_GridTable(grid, tuple(np.broadcast_arrays(*grid)),
                              _config_free_terms(op, *grid), _clipped_tile_bytes(op, *grid), {}))


def _grid_table_of(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh) -> _GridTable | None:
    """The operator's table if the tile sizes are its candidate grid itself
    (the arrays `_grid_table` holds), else None.  Only 4-D arrays, an open
    grid's shape, are looked up: one tiling and flat rows, of one operator
    or of operator columns, never build or read a table."""
    if type(t_oc) is not np.ndarray or t_oc.ndim != 4:
        return None
    table = _grid_table(op)
    g_oc, g_ic, g_ow, g_oh = table.grid
    if t_oc is g_oc and t_ic is g_ic and t_ow is g_ow and t_oh is g_oh:
        return table
    return None


def _fit_mask(clipped, act_cache_kb, wgt_cache_kb, out_cache_kb):
    """Fit-mask stage: the clipped tile of each operand against its cache."""
    act, wgt, out = clipped
    return ((act <= act_cache_kb * 1024)
            & (wgt <= wgt_cache_kb * 1024)
            & (out <= out_cache_kb * 1024))


def _spatial_dims(op: OperatorDescriptor, dataflow: Dataflow, t_oc, t_ic, t_ow, t_oh):
    """The two tile dimensions mapped onto the PE array, and the MACs one
    array cell performs per tile (tile_macs / (d1 * d2), an exact quotient).
    It branches on the config's dataflow only, never on an operator field,
    so `op` may be operator columns."""
    k2 = op.kernel**2
    if dataflow is Dataflow.WS:
        return t_ic, t_oc, t_ow * t_oh * k2
    if dataflow is Dataflow.OS:
        return t_ow, t_oh, t_ic * t_oc * k2
    return op.kernel, t_oh, t_ic * t_oc * t_ow * op.kernel  # RS


def _compute_cycles(op, pe_x, pe_y, dataflow, t_oc, t_ic, t_ow, t_oh, counts):
    """Compute-cycles stage: spatial passes times cell MACs over the
    bit-serial speedup, per tile, times the tile count; `op` may be
    operator columns."""
    d1, d2, cell_macs = _spatial_dims(op, dataflow, t_oc, t_ic, t_ow, t_oh)
    bitspeed = (8 // op.act_bits) * (8 // op.wgt_bits)
    passes = _ceil_div(d1, pe_x) * _ceil_div(d2, pe_y)
    # N_tiles as two factors (see `_Terms`)
    return (_ceil_div(passes * cell_macs, bitspeed) * (counts["I"] * counts["O"])
            * (counts["H"] * counts["W"]))


@lru_cache(maxsize=3 * 120)  # three stationary operands, 120 loop orders
def _refetch_loops(loop_order: str, stationary: str) -> tuple:
    """Per operand, the loops that can force its re-fetch: each loop it does
    not depend on that has a loop it does depend on nested inside, paired
    with those inner loops.  The stationary operand has none."""
    loops = loop_order.replace("B", "")
    plan = []
    for operand, deps in OPERAND_DEPS.items():
        forcing = []
        for depth, dim in enumerate(loops):
            inner = tuple(d for d in loops[depth + 1:] if d in deps)
            if operand != stationary and dim not in deps and inner:
                forcing.append((dim, inner))
        plan.append((operand, tuple(forcing)))
    return tuple(plan)


def _refetch_factors(dataflow: Dataflow, loop_order: str, counts: dict, multi: dict) -> dict:
    """Fetches per distinct tile of each operand, `fetches / unique` in the
    closed form of the module docstring."""
    factors = {}
    for operand, forcing in _refetch_loops(loop_order, STATIONARY_OPERAND[dataflow]):
        factor = 1
        for dim, inner in forcing:
            moves = multi[inner[0]]
            for d in inner[1:]:
                moves = moves | multi[d]
            factor = factor * _select(moves, counts[dim], 1)
        factors[operand] = factor
    return factors


def _energy_base(op: OperatorDescriptor, constants: CostConstants, terms: _Terms):
    """The energy in pJ that no config field changes: the MAC term plus the
    SRAM term.  The traffic stage adds the DRAM term to it, in the order
    `(mac + sram) + dram` that the sum of all three takes; `op` may be
    operator columns."""
    padded_macs = _float(terms.padded_io * terms.padded_hw)
    mac_pj = padded_macs * constants.e_mac_pj * (op.act_bits * op.wgt_bits) / 64.0
    sram_bytes = padded_macs * (op.act_bits + op.wgt_bits) / 8.0 + terms.psum_bytes
    return mac_pj + sram_bytes * constants.e_sram_pj_per_byte


def _traffic(dataflow: Dataflow, loop_order: str, constants: CostConstants, terms: _Terms,
             energy_base) -> dict:
    """Traffic-and-energy stage: fetch counts under the re-fetch rule, DRAM
    bytes per operand and in total, memory cycles, and the energy; its
    entries of the `evaluate_tilings` output."""
    factors = _refetch_factors(dataflow, loop_order, terms.counts, terms.multi)
    fetches = {operand: uniq * factors[operand] for operand, uniq in terms.unique.items()}
    act_b = fetches["act"] * terms.act_tile
    wgt_b = fetches["wgt"] * terms.wgt_tile
    out_b = terms.unique_out_bytes * (2 * factors["out"] - 1)
    total_b = act_b + wgt_b + out_b
    return {
        "mem_cycles": _ceil_int(total_b / constants.dram_bw_bytes_per_cycle),
        "energy_mj": (energy_base + total_b * constants.e_dram_pj_per_byte) * 1e-9,
        "dram_bytes": total_b,
        "act_bytes": act_b,
        "wgt_bytes": wgt_b,
        "out_bytes": out_b,
        "act_fetches": fetches["act"],
        "wgt_fetches": fetches["wgt"],
        "out_fetches": fetches["out"],
        "out_unique_tiles": terms.unique["out"],
    }


def _combine(compute, traffic: dict, f_clk_mhz: float) -> dict:
    """Combine stage, computed for every config: the traffic stage's entries
    plus compute cycles, cycles as the larger of compute and memory cycles,
    and latency; the outputs of `evaluate_tilings`."""
    cycles = _maximum(compute, traffic["mem_cycles"])
    return {"cycles": cycles, "compute_cycles": compute,
            "latency_ms": cycles / (f_clk_mhz * 1000.0), **traffic}


def _memoized(table: _GridTable | None, stage: str, key: tuple, function, *args):
    """The outputs of `stage`, `function(*args)`, under `key`: read from the
    operator's one slot for the stage if it holds that key, else computed,
    filling the slot, read-only, in place of what it held.  On the
    operator's first request of the stage the slot keeps the key alone, so
    an operator costed once holds no stage arrays.  A slot is replaced
    whole, as one tuple, so no reader pairs one key with another key's
    outputs.  Off the grid (`table` None) the stage is simply computed."""
    if table is None:
        return function(*args)
    slot = table.memo.get(stage)
    if slot is not None and slot[1] is not None and slot[0] == key:
        return slot[1]
    outputs = function(*args)
    table.memo[stage] = (key, None if slot is None else _freeze(outputs))
    return outputs


def evaluate_tilings(
    op: OperatorDescriptor,
    cfg: AcceleratorConfig,
    t_oc,
    t_ic,
    t_ow,
    t_oh,
    constants: CostConstants | None = None,
) -> dict:
    """Cost evaluation over one tiling (ints or numpy integer scalars),
    flat arrays or an open grid of tile sizes.  At one tiling each output is
    a Python `int` or `float`; otherwise it is an array with the broadcast
    shape of the inputs it depends on.  On the operator's own candidate
    grid the config-independent terms are read from its cached table and
    each stage's outputs from its memo slot when the stage's key repeats;
    outputs read from either are read-only arrays.  With flat tile arrays
    `op` may also be operator columns, one int64 array per name in
    `OPERATOR_FIELDS` as long as the tiles: one call then scores the rows
    of many operators, bit-identical to each operator's own call, and no
    table is built.

    Feasibility is not checked here: `fits_caches_mask` gives it for the same
    inputs, and callers mask infeasible tilings out (`tiling.batch_search`)
    or refuse them (the scalar views).
    """
    constants = constants or DEFAULT_CONSTANTS
    pe_x, pe_y, dataflow, loop_order = cfg.pe_x, cfg.pe_y, cfg.dataflow, cfg.loop_order
    table = _grid_table_of(op, t_oc, t_ic, t_ow, t_oh)
    if table is None:
        t_oc, t_ic, t_ow, t_oh = map(_as_i64, (t_oc, t_ic, t_ow, t_oh))
        terms = _config_free_terms(op, t_oc, t_ic, t_ow, t_oh)
    else:
        terms = table.terms
    compute = _memoized(table, "compute", (pe_x, pe_y, dataflow), _compute_cycles,
                        op, pe_x, pe_y, dataflow, t_oc, t_ic, t_ow, t_oh, terms.counts)
    energy_base = _memoized(table, "energy_base", (constants,), _energy_base, op, constants, terms)
    traffic = _memoized(table, "traffic", (dataflow, loop_order, constants), _traffic,
                        dataflow, loop_order, constants, terms, energy_base)
    return _combine(compute, traffic, constants.f_clk_mhz)


def fits_caches_mask(op: OperatorDescriptor, cfg: AcceleratorConfig, t_oc, t_ic, t_ow, t_oh):
    """Cache-fit test per tiling, over the same input shapes and operators
    as `evaluate_tilings`, operator columns included: the clipped tile of
    each operand against its cache; a Python `bool` at one tiling."""
    key = (cfg.act_cache_kb, cfg.wgt_cache_kb, cfg.out_cache_kb)
    table = _grid_table_of(op, t_oc, t_ic, t_ow, t_oh)
    if table is None:
        clipped = _clipped_tile_bytes(op, *map(_as_i64, (t_oc, t_ic, t_ow, t_oh)))
    else:
        clipped = table.clipped
    return _memoized(table, "fit", key, _fit_mask, clipped, *key)


def _evaluate_one(op, cfg, tile: TilingPlan, constants=None) -> dict[str, int | float]:
    """`evaluate_tilings` at one tiling, its outputs Python `int`s and
    `float`s; the tiling must fit the caches."""
    t = tile.as_tuple()
    if not fits_caches_mask(op, cfg, *t):
        raise NoFeasibleTiling(
            f"tiling {t} does not fit caches "
            f"({cfg.act_cache_kb}/{cfg.wgt_cache_kb}/{cfg.out_cache_kb} KB)"
        )
    return evaluate_tilings(op, cfg, *t, constants=constants)


def dram_traffic(op: OperatorDescriptor, cfg: AcceleratorConfig, tile: TilingPlan) -> TrafficBreakdown:
    """DRAM bytes per operand under the re-fetch rule, plus fetch counts."""
    out = _evaluate_one(op, cfg, tile)
    return TrafficBreakdown(
        act_bytes=out["act_bytes"],
        wgt_bytes=out["wgt_bytes"],
        out_bytes=out["out_bytes"],
        total_bytes=out["dram_bytes"],
        act_fetches=out["act_fetches"],
        wgt_fetches=out["wgt_fetches"],
        out_fetches=out["out_fetches"],
        out_unique_tiles=out["out_unique_tiles"],
    )


def estimate_cost(
    op: OperatorDescriptor,
    cfg: AcceleratorConfig,
    tile: TilingPlan,
    constants: CostConstants | None = None,
) -> CostBreakdown:
    """Full cost breakdown for one (operator, accelerator, tiling) triple."""
    constants = constants or DEFAULT_CONSTANTS
    out = _evaluate_one(op, cfg, tile, constants)
    return CostBreakdown(
        energy_mj=out["energy_mj"],
        latency_ms=out["latency_ms"],
        cycles=out["cycles"],
        dram_bytes=out["dram_bytes"],
        area_mm2=area(cfg, constants.area),
    )


def hw_cost(c: CostBreakdown, w: CostWeights | None = None) -> float:
    """Weighted scalar cost over energy, latency, and area (raw units)."""
    w = w or DEFAULT_WEIGHTS
    return w.lambda_e * c.energy_mj + w.lambda_l * c.latency_ms + w.lambda_a * c.area_mm2


def edap(c: CostBreakdown) -> float:
    """Energy-delay-area product in J * s * m²."""
    return (c.energy_mj * 1e-3) * (c.latency_ms * 1e-3) * (c.area_mm2 * 1e-6)
