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

Every function here takes its tile sizes in one of three shapes: numpy
int64 scalars (one tiling; the K=1 views `estimate_cost`, `compute_cycles`,
`dram_traffic`, `tile_fits_caches`), flat arrays (one tiling per element),
or an open grid (`np.meshgrid(..., sparse=True)`: one axis per tile
dimension).  On a grid each term is computed on the axes it depends on, so
tile counts, halos and per-operand tile bytes are computed on at most 11
values, and only the terms that combine all four dimensions have the grid's
full size.  An operator's own candidate grid, the one `tiling.batch_search`
passes, is cached per operator shape (`_grid_table`) together with every
term no config field changes: tile counts, distinct tiles per operand,
padded MACs (as two factors), partial-sum bytes, and nominal and clipped
tile bytes, all read-only and none of the grid's full size.
Given that grid, `evaluate_tilings` and `fits_caches_mask` read those terms
and compute only the ones a config changes: the three cache compares, the
passes of the dataflow's two dimensions, fetch counts, bytes, memory
cycles, energy and latency.  Scalars and flat arrays go through the same
stage functions without the cache.  Feasibility is a separate mask
(`fits_caches_mask`) over the same inputs; `evaluate_tilings` scores
infeasible tilings too.  Each element sees the same float operations in
every shape, integers are exact in int64 and byte counts are exact
multiples of 1/8 in float64 (for operators inside the range
`workload.OperatorDescriptor` accepts), so the three shapes give
bit-identical results.

`COST_MODEL_VERSION` names this model.  Any change to the model's outputs
bumps it, so that the `--cache` memo, whose key includes it, never serves a
cost the current model would not compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .accel import AcceleratorConfig, AreaConstants, Dataflow, area, check_range
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
    """Tile sizes along output-channel / input-channel / output-column / output-row."""

    t_oc: int
    t_ic: int
    t_ow: int
    t_oh: int

    def __post_init__(self):
        for name in ("t_oc", "t_ic", "t_ow", "t_oh"):
            value = getattr(self, name)
            if value not in TILE_SIZES:
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
    area: AreaConstants = field(default_factory=AreaConstants)

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
        check_range(self, dict.fromkeys(("lambda_e", "lambda_l", "lambda_a"), 0.0),
                    "the weights' range")


@dataclass(frozen=True)
class CostBreakdown:
    energy_mj: float
    latency_ms: float
    cycles: int
    dram_bytes: float
    area_mm2: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in BREAKDOWN_FIELDS}


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
    """Tile sizes as int64: an int64 scalar stays a scalar, anything else
    becomes an int64 array (flat or an open grid)."""
    return values if type(values) is np.int64 else np.asarray(values, dtype=np.int64)


def _cast(values, dtype):
    """`values.astype(dtype)`, also for numpy scalars, whose `astype` is
    several times slower than their constructor."""
    return values.astype(dtype) if type(values) is np.ndarray else dtype(values)


def _select(condition, a, b):
    """`np.where` that keeps scalar inputs scalar."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def _minimum(a, b):
    """`np.minimum` that keeps scalar inputs scalar."""
    return np.minimum(a, b) if type(a) is np.ndarray else min(a, b)


_ONE = np.int64(1)


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
    act = _cast(t_ic * halo_w * halo_h * op.act_bits, np.float64) / 8.0
    wgt = _cast(t_ic * t_oc * (op.kernel**2) * op.wgt_bits, np.float64) / 8.0
    out = _cast(4 * t_oc * t_ow * t_oh, np.float64)
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
    psum_bytes = 8.0 * (op.out_channels * op.out_rows**2) * _cast(counts["I"], np.float64)
    act_tile, wgt_tile, out_tile = _tile_bytes(op, t_oc, t_ic, t_ow, t_oh)
    multi = {dim: count > 1 for dim, count in counts.items()}
    unique_out_bytes = _cast(unique["out"], np.float64) * out_tile
    return _Terms(counts, multi, unique, padded_io, padded_hw, psum_bytes, act_tile, wgt_tile,
                  unique_out_bytes)


class _GridTable(NamedTuple):
    """An operator's candidate grid and its config-independent terms."""

    grid: tuple  # (t_oc, t_ic, t_oh, t_ow), an open grid
    terms: _Terms
    clipped: tuple  # clipped (act, wgt, out) tile bytes, the fit mask's input


def _freeze(value):
    """Make every array in `value` (nested in tuples and dicts) read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


@lru_cache(maxsize=256)
def _grid_table(op: OperatorDescriptor) -> _GridTable:
    """The open grid of the operator's candidate tile sizes, one int64 axis
    per dimension in the order (t_oc, t_ic, t_oh, t_ow), with every term
    computed on it that does not depend on the config.  Every array is
    read-only, so no caller can change what later calls read."""
    dims = (op.out_channels, op.in_channels, op.out_rows, op.out_rows)
    axes = (np.asarray(tile_size_choices(d), dtype=np.int64) for d in dims)
    t_oc, t_ic, t_oh, t_ow = grid = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
    table = _GridTable(grid, _config_free_terms(op, t_oc, t_ic, t_ow, t_oh),
                       _clipped_tile_bytes(op, t_oc, t_ic, t_ow, t_oh))
    _freeze(table)
    return table


def _grid_table_of(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh) -> _GridTable | None:
    """The operator's table if the tile sizes are its candidate grid itself
    (the arrays `_grid_table` holds), else None."""
    if type(t_oc) is not np.ndarray:
        return None
    table = _grid_table(op)
    g_oc, g_ic, g_oh, g_ow = table.grid
    if t_oc is g_oc and t_ic is g_ic and t_ow is g_ow and t_oh is g_oh:
        return table
    return None


def _spatial_dims(op: OperatorDescriptor, cfg: AcceleratorConfig, t_oc, t_ic, t_ow, t_oh):
    """The two tile dimensions mapped onto the PE array, and the MACs one
    array cell performs per tile (tile_macs / (d1 * d2), an exact quotient)."""
    k2 = op.kernel**2
    if cfg.dataflow is Dataflow.WS:
        return t_ic, t_oc, t_ow * t_oh * k2
    if cfg.dataflow is Dataflow.OS:
        return t_ow, t_oh, t_ic * t_oc * k2
    return op.kernel, t_oh, t_ic * t_oc * t_ow * op.kernel  # RS


def _compute_cycles(op, cfg, t_oc, t_ic, t_ow, t_oh, counts):
    d1, d2, cell_macs = _spatial_dims(op, cfg, t_oc, t_ic, t_ow, t_oh)
    bitspeed = (8 // op.act_bits) * (8 // op.wgt_bits)
    passes = _ceil_div(d1, cfg.pe_x) * _ceil_div(d2, cfg.pe_y)
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


def _refetch_factors(cfg: AcceleratorConfig, counts: dict, multi: dict) -> dict:
    """Fetches per distinct tile of each operand, `fetches / unique` in the
    closed form of the module docstring.  A factor that is 1 for every
    tiling is `_ONE` itself."""
    factors = {}
    for operand, forcing in _refetch_loops(cfg.loop_order, STATIONARY_OPERAND[cfg.dataflow]):
        factor = _ONE
        for dim, inner in forcing:
            moves = multi[inner[0]]
            for d in inner[1:]:
                moves = moves | multi[d]
            step = _select(moves, counts[dim], _ONE)
            factor = step if factor is _ONE else factor * step
        factors[operand] = factor
    return factors


def _config_terms(op, cfg, constants, t_oc, t_ic, t_ow, t_oh, terms: _Terms) -> dict:
    """Every output of `evaluate_tilings` from the config-independent terms."""
    compute = _compute_cycles(op, cfg, t_oc, t_ic, t_ow, t_oh, terms.counts)
    factors = _refetch_factors(cfg, terms.counts, terms.multi)
    fetches = {operand: uniq if factors[operand] is _ONE else uniq * factors[operand]
               for operand, uniq in terms.unique.items()}
    act_b = _cast(fetches["act"], np.float64) * terms.act_tile
    wgt_b = _cast(fetches["wgt"], np.float64) * terms.wgt_tile
    out_b = terms.unique_out_bytes * _cast(2 * factors["out"] - 1, np.float64)
    total_b = act_b + wgt_b + out_b

    mem_cycles = _cast(np.ceil(total_b / constants.dram_bw_bytes_per_cycle), np.int64)
    cycles = np.maximum(compute, mem_cycles)
    latency_ms = _cast(cycles, np.float64) / (constants.f_clk_mhz * 1000.0)

    padded_macs = _cast(terms.padded_io * terms.padded_hw, np.float64)
    mac_pj = padded_macs * constants.e_mac_pj * (op.act_bits * op.wgt_bits) / 64.0
    sram_bytes = padded_macs * (op.act_bits + op.wgt_bits) / 8.0 + terms.psum_bytes
    energy_pj = (mac_pj + sram_bytes * constants.e_sram_pj_per_byte
                 + total_b * constants.e_dram_pj_per_byte)
    energy_mj = energy_pj * 1e-9

    return {
        "cycles": cycles,
        "compute_cycles": compute,
        "mem_cycles": mem_cycles,
        "latency_ms": latency_ms,
        "energy_mj": energy_mj,
        "dram_bytes": total_b,
        "act_bytes": act_b,
        "wgt_bytes": wgt_b,
        "out_bytes": out_b,
        "act_fetches": fetches["act"],
        "wgt_fetches": fetches["wgt"],
        "out_fetches": fetches["out"],
        "out_unique_tiles": terms.unique["out"],
    }


def evaluate_tilings(
    op: OperatorDescriptor,
    cfg: AcceleratorConfig,
    t_oc,
    t_ic,
    t_ow,
    t_oh,
    constants: CostConstants | None = None,
) -> dict[str, np.ndarray]:
    """Cost evaluation over int64 scalars, flat arrays or an open grid of
    tile sizes; each output has the broadcast shape of the inputs it
    depends on.  On the operator's own candidate grid the config-independent
    terms are read from its cached table, and outputs that are such terms
    are its read-only arrays.

    Feasibility is not checked here: `fits_caches_mask` gives it for the same
    inputs, and callers mask infeasible tilings out (`tiling.batch_search`)
    or refuse them (the scalar views).
    """
    constants = constants or CostConstants()
    table = _grid_table_of(op, t_oc, t_ic, t_ow, t_oh)
    if table is None:
        t_oc, t_ic, t_ow, t_oh = map(_as_i64, (t_oc, t_ic, t_ow, t_oh))
        terms = _config_free_terms(op, t_oc, t_ic, t_ow, t_oh)
    else:
        terms = table.terms
    return _config_terms(op, cfg, constants, t_oc, t_ic, t_ow, t_oh, terms)


def fits_caches_mask(op: OperatorDescriptor, cfg: AcceleratorConfig, t_oc, t_ic, t_ow, t_oh):
    """Cache-fit test per tiling, over the same input shapes as
    `evaluate_tilings`: the clipped tile of each operand against its cache."""
    table = _grid_table_of(op, t_oc, t_ic, t_ow, t_oh)
    if table is None:
        act, wgt, out = _clipped_tile_bytes(op, *map(_as_i64, (t_oc, t_ic, t_ow, t_oh)))
    else:
        act, wgt, out = table.clipped
    return (
        (act <= cfg.act_cache_kb * 1024)
        & (wgt <= cfg.wgt_cache_kb * 1024)
        & (out <= cfg.out_cache_kb * 1024)
    )


def _tile_scalars(tile: TilingPlan) -> list[np.int64]:
    """One tiling as int64 scalars, the K=1 input of the batched functions."""
    return [np.int64(v) for v in tile.as_tuple()]


def tile_fits_caches(op: OperatorDescriptor, cfg: AcceleratorConfig, tile: TilingPlan) -> bool:
    return bool(fits_caches_mask(op, cfg, *_tile_scalars(tile)))


def _evaluate_one(op, cfg, tile: TilingPlan, constants=None) -> dict[str, np.generic]:
    """`evaluate_tilings` at one tiling, which must fit the caches."""
    t = _tile_scalars(tile)
    if not fits_caches_mask(op, cfg, *t):
        raise NoFeasibleTiling(
            f"tiling {tile.as_tuple()} does not fit caches "
            f"({cfg.act_cache_kb}/{cfg.wgt_cache_kb}/{cfg.out_cache_kb} KB)"
        )
    return evaluate_tilings(op, cfg, *t, constants=constants)


def compute_cycles(op: OperatorDescriptor, cfg: AcceleratorConfig, tile: TilingPlan) -> int:
    """Compute-side cycle count for one tiling (no DRAM term)."""
    return int(_evaluate_one(op, cfg, tile)["compute_cycles"])


def dram_traffic(op: OperatorDescriptor, cfg: AcceleratorConfig, tile: TilingPlan) -> TrafficBreakdown:
    """DRAM bytes per operand under the re-fetch rule, plus fetch counts."""
    out = _evaluate_one(op, cfg, tile)
    return TrafficBreakdown(
        act_bytes=float(out["act_bytes"]),
        wgt_bytes=float(out["wgt_bytes"]),
        out_bytes=float(out["out_bytes"]),
        total_bytes=float(out["dram_bytes"]),
        act_fetches=int(out["act_fetches"]),
        wgt_fetches=int(out["wgt_fetches"]),
        out_fetches=int(out["out_fetches"]),
        out_unique_tiles=int(out["out_unique_tiles"]),
    )


def estimate_cost(
    op: OperatorDescriptor,
    cfg: AcceleratorConfig,
    tile: TilingPlan,
    constants: CostConstants | None = None,
) -> CostBreakdown:
    """Full cost breakdown for one (operator, accelerator, tiling) triple."""
    constants = constants or CostConstants()
    out = _evaluate_one(op, cfg, tile, constants)
    return CostBreakdown(
        energy_mj=float(out["energy_mj"]),
        latency_ms=float(out["latency_ms"]),
        cycles=int(out["cycles"]),
        dram_bytes=float(out["dram_bytes"]),
        area_mm2=area(cfg, constants.area),
    )


def hw_cost(c: CostBreakdown, w: CostWeights | None = None) -> float:
    """Weighted scalar cost over energy, latency, and area (raw units)."""
    w = w or CostWeights()
    return w.lambda_e * c.energy_mj + w.lambda_l * c.latency_ms + w.lambda_a * c.area_mm2


def edap(c: CostBreakdown) -> float:
    """Energy-delay-area product in J * s * m²."""
    return (c.energy_mj * 1e-3) * (c.latency_ms * 1e-3) * (c.area_mm2 * 1e-6)
