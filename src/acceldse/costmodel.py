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
    (weights: I,O; activations: I,H,W; outputs: O,H,W).  A non-stationary
    operand is re-fetched once per iteration of every loop from the outermost
    down to the deepest loop it depends on; loops whose tile count is 1 never
    force a re-fetch.  The dataflow's stationary operand (WS -> weights,
    OS -> outputs, RS -> activations) is instead fetched exactly once per
    distinct tile.  Per-fetch bytes use the nominal (padded) tile extents;
    activation tiles include the convolution halo.  Output tiles are written
    once and cost an extra read+write per revisit (partial-sum spill).

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
dimension, as `tiling.batch_search` passes them).  On a grid each term is
computed on the axes it depends on, so tile counts, halos and per-operand
tile bytes are computed on at most 11 values, and only the terms that
combine all four dimensions have the grid's full size.  Feasibility is a
separate mask (`fits_caches_mask`) over the same inputs; `evaluate_tilings`
scores infeasible tilings too.  Each element sees the same integer and
float operations in every shape, integers are carried in int64 and byte
counts are exact multiples of 1/8 in float64 (for operators inside the
range `workload.OperatorDescriptor` accepts), so the three shapes give
bit-identical results.

`COST_MODEL_VERSION` names this model.  Any change to the model's outputs
bumps it, so that the `--cache` memo, whose key includes it, never serves a
cost the current model would not compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .accel import AcceleratorConfig, AreaConstants, Dataflow, area
from .errors import NoFeasibleTiling
from .workload import TILE_POW2_MAX, OperatorDescriptor, operator_footprints

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

    Constants range.  `dram_bw_bytes_per_cycle` lies in [2**-13, 2**64] and
    every other constant in [2**-64, 2**64]; the constructor rejects any
    other value.  For an operator inside the operator range of
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
        for name in ("f_clk_mhz", "dram_bw_bytes_per_cycle", "e_mac_pj",
                     "e_sram_pj_per_byte", "e_dram_pj_per_byte"):
            low = -13 if name == "dram_bw_bytes_per_cycle" else -64
            value = getattr(self, name)
            if not 2.0**low <= value <= 2.0**64:
                raise ValueError(f"{name} must lie in [2**{low}, 2**64] (the cost "
                                 f"constants' range), got {value!r}")


@dataclass(frozen=True)
class CostWeights:
    """Scalarization weights for energy (mJ), latency (ms), and area (mm²)."""

    lambda_e: float = 0.33
    lambda_l: float = 0.33
    lambda_a: float = 0.33

    def __post_init__(self):
        for name in ("lambda_e", "lambda_l", "lambda_a"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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


def _select(condition, a, b):
    """`np.where` that keeps scalar inputs scalar."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


_ONE = np.int64(1)


def _tile_counts(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh) -> dict:
    """Tile counts per loop dimension.  The batch loop (B) always has one
    tile, so it never changes a count or a fetch and has no entry."""
    return {
        "I": _ceil_div(op.in_channels, t_ic),
        "O": _ceil_div(op.out_channels, t_oc),
        "H": _ceil_div(op.out_rows, t_oh),
        "W": _ceil_div(op.out_rows, t_ow),
    }


def _spatial_dims(op: OperatorDescriptor, cfg: AcceleratorConfig, t_oc, t_ic, t_ow, t_oh):
    """The two tile dimensions mapped onto the PE array, and the MACs one
    array cell performs per tile (tile_macs / (d1 * d2), an exact quotient)."""
    k2 = op.kernel**2
    if cfg.dataflow is Dataflow.WS:
        return t_ic, t_oc, t_ow * t_oh * k2
    if cfg.dataflow is Dataflow.OS:
        return t_ow, t_oh, t_ic * t_oc * k2
    return op.kernel, t_oh, t_ic * t_oc * t_ow * op.kernel  # RS


def _cycles_arrays(op, cfg, t_oc, t_ic, t_ow, t_oh, counts):
    """Compute cycles and padded MACs (N_tiles * tile_macs)."""
    n_tiles = counts["I"] * counts["O"] * counts["H"] * counts["W"]
    d1, d2, cell_macs = _spatial_dims(op, cfg, t_oc, t_ic, t_ow, t_oh)
    bitspeed = (8 // op.act_bits) * (8 // op.wgt_bits)
    passes = _ceil_div(d1, cfg.pe_x) * _ceil_div(d2, cfg.pe_y)
    per_tile = _ceil_div(passes * cell_macs, bitspeed)
    padded_macs = ((counts["I"] * t_ic) * (counts["O"] * t_oc) * (counts["H"] * t_oh)
                   * (counts["W"] * t_ow) * op.kernel**2)
    return per_tile * n_tiles, padded_macs


def _tile_bytes(op: OperatorDescriptor, t_oc, t_ic, t_ow, t_oh):
    """Nominal per-fetch bytes for one tile of each operand (padded extents)."""
    halo_w = t_ow * op.stride + op.kernel - 1
    halo_h = t_oh * op.stride + op.kernel - 1
    act = (t_ic * halo_w * halo_h * op.act_bits) / 8.0
    wgt = (t_ic * t_oc * (op.kernel**2) * op.wgt_bits) / 8.0
    out = (4 * t_oc * t_ow * t_oh).astype(np.float64)
    return act, wgt, out


def _fetch_counts(cfg: AcceleratorConfig, counts: dict):
    """Fetch events per operand under the single-buffer re-fetch rule.

    For a non-stationary operand the count is the product of loop extents from
    the outermost loop down to the deepest loop the operand depends on, where
    only dependent loops with more than one tile anchor that depth (a loop
    iterated once cannot force a re-fetch).  The stationary operand is fetched
    once per distinct tile.
    """
    stationary = STATIONARY_OPERAND[cfg.dataflow]
    loops = cfg.loop_order.replace("B", "")
    fetches = {}
    unique = {}
    for operand, deps in OPERAND_DEPS.items():
        uniq = _ONE
        for dim in deps:
            uniq = uniq * counts[dim]
        unique[operand] = uniq
        if operand == stationary:
            fetches[operand] = uniq
            continue
        running = events = _ONE
        for dim in loops:
            running = running * counts[dim]
            if dim in deps:
                events = _select(counts[dim] > 1, running, events)
        fetches[operand] = events
    return fetches, unique


def _traffic_arrays(op, cfg, t_oc, t_ic, t_ow, t_oh, counts):
    act_tile, wgt_tile, out_tile = _tile_bytes(op, t_oc, t_ic, t_ow, t_oh)
    fetches, unique = _fetch_counts(cfg, counts)
    act_bytes = fetches["act"].astype(np.float64) * act_tile
    wgt_bytes = fetches["wgt"].astype(np.float64) * wgt_tile
    revisits = fetches["out"] // unique["out"]
    unique_out_bytes = unique["out"].astype(np.float64) * out_tile
    out_bytes = unique_out_bytes * (2 * revisits - 1).astype(np.float64)
    total = act_bytes + wgt_bytes + out_bytes
    return act_bytes, wgt_bytes, out_bytes, total, fetches, unique


def _weighted(energy_mj, latency_ms, area_mm2, w: CostWeights):
    return w.lambda_e * energy_mj + w.lambda_l * latency_ms + w.lambda_a * area_mm2


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
    depends on.

    Feasibility is not checked here: `fits_caches_mask` gives it for the same
    inputs, and callers mask infeasible tilings out (`tiling.batch_search`)
    or refuse them (the scalar views).
    """
    constants = constants or CostConstants()
    t_oc, t_ic, t_ow, t_oh = map(_as_i64, (t_oc, t_ic, t_ow, t_oh))
    counts = _tile_counts(op, t_oc, t_ic, t_ow, t_oh)
    compute, padded = _cycles_arrays(op, cfg, t_oc, t_ic, t_ow, t_oh, counts)
    act_b, wgt_b, out_b, total_b, fetches, unique = _traffic_arrays(
        op, cfg, t_oc, t_ic, t_ow, t_oh, counts
    )

    mem_cycles = np.ceil(total_b / constants.dram_bw_bytes_per_cycle).astype(np.int64)
    cycles = np.maximum(compute, mem_cycles)
    latency_ms = cycles.astype(np.float64) / (constants.f_clk_mhz * 1000.0)

    padded_macs = padded.astype(np.float64)
    fp = operator_footprints(op)
    mac_pj = padded_macs * constants.e_mac_pj * (op.act_bits * op.wgt_bits) / 64.0
    sram_bytes = (
        padded_macs * (op.act_bits + op.wgt_bits) / 8.0
        + 8.0 * fp.out_elems * counts["I"].astype(np.float64)
    )
    energy_pj = mac_pj + sram_bytes * constants.e_sram_pj_per_byte + total_b * constants.e_dram_pj_per_byte
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
        "out_unique_tiles": unique["out"],
    }


def fits_caches_mask(op: OperatorDescriptor, cfg: AcceleratorConfig, t_oc, t_ic, t_ow, t_oh):
    """Cache-fit test per tiling, over the same input shapes as
    `evaluate_tilings`.  The largest tile actually fetched is the one clipped
    to the tensor extents, so the check clips; traffic does not."""
    t_oc, t_ic, t_ow, t_oh = map(_as_i64, (t_oc, t_ic, t_ow, t_oh))
    c_oc = np.minimum(t_oc, op.out_channels)
    c_ic = np.minimum(t_ic, op.in_channels)
    c_ow = np.minimum(t_ow, op.out_rows)
    c_oh = np.minimum(t_oh, op.out_rows)
    act, wgt, out = _tile_bytes(op, c_oc, c_ic, c_ow, c_oh)
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
    return _weighted(c.energy_mj, c.latency_ms, c.area_mm2, w)


def edap(c: CostBreakdown) -> float:
    """Energy-delay-area product in J * s * m²."""
    return (c.energy_mj * 1e-3) * (c.latency_ms * 1e-3) * (c.area_mm2 * 1e-6)
