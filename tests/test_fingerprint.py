"""A fingerprint of the cost model's outputs, pinned to `COST_MODEL_VERSION`.

The `--cache` memo keys on `COST_MODEL_VERSION`, which keeps stale costs out
only if every change to the model's outputs bumps the version.  This test
hashes the exact bits of the model's outputs over a fixed set of operators,
configs and constants, and compares the digest with the one recorded for the
current version.
"""

import hashlib
import itertools

import numpy as np

from acceldse import (
    AcceleratorConfig,
    CostConstants,
    CostWeights,
    Dataflow,
    NoFeasibleTiling,
    OperatorDescriptor,
    TilingPlan,
    batch_search,
    estimate_cost,
)
from acceldse.accel import AreaConstants, all_loop_orders
from acceldse.costmodel import COST_MODEL_VERSION, _grid_table, evaluate_tilings, fits_caches_mask

# The digest of `fingerprint()` under each `COST_MODEL_VERSION`.
FINGERPRINTS = {
    1: "7012f5d13e904d38d7324577c99eb2be6ca86684df34d589d60ce5ad08fab843",
}

# The corners of the operator range: the smallest operator, and each field
# at the largest value in range with the others at 1; then two ordinary
# shapes, one of them with no power-of-two dimension.
OPERATORS = [
    OperatorDescriptor(1, 1, 1, 1, 1, 2, 2),
    OperatorDescriptor(2896, 1, 1, 1, 1, 8, 8),
    OperatorDescriptor(1, 1023, 1, 1, 1, 4, 8),
    OperatorDescriptor(1, 1, 32615, 1, 1, 8, 4),
    OperatorDescriptor(1, 1, 1, 131055, 1, 2, 8),
    OperatorDescriptor(1, 1, 1, 1, 1040438, 8, 2),
    OperatorDescriptor(7, 2, 224, 1024, 1024, 8, 8),
    OperatorDescriptor(3, 3, 13, 3, 1000, 4, 4),
]

# The corners of each config field's domain (`accel._DOMAIN`), all three
# dataflows, and a loop order spread over the 120 for each config.
_PE_CORNERS = [(3, 3), (64, 64), (3, 64), (64, 3)]
_CACHE_CORNERS = [(64, 64, 64), (528, 528, 528), (528, 64, 528), (64, 528, 64)]
_LOOP_ORDERS = all_loop_orders()
CONFIGS = [
    AcceleratorConfig(*pe, *caches, dataflow, _LOOP_ORDERS[(37 * i) % len(_LOOP_ORDERS)])
    for i, (dataflow, pe, caches) in enumerate(
        itertools.product(Dataflow, _PE_CORNERS, _CACHE_CORNERS))
]

CONSTANTS = [
    CostConstants(),
    CostConstants(f_clk_mhz=333.0, dram_bw_bytes_per_cycle=2.0**-13, e_mac_pj=0.37,
                  e_sram_pj_per_byte=2.5, e_dram_pj_per_byte=97.0,
                  area=AreaConstants(per_pe_mm2=0.01, per_kb_mm2=0.003, fixed_mm2=2.0)),
]

# The default weights, and latency alone, under which tilings tie often.
WEIGHTS = [CostWeights(), CostWeights(0.0, 1.0, 0.0)]


def _feed(h, value) -> None:
    """Hash `value`'s dtype, shape and bits: a float64 as its uint64 view, an
    int64 or a bool as int64, little-endian whatever the machine."""
    a = np.asarray(value)
    h.update(f"{a.dtype}{a.shape}".encode())
    if a.dtype == np.float64:
        a = a.view(np.uint64)
    else:
        assert a.dtype in (np.int64, np.bool_), a.dtype
    h.update(a.astype("<u8" if a.dtype == np.uint64 else "<i8").tobytes())


def _feed_cost(h, op, cfg, tile, constants) -> None:
    try:
        cost = estimate_cost(op, cfg, tile, constants)
    except NoFeasibleTiling:
        h.update(b"no fit")
        return
    for value in (cost.energy_mj, cost.latency_ms, cost.cycles, cost.dram_bytes, cost.area_mm2):
        _feed(h, value)


def _off_grid(table, best: TilingPlan) -> TilingPlan:
    """`best` with each tile size that is its axis's largest candidate, and
    below the largest tile size, doubled: a tiling off the grid that fits
    the caches as `best` does, since the clipped tile is the same."""
    largest = [int(axis.max()) for axis in table.grid]
    return TilingPlan(*(2 * t if t == top < 1024 else t
                        for t, top in zip(best.as_tuple(), largest)))


def fingerprint() -> str:
    h = hashlib.sha256()
    for op in OPERATORS:
        table = _grid_table(op)
        for cfg, constants in itertools.product(CONFIGS, CONSTANTS):
            outputs = evaluate_tilings(op, cfg, *table.grid, constants=constants)
            for name in sorted(outputs):
                h.update(name.encode())
                _feed(h, outputs[name])
            _feed(h, fits_caches_mask(op, cfg, *table.grid))
            for weights in WEIGHTS:
                try:
                    best = batch_search(op, cfg, constants, weights).best
                except NoFeasibleTiling:
                    h.update(b"no fit")
                    continue
                _feed(h, best.as_tuple())
                _feed_cost(h, op, cfg, best, constants)
                _feed_cost(h, op, cfg, _off_grid(table, best), constants)
    return h.hexdigest()


def test_outputs_match_the_fingerprint_of_the_model_version():
    """Any change to the model's outputs changes the digest; the digest
    recorded for the current `COST_MODEL_VERSION` must match."""
    digest = fingerprint()
    assert digest == FINGERPRINTS.get(COST_MODEL_VERSION), (
        f"the cost model's outputs have digest {digest}, not the one recorded for "
        f"COST_MODEL_VERSION {COST_MODEL_VERSION}: if the outputs are meant to change, "
        f"bump COST_MODEL_VERSION and add {{{COST_MODEL_VERSION + 1}: {digest!r}}} to "
        "FINGERPRINTS")
