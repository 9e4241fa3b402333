import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from acceldse import (
    AcceleratorConfig,
    AreaConstants,
    CostBreakdown,
    CostConstants,
    CostWeights,
    Dataflow,
    JointWeights,
    NoFeasibleTiling,
    OperatorDescriptor,
    ParamSpace,
    SearchBudget,
    SubnetDescriptor,
    SupernetLayer,
    SupernetState,
    TilingPlan,
    area,
    batch_search,
    co_search_step,
    dram_traffic,
    edap,
    encode_operator,
    estimate_cost,
    hw_cost,
    map_subnet,
    oracle_search,
)
from acceldse.costmodel import TILE_SIZES, _grid_table, evaluate_tilings, fits_caches_mask
from acceldse.hwsearch import make_subnet_scorer
from conftest import compute_cycles

CFG64 = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIOHW")


def test_tiling_plan_validation():
    TilingPlan(1, 2, 512, 1024)
    with pytest.raises(ValueError, match="t_oc"):
        TilingPlan(3, 1, 1, 1)
    with pytest.raises(ValueError, match="t_oh"):
        TilingPlan(1, 1, 1, 2048)


@pytest.mark.parametrize("size", [True, 4.0, np.int64(4)])
def test_tiling_plan_takes_plain_ints_only(size):
    """A bool, float or numpy integer equal to a legal size is refused: each
    would write differently into a tiling document or a memo key."""
    with pytest.raises(ValueError, match="t_oc must be a power of two"):
        TilingPlan(size, 1, 1, 1)


def test_cycles_hand_trace():
    op = OperatorDescriptor(1, 1, 1, 16, 16, 8, 8)
    tile = TilingPlan(t_oc=16, t_ic=16, t_ow=1, t_oh=1)
    assert compute_cycles(op, CFG64, tile) == 1


def test_cycles_bitspeed_ceiling():
    op = OperatorDescriptor(1, 1, 1, 16, 16, 4, 4)
    tile = TilingPlan(16, 16, 1, 1)
    # one spatial pass of 1 MAC-slot, divided by bitspeed 4, ceils back to 1
    assert compute_cycles(op, CFG64, tile) == 1


def test_halving_oc_tile_doubles_tile_count():
    op = OperatorDescriptor(1, 1, 1, 16, 32, 8, 8)
    coarse = dram_traffic(op, CFG64, TilingPlan(32, 16, 1, 1))
    fine = dram_traffic(op, CFG64, TilingPlan(16, 16, 1, 1))
    assert fine.out_unique_tiles == 2 * coarse.out_unique_tiles


def test_cycles_weakly_decrease_with_bitwidth():
    rng = np.random.default_rng(3)
    for _ in range(20):
        shape = dict(
            kernel=int(rng.integers(1, 6)),
            stride=int(rng.integers(1, 3)),
            out_rows=int(rng.integers(1, 16)),
            in_channels=int(rng.integers(1, 64)),
            out_channels=int(rng.integers(1, 64)),
        )
        tile = TilingPlan(*(int(2 ** rng.integers(0, 4)) for _ in range(4)))
        prev = None
        for bits in (8, 4, 2):
            cycles = compute_cycles(
                OperatorDescriptor(**shape, act_bits=bits, wgt_bits=bits), CFG64, tile
            )
            if prev is not None:
                assert cycles <= prev
            prev = cycles


def test_single_tile_traffic_matches_tensor_bytes():
    # power-of-two dims, stride 1: one tile covering the operator moves each
    # operand exactly once
    op = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    cfg = AcceleratorConfig(16, 16, 528, 528, 528, Dataflow.WS, "BIOHW")
    tile = TilingPlan(t_oc=32, t_ic=16, t_ow=8, t_oh=8)
    tr = dram_traffic(op, cfg, tile)
    assert tr.act_fetches == tr.wgt_fetches == tr.out_fetches == 1
    act_in_bytes = 16 * 10**2  # in_channels * in_rows**2 at 8 bits
    wgt_bytes = 3**2 * 16 * 32  # kernel**2 * in_channels * out_channels at 8 bits
    out_bytes = 4 * 32 * 8**2  # 4-byte partial sums, out_channels * out_rows**2
    assert tr.total_bytes == act_in_bytes + wgt_bytes + out_bytes


def test_traffic_toy_weight_reuse():
    op = OperatorDescriptor(1, 1, 2, 4, 4, 8, 8)
    cfg = AcceleratorConfig(8, 8, 64, 64, 64, Dataflow.WS, "BIOHW")
    tr = dram_traffic(op, cfg, TilingPlan(2, 2, 2, 2))
    assert tr.wgt_fetches == 4  # perfect reuse: once per distinct (ic, oc) tile
    # single spatial tile: the activation tile stays resident across the
    # output-channel loop, so it is fetched once per input-channel step
    assert tr.act_fetches == 2
    # outputs revisit once per extra input-channel step
    assert tr.out_unique_tiles == 2
    assert tr.out_fetches == 4


def test_ic_outermost_never_reduces_output_revisits():
    from acceldse import all_loop_orders

    op = OperatorDescriptor(1, 1, 4, 4, 4, 8, 8)
    tile = TilingPlan(2, 2, 2, 2)
    for order in all_loop_orders():
        moved = "I" + order.replace("I", "")
        for df in (Dataflow.WS, Dataflow.OS):  # outputs not stationary
            base = dram_traffic(op, AcceleratorConfig(8, 8, 64, 64, 64, df, order), tile)
            front = dram_traffic(op, AcceleratorConfig(8, 8, 64, 64, 64, df, moved), tile)
            assert (front.out_fetches // front.out_unique_tiles) >= (
                base.out_fetches // base.out_unique_tiles
            )


def test_estimate_cost_minimal():
    op = OperatorDescriptor(1, 1, 1, 1, 1, 8, 8)
    breakdown = estimate_cost(op, CFG64, TilingPlan(1, 1, 1, 1))
    assert breakdown.latency_ms == breakdown.cycles / (200.0 * 1000.0)
    assert breakdown.energy_mj > 0


def test_latency_cycles_identity_exact():
    op = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    for tile in (TilingPlan(8, 8, 2, 2), TilingPlan(32, 16, 8, 8)):
        c = estimate_cost(op, CFG64, tile)
        # bit-stable form of latency_ms * f_clk * 1000 == cycles
        assert c.latency_ms == c.cycles / (200.0 * 1000.0)
        assert c.latency_ms * 200.0 * 1000.0 == pytest.approx(c.cycles, rel=1e-12)


def test_energy_loop_order_dependence_is_dram_only():
    # non-DRAM energy terms do not depend on the loop order, so the energy
    # difference between two orders is exactly the DRAM byte difference
    op = OperatorDescriptor(3, 1, 8, 32, 32, 8, 8)
    tile = TilingPlan(8, 8, 2, 2)
    constants = CostConstants()
    cfg_a = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIOHW")
    cfg_b = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BOHWI")
    ca = estimate_cost(op, cfg_a, tile, constants)
    cb = estimate_cost(op, cfg_b, tile, constants)
    d_energy_pj = (ca.energy_mj - cb.energy_mj) * 1e9
    d_dram_pj = (ca.dram_bytes - cb.dram_bytes) * constants.e_dram_pj_per_byte
    assert d_energy_pj == pytest.approx(d_dram_pj, rel=1e-12)


def test_estimate_cost_pure():
    op = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    tile = TilingPlan(8, 8, 2, 2)
    assert estimate_cost(op, CFG64, tile) == estimate_cost(op, CFG64, tile)


def test_infeasible_tile_raises():
    op = OperatorDescriptor(5, 1, 7, 552, 552, 8, 8)
    cfg = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIOHW")
    whole = TilingPlan(1024, 1024, 8, 8)
    assert not fits_caches_mask(op, cfg, *map(np.int64, whole.as_tuple()))
    with pytest.raises(NoFeasibleTiling):
        estimate_cost(op, cfg, whole)


def test_hw_cost_examples():
    c = CostBreakdown(energy_mj=2.6, latency_ms=3.2, cycles=640000, dram_bytes=0.0, area_mm2=1.0)
    assert hw_cost(c, CostWeights(1.0, 0.0, 0.0)) == 2.6
    assert hw_cost(c, CostWeights(0.33, 0.33, 0.33)) == pytest.approx(2.244)
    assert hw_cost(c, CostWeights(0.0, 0.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        CostWeights(-0.1, 0.0, 0.0)


def test_edap_examples():
    c = CostBreakdown(energy_mj=1.52, latency_ms=1.94, cycles=1, dram_bytes=0.0, area_mm2=1.36)
    assert edap(c) == pytest.approx(4.010368e-12, rel=1e-9)
    zero = CostBreakdown(0.0, 1.0, 1, 0.0, 1.0)
    assert edap(zero) == 0.0
    doubled = CostBreakdown(1.52, 2 * 1.94, 1, 0.0, 1.36)
    assert edap(doubled) == pytest.approx(2 * edap(c))


def test_cost_constants_validation():
    with pytest.raises(ValueError):
        CostConstants(f_clk_mhz=0.0)
    with pytest.raises(ValueError):
        CostConstants(e_dram_pj_per_byte=-1.0)


def exact_cycles_and_dram_bits(op, cfg, tile):
    """`cycles` and `8 * dram_bytes` of the closed form at default constants,
    restated in Python integers."""
    t = {"I": tile.t_ic, "O": tile.t_oc, "H": tile.t_oh, "W": tile.t_ow}
    extent = {"I": op.in_channels, "O": op.out_channels, "H": op.out_rows, "W": op.out_rows}
    counts = {d: -(-extent[d] // t[d]) for d in t}
    d1, d2 = {Dataflow.WS: (tile.t_ic, tile.t_oc), Dataflow.OS: (tile.t_ow, tile.t_oh),
              Dataflow.RS: (op.kernel, tile.t_oh)}[cfg.dataflow]
    tile_macs = math.prod(t.values()) * op.kernel**2
    passes = -(-d1 // cfg.pe_x) * -(-d2 // cfg.pe_y)
    bitspeed = (8 // op.act_bits) * (8 // op.wgt_bits)
    compute = -(-(passes * (tile_macs // (d1 * d2))) // bitspeed) * math.prod(counts.values())

    stationary = {Dataflow.WS: "wgt", Dataflow.OS: "out", Dataflow.RS: "act"}[cfg.dataflow]
    loops = cfg.loop_order.replace("B", "")
    fetches, unique = {}, {}
    for operand, deps in (("act", "IHW"), ("wgt", "IO"), ("out", "OHW")):
        unique[operand] = math.prod(counts[d] for d in deps)
        anchors = [i for i, d in enumerate(loops) if d in deps and counts[d] > 1]
        fetches[operand] = (unique[operand] if operand == stationary else
                            math.prod(counts[d] for d in loops[:anchors[-1] + 1]) if anchors else 1)
    s, k = op.stride, op.kernel
    act_bits = tile.t_ic * (tile.t_ow * s + k - 1) * (tile.t_oh * s + k - 1) * op.act_bits
    wgt_bits = tile.t_ic * tile.t_oc * k**2 * op.wgt_bits
    out_bits = 32 * tile.t_oc * tile.t_ow * tile.t_oh
    revisits = fetches["out"] // unique["out"]
    dram_bits = (fetches["act"] * act_bits + fetches["wgt"] * wgt_bits
                 + unique["out"] * out_bits * (2 * revisits - 1))
    bw_bits = 8 * 16  # default dram_bw_bytes_per_cycle, in bits
    return max(compute, -(-dram_bits // bw_bits)), dram_bits


def largest_accepted(make, lo=1, hi=2**64):
    """The largest n for which `make(n)` builds an operator."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            make(mid)
            lo = mid
        except ValueError:
            hi = mid - 1
    return make(lo)


# Operators at the edge of the accepted range, each grown along one field.
RANGE_CORNERS = [
    largest_accepted(lambda n: OperatorDescriptor(3, 1, 56, n, n, 8, 8)),
    largest_accepted(lambda n: OperatorDescriptor(1, 1, 1, n, n, 8, 8)),
    largest_accepted(lambda n: OperatorDescriptor(7, 4, n, 64, 64, 8, 8)),
    largest_accepted(lambda n: OperatorDescriptor(3, n, 7, 512, 512, 8, 8)),
    largest_accepted(lambda n: OperatorDescriptor(n, 1, 1, 1, 1, 8, 8)),
    largest_accepted(lambda n: OperatorDescriptor(5, 2, 28, 256, n, 2, 2)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op", RANGE_CORNERS, ids=lambda op: "-".join(map(str, encode_operator(op)[:5])))
def test_range_corner_is_exact(op):
    """At the largest accepted shapes the int64 and float64 arithmetic equals
    the same arithmetic in Python integers, for the extreme tilings, and the
    whole candidate grid evaluates without a warning."""
    with pytest.raises(ValueError, match="exact range"):
        OperatorDescriptor(*(v + 1 if i < 5 and v > 1 else v
                             for i, v in enumerate(encode_operator(op))))
    for dataflow in Dataflow:
        for order in ("BIOHW", "BWHOI"):
            cfg = AcceleratorConfig(3, 64, 64, 64, 64, dataflow, order)
            for sizes in itertools.product((1, TILE_SIZES[-1]), repeat=4):
                tile = TilingPlan(*sizes)
                out = evaluate_tilings(op, cfg, *(np.int64(v) for v in sizes))
                cycles, dram_bits = exact_cycles_and_dram_bits(op, cfg, tile)
                assert int(out["cycles"]) == cycles
                assert Fraction(float(out["dram_bytes"])) * 8 == dram_bits
            evaluate_tilings(op, cfg, *_grid_table(op).grid)


def test_default_calls_share_one_instance_of_each_default(monkeypatch, ref_op, ref_cfg):
    """A call given no constants, weights or area constants uses the one
    default instance of each, built at import: many such calls run no
    `__post_init__`, and give what explicit default instances give."""
    op = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    space = ParamSpace(pe_x=(16,), pe_y=(16,), act_cache_kb=(64,), wgt_cache_kb=(64,),
                       out_cache_kb=(64,), dataflows=(Dataflow.WS, Dataflow.OS),
                       loop_orders=("BIOHW",))
    state = SupernetState(layers=(SupernetLayer(alpha=(1.0,), candidates=(op,),
                                                beta_w=((0.0, 0.0, 1.0),),
                                                beta_a=((0.0, 0.0, 1.0),)),))
    budget = SearchBudget(seed=0)
    tile = TilingPlan(16, 16, 1, 1)

    def calls(constants=None, weights=None, area_constants=None, joint_weights=None):
        cost = estimate_cost(ref_op, ref_cfg, tile, constants)
        report = co_search_step(state, space, constants, joint_weights, budget, "exhaustive")
        return (
            cost,
            hw_cost(cost, weights),
            evaluate_tilings(ref_op, ref_cfg, *tile.as_tuple(), constants=constants),
            dram_traffic(ref_op, ref_cfg, tile),
            area(ref_cfg, area_constants),
            batch_search(ref_op, ref_cfg, constants, weights).best,
            oracle_search(op, CFG64, constants, weights).best,
            map_subnet(SubnetDescriptor((op, ref_op)), ref_cfg, constants, weights).total,
            make_subnet_scorer(SubnetDescriptor((op,)), space, constants, weights)((0,) * 7),
            (report.config, report.e_hw, report.mapping.total),
        )

    explicit = calls(CostConstants(), CostWeights(), AreaConstants(), JointWeights())
    runs = []
    for cls in (CostConstants, CostWeights, AreaConstants):
        def counted(self, original=cls.__post_init__):
            runs.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    defaults = [calls() for _ in range(20)]
    JointWeights()
    assert runs == []
    assert all(result == explicit for result in defaults)
