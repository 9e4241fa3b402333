"""The cost memo's key against its defining formula, and memos keyed by it."""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from acceldse import (
    AcceleratorConfig,
    AreaConstants,
    CostConstants,
    Dataflow,
    OperatorDescriptor,
    ParamSpace,
    TilingPlan,
    cli,
    costmodel,
    estimate_cost,
    map_subnet,
)
from acceldse.cli import CostCache, main
from acceldse.costmodel import COST_MODEL_VERSION, TILE_SIZES
from acceldse.workload import encode_operator
from conftest import make_small_subnet, range_constants, range_operators

def reference_key(op, cfg, tile, constants) -> str:
    """The memo key's definition: sha256 of the sorted-key JSON of the payload."""
    payload = {
        "version": COST_MODEL_VERSION,
        "op": encode_operator(op),
        "cfg": cfg.as_tuple(),
        "tile": tile.as_tuple(),
        "constants": (constants.f_clk_mhz, constants.dram_bw_bytes_per_cycle,
                      constants.e_mac_pj, constants.e_sram_pj_per_byte,
                      constants.e_dram_pj_per_byte, constants.area.per_pe_mm2,
                      constants.area.per_kb_mm2, constants.area.fixed_mm2),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


FULL_SPACE = ParamSpace()
configs = st.tuples(*(st.integers(0, n - 1) for n in FULL_SPACE.field_sizes)).map(
    FULL_SPACE.config_at)
tilings = st.builds(TilingPlan, *[st.sampled_from(TILE_SIZES)] * 4)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(range_operators(), configs, tilings, range_constants)
def test_key_matches_reference(op, cfg, tile, constants):
    assert CostCache.keyer(cfg, constants)(op, tile) == reference_key(op, cfg, tile, constants)


GOLDEN = (
    OperatorDescriptor(5, 1, 7, 552, 552, 8, 8),
    AcceleratorConfig(16, 16, 384, 384, 384, Dataflow.WS, "BIHWO"),
    TilingPlan(16, 16, 1, 1),
    CostConstants(f_clk_mhz=250.0, dram_bw_bytes_per_cycle=2.0**-13, e_mac_pj=0.75,
                  e_sram_pj_per_byte=2.0**64, e_dram_pj_per_byte=120.5,
                  area=AreaConstants(0.0, 0.001, 2.0**64)),
)


def test_golden_key():
    """A change to the key's format orphans every memo record: it must be deliberate."""
    op, cfg, tile, constants = GOLDEN
    expected = "c098bbf6e70388fa2a499b05e66c70ceacdca2f02b0909aac91ef3a5d800220d"
    assert CostCache.keyer(cfg, constants)(op, tile) == expected
    assert reference_key(op, cfg, tile, constants) == expected


def test_memo_with_reference_keys_served_warm(tmp_path, monkeypatch):
    """A memo keyed by the reference formula serves every operator of
    `cost --tiling --cache`: the report equals the uncached one and nothing
    is appended."""
    subnet = make_small_subnet()
    cfg = AcceleratorConfig(16, 8, 64, 128, 64, Dataflow.OS, "BOHWI")
    consts = CostConstants(f_clk_mhz=300.0, e_dram_pj_per_byte=2.0**-64,
                           area=AreaConstants(fixed_mm2=2.0**64))
    plans = [r.best for r in map_subnet(subnet, cfg, consts).per_op]
    paths = {name: tmp_path / f"{name}.json" for name in ("workload", "accel", "tiling",
                                                          "constants")}
    paths["workload"].write_text(json.dumps(subnet.to_dict()))
    paths["accel"].write_text(json.dumps(cfg.to_dict()))
    paths["tiling"].write_text(json.dumps({"tilings": [p.to_dict() for p in plans]}))
    paths["constants"].write_text(json.dumps(
        {"f_clk_mhz": 300.0, "e_dram_pj_per_byte": 2.0**-64, "area": {"fixed_mm2": 2.0**64}}))
    memo = tmp_path / "memo.jsonl"
    memo.write_text("".join(
        json.dumps({"key": reference_key(op, cfg, plan, consts),
                    "cost": estimate_cost(op, cfg, plan, consts).to_dict()}) + "\n"
        for op, plan in zip(subnet, plans)))
    size = memo.stat().st_size
    argv = ["cost", *(arg for name, path in paths.items() for arg in (f"--{name}", str(path)))]
    assert main([*argv, "--out", str(tmp_path / "uncached.json")]) == 0
    computed = []
    monkeypatch.setattr(cli, "estimate_cost",
                        lambda *a: computed.append(a) or costmodel.estimate_cost(*a))
    assert main([*argv, "--cache", str(memo), "--out", str(tmp_path / "warm.json")]) == 0
    assert computed == []
    assert memo.stat().st_size == size
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "uncached.json").read_bytes()
