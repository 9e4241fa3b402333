import json

import numpy as np
import pytest

from acceldse import (
    CostWeights,
    Dataflow,
    InvalidDocument,
    JointWeights,
    OperatorDescriptor,
    ParamSpace,
    SearchBudget,
    SupernetLayer,
    SupernetState,
    batch_search,
    co_search_step,
    lagrangian,
    load_supernet_state,
    select_subnet,
)

TEMPLATE_A = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
TEMPLATE_B = OperatorDescriptor(5, 1, 8, 16, 32, 8, 8)


def layer(alpha, beta_w=None, beta_a=None, candidates=None):
    n = len(alpha)
    return SupernetLayer(
        alpha=tuple(alpha),
        candidates=tuple(candidates) if candidates else (TEMPLATE_A, TEMPLATE_B)[:n],
        beta_w=tuple(beta_w) if beta_w else ((0.0, 0.0, 1.0),) * n,
        beta_a=tuple(beta_a) if beta_a else ((0.0, 0.0, 1.0),) * n,
    )


def test_select_subnet_one_hot():
    state = SupernetState(
        layers=(
            layer([0.0, 1.0], beta_w=((0, 0, 1), (0, 0, 1)), beta_a=((0, 0, 1), (0, 0, 1))),
        )
    )
    subnet = select_subnet(state)
    assert len(subnet) == 1
    assert subnet[0].kernel == 5
    assert subnet[0].wgt_bits == 8 and subnet[0].act_bits == 8


def test_select_subnet_uniform_tie_lowest_index():
    state = SupernetState(layers=(layer([0.5, 0.5]),))
    assert select_subnet(state)[0].kernel == 3


def test_select_subnet_bit_composition():
    beta_a = ((0.9, 0.05, 0.05), (0.9, 0.05, 0.05))  # favors 2-bit activations
    beta_w = ((0.0, 0.1, 0.9), (0.0, 0.1, 0.9))  # favors 8-bit weights
    state = SupernetState(layers=(layer([1.0, 0.0], beta_w=beta_w, beta_a=beta_a),) * 2)
    subnet = select_subnet(state)
    assert all(op.act_bits == 2 and op.wgt_bits == 8 for op in subnet)


def test_select_subnet_drops_skip():
    skip_layer = SupernetLayer(
        alpha=(1.0, 0.0),
        candidates=(None, TEMPLATE_A),
        beta_w=((1, 0, 0), (1, 0, 0)),
        beta_a=((1, 0, 0), (1, 0, 0)),
    )
    state = SupernetState(layers=(skip_layer, layer([1.0, 0.0])))
    assert len(select_subnet(state)) == 1


def test_select_subnet_all_skip_errors():
    skip_layer = SupernetLayer(
        alpha=(1.0,), candidates=(None,), beta_w=((1, 0, 0),), beta_a=((1, 0, 0),)
    )
    with pytest.raises(ValueError, match="empty selected subnet"):
        select_subnet(SupernetState(layers=(skip_layer,)))


def test_select_subnet_scale_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        alpha = rng.random(2)
        state1 = SupernetState(layers=(layer(alpha),))
        state2 = SupernetState(layers=(layer(alpha * 7.3),))
        assert select_subnet(state1) == select_subnet(state2)


def test_lagrangian():
    assert lagrangian(2.0, 500.0, JointWeights(lam=0.0)) == 2.0
    assert lagrangian(2.0, 500.0, JointWeights(lam=0.001)) == pytest.approx(2.5)
    for lam in (0.004, 0.002, 0.001, 0.0005):
        w = JointWeights(lam=lam)
        assert lagrangian(1.0, 10.0, w) == pytest.approx(1.0 + lam * 10.0)
    with pytest.raises(ValueError):
        JointWeights(lam=-1.0)


def test_lagrangian_affine_in_cost():
    w = JointWeights(lam=0.002)
    base = lagrangian(1.5, 0.0, w)
    assert lagrangian(1.5, 100.0, w) - base == pytest.approx(0.2)
    assert lagrangian(1.5, 200.0, w) - base == pytest.approx(0.4)


def singleton_space():
    return ParamSpace(
        pe_x=(16,), pe_y=(16,), act_cache_kb=(128,), wgt_cache_kb=(128,),
        out_cache_kb=(128,), dataflows=(Dataflow.WS,), loop_orders=("BIHWO",),
    )


def test_co_search_step_singleton_reproduces_estimate():
    state = SupernetState(layers=(layer([1.0, 0.0]),))
    report = co_search_step(state, singleton_space(), engine="exhaustive")
    cfg = report.config
    direct = batch_search(TEMPLATE_A, cfg, weights=CostWeights())
    assert report.mapping.per_op[0].best == direct.best
    assert report.mapping.total == direct.cost
    w = CostWeights()
    expected = (
        w.lambda_e * direct.cost.energy_mj
        + w.lambda_l * direct.cost.latency_ms
        + w.lambda_a * direct.cost.area_mm2
    )
    assert report.e_hw == pytest.approx(expected)


def strip_timing(d):
    return {k: v for k, v in d.items() if "wall_time" not in k}


def test_co_search_step_deterministic(reduced_space_24, small_subnet):
    state = SupernetState(
        layers=tuple(
            SupernetLayer(
                alpha=(1.0,),
                candidates=(op,),
                beta_w=((0, 0, 1),),
                beta_a=((0, 0, 1),),
            )
            for op in small_subnet
        )
    )
    budget = SearchBudget(max_evaluations=60, seed=3)
    r1 = co_search_step(state, reduced_space_24, budget=budget, engine="anneal")
    r2 = co_search_step(state, reduced_space_24, budget=budget, engine="anneal")
    assert strip_timing(r1.to_dict()) == strip_timing(r2.to_dict())


def test_co_search_step_warm_start(reduced_space_24, small_subnet):
    state = SupernetState(
        layers=tuple(
            SupernetLayer(alpha=(1.0,), candidates=(op,), beta_w=((0, 0, 1),),
                          beta_a=((0, 0, 1),))
            for op in small_subnet
        )
    )
    cold = co_search_step(state, reduced_space_24, engine="exhaustive")
    budget = SearchBudget(max_evaluations=40, seed=5)
    warm = co_search_step(state, reduced_space_24, budget=budget, engine="anneal",
                          warm_start=cold.config)
    # the annealer starts at the optimum; best-ever tracking keeps its cost
    assert warm.e_hw == pytest.approx(cold.e_hw)


def test_co_search_step_unknown_engine():
    state = SupernetState(layers=(layer([1.0, 0.0]),))
    with pytest.raises(ValueError, match="unknown engine"):
        co_search_step(state, singleton_space(), engine="magic")


def test_co_search_report_serializable():
    state = SupernetState(layers=(layer([1.0, 0.0]),))
    report = co_search_step(state, singleton_space(), engine="exhaustive")
    parsed = json.loads(json.dumps(report.to_dict()))
    assert parsed["accel_config"]["pe_x"] == 16
    assert parsed["tilings"][0]["op_index"] == 0
    assert "e_hw" in parsed and "lambda" in parsed


def test_load_supernet_state():
    doc = {
        "bit_choices": [2, 4, 8],
        "layers": [
            {
                "alpha": [0.2, 0.8],
                "candidates": [
                    None,
                    {"kernel": 3, "stride": 1, "out_rows": 8, "in_channels": 16,
                     "out_channels": 32, "act_bits": 8, "wgt_bits": 8},
                ],
                "beta_w": [[1, 0, 0], [0, 1, 0]],
                "beta_a": [[1, 0, 0], [0, 0, 1]],
            }
        ],
    }
    state = load_supernet_state(json.dumps(doc))
    subnet = select_subnet(state)
    assert subnet[0].wgt_bits == 4 and subnet[0].act_bits == 8
    with pytest.raises(InvalidDocument):
        load_supernet_state("not json")
    with pytest.raises(InvalidDocument, match="layer 0"):
        load_supernet_state(json.dumps({"layers": [{"alpha": [1.0]}]}))
