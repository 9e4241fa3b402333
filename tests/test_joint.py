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


def test_joint_weights_reject_negative_lambda():
    assert JointWeights(lam=0.0).lam == 0.0
    with pytest.raises(ValueError, match="lam must lie in"):
        JointWeights(lam=-1.0)


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


@pytest.mark.parametrize("make, match", [
    (lambda: SupernetLayer(alpha=(), candidates=(), beta_w=(), beta_a=()),
     "layer has no candidates"),
    (lambda: SupernetState(layers=()), "supernet has no layers"),
], ids=["layer", "state"])
def test_an_empty_supernet_is_refused(make, match):
    with pytest.raises(ValueError, match=match):
        make()
