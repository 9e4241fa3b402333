import numpy as np
import pytest

from acceldse import (
    AcceleratorConfig,
    Dataflow,
    GeneratorNet,
    NoFeasibleTiling,
    OperatorDescriptor,
    ParamSpace,
    SearchBudget,
    SpaceTooLarge,
    SubnetDescriptor,
    anneal_search,
    exhaustive_search,
    featurize_subnet,
    generator_forward,
    search_accel,
    train_generator,
)
from acceldse import hwsearch
from acceldse.hwsearch import ENGINES, make_subnet_scorer, train_policy
from conftest import choices_of

TOY_SPACE = ParamSpace(
    pe_x=(16,), pe_y=(16,), act_cache_kb=(64,), wgt_cache_kb=(64,), out_cache_kb=(64,),
    dataflows=(Dataflow.WS, Dataflow.OS), loop_orders=("BIOHW",),
)

SINGLETON_SPACE = ParamSpace(
    pe_x=(16,), pe_y=(16,), act_cache_kb=(64,), wgt_cache_kb=(64,), out_cache_kb=(64,),
    dataflows=(Dataflow.WS,), loop_orders=("BIOHW",),
)


def one_op_subnet():
    return SubnetDescriptor((OperatorDescriptor(3, 1, 8, 16, 32, 8, 8),))


def test_featurize_single_minimal_op():
    subnet = SubnetDescriptor((OperatorDescriptor(1, 1, 1, 1, 1, 8, 8),))
    feats = featurize_subnet(subnet)
    expected = np.array([1 / 7, 1 / 2, 1 / 224, 1 / 1024, 1 / 1024, 1.0, 1.0, 1 / 64])
    assert np.allclose(feats, expected)
    assert np.all(feats[:7] <= 1.0)


def test_featurize_duplicates_change_count_only():
    op = OperatorDescriptor(3, 2, 4, 16, 32, 4, 2)
    one = featurize_subnet(SubnetDescriptor((op,)))
    two = featurize_subnet(SubnetDescriptor((op, op)))
    assert np.allclose(one[:7], two[:7])
    assert two[7] == 2 * one[7]


def test_featurize_reference_op_kernel(ref_op):
    feats = featurize_subnet(SubnetDescriptor((ref_op,)))
    assert feats[0] == pytest.approx(5 / 7)


def test_featurize_permutation_invariance():
    a = OperatorDescriptor(3, 1, 8, 16, 32, 8, 8)
    b = OperatorDescriptor(5, 2, 4, 32, 64, 4, 2)
    assert np.allclose(
        featurize_subnet(SubnetDescriptor((a, b))),
        featurize_subnet(SubnetDescriptor((b, a))),
    )


def test_generator_head_sizes_match_space():
    assert GeneratorNet(ParamSpace(), seed=0).head_sizes == (62, 62, 30, 30, 30, 3, 120)
    assert GeneratorNet(TOY_SPACE, seed=0).head_sizes == (1, 1, 1, 1, 1, 2, 1)


def test_generator_forward_probabilities():
    net = GeneratorNet(TOY_SPACE, seed=3)
    feats = featurize_subnet(one_op_subnet())
    probs, cfg = generator_forward(net, feats, tau=1.0, noise_seed=5)
    for p in probs:
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0)
    # singleton heads are forced
    assert probs[0] == pytest.approx([1.0])
    assert cfg.pe_x == 16 and cfg.loop_order == "BIOHW"


def test_generator_forward_equal_logits_uniform():
    net = GeneratorNet(TOY_SPACE, seed=3)
    net.heads[5]["p"][:] = 0.0
    net.heads[5]["q"][:] = 0.0
    feats = featurize_subnet(one_op_subnet())
    probs, _ = generator_forward(net, feats, tau=1.0)  # zero noise
    assert np.allclose(probs[5], 0.5)


def test_generator_forward_low_tau_is_hard_argmax():
    net = GeneratorNet(TOY_SPACE, seed=7)
    feats = featurize_subnet(one_op_subnet())
    probs, _ = generator_forward(net, feats, tau=1e-4, noise_seed=42)
    soft, _ = generator_forward(net, feats, tau=1.0, noise_seed=42)
    hard = np.argmax(soft[5])
    assert probs[5][hard] > 1 - 1e-6


def test_generator_forward_deterministic():
    net = GeneratorNet(TOY_SPACE, seed=1)
    feats = featurize_subnet(one_op_subnet())
    p1, c1 = generator_forward(net, feats, tau=2.0, noise_seed=9)
    p2, c2 = generator_forward(net, feats, tau=2.0, noise_seed=9)
    assert c1 == c2
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_policy_gradient_two_choice_toy():
    # fixed costs 0 / 1 on the only non-singleton head: training must drive
    # the probability of the cheap choice to one
    feats = np.full(8, 0.5)
    for seed in range(3):
        net = GeneratorNet(TOY_SPACE, seed=seed)
        budget = SearchBudget(
            max_evaluations=10**9, seed=seed, steps=500, samples_per_step=4,
            learning_rate=0.1, gumbel_tau=1.0, tau_decay=1.0, baseline_decay=0.9,
        )
        fit = train_policy(net, feats, lambda ch: (float(ch[5]), True), budget)
        logits, _ = net.forward(feats)
        p = np.exp(logits[5] - logits[5].max())
        p /= p.sum()
        assert p[0] >= 0.99, f"seed {seed}: P(cheap)={p[0]}"
        assert fit.choices[5] == 0


def test_policy_baseline_decay_one_freezes():
    feats = np.full(8, 0.5)
    net = GeneratorNet(TOY_SPACE, seed=0)
    budget = SearchBudget(max_evaluations=40, seed=0, steps=10, samples_per_step=4,
                          baseline_decay=1.0)
    fit = train_policy(net, feats, lambda ch: (float(ch[5]), True), budget)
    assert all(row.baseline == 0.0 for row in fit.trace)


def test_train_generator_singleton_space():
    subnet = one_op_subnet()
    net = GeneratorNet(SINGLETON_SPACE, seed=0)
    budget = SearchBudget(max_evaluations=20, seed=0, steps=5, samples_per_step=4)
    result = train_generator(net, subnet, SINGLETON_SPACE, budget=budget)
    assert result.config == AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIOHW")
    costs = {row.mean_cost for row in result.trace}
    assert len(costs) == 1  # flat trace: only one config to sample


def test_train_generator_head_mismatch():
    net = GeneratorNet(SINGLETON_SPACE, seed=0)
    with pytest.raises(ValueError, match="head sizes"):
        train_generator(net, one_op_subnet(), ParamSpace(), budget=SearchBudget())


def test_anneal_zero_temperature_is_greedy(small_subnet, reduced_space_24):
    budget = SearchBudget(max_evaluations=60, seed=4, initial_temperature=0.0)
    result = anneal_search(small_subnet, reduced_space_24, budget=budget)
    costs = [row.cost for row in result.trace]
    best = [row.best_cost for row in result.trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert result.cost == min(best)


def test_anneal_trace_best_non_increasing(small_subnet, reduced_space_24):
    budget = SearchBudget(max_evaluations=80, seed=1)
    result = anneal_search(small_subnet, reduced_space_24, budget=budget)
    best = [row.best_cost for row in result.trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_anneal_deterministic(small_subnet, reduced_space_24):
    budget = SearchBudget(max_evaluations=80, seed=2)
    r1 = anneal_search(small_subnet, reduced_space_24, budget=budget)
    r2 = anneal_search(small_subnet, reduced_space_24, budget=budget)
    assert r1.config == r2.config
    assert r1.cost == r2.cost
    assert r1.trace == r2.trace


def test_searches_never_return_infeasible():
    # a 1x1 output tile of this operator needs ~256 KB of activation cache,
    # so every 64 KB config is infeasible and every 528 KB config is feasible
    op = OperatorDescriptor(512, 1, 1, 1, 1, 8, 8)
    subnet = SubnetDescriptor((op,))
    mixed = ParamSpace(
        pe_x=(16,), pe_y=(16,), act_cache_kb=(64, 528), wgt_cache_kb=(64, 528),
        out_cache_kb=(64,), dataflows=(Dataflow.WS,), loop_orders=("BIOHW",),
    )
    budget = SearchBudget(max_evaluations=40, seed=0)
    annealed = anneal_search(subnet, mixed, budget=budget)
    assert annealed.config.act_cache_kb == 528 and annealed.config.wgt_cache_kb == 528
    net = GeneratorNet(mixed, seed=0)
    trained = train_generator(net, subnet, mixed, budget=budget)
    assert trained.config.act_cache_kb == 528 and trained.config.wgt_cache_kb == 528
    exhaust = exhaustive_search(subnet, mixed)
    assert exhaust.config.act_cache_kb == 528


def test_exhaustive_singleton_and_guard(small_subnet):
    result = exhaustive_search(small_subnet, SINGLETON_SPACE)
    assert result.config == AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIOHW")
    with pytest.raises(SpaceTooLarge):
        exhaustive_search(small_subnet, ParamSpace())


def test_scorer_penalty_without_feasible_cost():
    op = OperatorDescriptor(724, 1, 1, 1, 1, 8, 8)
    scorer = make_subnet_scorer(SubnetDescriptor((op,)), SINGLETON_SPACE, None, None)
    cfg = AcceleratorConfig(16, 16, 64, 64, 64, Dataflow.WS, "BIOHW")
    cost, feasible = scorer(choices_of(SINGLETON_SPACE, cfg))
    assert not feasible
    assert cost == 1e9


def test_all_infeasible_raises():
    op = OperatorDescriptor(724, 1, 1, 1, 1, 8, 8)
    subnet = SubnetDescriptor((op,))
    space = ParamSpace(
        pe_x=(16,), pe_y=(16,), act_cache_kb=(64,), wgt_cache_kb=(64,),
        out_cache_kb=(64,), dataflows=(Dataflow.WS,), loop_orders=("BIOHW",),
    )
    with pytest.raises(NoFeasibleTiling):
        exhaustive_search(subnet, space)
    with pytest.raises(NoFeasibleTiling):
        anneal_search(subnet, space, budget=SearchBudget(max_evaluations=10, seed=0))


@pytest.mark.parametrize("engine", ENGINES)
def test_config_built_once_per_distinct_choices(engine, small_subnet, reduced_space_24,
                                                monkeypatch):
    """Every engine scores choice tuples and builds a config only for a tuple
    the scorer has not seen, in first-seen order, then once for the winner."""
    space = reduced_space_24
    built, scored = [], []
    config_at = ParamSpace.config_at

    def counting_config_at(self, choices):
        built.append(tuple(choices))
        return config_at(self, choices)

    def recording_scorer(*args):
        score = make_subnet_scorer(*args)

        def recorded(choices):
            scored.append(choices)
            return score(choices)

        return recorded

    monkeypatch.setattr(ParamSpace, "config_at", counting_config_at)
    monkeypatch.setattr(hwsearch, "make_subnet_scorer", recording_scorer)
    budget = SearchBudget(max_evaluations=200, seed=3, steps=40, samples_per_step=5)
    result = search_accel(engine, small_subnet, space, None, budget, None)
    assert result.engine == engine
    assert isinstance(result.net, GeneratorNet) if engine == "generator" else result.net is None
    distinct = list(dict.fromkeys(scored))
    if engine == "exhaustive":
        assert scored == distinct and len(distinct) == 24
    else:
        assert len(scored) > len(distinct)  # revisits, which must build no config
    assert len(built) == len(distinct) + 1
    assert built == distinct + [choices_of(space, result.config)]


@pytest.mark.parametrize("field, value", [
    ("max_evaluations", 10.5),
    ("max_evaluations", True),
    ("max_evaluations", np.int64(10)),
    ("seed", 1.0),
    ("seed", False),
    ("steps", 2.5),
    ("samples_per_step", 4.0),
])
def test_budget_refuses_an_integer_field_that_is_not_an_int(field, value):
    """A float count would fail inside the engines, and `True` would come
    back as the reported number of evaluations, so every `int` field takes
    plain ints only."""
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        SearchBudget(**{field: value})



@pytest.mark.parametrize("make, match", [
    (lambda: SearchBudget(max_evaluations=0), "budget counts must be positive"),
    (lambda: SearchBudget(steps=0), "budget counts must be positive"),
    (lambda: SearchBudget(samples_per_step=-1), "budget counts must be positive"),
    (lambda: SearchBudget(gumbel_tau=0.0), "gumbel_tau must be positive"),
    (lambda: SearchBudget(gumbel_tau=-1.0), "gumbel_tau must be positive"),
    (lambda: SearchBudget(baseline_decay=-0.1), r"baseline_decay must be in \[0, 1\]"),
    (lambda: SearchBudget(baseline_decay=1.5), r"baseline_decay must be in \[0, 1\]"),
    (lambda: GeneratorNet(TOY_SPACE, hidden=4, n_blocks=1).forward(np.zeros(7)),
     "expected feature vector of shape"),
    (lambda: GeneratorNet(TOY_SPACE, hidden=4, n_blocks=1).forward(np.zeros((1, 8))),
     "expected feature vector of shape"),
], ids=["evaluations", "steps", "samples", "tau-zero", "tau-negative", "decay-below",
        "decay-above", "features-short", "features-2d"])
def test_search_inputs_outside_their_domain_are_refused(make, match):
    with pytest.raises(ValueError, match=match):
        make()
