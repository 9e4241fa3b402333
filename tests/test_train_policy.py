"""`train_policy` against the plain reference loop, and the two pieces it
rests on: the batched categorical sampler and the no-op update test."""

import copy

import numpy as np
import pytest
from conftest import make_reduced_space_24, make_small_subnet
from hypothesis import example, given, settings
from hypothesis import strategies as st
from policy_oracle import reference_train_policy
from test_hwsearch import SINGLETON_SPACE, TOY_SPACE

from acceldse import GeneratorNet, SearchBudget
from acceldse.hwsearch import (
    draw_choices,
    head_cdfs,
    make_subnet_scorer,
    train_policy,
    update_bound,
    update_is_no_op,
)

SPACES = {"toy": TOY_SPACE, "singleton": SINGLETON_SPACE, "space24": make_reduced_space_24()}
FEATS = np.linspace(0.05, 0.9, GeneratorNet.N_FEATURES)


def weight_arrays(net):
    return [net.w_in, net.b_in, *(blk[k] for blk in net.blocks for k in "ucvd"),
            *(head[k] for head in net.heads for k in "pq")]


def weight_bits(net):
    return [w.view(np.uint64).copy() for w in weight_arrays(net)]


def table_scorer(values, feasible):
    """A cost per config from a short table, so costs tie; an infeasible
    entry scores the 1e9 penalty."""

    def score(choices):
        i = sum(c * 7**k for k, c in enumerate(choices)) % len(values)
        return (float(values[i]), True) if feasible[i] else (1e9, False)

    return score


def subnet_scorer(space):
    return make_subnet_scorer(make_small_subnet(), space, None, None)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    space_name=st.sampled_from(sorted(SPACES)),
    shape=st.sampled_from([(4, 1), (16, 2), (128, 5)]),
    net_seed=st.integers(0, 3),
    steps=st.integers(1, 40),
    samples=st.integers(1, 6),
    max_evaluations=st.integers(1, 300),
    lr=st.sampled_from([0.0, -0.05, 0.1, 1.0]),
    tau=st.sampled_from([0.002, 1.0, 5.0]),
    tau_decay=st.sampled_from([0.5, 0.95, 1.0]),
    baseline_decay=st.sampled_from([0.0, 0.9, 1.0]),
    table=st.none() | st.tuples(st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=1,
                                         max_size=4),
                                st.lists(st.booleans(), min_size=4, max_size=4)),
)
@example(space_name="singleton", shape=(16, 2), net_seed=0, steps=30, samples=4,
         max_evaluations=150, lr=0.1, tau=5.0, tau_decay=0.95, baseline_decay=0.9,
         table=None)
@example(space_name="space24", shape=(128, 5), net_seed=1, steps=40, samples=5,
         max_evaluations=143, lr=0.1, tau=5.0, tau_decay=0.5, baseline_decay=0.9,
         table=([2.0, 2.0, 1.0], [True, False, True, True]))
@example(space_name="toy", shape=(16, 2), net_seed=2, steps=40, samples=6,
         max_evaluations=300, lr=0.0, tau=1.0, tau_decay=0.5, baseline_decay=0.9,
         table=([1.0, 3.5], [True, True, True, True]))
def test_train_policy_matches_reference(space_name, shape, net_seed, steps, samples,
                                        max_evaluations, lr, tau, tau_decay, baseline_decay,
                                        table):
    """Bit for bit: trace rows, choices, best choice and cost, evaluations
    and every final weight."""
    space = SPACES[space_name]
    budget = SearchBudget(max_evaluations=max_evaluations, seed=net_seed, steps=steps,
                          samples_per_step=samples, learning_rate=lr, gumbel_tau=tau,
                          tau_decay=tau_decay, baseline_decay=baseline_decay)
    outcomes = []
    for train in (reference_train_policy, train_policy):
        net = GeneratorNet(space, hidden=shape[0], n_blocks=shape[1], seed=net_seed)
        score = table_scorer(*table) if table else subnet_scorer(space)
        outcomes.append((repr(train(net, FEATS, score, budget)), weight_bits(net)))
    (expected, expected_bits), (got, got_bits) = outcomes
    assert got == expected
    assert all(np.array_equal(a, b) for a, b in zip(got_bits, expected_bits))


def scaled_net(seed, scale=1.0, head_scale=1.0, target=None):
    """A small net with its blocks' and input layer's weights scaled by
    `scale` and its heads' by `head_scale`.  `target`, as (where, exponent),
    sets one weight of the last head to 2**exponent, a power of two, so that
    it sets the no-op floor at its tightest: its bias ("q") or the weight
    ("p") that multiplies the largest final activation."""
    net = GeneratorNet(TOY_SPACE, hidden=8, n_blocks=2, seed=seed)
    for w in weight_arrays(net):
        w *= scale
    for head in net.heads:
        head["p"] *= head_scale / scale
        head["q"] *= head_scale / scale
    if target is not None:
        where, exponent = target
        _, (_, _, _, a_final) = net.forward(FEATS)
        index = 0 if where == "q" else (0, int(np.argmax(np.abs(a_final))))
        net.heads[-1][where][index] = 2.0**exponent
    return net


def rule_skips_soundly(net, cache, dlogits, lr):
    """Whether the rule skips; if it does, a real update must change no bit."""
    d = max(np.abs(g).max() for g in dlogits)
    skip = update_is_no_op(lr, d, update_bound(net, cache))
    if skip:
        trial = copy.deepcopy(net)
        trial.sgd_step(trial.backward(cache, dlogits), lr)
        assert all(np.array_equal(a, b) for a, b in zip(weight_bits(trial), weight_bits(net)))
    return skip


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 50),
    scale=st.sampled_from([1e-3, 0.1, 1.0, 30.0]),
    head_scale=st.sampled_from([1e-6, 1.0]),
    target=st.none() | st.tuples(st.sampled_from(["p", "q"]), st.integers(-40, 3)),
    lr=st.sampled_from([1.0, 0.1, -0.3, 7.0]),
    factor=st.sampled_from([0.25, 0.9, 0.999, 1.001, 1.1, 4.0]),
    one_hot=st.sampled_from([1.0, -1.0, None]),
    data=st.data(),
)
def test_no_op_rule_is_sound(seed, scale, head_scale, target, lr, factor, one_hot, data):
    """`dlogits` scaled to land just below and just above the bound: a
    skip never hides a weight change."""
    net = scaled_net(seed, scale, head_scale, target)
    _, cache = net.forward(FEATS)
    c, floor = update_bound(net, cache)
    if one_hot is not None:  # all of the step on the last head's first logit
        direction = [np.zeros(n) for n in net.head_sizes]
        direction[-1][0] = one_hot
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        direction = [rng.uniform(-1, 1, n) for n in net.head_sizes]
    top = max(np.abs(g).max() for g in direction)
    d = factor * floor / (2 * abs(lr) * c)
    dlogits = [g / top * d for g in direction]
    skip = rule_skips_soundly(net, cache, dlogits, lr)
    if factor >= 1.001:
        assert not skip


@pytest.mark.parametrize("where", ["weight", "bias", "activation", "d", "lr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_no_op_rule_never_skips_on_nan_or_inf(where, bad):
    net = scaled_net(0)
    _, cache = net.forward(FEATS)
    lr, d = 0.1, 0.0
    assert update_is_no_op(lr, d, update_bound(net, cache))
    if where == "weight":
        net.blocks[1]["v"][3, 4] = bad
    elif where == "bias":  # a weight the bound's C does not read
        net.blocks[0]["c"][2] = bad
    elif where == "activation":
        cache[2][0][2][1] = bad  # hh of the first block
    elif where == "d":
        d = bad
    else:
        lr = bad
    assert not update_is_no_op(lr, d, update_bound(net, cache))


def test_no_op_rule_counts_subnormal_rounding():
    """With `max|dlogits|` at the smallest subnormal, each backward product
    below rounds up from 0.51 to 1 unit, so one gradient entry is 8 units
    where the bound allows about 2.4.  That moves the weight 2**-1013, so
    the rule must not skip, although `2 |lr| d C < floor` holds for the raw
    `d`."""
    net = GeneratorNet(TOY_SPACE, hidden=8, n_blocks=1, seed=0)
    for w in weight_arrays(net):
        w[...] = 2.0**-60
    net.b_in[:] = 0.5
    blk = net.blocks[0]
    blk["c"][:] = 0.5
    blk["c"][0] = 2.0**-1013  # sets the floor: 128 units
    blk["v"][:] = 0.51
    for head in net.heads:
        head["q"][:] = 0.5
    net.heads[0]["p"][0] = 0.51
    _, cache = net.forward(FEATS)
    dlogits = [np.zeros(n) for n in net.head_sizes]
    dlogits[0][0] = d = 2.0**-1074
    lr = 20.0
    c, floor = update_bound(net, cache)
    assert 2 * lr * d * c < floor
    trial = copy.deepcopy(net)
    trial.sgd_step(trial.backward(cache, dlogits), lr)
    assert trial.blocks[0]["c"][0] != blk["c"][0]
    assert not rule_skips_soundly(net, cache, dlogits, lr)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("lr", [0.0, 0.1])
def test_no_op_rule_never_skips_with_a_zero_weight(zero, lr):
    net = scaled_net(0)
    net.heads[2]["p"][0, 0] = zero
    _, cache = net.forward(FEATS)
    assert update_bound(net, cache)[1] == 0.0
    assert not update_is_no_op(lr, 0.0, update_bound(net, cache))


def distribution(kind, weights, n):
    if kind == "one-hot":
        p = np.zeros(n)
        p[weights[0] % n] = 1.0
        return p
    w = np.array([weights[i % len(weights)] for i in range(n)], dtype=np.float64)
    if kind == "zeros":
        w[::2] = 0.0
    if not w.sum():
        w[-1] = 1.0
    return w / w.sum()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    heads=st.lists(st.tuples(st.sampled_from(["one-hot", "zeros", "dense"]),
                             st.lists(st.integers(0, 9), min_size=1, max_size=5),
                             st.sampled_from([1, 2, 3, 7, 120])),
                   min_size=1, max_size=7),
    n_samples=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_sampler_matches_choice(heads, n_samples, seed):
    """Same picks as one `rng.choice(len(p), p=p)` per sample and head, in
    sample-major order, and the same generator state afterwards."""
    probs = [distribution(kind, weights, n) for kind, weights, n in heads]
    expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [[int(expected_rng.choice(len(p), p=p)) for p in probs] for _ in range(n_samples)]
    assert draw_choices(rng, head_cdfs(probs), n_samples).tolist() == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [1.2, -0.2], [0.5, 0.4], [0.5, 0.6]],
                         ids=["nan", "negative", "sum-below-one", "sum-above-one"])
def test_invalid_probabilities_raise_like_choice(p):
    p = np.array(p)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError):
        head_cdfs([np.full(3, 1 / 3), p])
