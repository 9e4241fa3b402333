import numpy as np
import pytest

from acceldse import (
    channel_importance,
    gumbel_softmax,
    memory_model,
    mix_precision,
    quantize,
    quantize_channels,
    topk_channels,
)


def test_quantize_grid_exact():
    out, spec = quantize(np.array([0.0, 5.0, 10.0, 15.0]), 2)
    assert spec.scale == 5.0
    assert np.array_equal(out, [0.0, 5.0, 10.0, 15.0])


def test_quantize_rounding():
    out, spec = quantize(np.array([0.0, 1.0, 15.0]), 2)
    assert spec.scale == 5.0
    assert np.array_equal(out, [0.0, 0.0, 15.0])


def test_quantize_constant_tensor():
    v = np.full((2, 3), 4.2)
    out, spec = quantize(v, 4)
    assert np.array_equal(out, v)
    assert spec.scale == 0.0


def test_quantize_idempotent_bounded_monotone():
    rng = np.random.default_rng(21)
    for _ in range(100):
        v = rng.normal(scale=rng.uniform(0.1, 50.0), size=int(rng.integers(2, 64)))
        for bits in (2, 4, 8):
            q, spec = quantize(v, bits)
            q2, _ = quantize(q, bits)
            assert np.array_equal(q, q2)
            # float-roundoff allowance on the half-step bound
            assert np.all(np.abs(q - v) <= 0.5 * spec.scale + 1e-9 * np.abs(v))
            order = np.argsort(v, kind="stable")
            assert np.all(np.diff(q[order]) >= 0)


def test_mix_precision_one_hot():
    v = np.array([0.0, 1.0, 15.0])
    assert np.array_equal(mix_precision(v, [1.0, 0.0, 0.0]), quantize(v, 2)[0])


def test_mix_precision_on_grid_tensor():
    v = np.array([0.0, 5.0, 10.0, 15.0])
    mixed = mix_precision(v, [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(mixed, v)


def test_mix_precision_composition():
    v = np.array([0.0, 1.0, 15.0])
    mixed = mix_precision(v, [0.5, 0.5], bit_choices=(2, 4))
    expected = 0.5 * quantize(v, 2)[0] + 0.5 * quantize(v, 4)[0]
    assert np.array_equal(mixed, expected)
    assert np.array_equal(expected, [0.0, 0.5, 15.0])


def test_gumbel_softmax_uniform_cases():
    p = gumbel_softmax(np.zeros(5), tau=1.0, mode="paper")
    assert np.allclose(p, 0.2)
    p = gumbel_softmax(np.array([3.0, -1.0, 0.5, 2.0]), tau=1e6)
    assert np.all(np.abs(p - 0.25) < 1e-4)


def test_gumbel_softmax_paper_mode_value():
    p = gumbel_softmax(np.array([2.0, 0.0, 0.0]), tau=1.0, mode="paper")
    assert p == pytest.approx([0.7870, 0.1065, 0.1065], abs=1e-4)


def test_gumbel_softmax_simplex_and_tau_monotonicity():
    rng = np.random.default_rng(9)
    for mode in ("paper", "standard"):
        logits = rng.normal(size=6)
        noise = rng.random(6)
        prev_max = 0.0
        for tau in (10.0, 3.0, 1.0, 0.3, 0.1):
            p = gumbel_softmax(logits, tau, mode=mode, noise=noise)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0)
            assert p.max() >= prev_max - 1e-12
            prev_max = p.max()


def test_gumbel_standard_sampling_frequencies():
    logits = np.array([1.0, 0.0, -1.0])
    target = np.exp(logits) / np.exp(logits).sum()
    rng = np.random.default_rng(123)
    hits = np.zeros(3)
    n = 20_000
    for _ in range(n):
        hits[np.argmax(gumbel_softmax(logits, tau=1.0, rng=rng))] += 1
    assert np.all(np.abs(hits / n - target) < 0.02)


def test_channel_importance():
    gammas = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(channel_importance([0.7, 0.3], gammas), [0.7, 0.3])
    assert np.allclose(channel_importance([1.0, 0.0], gammas), gammas[0])
    const = np.full((3, 5), 2.5)
    assert np.allclose(channel_importance([0.2, 0.3, 0.5], const), 2.5)
    with pytest.raises(ValueError, match="shape mismatch"):
        channel_importance([0.5, 0.5], np.ones((3, 4)))


def test_channel_importance_linearity():
    rng = np.random.default_rng(4)
    g1 = rng.normal(size=(4, 6))
    g2 = rng.normal(size=(4, 6))
    a = rng.random(4)
    assert np.allclose(
        channel_importance(a, g1 + g2),
        channel_importance(a, g1) + channel_importance(a, g2),
    )
    assert np.allclose(channel_importance(2 * a, g1), 2 * channel_importance(a, g1))


def test_topk_channels():
    assert topk_channels(np.array([0.5, 2.0, 1.0, 0.1]), 25).tolist() == [1]
    assert topk_channels(np.array([0.5, 2.0, 1.0, 0.1]), 100).tolist() == [0, 1, 2, 3]
    assert topk_channels(np.array([1.0, 1.0, 1.0]), 34).tolist() == [0]
    assert topk_channels(np.array([1.0, 1.0, 1.0]), 0).size == 0
    # floor with minimum of one
    assert topk_channels(np.arange(10.0), 5).tolist() == [9]
    out = topk_channels(np.array([3.0, 9.0, 1.0, 9.0, 2.0]), 60)
    assert out.tolist() == sorted(out.tolist())


def test_quantize_channels_degenerate_and_scatter():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 4, 3, 3))
    betas = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(quantize_channels(a, [], betas), a)
    full = quantize_channels(a, np.arange(4), betas)
    assert np.array_equal(full, mix_precision(a, betas))

    two = rng.normal(size=(1, 2, 2, 2))
    onehot = np.array([1.0, 0.0, 0.0])
    out = quantize_channels(two, [0], onehot)
    assert np.array_equal(out[:, 0], quantize(two[:, [0]], 2)[0][:, 0])
    assert np.array_equal(out[:, 1], two[:, 1])
    with pytest.raises(IndexError):
        quantize_channels(two, [5], onehot)


def test_memory_model():
    assert memory_model(3, 100, 22, 1000.0).ratio == pytest.approx(1.0)
    assert memory_model(0, 3, 22, 1000.0).ratio == pytest.approx(1.0)
    est = memory_model(3, 3, 22, 1000.0)
    assert est.ratio == pytest.approx(4 / 1.09, rel=1e-12)
    prev = None
    for k in (1, 3, 10, 50, 100):
        r = memory_model(3, k, 22, 1000.0).ratio
        if prev is not None:
            assert r < prev
        prev = r

