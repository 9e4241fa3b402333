import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acceldse import (
    channel_importance,
    gumbel_softmax,
    memory_model,
    mix_precision,
    quantize,
    quantize_channels,
    topk_channels,
)
from acceldse import quant
from conftest import PROPERTY, allocation_peak, make_synthetic_subnet_22
from quant_oracle import reference_mix_precision, reference_quantize, reference_quantize_channels


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


@settings(PROPERTY)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5), min_size=n, max_size=n))))
def test_channel_importance_sums_in_operator_order(case):
    """Each channel's importance is ``(a0*g0 + a1*g1) + a2*g2 + ...`` in Python
    floats, bit for bit: the order a matrix product would leave to BLAS."""
    alpha, gammas = case
    expected = [0.0] * 5
    for weight, scales in zip(alpha, gammas):
        expected = [total + weight * g for total, g in zip(expected, scales)]
    got = channel_importance(alpha, np.array(gammas).reshape(len(alpha), 5))
    assert got.dtype == np.float64
    assert [float.hex(v) for v in got.tolist()] == [float.hex(v) for v in expected]


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


def test_memory_model_ratio_measured_on_the_22_operator_maps():
    """Held as one search step holds them (the float activations and one
    quantized copy per width of (2, 4, 8)), the 22-operator subnet's feature
    maps at batch 1 peak at 4.01x their bytes whole and at 1.13x with only
    the K=3% group quantized, gathered as `quantize_channels` gathers it: a
    measured ratio of 3.55, short of the model's 3.67 by the gather copy and
    `topk_channels`' floor of one channel.  The peaks depend on the shapes
    alone, not on the values."""
    rng = np.random.default_rng(1)
    maps = [(rng.normal(size=(1, op.out_channels, op.out_rows, op.out_rows)),
             rng.uniform(0.1, 2.0, op.out_channels)) for op in make_synthetic_subnet_22()]
    act_bytes = sum(acts.nbytes for acts, _ in maps)

    def hold(sparse):
        held = []
        for acts, gammas in maps:
            a = acts.copy()
            group = a[:, topk_channels(gammas, 3)] if sparse else a
            held += [a, group] + [quantize(group, bits)[0] for bits in (2, 4, 8)]
        return held

    group_share = sum(max(1, op.out_channels * 3 // 100) * op.out_rows**2
                      for op in make_synthetic_subnet_22()) * 8 / act_bytes
    assert 0.0313 < group_share < 0.0314  # the floor of one channel: above 3%
    whole = allocation_peak(lambda: hold(False)) / act_bytes
    sparse = allocation_peak(lambda: hold(True)) / act_bytes
    assert 4 <= whole < 4.01  # a copy per width, plus one map's temporaries
    assert 1 + 4 * group_share <= sparse < 1.13
    model = memory_model(3, 3, 22, float(act_bytes)).ratio
    assert 3.54 < whole / sparse < 3.56 < model



def as_bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def tensors(draw, shapes):
    """A tensor of a drawn shape: normal values at a drawn scale, a constant,
    a constant with one value changed, or integers; sometimes a strided
    (non-contiguous) view, and sometimes read-only."""
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("normal", "constant", "one differs", "integer")))
    constant = draw(st.sampled_from((0.0, -0.0, 4.2, -3e5)))
    if kind == "normal":
        values = rng.normal(draw(st.sampled_from((0.0, -7.0))),
                            draw(st.sampled_from((1e-6, 1.0, 1e4))), shape)
    elif kind == "integer":
        values = rng.integers(-9, 10, shape)
    else:
        values = np.full(shape, constant)
        if kind == "one differs":
            values.flat[rng.integers(values.size)] += draw(st.sampled_from((1e-12, 1.0, -2.5)))
    if values.ndim and draw(st.booleans()):
        padded = np.zeros((*shape[:-1], 2 * shape[-1]), dtype=values.dtype)
        padded[..., ::2] = values
        values = padded[..., ::2]
    if draw(st.booleans()):
        values.flags.writeable = False
    return values


ANY_SHAPE = st.lists(st.integers(1, 5), max_size=3).map(tuple)  # 0-d up to 3-d
ACTS_SHAPE = st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3))
# 52 and 53 bits are where a rounded scale can lift the maximum above the top
# code, so only the upper clip keeps the reference's two-sided clip's bits;
# `quantize` clips from 52 bits on, and 51 bits is the widest it does not
BIT_SETS = st.sampled_from(((2, 4, 8), (1, 3), (16, 51, 52, 53)))


def assert_fresh(out, values, before: bytes):
    """The input is unchanged, and the output is no view of it."""
    assert np.asarray(values).tobytes() == before
    assert not np.shares_memory(out, values)


@settings(PROPERTY, max_examples=300)
@given(st.data())
def test_kernels_match_the_plain_reference_bit_for_bit(data):
    bit_choices = data.draw(BIT_SETS)
    betas = np.random.default_rng(data.draw(st.integers(0, 99))).dirichlet(np.ones(len(bit_choices)))

    values = data.draw(tensors(ANY_SHAPE))
    before = values.tobytes()
    for bits in bit_choices:
        out, spec = quantize(values, bits)
        want, want_spec = reference_quantize(values, bits)
        assert spec == want_spec and type(spec.bits) is int and type(spec.qmax) is int
        assert out.shape == values.shape and np.array_equal(as_bits(out), as_bits(want))
        assert_fresh(out, values, before)
    mixed = mix_precision(values, betas, bit_choices)
    assert np.array_equal(as_bits(mixed), as_bits(reference_mix_precision(values, betas, bit_choices)))
    assert_fresh(mixed, values, before)

    acts = data.draw(tensors(ACTS_SHAPE))
    before = acts.tobytes()
    n = acts.shape[1]
    selection = data.draw(st.sampled_from(("none", "partial", "all")))
    if selection == "partial":
        channels = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    else:
        channels = list(range(n)) if selection == "all" else []
    if data.draw(st.booleans()):
        channels = np.array(channels, dtype=np.int64)
    out = quantize_channels(acts, channels, betas, bit_choices)
    want = reference_quantize_channels(acts, channels, betas, bit_choices)
    assert out.shape == acts.shape and np.array_equal(as_bits(out), as_bits(want))
    assert_fresh(out, acts, before)


def test_the_top_clip_matters_from_52_bits():
    """Over [0, x] with x = 0x1.7497e1b7c6a3cp+0 the rounded scale lifts
    x / s to qmax + 0.5 at 52 bits, where rint would give qmax + 1 and only
    the clip keeps the top code; at 51 bits the quotient stays below
    qmax + 0.5, as the bound in `quantize` proves for every range."""
    x = float.fromhex("0x1.7497e1b7c6a3cp+0")
    values = np.array([0.0, x / 3, x])
    for bits, lifted in ((51, False), (52, True)):
        qmax = 2**bits - 1
        assert (x / (x / qmax) >= qmax + 0.5) is lifted
        out, spec = quantize(values, bits)
        want, want_spec = reference_quantize(values, bits)
        assert spec == want_spec and np.array_equal(as_bits(out), as_bits(want))


@pytest.mark.parametrize("hi, case", [
    (1.0, "skipped"), (0.1, "minimum"), (0.3, "mask"), (-0.0, "mask"),
], ids=["skipped", "minimum", "mask-below", "mask-signed-zero"])
def test_each_top_code_pin_matches_the_plain_reference(hi, case):
    """At 2 bits over values from -2.5 to `hi`, the top code dequantizes to
    T = 3s - 2.5 and the code below it to P = 2s - 2.5.  The pin is skipped
    when T is `hi` bit for bit, is a minimum when T > hi > P, and is a mask
    otherwise: T below `hi` at 0.3, and T = +0.0 against `hi` = -0.0.  Each
    input reaches its case, and its quantization and its mixtures, with a
    zero weight first or last, equal the plain reference bit for bit."""
    scale = (hi + 2.5) / 3
    top_value, below_top = 3 * scale - 2.5, 2 * scale - 2.5
    same_bits = as_bits(top_value) == as_bits(hi)
    if case == "skipped":
        assert same_bits
    elif case == "minimum":
        assert top_value > hi > below_top
    else:
        assert not same_bits and not top_value > hi
    values = np.array([hi, -2.5, -1.6, -0.8, hi, -2.4])
    out, spec = quantize(values, 2)
    want, want_spec = reference_quantize(values, 2)
    assert spec == want_spec and spec.scale == scale
    assert np.array_equal(as_bits(out), as_bits(want))
    for betas in ([1.0, 0.0], [0.0, 1.0]):
        assert np.array_equal(as_bits(mix_precision(values, betas, (2, 4))),
                              as_bits(reference_mix_precision(values, betas, (2, 4))))


@pytest.mark.parametrize("bits", [0, -3, 54, 2000, 2.5, 8.0, True, False, "8", None, np.int8(-1)])
def test_quantize_refuses_bits_off_domain(bits):
    with pytest.raises(ValueError, match=r"^bits must be an int in \[1, 53\]"):
        quantize(np.array([0.0, 1.0, 2.0]), bits)


def test_quantize_takes_numpy_integer_bits_as_plain_ints():
    v = np.array([0.0, 1.0, 15.0, 7.3])
    for bits in (np.int8(8), np.uint8(8), np.int64(8)):
        out, spec = quantize(v, bits)
        assert spec == quantize(v, 8)[1]
        assert type(spec.bits) is int and spec.qmax == 255 and type(spec.qmax) is int
        assert np.array_equal(as_bits(out), as_bits(quantize(v, 8)[0]))
    out, spec = quantize(v, 53)
    assert spec.qmax == 2**53 - 1 and np.all(np.abs(out - v) <= spec.scale)


@pytest.mark.parametrize("values", [[np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [np.nan]])
def test_quantize_refuses_non_finite_entries(values):
    with pytest.raises(ValueError, match="^tensor contains non-finite entries$"):
        quantize(np.array(values), 4)


@pytest.mark.parametrize("values,bits,match", [
    ([-1e308, 0.0, 1e308], 2, "overflows float64"),
    ([-1.7e308, 1.7e308], 8, "overflows float64"),
    ([0.0, 5e-324, 1e-323], 8, "below 2\\^-1022"),
    ([0.0, 5e-324], 1, "below 2\\^-1022"),
    ([0.0, 2.0**-1000], 30, "below 2\\^-1022"),
])
def test_quantize_refuses_ranges_off_the_grid_domain(values, bits, match):
    with pytest.raises(ValueError, match=match):
        quantize(np.array(values), bits)


def test_quantize_range_domain_edges_and_constants():
    for constant in (1e308, -1e308, 5e-324, 0.0):
        v = np.full(4, constant)
        out, spec = quantize(v, 8)
        assert spec.scale == 0.0 and np.array_equal(as_bits(out), as_bits(v))
    out, spec = quantize(np.array([0.0, 2.0**-1022 * 3]), 2)  # the smallest normal scale
    assert spec.scale == 2.0**-1022 and np.array_equal(out, [0.0, 2.0**-1022 * 3])
    out, spec = quantize(np.array([-8e307, 8e307]), 2)
    assert np.all(np.isfinite(out)) and np.array_equal(out, [-8e307, 8e307])


@pytest.mark.parametrize("channels", [[0.7], [True, False, True], np.array([1.0, 2.0]),
                                      [[0, 1]], np.array(1), ["0"]])
def test_quantize_channels_refuses_malformed_selections(channels):
    a = np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2)
    with pytest.raises(ValueError, match="^channels must be a 1-D list of integer indices"):
        quantize_channels(a, channels, [0.2, 0.3, 0.5])


def test_quantize_channels_takes_empty_and_unsigned_selections():
    a = np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2)
    betas = [0.2, 0.3, 0.5]
    for empty in ([], np.array([]), np.array([], dtype=np.uint8)):
        out = quantize_channels(a, empty, betas)
        assert np.array_equal(out, a) and not np.shares_memory(out, a)
    assert np.array_equal(quantize_channels(a, np.array([0, 2], dtype=np.uint8), betas),
                          quantize_channels(a, [0, 2], betas))
    with pytest.raises(IndexError):
        quantize_channels(a, np.array([3], dtype=np.uint64), betas)


@pytest.mark.parametrize("betas", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.5, 0.5, -np.inf]])
def test_mix_precision_refuses_non_finite_betas(betas):
    with pytest.raises(ValueError, match="^betas must be finite"):
        mix_precision(np.array([0.0, 1.0, 15.0]), betas)
    for channels in ([0, 1], []):
        with pytest.raises(ValueError, match="^betas must be finite"):
            quantize_channels(np.ones((1, 2, 1, 1)), channels, betas)


@pytest.mark.parametrize("betas,bit_choices", [
    ([], ()),
    ([1.5, -0.5, 0.0], (2, 4, 8)),
    ([0.5, 0.5, 0.5], (2, 4, 8)),
    ([0.2, 0.2, 0.2], (2, 4, 8)),
    ([0.5, 0.5 + 2e-9], (2, 4)),
    ([1.0, -0.0, -1e-300], (2, 4, 8)),
    ([2.0, -1.0, 0.0], (2, 4, 8)),
    ([1.0], ()),
])
def test_mix_precision_refuses_weights_that_are_no_convex_mixture(betas, bit_choices):
    """An empty bit set, a negative weight, or weights whose sum is off 1 by
    more than the tolerance are refused on every path, an empty selection
    included."""
    with pytest.raises(ValueError, match="^bit_choices must not be empty|^betas must be non-negative"):
        mix_precision(np.array([0.0, 1.0, 15.0]), betas, bit_choices)
    for channels in ([1], []):
        with pytest.raises(ValueError,
                           match="^bit_choices must not be empty|^betas must be non-negative"):
            quantize_channels(np.arange(4.0).reshape(1, 2, 2, 1), channels, betas, bit_choices)


@pytest.mark.parametrize("bit_choices", [(2, 99), (0, 4), (True, 8)])
def test_mix_precision_refuses_a_width_off_domain_before_any_work(monkeypatch, bit_choices):
    """A width `quantize` would refuse is refused before any width is
    quantized, and with an empty selection too."""
    calls = []
    monkeypatch.setattr(quant, "quantize", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^bits must be an int in \[1, 53\]"):
        mix_precision(np.array([0.0, 1.0, 15.0]), [0.5, 0.5], bit_choices)
    for channels in ([1], []):
        with pytest.raises(ValueError, match=r"^bits must be an int in \[1, 53\]"):
            quantize_channels(np.arange(4.0).reshape(1, 2, 2, 1), channels, [0.5, 0.5],
                              bit_choices)
    assert calls == []


def test_mix_precision_takes_normalized_float_weights():
    """Weights normalized in floating point miss 1 by a few ulps and are
    accepted: Dirichlet draws, weights divided by their sum, thirds, and a
    sum off by less than the tolerance."""
    v = np.array([0.0, 1.0, 15.0, 7.3])
    rng = np.random.default_rng(0)
    weight_sets = [rng.dirichlet(np.ones(n)) for n in (2, 3, 7) for _ in range(200)]
    for _ in range(200):
        w = rng.random(3)
        weight_sets.append(w / w.sum())
    weight_sets += [np.full(3, 1 / 3), np.array([1.0, -0.0, 0.0]), np.array([0.5, 0.5 + 5e-10, 0.0])]
    for betas in weight_sets:
        bit_choices = (2, 4, 8, 1, 3, 5, 6)[:betas.size]
        assert np.array_equal(mix_precision(v, betas, bit_choices),
                              reference_mix_precision(v, betas, bit_choices))


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4, 2)])
def test_quantize_refuses_an_empty_tensor(shape):
    with pytest.raises(ValueError, match="^cannot quantize an empty tensor"):
        quantize(np.zeros(shape), 8)
    with pytest.raises(ValueError, match="^cannot quantize an empty tensor"):
        mix_precision(np.zeros(shape), [0.2, 0.3, 0.5])


@pytest.mark.parametrize("shape", [(0, 3, 2, 2), (2, 0, 2, 2), (2, 3, 0, 2), (2, 3, 2, 0)])
@pytest.mark.parametrize("selection", ["none", "one", "all"])
def test_quantize_channels_refuses_empty_activations_whatever_the_selection(shape, selection):
    """Empty activations define no value range, so there is no selection
    for which the result is defined: each is refused the same way."""
    channels = {"none": [], "one": [0], "all": list(range(shape[1]))}[selection]
    with pytest.raises(ValueError, match="^cannot quantize empty activations"):
        quantize_channels(np.zeros(shape), channels, [0.2, 0.3, 0.5])


@pytest.mark.parametrize("tau", [float("nan"), 0.0, -1.0])
def test_gumbel_softmax_refuses_a_tau_that_is_not_positive(tau):
    """NaN compares false with 0, so it is refused by the same test as a
    non-positive tau, not relaxed into all-NaN probabilities."""
    with pytest.raises(ValueError, match="tau must be positive"):
        gumbel_softmax([1.0, 2.0], tau)


@pytest.mark.parametrize("logits", [[], np.zeros((0, 3))])
def test_gumbel_softmax_refuses_empty_logits(logits):
    with pytest.raises(ValueError, match="cannot relax empty logits"):
        gumbel_softmax(logits, 1.0)


@pytest.mark.parametrize("importance", [np.float64(2.0), np.ones((2, 2)), [[0.5, 1.0]]])
def test_topk_channels_refuses_importance_that_is_not_1d(importance):
    with pytest.raises(ValueError, match="importance must be 1-D"):
        topk_channels(importance, 50)


@pytest.mark.parametrize("n_ops, act_bytes, match", [
    (0, 1.0, "n_ops must be >= 1"),
    (-2, 1.0, "n_ops must be >= 1"),
    (3, 0.0, "act_bytes must be finite and positive"),
    (3, -5.0, "act_bytes must be finite and positive"),
    (3, float("nan"), "act_bytes must be finite and positive"),
    (3, float("inf"), "act_bytes must be finite and positive"),
])
def test_memory_model_refuses_sizes_without_a_defined_ratio(n_ops, act_bytes, match):
    """A zero, negative or non-finite size would divide by zero or give
    negative or NaN byte counts."""
    with pytest.raises(ValueError, match=match):
        memory_model(3, 50, n_ops, act_bytes)
    assert memory_model(3, 50, 1, 1.0).ratio == 4 / 2.5


ACTS = np.arange(8.0).reshape(1, 2, 2, 2)


@pytest.mark.parametrize("make, match", [
    (lambda: mix_precision(np.arange(3.0), [0.5, 0.5]), "betas must have one weight per bit"),
    (lambda: mix_precision(np.arange(3.0), [[0.2, 0.3, 0.5]]), "betas must have one weight per bit"),
    (lambda: gumbel_softmax([1.0, 2.0], 1.0, mode="hard"), "mode must be 'paper' or 'standard'"),
    (lambda: gumbel_softmax([np.nan, 1.0], 1.0), "must have a finite maximum"),
    (lambda: gumbel_softmax([np.inf, 1.0], 1.0), "must have a finite maximum"),
    (lambda: gumbel_softmax([-np.inf, -np.inf], 1.0), "must have a finite maximum"),
    (lambda: gumbel_softmax([1.0, 2.0], 1.0, noise=[np.nan, 0.0]), "must have a finite maximum"),
    (lambda: topk_channels(np.ones(4), -1), r"k_percent must be in \[0, 100\]"),
    (lambda: topk_channels(np.ones(4), 100.5), r"k_percent must be in \[0, 100\]"),
    (lambda: quantize_channels(ACTS[0], [0], [0.2, 0.3, 0.5]), "activations must be 4-D"),
    (lambda: quantize_channels(ACTS[None], [0], [0.2, 0.3, 0.5]), "activations must be 4-D"),
    (lambda: memory_model(-1, 50, 1, 1.0), "m must be >= 0"),
    (lambda: memory_model(float("nan"), 50, 1, 1.0), "m must be >= 0 and a plain int"),
    (lambda: memory_model(3.0, 50, 1, 1.0), "m must be >= 0 and a plain int"),
    (lambda: memory_model(True, 50, 1, 1.0), "m must be >= 0 and a plain int"),
    (lambda: memory_model(3, 50, 2.5, 1.0), "n_ops must be >= 1 and a plain int"),
    (lambda: memory_model(3, 50, True, 1.0), "n_ops must be >= 1 and a plain int"),
    (lambda: memory_model(3, -1, 1, 1.0), r"k_percent must be in \[0, 100\]"),
    (lambda: memory_model(3, 101, 1, 1.0), r"k_percent must be in \[0, 100\]"),
], ids=["betas-short", "betas-2d", "mode", "logit-nan", "logit-inf", "logits-all-minus-inf",
        "noise-nan", "k-negative", "k-above", "acts-3d", "acts-5d",
        "m-negative", "m-nan", "m-float", "m-bool", "n-ops-float", "n-ops-bool",
        "memory-k-negative", "memory-k-above"])
def test_quant_inputs_outside_their_domain_are_refused(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_gumbel_softmax_gives_a_minus_inf_logit_probability_zero():
    """A -inf among finite logits is a category ruled out, not an error."""
    assert gumbel_softmax([-np.inf, 1.0, 1.0], 1.0).tolist() == [0.0, 0.5, 0.5]


EDGE_LOGITS = st.sampled_from((0.0, -0.0, -np.inf, 1.0, -3.5, 700.0, -745.0, 5e-324, 1e308,
                                 -1e308, 1.7976931348623157e308))


@settings(PROPERTY)
@given(st.lists(EDGE_LOGITS | st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=6),
       st.sampled_from((1e-300, 1e-3, 0.1, 0.7, 1.0, 3.0, 1e300)),
       st.sampled_from(("paper", "standard")))
def test_gumbel_softmax_without_noise_is_the_zero_noise_relaxation(logits, tau, mode):
    """With neither `noise` nor `rng` the logits are not perturbed: the
    output, or the refusal, is that of an explicit zero noise, bit for bit,
    signed zeros, -inf and overflowing logits included."""
    z = np.array(logits)

    def relax(**noise):
        try:
            return gumbel_softmax(z, tau, mode=mode, **noise)
        except ValueError as exc:
            return str(exc)

    got, want = relax(), relax(noise=np.zeros_like(z))
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(as_bits(got), as_bits(want))


@pytest.mark.parametrize("logits, tau, noise", [
    ([1e300, 2.0], 1e-10, None),
    ([1.7e308], 1.0, [1.7e308]),
], ids=["divide-overflows", "add-overflows"])
def test_gumbel_softmax_refuses_finite_logits_whose_relaxation_overflows(logits, tau, noise):
    """Finite inputs whose `(logits + noise) / tau` overflows to inf get the
    library's refusal, not numpy's overflow warning (an error in this suite)."""
    with pytest.raises(ValueError, match="must have a finite maximum"):
        gumbel_softmax(logits, tau, noise=noise)


@pytest.mark.parametrize("kernel", ["mix_precision", "quantize_channels"])
def test_mixture_holds_one_quantized_width_at_a_time(kernel):
    """On a 1 MiB map the mixture peaks at its output, one quantized width
    and that width's top-code mask (2.125x the input's bytes) under
    tracemalloc; holding the previous width while the next is built made it
    3.125x.  `quantize_channels` at K=100 is that same dense mixture."""
    acts = np.random.default_rng(3).standard_normal((8, 16, 32, 32))
    betas = [0.2, 0.3, 0.5]
    if kernel == "mix_precision":
        peak = allocation_peak(lambda: mix_precision(acts, betas))
    else:
        channels = topk_channels(np.arange(16.0), 100)
        peak = allocation_peak(lambda: quantize_channels(acts, channels, betas))
    assert peak < 2.5 * acts.nbytes, peak / acts.nbytes
