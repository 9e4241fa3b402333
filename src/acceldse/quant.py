"""Numerical kernels for channel-sparse mixed-precision quantization.

Everything here is a pure function over numpy arrays: quantize/dequantize,
temperature-controlled softmax relaxations, mixed-precision mixtures,
channel-importance scoring with top-K selection, the channel-sparse assembly,
and the analytical activation-memory model used to size search-time storage.

Quantization grid: asymmetric, min-shifted.  For a tensor V and bitwidth b the
scale is s = (max(V) - min(V)) / (2^b - 1), values are shifted by min(V),
divided by s (never below 0), clipped to at most 2^b - 1, rounded
half-to-even, and mapped back; the top code maps to max(V) exactly.  The
rounding mode is stated explicitly because example values depend on it.

`quantize` skips each pass its inputs prove changes no bit: the clip below
52 bits, where rounding alone keeps every code at most 2^b - 1; the top-code
pin when the top code already dequantizes to max(V), bit for bit; and the
pin's mask when a plain minimum with max(V) pins exactly the top codes.
`mix_precision` starts its sum from the first weighted width instead of
from zeros.  Each rule is proved where it is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_BIT_CHOICES = (2, 4, 8)


@dataclass(frozen=True)
class QuantSpec:
    """Derived quantization parameters.  ``scale == 0`` marks the degenerate
    constant-tensor case, where the input is returned unchanged."""

    bits: int
    scale: float
    qmin: int
    qmax: int
    offset: float  # zero-point in real units: min(V)


# Every code 0..2^b - 1 is an exact float64 up to 53 bits.
MAX_BITS = 53
# A non-constant tensor's scale must be a normal float64: a subnormal or zero
# scale loses the grid, and zero is the constant-tensor sentinel.
MIN_SCALE = 2.0**-1022
# How far the sum of a mixture's weights may lie from 1: far above the few
# ulps by which a float sum of normalized weights (a Dirichlet draw, or
# weights divided by their sum) misses 1, far below any weights that do not
# form a convex mixture.
BETAS_SUM_TOLERANCE = 1e-9


def _check_bits(bits) -> int:
    """``bits`` as a plain int; see `quantize` for its domain."""
    if (isinstance(bits, bool) or not isinstance(bits, (int, np.integer))
            or not 1 <= bits <= MAX_BITS):
        raise ValueError(f"bits must be an int in [1, {MAX_BITS}], got {bits!r}")
    return int(bits)


def _check_mixture(betas, bit_choices) -> np.ndarray:
    """``betas`` as float64 once the contract of `mix_precision` holds."""
    if len(bit_choices) == 0:
        raise ValueError("bit_choices must not be empty")
    for bits in bit_choices:
        _check_bits(bits)
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (len(bit_choices),):
        raise ValueError(
            f"betas must have one weight per bit choice {tuple(bit_choices)}, got shape {betas.shape}"
        )
    if not np.all(np.isfinite(betas)):
        raise ValueError(f"betas must be finite, got {betas.tolist()}")
    if np.any(betas < 0) or not abs(betas.sum() - 1.0) <= BETAS_SUM_TOLERANCE:
        raise ValueError("betas must be non-negative and sum to 1 within "
                         f"{BETAS_SUM_TOLERANCE:g}, got {betas.tolist()}")
    return betas


def quantize(values: np.ndarray, bits: int) -> tuple[np.ndarray, QuantSpec]:
    """Quantize-dequantize a tensor at the given bitwidth.

    Returns the dequantized array (same shape, float64, never a view of the
    input) and the QuantSpec.  Constant tensors come back unchanged with a
    zero-scale sentinel.  ``bits`` is an int (not a bool) in [1, 53]; a
    non-constant tensor needs a finite ``max - min`` and a scale of at least
    2^-1022.  An empty tensor has no value range and is refused.
    """
    bits = _check_bits(bits)
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError(f"cannot quantize an empty tensor of shape {v.shape}: it has no "
                         "value range")
    # min and max propagate NaN, and an infinity is one of them
    lo = float(v.min())
    hi = float(v.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("tensor contains non-finite entries")
    qmax = 2**bits - 1
    if hi == lo:
        return v.copy(), QuantSpec(bits=bits, scale=0.0, qmin=0, qmax=qmax, offset=lo)
    if not math.isfinite(hi - lo):
        raise ValueError(f"value range [{lo!r}, {hi!r}] overflows float64")
    scale = (hi - lo) / qmax
    if scale < MIN_SCALE:
        raise ValueError(f"value range [{lo!r}, {hi!r}] at {bits} bits gives scale {scale!r}, "
                         f"below 2^-1022")
    # One buffer.  (v - lo) / scale is never below 0, so only the top can
    # need a clip, and only from 52 bits on.  With u = 2^-53 and D = hi - lo
    # (the largest v - lo, rounding being monotone), scale >= (D / qmax)(1 - u),
    # so the largest quotient is at most qmax (1 + u) / (1 - u), which is below
    # qmax + 0.5 for qmax <= 2^51 - 1: up to 51 bits rint alone keeps every
    # code at most qmax.
    q = np.subtract(v, lo)
    q /= scale
    if bits >= 52:
        np.minimum(q, qmax, out=q)
    np.rint(q, out=q)
    # Pin the top code exactly to max(V): qmax * ((hi-lo)/qmax) is off by an
    # ulp in general, and a drifting range would break exact idempotence by
    # changing the scale derived on re-quantization.  Dequantization is
    # monotone in the code, so two scalars, by the same float operations the
    # passes below apply, decide the pin: the top code's value T and the
    # next code's value P.  T equal to max(V) bit for bit (zero's sign too:
    # -2.5 and -0.0 give T = +0.0) needs no pin.  T above max(V) and P below
    # it means only the top codes land above max(V), so a minimum with max(V)
    # pins them and leaves every other value as it is.  Otherwise the top
    # codes are masked before dequantization.
    top_value = qmax * scale + lo
    pinned = top_value == hi and math.copysign(1.0, top_value) == math.copysign(1.0, hi)
    by_minimum = not pinned and top_value > hi > (qmax - 1) * scale + lo
    top = None if pinned or by_minimum else q == qmax
    q *= scale
    q += lo
    if by_minimum:
        np.minimum(q, hi, out=q)
    elif top is not None:
        np.copyto(q, hi, where=top)
    return q, QuantSpec(bits=bits, scale=scale, qmin=0, qmax=qmax, offset=lo)


def mix_precision(
    values: np.ndarray,
    betas,
    bit_choices=DEFAULT_BIT_CHOICES,
) -> np.ndarray:
    """Convex mixture of the tensor quantized at each candidate bitwidth.

    Weights are applied in ``bit_choices`` order and summed from zero.
    ``bit_choices`` is not empty, each width is one `quantize` takes, and
    ``betas`` holds one finite, non-negative weight per bit choice, summing
    to 1 within ``BETAS_SUM_TOLERANCE``, all checked before any work.

    The sum starts from the first weighted width plus 0.0, not from an array
    of zeros: IEEE addition is commutative, so ``w*q + 0.0`` has the bits of
    ``0.0 + w*q`` (a -0.0 product becomes +0.0 either way).

    It holds one quantized width at a time: each width's array is dropped
    once it is in the sum, so the working set is at most the output, one
    quantized copy and that copy's top-code mask."""
    betas = _check_mixture(betas, bit_choices)
    v = np.asarray(values, dtype=np.float64)
    mixed = None
    for weight, bits in zip(betas, bit_choices):
        q = quantize(v, bits)[0]  # a fresh array, scaled in place
        q *= weight
        if mixed is None:
            q += 0.0
            mixed = q
        else:
            mixed += q
        del q  # freed before the next width allocates its own
    return mixed


def gumbel_softmax(
    logits,
    tau: float,
    mode: str = "standard",
    noise: np.ndarray | None = None,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Temperature-controlled relaxation of a categorical distribution.

    ``standard`` perturbs the logits with Gumbel noise -log(-log(u)), so the
    argmax of the output is an exact categorical sample from
    softmax(logits).  ``paper`` adds plain uniform noise in [0, 1) instead.
    An explicit ``noise`` array overrides sampling; with neither ``noise`` nor
    ``rng`` given the perturbation is zero and the result is the plain
    tempered softmax.  ``tau`` must be positive (not NaN) and ``logits``
    not empty, and the relaxed logits ``(logits + noise) / tau`` must have a
    finite maximum: a NaN, a +inf or all -inf would give NaN probabilities.
    A -inf among finite entries gets probability 0.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if mode not in ("paper", "standard"):
        raise ValueError(f"mode must be 'paper' or 'standard', got {mode!r}")
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("cannot relax empty logits: they name no category")
    if noise is not None:
        eps = np.asarray(noise, dtype=np.float64)
    elif rng is not None:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        u = gen.random(z.shape)
        eps = u if mode == "paper" else -np.log(-np.log(np.clip(u, 1e-300, 1.0 - 1e-16)))
    else:
        # No perturbation.  Adding zeros would change at most a zero's sign,
        # and a +0 and a -0 logit get the same probability: less the maximum
        # they are equal, or are both zeros, whose exp is 1.
        eps = None
    # an overflow to +inf is refused below; one to -inf, far below the maximum, is probability 0
    with np.errstate(over="ignore"):
        shifted = (z if eps is None else z + eps) / tau
        top = shifted.max()  # NaN if any entry is NaN
        if not math.isfinite(top):
            raise ValueError(f"the relaxed logits (logits + noise) / tau must have a finite "
                             f"maximum, got {top}")
        expv = np.exp(shifted - top)
    return expv / expv.sum()


def channel_importance(alpha_prev, gamma_matrix) -> np.ndarray:
    """Per-channel importance: operator weights combined with each operator's
    per-channel batch-norm scales, ``(α0·γ0 + α1·γ1) + α2·γ2 + ...``.
    The products are summed in operator order, with no matrix product, so
    the bits do not depend on the CPU or the BLAS build."""
    alpha = np.asarray(alpha_prev, dtype=np.float64)
    gammas = np.asarray(gamma_matrix, dtype=np.float64)
    if alpha.ndim != 1 or gammas.ndim != 2 or gammas.shape[0] != alpha.shape[0]:
        raise ValueError(
            f"shape mismatch: alpha {alpha.shape} vs gamma matrix {gammas.shape}"
        )
    importance = np.zeros(gammas.shape[1])
    for weight, scales in zip(alpha, gammas):
        importance += weight * scales
    return importance


def topk_channels(importance, k_percent: float) -> np.ndarray:
    """Indices of the most important channels, sorted ascending.

    Selects max(1, floor(k_percent/100 * C)) channels for k_percent > 0 and
    none for k_percent == 0.  Ties break toward the lower channel index.
    ``importance`` is 1-D, one score per channel.
    """
    if not 0 <= k_percent <= 100:
        raise ValueError(f"k_percent must be in [0, 100], got {k_percent}")
    imp = np.asarray(importance, dtype=np.float64)
    if imp.ndim != 1:
        raise ValueError(f"importance must be 1-D, one score per channel, got ndim={imp.ndim}")
    n = imp.shape[0]
    if k_percent == 0:
        return np.array([], dtype=np.int64)
    count = max(1, int(np.floor(k_percent / 100.0 * n)))
    order = np.argsort(-imp, kind="stable")  # stable: equal values keep index order
    return np.sort(order[:count]).astype(np.int64)


def quantize_channels(
    acts: np.ndarray,
    channels,
    betas,
    bit_choices=DEFAULT_BIT_CHOICES,
) -> np.ndarray:
    """Mixed-precision quantization applied only to the selected channels.

    The selected channels are quantized as one group (shared scale); all other
    channels pass through bit-identically.  Channel order is preserved: the
    result is a scatter back into the original layout, not a concatenation.
    Selecting every channel in order returns the dense mixture itself.
    ``channels`` is a 1-D integer array or list; an empty one is the identity.
    Empty activations, like a mixture `mix_precision` refuses, are refused
    whatever the selection, as `quantize` refuses an empty tensor.
    """
    a = np.asarray(acts, dtype=np.float64)
    if a.ndim != 4:
        raise ValueError(f"activations must be 4-D (batch, channel, h, w), got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"cannot quantize empty activations of shape {a.shape}: they have no "
                         "value range")
    idx = np.asarray(channels)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError(
            f"channels must be a 1-D list of integer indices, got dtype {idx.dtype} ndim {idx.ndim}"
        )
    if idx.size == 0:
        _check_mixture(betas, bit_choices)
        return a.copy()
    if idx.min() < 0 or idx.max() >= a.shape[1]:
        raise IndexError(f"channel index out of range for {a.shape[1]} channels")
    if np.array_equal(idx, np.arange(a.shape[1])):
        # every channel in order: the dense mixture, without the copy,
        # gather and scatter
        return mix_precision(a, betas, bit_choices)
    out = a.copy()
    out[:, idx] = mix_precision(a[:, idx], betas, bit_choices)
    return out


@dataclass(frozen=True)
class MemoryEstimate:
    naive_bytes: float
    sparse_bytes: float
    ratio: float


def memory_model(m: int, k_percent: float, n_ops: int, act_bytes: float) -> MemoryEstimate:
    """First-order search-time activation memory model.

    Storing one unquantized copy plus m quantized copies per operator costs
    (1 + m) * act_bytes; quantizing only k percent of channels shrinks the
    quantized copies to m * k/100.  It leaves out the float copy of the
    group that `quantize_channels` gathers and `topk_channels`' floor of one
    channel: on the 22-operator subnet's maps at batch 1, the measured ratio
    at m=3, k=3 is 3.55, against this model's 3.67.  ``m`` and ``n_ops`` are
    plain ints (not a ``bool`` or a float), ``m >= 0`` and ``n_ops >= 1``,
    and ``act_bytes`` is finite and positive, so both byte counts are
    positive and the ratio is defined.
    """
    if type(m) is not int or m < 0:
        raise ValueError(f"m must be >= 0 and a plain int, got {m!r}")
    if not 0 <= k_percent <= 100:
        raise ValueError(f"k_percent must be in [0, 100], got {k_percent}")
    if type(n_ops) is not int or n_ops < 1:
        raise ValueError(f"n_ops must be >= 1 and a plain int, got {n_ops!r}")
    if not (math.isfinite(act_bytes) and act_bytes > 0):
        raise ValueError(f"act_bytes must be finite and positive, got {act_bytes}")
    naive = n_ops * act_bytes * (1 + m)
    sparse = n_ops * act_bytes * (1 + m * k_percent / 100.0)
    return MemoryEstimate(naive_bytes=naive, sparse_bytes=sparse, ratio=naive / sparse)
