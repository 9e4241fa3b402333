"""Reference quantization kernels: the plain versions `quant.quantize`,
`quant.mix_precision` and `quant.quantize_channels` must match bit for bit.

Each step allocates its own array, the mixture adds each width into a new
sum, and the channel-sparse assembly always copies, gathers and scatters,
also when every channel is selected.
"""

import numpy as np

from acceldse.quant import DEFAULT_BIT_CHOICES, QuantSpec


def reference_quantize(values, bits):
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("tensor contains non-finite entries")
    lo = float(v.min())
    hi = float(v.max())
    qmax = 2**bits - 1
    if hi == lo:
        return v.copy(), QuantSpec(bits=bits, scale=0.0, qmin=0, qmax=qmax, offset=lo)
    scale = (hi - lo) / qmax
    q = np.rint(np.clip((v - lo) / scale, 0, qmax))
    out = q * scale + lo
    out[q == qmax] = hi
    return out, QuantSpec(bits=bits, scale=scale, qmin=0, qmax=qmax, offset=lo)


def reference_mix_precision(values, betas, bit_choices=DEFAULT_BIT_CHOICES):
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (len(bit_choices),):
        raise ValueError(
            f"betas must have one weight per bit choice {tuple(bit_choices)}, got shape {betas.shape}"
        )
    v = np.asarray(values, dtype=np.float64)
    mixed = np.zeros_like(v)
    for weight, bits in zip(betas, bit_choices):
        mixed = mixed + weight * reference_quantize(v, bits)[0]
    return mixed


def reference_quantize_channels(acts, channels, betas, bit_choices=DEFAULT_BIT_CHOICES):
    a = np.asarray(acts, dtype=np.float64)
    if a.ndim != 4:
        raise ValueError(f"activations must be 4-D (batch, channel, h, w), got ndim={a.ndim}")
    idx = np.asarray(channels, dtype=np.int64)
    out = a.copy()
    if idx.size == 0:
        return out
    if idx.min() < 0 or idx.max() >= a.shape[1]:
        raise IndexError(f"channel index out of range for {a.shape[1]} channels")
    out[:, idx] = reference_mix_precision(a[:, idx], betas, bit_choices)
    return out
