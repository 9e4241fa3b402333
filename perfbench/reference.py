"""The reference computation that rescales the benchmark's times.

The sandbox that defined the benchmark speeds up and slows down by up to
40%, from one second to the next, for every process alike.  Each timed
piece of work is therefore paired with the time of this fixed computation,
taken just before and just after it, and reported as its time x
`REFERENCE_S` / that reference time, which cancels part of the swing.
"""

from __future__ import annotations

import time

import numpy as np

# About the reference time on the 2-core sandbox that defined the
# benchmark, so rescaled times read about as raw seconds there.
REFERENCE_S = 0.03


def _sample_s() -> float:
    """An interpreter loop, small-array numpy calls and in-place passes
    over a 2 MB array; no acceldse code."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    small = np.arange(1500, dtype=np.int64)
    for _ in range(1000):
        np.minimum((small * 3 + 1) // 7, small).sum()
    big = np.ones(1 << 18)
    for _ in range(64):
        np.multiply(big, 0.5, out=big)
        np.add(big, 0.25, out=big)
    return time.perf_counter() - t0


def reference_s() -> float:
    return min(_sample_s(), _sample_s())


def rescaled(elapsed_s: float, ref_s: float) -> float:
    return elapsed_s * REFERENCE_S / ref_s
