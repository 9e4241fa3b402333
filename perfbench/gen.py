"""Seeded input generators for the benchmark workloads.

Every document and tensor handed to acceldse is made here from the benchmark
seed; acceldse receives only the generated inputs.  Each workload draws from
its own stream (``default_rng([seed, tag])``) so that changing one generator
never shifts another workload's inputs.
"""

from __future__ import annotations

import numpy as np

BITS = (2, 4, 8)

# Output rows and channels of the 22 operators of the synthetic subnet
# (`make_synthetic_subnet_22` in tests/conftest.py); kept here so the
# benchmark does not import the test suite.
SUBNET22_ROWS = (56, 56, 28, 28, 28, 28, 14, 14, 14, 14, 14,
                 14, 14, 14, 7, 7, 7, 7, 7, 7, 7, 7)
SUBNET22_CHANNELS = (16, 24, 24, 32, 32, 64, 64, 112, 112, 184, 184,
                     256, 256, 352, 352, 416, 416, 480, 480, 512, 512, 552)

# (kernel, stride, out_rows, in_channels, out_channels) of `make_small_subnet`.
SMALL_SUBNET = ((3, 1, 16, 64, 128), (1, 1, 16, 128, 128), (3, 2, 8, 128, 256))

# `make_reduced_space_24` as a space document.
SPACE24_DOC = {
    "pe_x": [8, 16], "pe_y": [8, 16],
    "act_cache_kb": [64], "wgt_cache_kb": [64], "out_cache_kb": [64],
    "dataflow": ["WS", "OS", "RS"], "loop_order": ["BIOHW", "BOHWI"],
}

MEMO_OPERATORS = 3000
QUANT_BATCH = 8


def _op(kernel, stride, out_rows, in_channels, out_channels, act_bits=8, wgt_bits=8) -> dict:
    return {"kernel": kernel, "stride": stride, "out_rows": out_rows,
            "in_channels": in_channels, "out_channels": out_channels,
            "act_bits": act_bits, "wgt_bits": wgt_bits}


def subnet22_doc() -> dict:
    """The 22-operator synthetic subnet as a workload document."""
    ops = []
    prev_c, prev_rows = 16, 56
    for i, (rows, chans) in enumerate(zip(SUBNET22_ROWS, SUBNET22_CHANNELS)):
        ops.append(_op(3 if i % 3 else 5, 2 if rows != prev_rows else 1, rows, prev_c, chans,
                       BITS[::-1][i % 3], BITS[::-1][(i + 1) % 3]))
        prev_c, prev_rows = chans, rows
    return {"operators": ops}


def anneal_seed(seed: int, index: int) -> int:
    """The `index`-th annealing seed of benchmark seed `seed`.  Host time
    per command varies from one annealing seed to the next, so a run cycles
    through a few of them."""
    return seed * 1000 + index


def co_generator_seed(seed: int, index: int) -> int:
    """The `index`-th generator seed of benchmark seed `seed`; the first is
    the benchmark seed itself.  Host time per command varies from one
    generator seed to the next, so a run cycles through a few of them."""
    return seed if index == 0 else seed * 1000 + index


def supernet_state_doc(seed: int) -> dict:
    """A three-layer supernet whose argmax decode is the small subnet's shapes.

    Each layer holds the winning shape, a losing shape and a skip, in a
    seeded order with seeded alphas; seeded betas pick the bitwidths.
    """
    rng = np.random.default_rng([seed, 2])
    layers = []
    for kernel, stride, rows, cin, cout in SMALL_SUBNET:
        loser = _op(int(rng.choice([1, 3, 5, 7])), stride, rows, cin,
                    int(rng.choice([64, 128, 256, 512])))
        candidates = [_op(kernel, stride, rows, cin, cout), loser, None]
        alpha = np.sort(rng.uniform(-1.0, 1.0, 3))[::-1]  # winner first
        perm = rng.permutation(3)
        layers.append({
            "alpha": [float(alpha[j]) for j in perm],
            "candidates": [candidates[j] for j in perm],
            "beta_w": rng.normal(size=(3, len(BITS))).tolist(),
            "beta_a": rng.normal(size=(3, len(BITS))).tolist(),
        })
    return {"layers": layers, "bit_choices": list(BITS)}


def memo_docs(seed: int, n_ops: int = MEMO_OPERATORS) -> tuple[dict, dict, dict]:
    """Workload, accelerator and per-operator tilings documents for `cost`.

    Tile sizes are powers of two up to 16 and kernels at most 7, so every
    tile fits the smallest (64 KB) caches and no operator is infeasible.
    """
    rng = np.random.default_rng([seed, 3])
    ops = [
        _op(int(rng.choice([1, 3, 5, 7])), int(rng.integers(1, 3)),
            int(rng.choice([7, 14, 28, 56])), 8 * int(rng.integers(1, 65)),
            8 * int(rng.integers(1, 65)), int(rng.choice(BITS)), int(rng.choice(BITS)))
        for _ in range(n_ops)
    ]
    tilings = [
        {name: int(2 ** rng.integers(0, 5)) for name in ("t_oc", "t_ic", "t_ow", "t_oh")}
        for _ in range(n_ops)
    ]
    accel = {
        "pe_x": int(rng.integers(3, 65)),
        "pe_y": int(rng.integers(3, 65)),
        "act_cache_kb": int(rng.choice(np.arange(64, 529, 16))),
        "wgt_cache_kb": int(rng.choice(np.arange(64, 529, 16))),
        "out_cache_kb": int(rng.choice(np.arange(64, 529, 16))),
        "dataflow": str(rng.choice(["WS", "OS", "RS"])),
        "loop_order": "".join(rng.permutation(list("BIOHW"))),
    }
    return {"operators": ops}, accel, {"tilings": tilings}


def quant_inputs(seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """One (activations, alpha, gamma matrix, betas) tuple per output feature
    map of the 22-operator subnet at batch 8, in float64.

    `alpha` weights three candidate operators, `gamma matrix` holds their
    per-channel batch-norm scales, and `betas` is a convex mixture over
    the bit choices (2, 4, 8).
    """
    rng = np.random.default_rng([seed, 4])
    maps = []
    for rows, chans in zip(SUBNET22_ROWS, SUBNET22_CHANNELS):
        acts = rng.normal(0.0, float(rng.uniform(0.5, 4.0)), (QUANT_BATCH, chans, rows, rows))
        alpha = rng.dirichlet(np.ones(3))
        gammas = rng.uniform(0.1, 2.0, (3, chans))
        betas = rng.dirichlet(np.ones(len(BITS)))
        maps.append((acts, alpha, gammas, betas))
    return maps
