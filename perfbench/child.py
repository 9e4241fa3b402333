"""One benchmark process: runs acceldse in a fresh interpreter and reports.

Usage: python3 child.py SPEC_JSON

SPEC_JSON is an object with ``mode`` ("setup", "cli" or "quant") and
``result`` (path of the JSON result to write); "cli" adds ``argv`` (the
acceldse command line) and ``trace``, and "quant" adds ``seed``, ``k``,
``seconds`` and ``trace``.  The first import is `acceldse.cli`, the set-up
every command pays: "setup" reports when it finished, and the other modes
time their work after it.
"""

from __future__ import annotations

import time

import acceldse.cli  # noqa: F401  (the set-up that `setup_s` measures)

# CLOCK_MONOTONIC on Linux, shared by all processes, so the parent can
# subtract the time at which it started this process.
IMPORTED_AT = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
from reference import reference_s  # noqa: E402

MIN_QUANT_REPS = 4


def _peak_rss_mb() -> float:
    """Peak resident set of this process.  On Linux `ru_maxrss` also counts
    the parent's memory at the time it spawned this process, so the
    process's own high-water mark (VmHWM) is read where it exists."""
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(spec: dict) -> dict:
    from acceldse import cli

    recorder = spans.Recorder() if spec["trace"] else None
    with spans.installed(recorder) if recorder else nullcontext():
        t0 = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
    rss = _peak_rss_mb()  # before the reference computation allocates
    return {"rc": rc, "wall_s": wall, "ref_s": reference_s(), "rss_mb": rss,
            "spans": recorder.spans if recorder else None}


def run_setup(spec: dict) -> dict:
    return {"imported_at": IMPORTED_AT, "ref_s": reference_s()}


def quant_pass(quant, maps, k: int) -> tuple[float, str]:
    """Time `channel_importance -> topk_channels -> quantize_channels` over
    every map at K=`k`%; hash the outputs outside the timed calls."""
    elapsed = 0.0
    digest = hashlib.sha256()
    for acts, alpha, gammas, betas in maps:
        t0 = time.perf_counter()
        channels = quant.topk_channels(quant.channel_importance(alpha, gammas), k)
        out = quant.quantize_channels(acts, channels, betas, gen.BITS)
        elapsed += time.perf_counter() - t0
        digest.update(out.tobytes())
    return elapsed, digest.hexdigest()


def _bits(a):
    return a.view(np.uint64)


def quant_checks(quant, maps, k: int) -> list[str]:
    """The selected channels equal `mix_precision` of that group bit for bit
    and the others are untouched; at K=100 the output must also equal
    `mix_precision` of the whole tensor and stay within the mixture's
    half-step bound."""
    failures = []
    for i, (acts, alpha, gammas, betas) in enumerate(maps):
        chosen = quant.topk_channels(quant.channel_importance(alpha, gammas), k)
        out = quant.quantize_channels(acts, chosen, betas, gen.BITS)
        rest = np.setdiff1d(np.arange(acts.shape[1]), chosen)
        if not np.array_equal(_bits(out[:, rest]), _bits(acts[:, rest])):
            failures.append(f"map {i}: K={k} changed unselected channels")
        if not np.array_equal(_bits(out[:, chosen]),
                              _bits(quant.mix_precision(acts[:, chosen], betas, gen.BITS))):
            failures.append(f"map {i}: K={k} differs from mix_precision of the selected channels")
        if k == 100:
            if not np.array_equal(_bits(out), _bits(quant.mix_precision(acts, betas, gen.BITS))):
                failures.append(f"map {i}: K=100 differs from mix_precision of the full tensor")
            lo, hi = float(acts.min()), float(acts.max())
            half_step = sum(b * (hi - lo) / (2**bits - 1) / 2 for b, bits in zip(betas, gen.BITS))
            if float(np.abs(out - acts).max()) > half_step + 1e-9 * max(abs(lo), abs(hi)):
                failures.append(f"map {i}: K=100 error exceeds the half-step bound {half_step}")
    return failures


def run_quant(spec: dict) -> dict:
    """Repeat quant passes until `seconds` elapse; in a traced run every
    second pass is traced, so traced and untraced passes interleave.  A
    pass's reference time is the mean of the ones before and after it."""
    from acceldse import quant

    maps = gen.quant_inputs(spec["seed"])
    k = spec["k"]
    deadline = time.perf_counter() + spec["seconds"]
    reps = []
    ref = reference_s()
    while len(reps) < MIN_QUANT_REPS or time.perf_counter() < deadline:
        traced = spec["trace"] and len(reps) % 2 == 1
        recorder = spans.Recorder() if traced else None
        with spans.installed(recorder) if traced else nullcontext():
            elapsed, digest = quant_pass(quant, maps, k)
        ref_before, ref = ref, reference_s()
        reps.append({"wall_s": elapsed, "digest": digest, "ref_s": (ref_before + ref) / 2,
                     "traced": traced, "spans": recorder.spans if traced else None})
    rss = _peak_rss_mb()
    return {"rc": 0, "reps": reps, "rss_mb": rss, "checks": quant_checks(quant, maps, k),
            "input_bytes": sum(m[0].nbytes for m in maps)}


MODES = {"setup": run_setup, "cli": run_cli, "quant": run_quant}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    Path(spec["result"]).write_text(json.dumps(MODES[spec["mode"]](spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
