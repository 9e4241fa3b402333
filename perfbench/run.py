"""acceldse benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload (or, with ``all``, each of the six untraced) from the root
of a source checkout, with acceldse imported from ``src/``.  Prints the
workload's detail metrics, the machine and source provenance, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from reference import rescaled
from workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 8


def machine() -> str:
    """Signature under which the digests of BLAS-dependent outputs count:
    the generator's matrix products go through a BLAS that dispatches on
    CPU features."""
    import numpy

    cpu, flags = platform.processor(), ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        fields = {k.strip(): v.strip() for k, v in
                  (line.split(":", 1) for line in cpuinfo.read_text().splitlines() if ":" in line)}
        cpu = fields.get("model name", cpu)
        flags = hashlib.sha256(fields.get("flags", "").encode()).hexdigest()[:12]
    return (f"{platform.machine()} {cpu} flags {flags}; "
            f"python {platform.python_version()}; numpy {numpy.__version__}")


def provenance() -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "acceldse").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "src_sha256": src.hexdigest(),
            "machine": machine()}


def _median(values) -> float:
    values = [v for v in values if v == v]  # drop NaN from failed repetitions
    if not values:
        raise RuntimeError("no repetition succeeded")
    return statistics.median(values)


def input_times(reps) -> list[float]:
    """Per input of the run, the median rescaled time of its repetitions."""
    by_key = {}
    for rep in reps:
        if rep.wall_s == rep.wall_s:  # NaN marks a failed repetition
            by_key.setdefault(rep.key, []).append(rescaled(rep.wall_s, rep.ref_s))
    if not by_key:
        raise RuntimeError("no repetition succeeded")
    return [statistics.median(times) for times in by_key.values()]


def check_outputs(measured, recorded: dict) -> None:
    """Attach output-check failures to the repetitions they concern."""
    all_reps = measured.reps + measured.traced
    first_by_key = {}
    for rep in all_reps:
        if rep.errors:
            continue
        first = first_by_key.setdefault(rep.key, rep)
        if rep.digest != first.digest:
            rep.errors.append(f"output differs from an earlier repetition of inputs {rep.key}")
        if rep.key in recorded and rep.digest != recorded[rep.key]:
            rep.errors.append(f"output differs from the output recorded for inputs {rep.key}")
    measured.reps[0].errors.extend(measured.errors)


def write_spans(path: Path, run_id: str, measured) -> None:
    """All spans of the traced repetitions, one JSON object per line."""
    with open(path, "w") as fh:
        for r, rep in enumerate(measured.traced):
            for p, process_spans in enumerate(rep.spans or ()):
                for sid, parent, name, start, end, attrs in process_spans:
                    fh.write(json.dumps({"run": run_id, "rep": r, "process": p, "id": sid,
                                         "parent": parent, "name": name, "start": start,
                                         "end": end, "attrs": attrs}) + "\n")


def layer_metrics(workload, measured) -> dict[str, float]:
    import spans

    traced = [rep for rep in measured.traced if rep.spans is not None]
    if not traced:
        raise RuntimeError(f"{workload.name}: no traced repetition succeeded")
    fired = spans.fired(s for rep in traced for s in rep.spans)
    missing = [b for b in workload.boundaries if b not in fired]
    if missing:
        raise RuntimeError(f"{workload.name}: trace boundaries never fired: {', '.join(missing)}")
    per_rep = []
    for rep in traced:
        m = spans.layer_metrics(rep.spans, rep.wall_s)
        m["cli.memo_file_bytes"] = rep.extra.get("memo_file_bytes", 0)
        per_rep.append(m)
    out = {}
    for name, _ in spans.PER_LAYER:
        if name in ("trace.untraced_wall_s", "trace.overhead_ratio"):
            continue
        values = [m[name] for m in per_rep]
        if spans.is_exact(name):
            if len(set(values)) > 1:
                traced[0].errors.append(f"count {name} differs between repetitions: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.untraced_wall_s"] = _median(r.wall_s for r in measured.reps)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    return out


def recorded_digests(workload) -> dict:
    """The digests recorded for this workload's inputs.  Those of a
    BLAS-dependent workload count only on the machine that recorded them."""
    expected = json.loads(EXPECTED.read_text())
    recorded = expected["digests"].get(workload.digest_group, {})
    if workload.blas_dependent and expected["machine"] != machine():
        print(f"warning: {workload.name}: outputs not compared with {EXPECTED.name}, which was "
              f"recorded on {expected['machine']!r}", file=sys.stderr)
        return {}
    return recorded


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans

    workload = WORKLOADS[name]()
    ctx = Context(ROOT, seed, seconds, trace, name)
    # half the set-up samples before the measurement and half after, so they
    # span the run as its repetitions do
    setup = ctx.setup_samples(SETUP_SAMPLES // 2)
    measured = workload.measure(ctx)
    setup += ctx.setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    recorded = recorded_digests(workload)
    check_outputs(measured, recorded)
    if trace:  # before counting failures: counts that differ between repetitions fail one
        metrics = {k: (v, spans.UNITS[k]) for k, v in layer_metrics(workload, measured).items()}
        write_spans(ctx.work / "spans.jsonl", f"{name}-seed{seed}", measured)
    else:
        metrics = {
            "norm_wall_s": (statistics.median(input_times(measured.reps)), "s"),
            "setup_s": (statistics.median(rescaled(*sample) for sample in setup), "s"),
            "peak_rss_mb": (_median(r.rss_mb for r in measured.reps), "MB"),
        }
    all_reps = measured.reps + measured.traced
    failed = [rep for rep in all_reps if rep.errors]
    for rep in failed:
        for error in rep.errors:
            print(f"error: {name}: {error}", file=sys.stderr)
    ok = [r for r in measured.reps if not r.errors]
    details = {"wall_s": (statistics.median(r.wall_s for r in ok), "s"),
               "reference_s": (statistics.median(r.ref_s for r in ok), "s")} if ok else {}
    details["setup_raw_s"] = (statistics.median(t for t, _ in setup), "s")
    if ok:
        details["slowest_input_norm_s"] = (max(input_times(ok)), "s")
    details.update(workload.details(ok) if ok else {})
    details["error_rate"] = (len(failed) / len(all_reps), "ratio")
    for key, (value, unit) in details.items():
        print(f"detail {name} {key} {value!r} {unit}")
    print(f"detail {name} repetitions {len(measured.reps)} untraced, {len(measured.traced)} traced; "
          f"recorded digests {'compared' if any(r.key in recorded for r in all_reps) else 'not compared'}")
    return {"correct": not failed, "attempted": len(all_reps), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.trace and args.workload == "all":
        parser.error("--trace 1 takes one workload")
    if not (ROOT / "src" / "acceldse" / "__init__.py").is_file():
        print(f"error: no acceldse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    print("provenance " + json.dumps(provenance()))
    try:
        results = [run_workload(n, args.seed, args.seconds, trace) for n in names]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in zip(names, results):
        if len(names) > 1:
            print(f"result {name} {json.dumps(result)}")
    if len(names) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
