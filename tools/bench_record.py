"""Write a benchmark record, `BENCH_<n>.json`, from runs of `perfbench/run.py`.

    python3 tools/bench_record.py record --workloads all --seeds 1 --seconds 10 \\
        [--trace] --out BENCH.json
    python3 tools/bench_record.py paired --parent REV --workloads cost-memo-cold \\
        --seeds 2 --pairs 10 --seconds 10 --out BENCH_<n>.json

Each run is one `python3 perfbench/run.py --workload W --seed N --seconds S
--trace T` subprocess in a source tree; the record keeps what it prints: the
`provenance` line, the `detail <workload> <name> <value> <unit>` lines and
the last line's result object (the end-to-end metrics untraced, the
per-layer metrics traced).

`record` runs the checkout this script sits in.  `paired` also extracts the
committed files of `--parent` (`git archive`) into `.bench_parent/`, which
git ignores, compiles both trees, and runs each (workload, seed) `--pairs`
times on each side, alternating which side runs first.  For each workload
and end-to-end metric of `BENCHMARK.json` it writes both sides' medians and
quartiles, the pairs each side won (by the metric's `better`), the ties, and
the ratio of medians, change over parent.

`check_record` is the record's schema: workload, metric and unit names come
from `BENCHMARK.json`; no number is checked.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARENT_DIR = ROOT / ".bench_parent"
PROVENANCE_FIELDS = ("cores", "python", "numpy", "git_sha", "src_sha256", "machine")
RUN_FIELDS = ("workload", "seed", "trace", "correct", "attempted", "failed", "metrics",
              "details")
SIDES = ("parent", "change")
# A run's wall time is about `--seconds` per phase plus the set-up samples and checks.
RUN_TIMEOUT_S = 1800


def benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_output(text: str, workload: str) -> dict:
    """The provenance, detail lines and result object of one run's stdout."""
    provenance, details, result = None, {}, None
    for line in text.splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("detail "):
            _, name, key, *rest = line.split(" ")
            if name != workload:
                raise ValueError(f"detail line of workload {name}, expected {workload}: {line}")
            if key == "repetitions":  # a sentence, not a value and a unit
                details[key] = " ".join(rest)
            else:
                value, unit = rest
                details[key] = {"value": float(value), "unit": unit}
        elif line.startswith("{"):
            result = json.loads(line)
    if provenance is None or result is None:
        raise ValueError(f"no provenance line or result object in the output:\n{text}")
    return {"provenance": provenance, "details": details, "result": result}


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the benchmark once in `tree`: the run's entry and its provenance."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    parsed = parse_output(proc.stdout, workload)
    result = parsed["result"]
    entry = {"workload": workload, "seed": seed, "trace": int(trace),
             "correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": result["metrics"],
             "details": parsed["details"]}
    return entry, parsed["provenance"]


def workload_names(requested: list[str], bench: dict) -> list[str]:
    names = [w["name"] for w in bench["workloads"]]
    if requested == ["all"]:
        return names
    unknown = [name for name in requested if name not in names]
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; BENCHMARK.json has {names}")
    return requested


def compile_tree(tree: Path) -> None:
    """Byte-compile the sources, so no run pays for (or skips) a stale `.pyc`."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree,
                   check=True, capture_output=True, timeout=300)


def extract_parent(rev: str) -> tuple[Path, str]:
    """The committed files of `rev` in `PARENT_DIR`, and the commit's sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    shutil.rmtree(PARENT_DIR, ignore_errors=True)
    PARENT_DIR.mkdir()
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                       stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(PARENT_DIR, filter="data")
    return PARENT_DIR, sha


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], bench: dict) -> dict:
    """Per workload and end-to-end metric: the medians and quartiles of both
    sides, the pairs each side won and the ratio of medians."""
    summary: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in mine] for side in SIDES}
            wins = {"parent": 0, "change": 0, "ties": 0}
            for parent, change in zip(values["parent"], values["change"]):
                if parent == change:
                    wins["ties"] += 1
                else:
                    wins["change" if (change < parent) == lower else "parent"] += 1
            stats = {side: quartiles(values[side]) for side in SIDES}
            summary.setdefault(workload, {})[name] = {
                "unit": metric["unit"], "better": metric["better"], "pairs": len(mine),
                **stats, "wins": wins,
                "ratio_of_medians": stats["change"]["median"] / stats["parent"]["median"]}
    return summary


def record(args, bench) -> dict:
    runs, provenance = [], None
    for seed in args.seeds:
        for workload in workload_names(args.workloads, bench):
            entry, provenance = run_one(ROOT, workload, seed, args.seconds, args.trace)
            runs.append(entry)
            print(f"{workload} seed {seed}: {json.dumps(entry['metrics'])}", file=sys.stderr)
    return {"kind": "record", "seconds": args.seconds, "seeds": args.seeds,
            "provenance": provenance, "runs": runs}


def paired(args, bench) -> dict:
    parent_tree, parent_sha = extract_parent(args.parent)
    trees = {"parent": parent_tree, "change": ROOT}
    for tree in trees.values():
        compile_tree(tree)
    provenance, pairs = {}, []
    index = 0
    for seed in args.seeds:
        for workload in workload_names(args.workloads, bench):
            for _ in range(args.pairs):
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side], provenance[side] = run_one(trees[side], workload, seed,
                                                           args.seconds, False)
                pairs.append(pair)
                index += 1
                print(f"{workload} seed {seed} pair {len(pairs)}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['norm_wall_s']['value']:.4f}"
                    for side in SIDES), file=sys.stderr)
    provenance["parent"]["git_sha"] = parent_sha  # the extracted tree has no `.git`
    return {"kind": "paired", "seconds": args.seconds, "seeds": args.seeds,
            "parent": parent_sha, "change_uncommitted": uncommitted(), "provenance": provenance,
            "pairs": pairs, "summary": summarize(pairs, bench)}


def uncommitted() -> list[str]:
    """The paths under `src/` and `perfbench/` whose working copy differs
    from HEAD: the change side's code is HEAD's plus these."""
    out = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return sorted(line[3:] for line in out.splitlines())


def _check_metrics(metrics: dict, allowed: dict, where: str) -> None:
    for name, metric in metrics.items():
        if name not in allowed:
            raise ValueError(f"{where}: metric {name} is not in BENCHMARK.json")
        if metric.get("unit") != allowed[name] or "value" not in metric:
            raise ValueError(f"{where}: metric {name} needs a value and unit {allowed[name]}")


def _check_run(run: dict, bench: dict, names: set, where: str) -> None:
    if sorted(run) != sorted(RUN_FIELDS):
        raise ValueError(f"{where}: fields {sorted(run)}, expected {sorted(RUN_FIELDS)}")
    if run["workload"] not in names:
        raise ValueError(f"{where}: workload {run['workload']} is not in BENCHMARK.json")
    layer = "per_layer" if run["trace"] else "end_to_end"
    allowed = {m["name"]: m["unit"] for m in bench[layer]}
    _check_metrics(run["metrics"], allowed, where)
    if not run["trace"] and set(run["metrics"]) != set(allowed):
        raise ValueError(f"{where}: an untraced run holds every end-to-end metric")
    for key, detail in run["details"].items():
        if key != "repetitions" and set(detail) != {"value", "unit"}:
            raise ValueError(f"{where}: detail {key} needs a value and a unit")


def _check_provenance(provenance: dict, where: str) -> None:
    missing = [name for name in PROVENANCE_FIELDS if name not in provenance]
    if missing:
        raise ValueError(f"{where}: provenance lacks {missing}")


def check_record(rec: dict, bench: dict) -> None:
    """Raise `ValueError` where `rec` breaks the record's schema."""
    names = {w["name"] for w in bench["workloads"]}
    if rec.get("kind") == "record":
        _check_provenance(rec["provenance"], "record")
        runs = [(run, f"run {i}") for i, run in enumerate(rec["runs"])]
    elif rec.get("kind") == "paired":
        for side in SIDES:
            _check_provenance(rec["provenance"][side], side)
        runs = [(pair[side], f"pair {i} {side}") for i, pair in enumerate(rec["pairs"])
                for side in SIDES]
        units = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
        for workload, metrics in rec["summary"].items():
            if workload not in names or set(metrics) != set(units):
                raise ValueError(f"summary of {workload}: workload or metrics not those of "
                                 "BENCHMARK.json")
            for name, stats in metrics.items():
                if (stats["unit"], stats["better"]) != units[name] or not all(
                        key in stats for key in (*SIDES, "wins", "ratio_of_medians")):
                    raise ValueError(f"summary of {workload} {name}: unit, direction or "
                                     "statistics missing")
    else:
        raise ValueError(f"kind {rec.get('kind')!r} is neither 'record' nor 'paired'")
    if not runs:
        raise ValueError("the record holds no run")
    for run, where in runs:
        _check_run(run, bench, names, where)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("record", "paired"):
        p = sub.add_parser(mode)
        p.add_argument("--workloads", nargs="+", default=["all"])
        p.add_argument("--seeds", nargs="+", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--out", required=True)
        if mode == "record":
            p.add_argument("--trace", action="store_true")
        else:
            p.add_argument("--parent", required=True, help="the git revision to compare with")
            p.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = benchmark()
    rec = record(args, bench) if args.mode == "record" else paired(args, bench)
    check_record(rec, bench)
    Path(args.out).write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
