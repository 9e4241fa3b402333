"""Write a benchmark record, `BENCH_<n>.json`, from runs of `perfbench/run.py`.

    python3 tools/bench_record.py record --workloads all --seeds 1 --seconds 10 \\
        [--trace] --out BENCH.json
    python3 tools/bench_record.py paired --parent REV --workloads cost-memo-cold \\
        --seeds 2 --pairs 10 --seconds 10 [--append] --out BENCH_<n>.json
    python3 tools/bench_record.py stages --workloads all --seed 1 [--tree DIR] \\
        --out STAGES.json

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
the ratio of medians, change over parent.  With `--append` the new pairs
join those of the record already at `--out`, and the summary is taken over
all of them; the two records must share the parent, `--seconds`, both
sides' provenance and the change's uncommitted paths, so every pair
measured the same two trees.

`stages` runs each workload's inputs from `perfbench/gen.py` in process,
with the acceldse and `perfbench/` of `--tree` (this checkout by default),
and wraps the stage functions of `STAGES` at every module attribute that
refers to them with `perfbench/spans.py`'s `Recorder`.  Each of the
`STAGE_REPETITIONS` repetitions clears the package's `lru_cache`s first, so
it starts as cold as a fresh process.  Per workload it records each stage's
calls, which must repeat exactly across repetitions, and its median
self-time (its time less that of the wrapped stages it calls), with the
median wall time wrapped and unwrapped: the wrappers' overhead.  A stage the
tree does not have is recorded as absent.  The block holds the tree's
provenance, as `perfbench/run.py` prints it.  `paired` writes one such block
per side, each from a `stages` subprocess on that side's tree, on the first
seed; its provenance must be that side's.

`check_record` is the record's schema: workload, metric and unit names come
from `BENCHMARK.json`, stage names from `STAGES`; no number is checked.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARENT_DIR = ROOT / ".bench_parent"
PROVENANCE_FIELDS = ("cores", "python", "numpy", "git_sha", "src_sha256", "machine")
RUN_FIELDS = ("workload", "seed", "trace", "correct", "attempted", "failed", "metrics",
              "details")
SIDES = ("parent", "change")
# A run's wall time is about `--seconds` per phase plus the set-up samples and checks.
RUN_TIMEOUT_S = 1800
# Stage functions the `stages` mode times, as (module, attribute) in acceldse:
# the quant kernels, the cost stages inside `evaluate_tilings`, the tiling
# search and the search engines.  A stage is named `<module>.<attribute>`.
STAGES = (
    ("quant", "quantize"), ("quant", "mix_precision"), ("quant", "quantize_channels"),
    ("quant", "topk_channels"), ("quant", "channel_importance"), ("quant", "gumbel_softmax"),
    ("costmodel", "_grid_table"), ("costmodel", "_fit_mask"), ("costmodel", "_compute_cycles"),
    ("costmodel", "_refetch_factors"), ("costmodel", "_energy_base"), ("costmodel", "_traffic"),
    ("costmodel", "_combine"), ("costmodel", "evaluate_tilings"),
    ("costmodel", "fits_caches_mask"), ("costmodel", "estimate_cost"),
    ("tiling", "_objective"), ("tiling", "batch_search"), ("tiling", "map_subnet"),
    ("hwsearch", "anneal_search"), ("hwsearch", "train_policy"),
)
STAGE_NAMES = tuple(f"{module}.{attr}" for module, attr in STAGES)
STAGE_REPETITIONS = 3
STAGE_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


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
    stages = stage_blocks(trees, workload_names(args.workloads, bench), args.seeds[0])
    for record_provenance in (provenance["parent"], stages["parent"]["provenance"]):
        record_provenance["git_sha"] = parent_sha  # the extracted tree has no `.git`
    return {"kind": "paired", "seconds": args.seconds, "seeds": args.seeds,
            "parent": parent_sha, "change_uncommitted": uncommitted(), "provenance": provenance,
            "pairs": pairs, "summary": summarize(pairs, bench), "stages": stages}


def stage_blocks(trees: dict, workloads: list[str], seed: int) -> dict:
    """One `stages` block per side, each from a `stages` run on its tree."""
    blocks = {}
    for side, tree in trees.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "stages.json"
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "stages", "--tree",
                            str(tree), "--workloads", *workloads, "--seed", str(seed),
                            "--out", str(out)],
                           cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S)
            blocks[side] = json.loads(out.read_text(encoding="utf-8"))["stages"]
    return blocks


def append(old: dict, new: dict, bench: dict) -> dict:
    """The paired record `new` with the pairs and stage records of `old`
    before its own, and the summary taken over all the pairs.  Both records
    must have measured the same two trees."""
    check_record(old, bench)
    differ = [key for key in ("kind", "parent", "seconds", "provenance", "change_uncommitted")
              if old.get(key) != new.get(key)]
    if differ:
        raise ValueError(f"--append: the record at --out differs from this run in {differ}")
    pairs = old["pairs"] + new["pairs"]
    stages = {side: {**new["stages"][side], "workloads": {
        **old.get("stages", {}).get(side, {}).get("workloads", {}),
        **new["stages"][side]["workloads"]}} for side in SIDES}
    return {**new, "seeds": list(dict.fromkeys(old["seeds"] + new["seeds"])), "pairs": pairs,
            "summary": summarize(pairs, bench), "stages": stages}


def stage_functions() -> tuple[dict, list[str]]:
    """The function of each stage in `STAGES` that the imported acceldse
    has, by name, and the names of those it does not have."""
    present, absent = {}, []
    for (module, attr), name in zip(STAGES, STAGE_NAMES):
        try:
            fn = getattr(importlib.import_module(f"acceldse.{module}"), attr, None)
        except ImportError:
            fn = None
        if callable(fn):
            present[name] = fn
        else:
            absent.append(name)
    return present, absent


@contextmanager
def stages_wrapped(recorder, functions: dict, modules: list):
    """Each function wrapped by `recorder` (a `spans.Recorder`) at every
    attribute of `modules` that refers to it, for the duration of the block."""
    patched = []
    try:
        for name, original in functions.items():
            wrapper = recorder.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def clear_caches(modules: list) -> None:
    """Empty every `lru_cache` of `modules`, as a fresh process has them."""
    for module in modules:
        for value in list(vars(module).values()):
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                value.cache_clear()


def stage_totals(span_list: list) -> tuple[dict, dict]:
    """Each stage's calls and self-time in one repetition's spans: its time
    less that of the spans inside it, as `spans.layer_metrics` takes it."""
    covered, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
    for _, parent, _, start, end, _ in span_list:
        covered[parent] += end - start
    for sid, _, name, start, end, _ in span_list:
        calls[name] += 1
        self_s[name] += (end - start) - covered[sid]
    return dict(calls), self_s


def time_stages(run, functions: dict, repetitions: int) -> dict:
    """Run `run` `repetitions` times unwrapped and as often wrapped, in
    turn: the median wall time of each, and each stage's calls and median
    self-time.  A stage's calls must be the same in every repetition."""
    import spans  # perfbench/spans.py; the caller puts `perfbench/` on sys.path

    walls = {"unwrapped": [], "wrapped": []}
    counts, self_times = None, defaultdict(list)
    for _ in range(repetitions):
        for side in walls:
            modules = spans._acceldse_modules()
            clear_caches(modules)
            recorder = spans.Recorder()
            with stages_wrapped(recorder, functions, modules) if side == "wrapped" \
                    else nullcontext():
                with redirect_stdout(StringIO()):
                    start = time.perf_counter()
                    run()
                    walls[side].append(time.perf_counter() - start)
        calls, self_s = stage_totals(recorder.spans)
        if counts is None:
            counts = calls
        elif calls != counts:
            raise RuntimeError(f"stage calls differ between repetitions: {counts} then {calls}")
        for name, seconds in self_s.items():
            self_times[name].append(seconds)
    wall = {side: statistics.median(values) for side, values in walls.items()}
    return {"repetitions": repetitions,
            "wall_s": {**wall, "overhead_ratio": wall["wrapped"] / wall["unwrapped"]},
            "stages": {name: {"calls": counts[name], "self_s": statistics.median(self_times[name])}
                       for name in STAGE_NAMES if name in counts}}


def stage_run(workload: str, seed: int, work: Path):
    """One repetition of `workload`'s work in process, on the benchmark's
    inputs of `seed` (`perfbench/gen.py`): the CLI command a repetition runs
    with its first annealing or generator seed, or one quant pass."""
    import gen
    import workloads as perfbench_workloads
    from acceldse import cli, quant

    def write(filename: str, doc) -> str:
        path = work / filename
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def command(argv: list[str]):
        def run():
            rc = cli.main([*argv, "--threads", "1"])
            if rc != 0:
                raise RuntimeError(f"acceldse {' '.join(argv[:2])} exited {rc}")
        return run

    if workload.startswith("quant-k"):
        k, maps = int(workload[len("quant-k"):]), gen.quant_inputs(seed)

        def quant_pass():
            for acts, alpha, gammas, betas in maps:
                channels = quant.topk_channels(quant.channel_importance(alpha, gammas), k)
                quant.quantize_channels(acts, channels, betas, gen.BITS)
        return quant_pass
    if workload == "anneal-full":
        subnet = write("subnet22.json", gen.subnet22_doc())
        return command(["search", "accel", "--workload", subnet, "--engine", "anneal",
                        "--seed", str(gen.anneal_seed(seed, 0)), "--max-evaluations",
                        str(perfbench_workloads.ANNEAL_EVALUATIONS),
                        "--out", str(work / "anneal.json")])
    if workload == "co-generator":
        state = write("supernet.json", gen.supernet_state_doc(seed))
        return command(["search", "co", "--state", state,
                        "--space", write("space24.json", gen.SPACE24_DOC),
                        *perfbench_workloads.CO_FLAGS,
                        "--seed", str(gen.co_generator_seed(seed, 0)),
                        "--out", str(work / "co.json")])
    ops, accel, tilings = gen.memo_docs(seed)
    memo = work / f"{workload}.jsonl"
    cost = command(["cost", "--workload", write("ops.json", ops),
                    "--accel", write("accel.json", accel),
                    "--tiling", write("tilings.json", tilings), "--cache", str(memo),
                    "--out", str(work / f"{workload}.json")])
    if workload == "cost-memo-warm":
        cost()  # writes the memo every repetition reads
        return cost

    def cold():
        memo.unlink(missing_ok=True)
        cost()
    return cold


def stages(args, bench) -> dict:
    tree = Path(args.tree).resolve()
    os.environ.update(STAGE_THREADS)  # one BLAS thread, as the benchmark's processes have
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import run as perfbench_run

    functions, absent = stage_functions()
    records = {}
    with tempfile.TemporaryDirectory() as work:
        for workload in workload_names(args.workloads, bench):
            run = stage_run(workload, args.seed, Path(work))
            records[workload] = {"seed": args.seed,
                                 **time_stages(run, functions, STAGE_REPETITIONS)}
            print(f"stages {workload} seed {args.seed}: wall "
                  f"{json.dumps(records[workload]['wall_s'])}", file=sys.stderr)
    return {"kind": "stages", "stages": {"provenance": perfbench_run.provenance(),
                                         "absent": absent, "workloads": records}}


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


def check_stages(block: dict, names: set, where: str) -> None:
    """Raise `ValueError` where a `stages` block breaks its schema."""
    if sorted(block) != ["absent", "provenance", "workloads"]:
        raise ValueError(f"{where}: fields {sorted(block)}, expected absent, provenance, "
                         "workloads")
    _check_provenance(block["provenance"], where)
    if not set(block["absent"]) <= set(STAGE_NAMES):
        raise ValueError(f"{where}: absent names {block['absent']} outside STAGES")
    for workload, entry in block["workloads"].items():
        at = f"{where} {workload}"
        if workload not in names:
            raise ValueError(f"{at}: workload is not in BENCHMARK.json")
        if sorted(entry) != ["repetitions", "seed", "stages", "wall_s"] or sorted(
                entry["wall_s"]) != ["overhead_ratio", "unwrapped", "wrapped"]:
            raise ValueError(f"{at}: needs seed, repetitions, stages and the wall times "
                             "wrapped, unwrapped and their ratio")
        for name, stage in entry["stages"].items():
            if name not in STAGE_NAMES or name in block["absent"]:
                raise ValueError(f"{at}: stage {name} is not one of STAGES, or is absent")
            if sorted(stage) != ["calls", "self_s"] or type(stage["calls"]) is not int \
                    or stage["calls"] < 1:
                raise ValueError(f"{at}: stage {name} needs a positive int of calls and a self_s")


def check_record(rec: dict, bench: dict) -> None:
    """Raise `ValueError` where `rec` breaks the record's schema."""
    names = {w["name"] for w in bench["workloads"]}
    if rec.get("kind") == "stages":
        check_stages(rec["stages"], names, "stages")
        return
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
        for side, block in rec.get("stages", {}).items():  # records before stages have none
            if side not in SIDES:
                raise ValueError(f"stages of {side}: neither 'parent' nor 'change'")
            check_stages(block, names, f"stages of {side}")
            if block["provenance"] != rec["provenance"][side]:
                raise ValueError(f"stages of {side}: provenance differs from the {side}'s runs")
    else:
        raise ValueError(f"kind {rec.get('kind')!r} is not 'record', 'paired' or 'stages'")
    if not runs:
        raise ValueError("the record holds no run")
    for run, where in runs:
        _check_run(run, bench, names, where)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("record", "paired", "stages"):
        p = sub.add_parser(mode)
        p.add_argument("--workloads", nargs="+", default=["all"])
        p.add_argument("--out", required=True)
        if mode == "stages":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--tree", default=str(ROOT), help="the source tree to import")
            continue
        p.add_argument("--seeds", nargs="+", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        if mode == "record":
            p.add_argument("--trace", action="store_true")
        else:
            p.add_argument("--parent", required=True, help="the git revision to compare with")
            p.add_argument("--pairs", type=int, default=10)
            p.add_argument("--append", action="store_true",
                           help="add to the paired record at --out")
    args = parser.parse_args(argv)
    bench = benchmark()
    rec = {"record": record, "paired": paired, "stages": stages}[args.mode](args, bench)
    if args.mode == "paired" and args.append:
        rec = append(json.loads(Path(args.out).read_text(encoding="utf-8")), rec, bench)
    check_record(rec, bench)
    Path(args.out).write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
