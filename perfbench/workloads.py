"""The six benchmark workloads.

Each CLI repetition runs acceldse in a fresh interpreter through `child.py`;
a quant workload runs its library calls in one child process.  A workload
turns the benchmark seed into documents (untimed), runs repetitions, and
checks their outputs; `run.py` turns the repetitions into metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from reference import reference_s

ANNEAL_EVALUATIONS = 200
ANNEAL_SEEDS = 3  # annealing seeds per run, cycled through
CO_SEEDS = 3  # generator seeds per co-generator run, cycled through
# Criterion-5 generator hyperparameters with a 1000-step x 5-sample budget.
CO_FLAGS = ["--engine", "generator", "--steps", "1000", "--samples-per-step", "5",
            "--max-evaluations", "5000", "--learning-rate", "0.1", "--gumbel-tau", "5.0",
            "--tau-decay", "0.95", "--baseline-decay", "0.9"]
E_HW_BOUND = 1.10  # criterion 5: within 10% of the exhaustive optimum
MIN_CYCLES = 3  # whole cycles an untraced run makes at least, unless a workload says fewer
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120
CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass
class Rep:
    """One repetition: its timed wall time, peak RSS and output digest.

    Repetitions with the same `key` ran the same inputs and must have the
    same `digest` (the output with wall-time fields stripped)."""

    wall_s: float
    ref_s: float                  # reference time around the timed work (reference.py)
    rss_mb: float
    key: str
    digest: str
    spans: list | None = None
    extra: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


@dataclass
class Measured:
    reps: list[Rep]               # untraced, timed
    traced: list[Rep]             # traced; each follows an untraced rep of the same inputs
    errors: list[str]             # failures of whole-run independent rechecks


def digest_report(report: dict) -> str:
    stripped = {k: v for k, v in report.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


class Context:
    def __init__(self, root: Path, seed: int, seconds: float, trace: bool, name: str):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.name = name
        self.work = root / ".bench_work" / name
        self.work.mkdir(parents=True, exist_ok=True)
        # one compute thread per acceldse process, as `--threads 1` asks of
        # acceldse itself: a second BLAS thread waiting for the other core
        # slowed the generator's small matrix products up to threefold
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
                    "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        self._children = 0

    def write(self, filename: str, doc) -> str:
        path = self.work / filename
        path.write_text(json.dumps(doc))
        return str(path)

    def child(self, spec: dict) -> tuple[dict | None, str]:
        """Run child.py once; returns (result, error message)."""
        self._children += 1
        result_path = self.work / f"child-{self._children}.json"
        result_path.unlink(missing_ok=True)
        spec = {**spec, "result": str(result_path)}
        started_at = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"child timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result_path.exists():
            return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return {**json.loads(result_path.read_text()), "started_at": started_at}, ""

    def timed_child(self, spec: dict) -> tuple[dict | None, str]:
        """Run child.py once; its reference time becomes the mean of one
        taken here just before it and the one it took after its timed part."""
        ref_before = reference_s()
        result, error = self.child(spec)
        if result is not None:
            result["ref_s"] = (ref_before + result["ref_s"]) / 2
        return result, error

    def cli(self, argv: list[str], traced: bool) -> tuple[dict | None, str]:
        result, error = self.timed_child({"mode": "cli", "argv": argv + ["--threads", "1"],
                                          "trace": traced})
        if result is not None and result["rc"] != 0:
            return None, f"acceldse {' '.join(argv[:2])} exited {result['rc']}"
        return result, error

    def setup_samples(self, n: int) -> list[tuple[float, float]]:
        """`n` times: (fresh interpreter start plus `import acceldse.cli`,
        reference time around it)."""
        samples = []
        for _ in range(n):
            result, error = self.timed_child({"mode": "setup"})
            if result is None:
                raise RuntimeError(f"set-up sample: {error}")
            samples.append((result["imported_at"] - result["started_at"], result["ref_s"]))
        return samples


class CliWorkload:
    """Repetitions until `seconds` elapse.  A traced run alternates an
    untraced and a traced repetition of the same inputs."""

    name = ""
    digest_group = ""  # key of this workload's output digests in expected.json
    blas_dependent = False  # outputs may round differently on another CPU
    boundaries: tuple[str, ...] = ()  # spans a traced run must record
    cycle = 1  # an untraced run makes whole cycles of this many repetitions
    min_cycles = MIN_CYCLES

    def prepare(self, ctx: Context) -> None:
        raise NotImplementedError

    def rep(self, ctx: Context, index: int, traced: bool) -> Rep:
        raise NotImplementedError

    def recheck(self, ctx: Context, reps: list[Rep]) -> list[str]:
        """Untimed checks of the untraced repetitions' outputs."""
        return []

    def details(self, reps: list[Rep]) -> dict[str, tuple[float, str]]:
        """Workload-specific metrics over the repetitions without errors."""
        return {}

    def measure(self, ctx: Context) -> Measured:
        self.prepare(ctx)
        reps, traced = [], []
        cycle = 1 if ctx.trace else self.cycle
        least = MIN_TRACED_PAIRS if ctx.trace else self.min_cycles * cycle
        deadline = time.perf_counter() + ctx.seconds
        while len(reps) < least or len(reps) % cycle or time.perf_counter() < deadline:
            reps.append(self.rep(ctx, len(reps), traced=False))
            if ctx.trace:
                traced.append(self.rep(ctx, len(traced), traced=True))
        return Measured(reps, traced, self.recheck(ctx, reps))


def _failed_rep(key: str, error: str) -> Rep:
    return Rep(float("nan"), float("nan"), float("nan"), key, "", errors=[error])


class AnnealFull(CliWorkload):
    """Untraced, repetition `r` anneals with the `r % ANNEAL_SEEDS`-th seed
    of the benchmark seed, in whole cycles, so every run times the same
    inputs equally often whatever the speed; traced, it uses the first."""

    name = digest_group = "anneal-full"
    cycle = ANNEAL_SEEDS
    boundaries = ("cli.main", "workload.load_subnet", "hwsearch.anneal_search", "hwsearch.scorer",
                  "accel.config_at", "tiling.map_subnet", "tiling.batch_search",
                  "costmodel.estimate_cost", "costmodel.evaluate_tilings",
                  "costmodel.fits_caches_mask")

    def prepare(self, ctx):
        self.subnet = ctx.write("subnet22.json", gen.subnet22_doc())

    def rep(self, ctx, index, traced):
        seed = gen.anneal_seed(ctx.seed, 0 if ctx.trace else index % ANNEAL_SEEDS)
        out = ctx.work / f"anneal-{seed}-{'t' if traced else 'u'}.json"
        result, error = ctx.cli(["search", "accel", "--workload", self.subnet, "--engine", "anneal",
                                 "--seed", str(seed), "--max-evaluations", str(ANNEAL_EVALUATIONS),
                                 "--out", str(out)], traced)
        if result is None:
            return _failed_rep(str(seed), error)
        report = json.loads(out.read_text())
        return Rep(result["wall_s"], result["ref_s"], result["rss_mb"], str(seed),
                   digest_report(report), [result["spans"]] if traced else None, {"report": report})

    def recheck(self, ctx, reps):
        """Re-cost the first reported config with the sequential
        `oracle_search` per operator; the sum must reproduce the reported
        hw_cost exactly."""
        first = reps[0]
        if first.errors:
            return []
        from acceldse import CostBreakdown, CostConstants, CostWeights, area, hw_cost, load_accel
        from acceldse import load_subnet, oracle_search

        report = first.extra["report"]
        cfg = load_accel(json.dumps(report["config"]))
        constants, weights = CostConstants(), CostWeights(0.33, 0.33, 0.33)
        energy = latency = dram = 0.0
        cycles = 0
        for op in load_subnet(Path(self.subnet).read_text()):
            cost = oracle_search(op, cfg, constants, weights).cost
            energy += cost.energy_mj
            latency += cost.latency_ms
            cycles += cost.cycles
            dram += cost.dram_bytes
        total = hw_cost(CostBreakdown(energy, latency, cycles, dram, area(cfg, constants.area)), weights)
        if total != report["hw_cost"]:
            return [f"oracle re-cost {total!r} != reported hw_cost {report['hw_cost']!r}"]
        return []

    def details(self, reps):
        return {
            "configs_per_s": (statistics.median(
                r.extra["report"]["evaluations"] / r.wall_s for r in reps), "1/s"),
            "hw_cost": (reps[0].extra["report"]["hw_cost"], "1"),
        }


class CoGenerator(CliWorkload):
    """Untraced, repetition `r` trains with the `r % CO_SEEDS`-th generator
    seed of the benchmark seed, in at least two whole cycles, which keeps a
    run near twenty seconds; traced, it uses the first, the benchmark seed
    itself.  The state is the benchmark seed's."""

    name = digest_group = "co-generator"
    blas_dependent = True  # the generator net's matrix products
    cycle = CO_SEEDS
    min_cycles = 2
    boundaries = ("cli.main", "accel.load_space", "joint.co_search_step", "joint.select_subnet",
                  "hwsearch.train_policy", "hwsearch.scorer", "hwsearch.net.forward",
                  "hwsearch.net.backward", "hwsearch.net.sgd_step", "quant.gumbel_softmax",
                  "accel.config_at", "tiling.map_subnet", "tiling.batch_search",
                  "costmodel.evaluate_tilings", "costmodel.estimate_cost")

    def prepare(self, ctx):
        self.state = ctx.write("supernet.json", gen.supernet_state_doc(ctx.seed))
        self.space = ctx.write("space24.json", gen.SPACE24_DOC)

    def rep(self, ctx, index, traced):
        seed = gen.co_generator_seed(ctx.seed, 0 if ctx.trace else index % CO_SEEDS)
        key = f"{ctx.seed}/{seed}"  # the state comes from the benchmark seed
        out = ctx.work / f"co-{seed}-{'t' if traced else 'u'}.json"
        result, error = ctx.cli(["search", "co", "--state", self.state, "--space", self.space,
                                 *CO_FLAGS, "--seed", str(seed), "--out", str(out)], traced)
        if result is None:
            return _failed_rep(key, error)
        report = json.loads(out.read_text())
        return Rep(result["wall_s"], result["ref_s"], result["rss_mb"], key,
                   digest_report(report),
                   [result["spans"]] if traced else None, {"report": report})

    def recheck(self, ctx, reps):
        """For each generator seed: the decoded subnet matches
        `select_subnet`, and e_hw is within the criterion-5 bound of
        `exhaustive_search` on the 24-config space."""
        from acceldse import exhaustive_search, load_space, load_supernet_state, select_subnet
        from acceldse.workload import OPERATOR_FIELDS

        subnet = select_subnet(load_supernet_state(Path(self.state).read_text()))
        decoded = [{k: getattr(op, k) for k in OPERATOR_FIELDS} for op in subnet]
        optimum = exhaustive_search(subnet, load_space(Path(self.space).read_text())).cost
        failures = []
        for key, rep in {r.key: r for r in reversed(reps) if not r.errors}.items():
            report = rep.extra["report"]
            if decoded != report["subnet"]["operators"]:
                failures.append(f"{key}: reported subnet differs from select_subnet of the state")
            if not report["e_hw"] <= E_HW_BOUND * optimum:
                failures.append(f"{key}: e_hw {report['e_hw']!r} above {E_HW_BOUND} x "
                                f"optimum {optimum!r}")
        return failures

    def details(self, reps):
        return {
            "configs_per_s": (statistics.median(
                r.extra["report"]["search_evaluations"] / r.wall_s for r in reps), "1/s"),
            "hw_cost": (reps[0].extra["report"]["e_hw"], "1"),
        }


class CostMemo(CliWorkload):
    """`acceldse cost --cache` over 3000 operators, in one phase: "cold"
    runs from an absent memo file, "warm" over the memo a cold run wrote."""

    digest_group = "cost-memo"
    phase = ""

    def prepare(self, ctx):
        workload, accel, tilings = gen.memo_docs(ctx.seed)
        self.docs = ["--workload", ctx.write("ops.json", workload),
                     "--accel", ctx.write("accel.json", accel),
                     "--tiling", ctx.write("tilings.json", tilings)]
        self.memo = ctx.work / "memo.jsonl"
        self.memo.unlink(missing_ok=True)

    def run(self, ctx, out_name: str, traced: bool, cache: bool = True) -> tuple[dict | None, str]:
        out = ctx.work / out_name
        out.unlink(missing_ok=True)
        result, error = ctx.cli(["cost", *self.docs, *(["--cache", str(self.memo)] if cache else []),
                                 "--out", str(out)], traced)
        if result is not None:
            result["report"] = out.read_bytes()
        return result, error

    def rep(self, ctx, index, traced):
        if self.phase == "cold":
            self.memo.unlink(missing_ok=True)
        result, error = self.run(ctx, f"{self.phase}.json", traced)
        if result is None:
            return _failed_rep(str(ctx.seed), f"{self.phase}: {error}")
        return Rep(result["wall_s"], result["ref_s"], result["rss_mb"], str(ctx.seed),
                   hashlib.sha256(result["report"]).hexdigest(),
                   [result["spans"]] if traced else None,
                   {"report": result["report"], "memo_file_bytes": self.memo.stat().st_size})

    def recheck(self, ctx, reps):
        """The report of the other phase, and of a run without `--cache`,
        are byte-identical to this phase's first report."""
        first = reps[0]
        if first.errors:
            return []
        other = "warm" if self.phase == "cold" else "cold"
        if other == "cold":
            self.memo.unlink(missing_ok=True)
        failures = []
        for label, name, cache in ((other, f"{other}.json", True), ("without --cache", "nocache.json", False)):
            result, error = self.run(ctx, name, traced=False, cache=cache)
            if result is None:
                failures.append(f"{label} run: {error}")
            elif result["report"] != first.extra["report"]:
                failures.append(f"{label} report differs from the {self.phase} report")
        return failures

    def details(self, reps):
        return {f"memo_{self.phase}_s": (statistics.median(r.wall_s for r in reps), "s")}


class CostMemoCold(CostMemo):
    name, phase = "cost-memo-cold", "cold"
    boundaries = ("cli.main", "workload.load_subnet", "accel.load_accel", "cli.CostCache.init",
                  "cli.CostCache.get", "cli.CostCache.put", "costmodel.estimate_cost",
                  "costmodel.evaluate_tilings", "costmodel.fits_caches_mask")


class CostMemoWarm(CostMemo):
    name, phase = "cost-memo-warm", "warm"
    boundaries = ("cli.main", "workload.load_subnet", "accel.load_accel", "cli.CostCache.init",
                  "cli.CostCache.get")

    def prepare(self, ctx):
        """Write the memo with an untimed cold run."""
        super().prepare(ctx)
        result, error = self.run(ctx, "cold.json", traced=False)
        if result is None:
            raise RuntimeError(f"{self.name}: cold run that writes the memo: {error}")


class QuantSparse:
    """All passes at one K run in one child process, which holds the
    generated maps."""

    name = digest_group = ""
    blas_dependent = False
    k = 0
    boundaries = ("quant.channel_importance", "quant.topk_channels", "quant.quantize_channels",
                  "quant.mix_precision", "quant.quantize")

    def measure(self, ctx: Context) -> Measured:
        result, error = ctx.child({"mode": "quant", "seed": ctx.seed, "k": self.k,
                                   "seconds": ctx.seconds, "trace": ctx.trace})
        if result is None:
            return Measured([_failed_rep(str(ctx.seed), error)], [], [])
        self.input_mb = result["input_bytes"] / 1e6
        reps, traced = [], []
        for r in result["reps"]:
            rep = Rep(r["wall_s"], r["ref_s"], result["rss_mb"], str(ctx.seed), r["digest"],
                      [r["spans"]] if r["traced"] else None)
            (traced if r["traced"] else reps).append(rep)
        return Measured(reps, traced, result["checks"])

    def details(self, reps):
        return {f"quant_mb_per_s_k{self.k}": (
            self.input_mb / statistics.median(r.wall_s for r in reps), "MB/s")}


class QuantK3(QuantSparse):
    name = digest_group = "quant-k3"
    k = 3


class QuantK100(QuantSparse):
    name = digest_group = "quant-k100"
    k = 100


WORKLOADS = {cls.name: cls for cls in (AnnealFull, CoGenerator, CostMemoCold, CostMemoWarm,
                                       QuantK3, QuantK100)}
