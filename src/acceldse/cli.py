"""Command-line front end.

Usage:
    acceldse cost --workload net.json --accel hw.json [--tiling tile.json]
    acceldse search tile --workload net.json --accel hw.json --out tilings.csv
    acceldse search accel --workload net.json --space space.json --engine anneal --seed 0
    acceldse search co --state supernet.json --space space.json --engine exhaustive

Exit codes: 0 ok, 2 usage/parse error, 3 no feasible tiling, 4 budget/space guard.

Every command is reproducible from its flags and seed; wall-time fields are the
only output that may differ between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .accel import AreaConstants, ParamSpace, area, load_accel, load_space
from .costmodel import (
    CostBreakdown,
    CostConstants,
    CostWeights,
    TilingPlan,
    edap,
    estimate_cost,
    hw_cost,
    subnet_total,
)
from .errors import InvalidDocument, NoFeasibleTiling, SpaceTooLarge
from .hwsearch import (
    GeneratorNet,
    SearchBudget,
    anneal_search,
    exhaustive_search,
    featurize_subnet,
    generator_forward,
    train_generator,
)
from .joint import JointWeights, co_search_step, load_supernet_state
from .tiling import map_subnet
from .workload import load_subnet

def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc


def _breakdown_from_dict(d: dict) -> CostBreakdown:
    """Parse a memo record's cost.  `cycles` must be an integer and the other
    fields numbers; booleans are neither."""
    cycles = d["cycles"]
    if isinstance(cycles, bool) or not isinstance(cycles, int):
        raise TypeError(f"cycles must be an integer, got {cycles!r}")
    floats = {}
    for name in ("energy_mj", "latency_ms", "dram_bytes", "area_mm2"):
        value = d[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{name} must be a number, got {value!r}")
        floats[name] = float(value)
    return CostBreakdown(cycles=cycles, **floats)


def load_constants(text: str) -> CostConstants:
    """Parse a constants document; omitted keys keep their defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"constants document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidDocument("constants document must be a JSON object")
    area_doc = doc.pop("area", {})
    known = {"f_clk_mhz", "dram_bw_bytes_per_cycle", "e_mac_pj",
             "e_sram_pj_per_byte", "e_dram_pj_per_byte"}
    unknown = set(doc) - known
    if unknown:
        raise InvalidDocument(f"constants document: unknown fields {sorted(unknown)}")
    try:
        area = AreaConstants(**area_doc) if area_doc else AreaConstants()
        return CostConstants(area=area, **{k: float(v) for k, v in doc.items()})
    except (TypeError, ValueError) as exc:
        raise InvalidDocument(f"constants document: {exc}") from exc


class CostCache:
    """Append-only memo of cost breakdowns, keyed by a content hash of the
    (operator, accelerator, tiling, constants) tuple.  Corrupt records are
    skipped with a warning and recomputed."""

    def __init__(self, path: str):
        self.path = Path(path)
        self._memo: dict[str, CostBreakdown] = {}
        text = self.path.read_text() if self.path.exists() else ""
        # a truncated last record may lack its newline; never append onto it
        self._needs_newline = bool(text) and not text.endswith("\n")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record["key"], str):
                    raise TypeError(f"key must be a string, got {record['key']!r}")
                self._memo[record["key"]] = _breakdown_from_dict(record["cost"])
            except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
                print(
                    f"warning: ignoring corrupt cache record at {path}:{lineno}: {exc}",
                    file=sys.stderr,
                )

    @staticmethod
    def key(op, cfg, tile, constants) -> str:
        payload = {
            "op": [op.kernel, op.stride, op.out_rows, op.in_channels,
                   op.out_channels, op.act_bits, op.wgt_bits],
            "cfg": list(cfg.as_tuple()),
            "tile": list(tile.as_tuple()),
            "constants": [
                constants.f_clk_mhz,
                constants.dram_bw_bytes_per_cycle,
                constants.e_mac_pj,
                constants.e_sram_pj_per_byte,
                constants.e_dram_pj_per_byte,
                constants.area.per_pe_mm2,
                constants.area.per_kb_mm2,
                constants.area.fixed_mm2,
            ],
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def get(self, key: str) -> CostBreakdown | None:
        return self._memo.get(key)

    def put(self, key: str, cost: CostBreakdown) -> None:
        if key in self._memo:
            return
        self._memo[key] = cost
        with open(self.path, "a") as fh:
            if self._needs_newline:
                fh.write("\n")
                self._needs_newline = False
            fh.write(json.dumps({"key": key, "cost": cost.to_dict()}) + "\n")


def _write_report(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_tilings(text: str, n_ops: int) -> list[TilingPlan]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"tiling document is not valid JSON: {exc}") from exc
    fields = ("t_oc", "t_ic", "t_ow", "t_oh")

    def plan_of(obj, where):
        if not isinstance(obj, dict) or set(obj) != set(fields):
            raise InvalidDocument(f"{where} must be an object with fields {fields}")
        try:
            return TilingPlan(**{f: int(obj[f]) for f in fields})
        except ValueError as exc:
            raise InvalidDocument(f"{where}: {exc}") from exc

    if isinstance(doc, dict) and "tilings" in doc:
        plans = [plan_of(obj, f"tiling {i}") for i, obj in enumerate(doc["tilings"])]
        if len(plans) != n_ops:
            raise InvalidDocument(f"tiling document has {len(plans)} entries for {n_ops} operators")
        return plans
    return [plan_of(doc, "tiling")] * n_ops


def cmd_cost(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    cfg = load_accel(_read_text(args.accel))
    constants = load_constants(_read_text(args.constants)) if args.constants else CostConstants()
    weights = CostWeights(args.lambda_e, args.lambda_l, args.lambda_a)
    cache = CostCache(args.cache) if args.cache else None

    if args.tiling:
        plans = _load_tilings(_read_text(args.tiling), len(subnet))
        costs = []
        for i, (op, plan) in enumerate(zip(subnet, plans)):
            key = CostCache.key(op, cfg, plan, constants) if cache else None
            cost = cache.get(key) if cache else None
            if cost is None:
                try:
                    cost = estimate_cost(op, cfg, plan, constants)
                except NoFeasibleTiling as exc:
                    raise NoFeasibleTiling(f"operator {i}: {exc}", op_index=i) from exc
                if cache:
                    cache.put(key, cost)
            costs.append(cost)
        total = subnet_total(costs, area(cfg, constants.area))
    else:
        mapping = map_subnet(subnet, cfg, constants, weights)
        plans = [r.best for r in mapping.per_op]
        costs = [r.cost for r in mapping.per_op]
        if cache:
            for op, plan, cost in zip(subnet, plans, costs):
                cache.put(CostCache.key(op, cfg, plan, constants), cost)
        total = mapping.total

    report = {
        "per_operator": [
            {
                "op_index": i,
                "tiling": {"t_oc": p.t_oc, "t_ic": p.t_ic, "t_ow": p.t_ow, "t_oh": p.t_oh},
                "cost": c.to_dict(),
                "hw_cost": hw_cost(c, weights),
                "edap": edap(c),
            }
            for i, (p, c) in enumerate(zip(plans, costs))
        ],
        "aggregate": {
            "cost": total.to_dict(),
            "hw_cost": hw_cost(total, weights),
            "edap": edap(total),
        },
        "weights": {"lambda_e": weights.lambda_e, "lambda_l": weights.lambda_l,
                    "lambda_a": weights.lambda_a},
    }
    _write_report(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_search_tile(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    cfg = load_accel(_read_text(args.accel))
    constants = load_constants(_read_text(args.constants)) if args.constants else CostConstants()
    mapping = map_subnet(subnet, cfg, constants)

    lines = ["op_index,t_oc,t_ic,t_ow,t_oh,energy_mj,latency_ms,dram_bytes"]
    for i, r in enumerate(mapping.per_op):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    i,
                    r.best.t_oc,
                    r.best.t_ic,
                    r.best.t_ow,
                    r.best.t_oh,
                    r.cost.energy_mj,
                    r.cost.latency_ms,
                    r.cost.dram_bytes,
                )
            )
        )
    csv_text = "\n".join(lines) + "\n"
    summary = {
        "aggregate_cost": mapping.total.to_dict(),
        "n_candidates": [r.n_candidates for r in mapping.per_op],
        "n_feasible": [r.n_feasible for r in mapping.per_op],
        "per_op_wall_time_s": [r.wall_time_s for r in mapping.per_op],
        "total_wall_time_s": mapping.wall_time_s,
    }
    if args.out:
        Path(args.out).write_text(csv_text)
        print(json.dumps(summary, indent=2))
    else:
        print(csv_text, end="")
        print(json.dumps(summary, indent=2), file=sys.stderr)
    return 0


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(
        max_evaluations=args.max_evaluations,
        seed=args.seed,
        initial_temperature=args.initial_temperature,
        cooling_rate=args.cooling_rate,
        steps=args.steps,
        samples_per_step=args.samples_per_step,
        learning_rate=args.learning_rate,
        gumbel_tau=args.gumbel_tau,
        tau_decay=args.tau_decay,
        baseline_decay=args.baseline_decay,
    )


def _write_trace_csv(out: str, result) -> None:
    path = Path(out).with_suffix("").as_posix() + ".trace.csv"
    if result.engine == "generator":
        lines = ["step,mean_cost,best_cost,tau,baseline"]
        for row in result.trace:
            lines.append(",".join(_fmt(v) for v in
                                  (row.step, row.mean_cost, row.best_cost, row.tau, row.baseline)))
    else:
        lines = ["step,cost,best_cost,temperature"]
        for row in result.trace:
            lines.append(",".join(_fmt(v) for v in
                                  (row.step, row.cost, row.best_cost, row.temperature)))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_search_accel(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    space = load_space(_read_text(args.space)) if args.space else ParamSpace()
    constants = load_constants(_read_text(args.constants)) if args.constants else CostConstants()
    weights = CostWeights(args.lambda_e, args.lambda_l, args.lambda_a)
    budget = _budget_from_args(args)

    report_extra = {}
    if args.engine == "exhaustive":
        result = exhaustive_search(subnet, space, constants, weights)
    elif args.engine == "anneal":
        result = anneal_search(subnet, space, constants, budget, weights)
    else:
        net = GeneratorNet(space, seed=budget.seed)
        result = train_generator(net, subnet, space, constants, budget, weights)
        feats = featurize_subnet(subnet)
        final_tau = max(budget.gumbel_tau * budget.tau_decay**budget.steps, 1e-3)
        probs, _ = generator_forward(net, feats, final_tau, noise_seed=budget.seed,
                                     mode=args.gumbel_mode)
        report_extra = {
            "gradient_estimator": "score-function with EMA baseline",
            "gumbel_mode": args.gumbel_mode,
            "head_sample": [[float(p) for p in head] for head in probs],
        }

    report = {
        "engine": result.engine,
        "seed": args.seed,
        "config": result.config.to_dict(),
        "hw_cost": result.cost,
        "evaluations": result.evaluations,
        "wall_time_s": result.wall_time_s,
        **report_extra,
    }
    _write_report(json.dumps(report, indent=2) + "\n", args.out)
    if args.out and result.trace:
        _write_trace_csv(args.out, result)
    return 0


def cmd_search_co(args) -> int:
    state = load_supernet_state(_read_text(args.state))
    space = load_space(_read_text(args.space)) if args.space else ParamSpace()
    constants = load_constants(_read_text(args.constants)) if args.constants else CostConstants()
    weights = JointWeights(
        lam=args.lam,
        cost_weights=CostWeights(args.lambda_e, args.lambda_l, args.lambda_a),
    )
    report = co_search_step(
        state,
        space,
        constants,
        weights,
        _budget_from_args(args),
        engine=args.engine,
    )
    _write_report(report.to_json() + "\n", args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--constants", help="cost-constants JSON document")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility and ignored: evaluation runs on one "
                             "thread, so results never depend on N")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lambda-e", dest="lambda_e", type=float, default=0.33)
    parser.add_argument("--lambda-l", dest="lambda_l", type=float, default=0.33)
    parser.add_argument("--lambda-a", dest="lambda_a", type=float, default=0.33)


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-evaluations", type=int, default=1000)
    parser.add_argument("--initial-temperature", type=float, default=1.0)
    parser.add_argument("--cooling-rate", type=float, default=0.98)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--samples-per-step", type=int, default=8)
    parser.add_argument("--learning-rate", type=float, default=0.1)
    parser.add_argument("--gumbel-tau", type=float, default=5.0)
    parser.add_argument("--tau-decay", type=float, default=0.95)
    parser.add_argument("--baseline-decay", type=float, default=0.9)
    parser.add_argument("--gumbel-mode", choices=("paper", "standard"), default="standard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acceldse", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="cost one workload on one accelerator")
    cost.add_argument("--workload", required=True)
    cost.add_argument("--accel", required=True)
    cost.add_argument("--tiling", help="explicit tiling JSON (default: search per operator)")
    cost.add_argument("--cache", help="append-only cost memo file")
    _add_common(cost)
    cost.set_defaults(func=cmd_cost)

    search = sub.add_parser("search", help="run one of the search workflows")
    kinds = search.add_subparsers(dest="kind", required=True)

    tile = kinds.add_parser("tile", help="best tiling per operator (CSV)")
    tile.add_argument("--workload", required=True)
    tile.add_argument("--accel", required=True)
    _add_common(tile)
    tile.set_defaults(func=cmd_search_tile)

    accel = kinds.add_parser("accel", help="search accelerator parameters")
    accel.add_argument("--workload", required=True)
    accel.add_argument("--space", help="parameter-space JSON (default: full space)")
    accel.add_argument("--engine", required=True, choices=("anneal", "generator", "exhaustive"))
    _add_common(accel)
    _add_budget(accel)
    accel.set_defaults(func=cmd_search_accel)

    co = kinds.add_parser("co", help="one joint co-search step")
    co.add_argument("--state", required=True, help="supernet state JSON")
    co.add_argument("--space", help="parameter-space JSON (default: full space)")
    co.add_argument("--engine", default="anneal", choices=("anneal", "generator", "exhaustive"))
    co.add_argument("--lambda", dest="lam", type=float, default=0.001)
    _add_common(co)
    _add_budget(co)
    co.set_defaults(func=cmd_search_co)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidDocument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoFeasibleTiling as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
