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
import math
import os
import sys
from dataclasses import astuple, fields
from operator import attrgetter
from pathlib import Path

from .accel import AreaConstants, ParamSpace, area, check_range, load_accel, load_space
from .costmodel import (
    BREAKDOWN_FIELDS,
    COST_MODEL_VERSION,
    TILING_FIELDS,
    CostBreakdown,
    CostConstants,
    CostWeights,
    TilingPlan,
    edap,
    estimate_cost,
    hw_cost,
    subnet_total,
)
from .documents import construct, parse_json, read_int, read_list, read_number, read_object
from .errors import InvalidDocument, NoFeasibleTiling, SpaceTooLarge
from .hwsearch import (
    ENGINE_TABLE,
    ENGINES,
    SearchBudget,
    featurize_subnet,
    generator_forward,
    search_accel,
)
from .joint import JointWeights, co_search_step, load_supernet_state
from .tiling import map_subnet
from .workload import encode_operator, load_subnet

# Document keys, each read from the type that owns it.
_CONSTANT_FIELDS = tuple(f.name for f in fields(CostConstants) if f.name != "area")
_AREA_FIELDS = tuple(f.name for f in fields(AreaConstants))
_RECORD_KEYS = ("key", "cost")
# A memo record's cost: `cycles` is its one integer field, the rest are numbers.
_BREAKDOWN_READERS = tuple((name, read_int if name == "cycles" else read_number)
                           for name in BREAKDOWN_FIELDS)
_key_constants = attrgetter(*_CONSTANT_FIELDS, *(f"area.{name}" for name in _AREA_FIELDS))
# The flags only some engines read: the budget's but `--seed`, which every report echoes.
_ENGINE_FLAGS = (*(f.name for f in fields(SearchBudget) if f.name != "seed"), "gumbel_mode")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc


def load_constants(text: str) -> CostConstants:
    """Parse a constants document; omitted keys keep their defaults."""
    where = "constants document"
    doc = read_object(parse_json(text, where), where, (*_CONSTANT_FIELDS, "area"))
    values = {k: read_number(v, where, k) for k, v in doc.items() if k != "area"}
    if "area" in doc:
        at = f"{where}: area"
        area_doc = read_object(doc["area"], at, _AREA_FIELDS)
        values["area"] = construct(
            AreaConstants, at, **{k: read_number(v, at, k) for k, v in area_doc.items()}
        )
    return construct(CostConstants, where, **values)


class CostCache:
    """Append-only memo of cost breakdowns, keyed by a content hash of the
    (operator, accelerator, tiling, constants) tuple.  Corrupt records are
    skipped with a warning and recomputed.

    The file is opened once, on the first `put`, for appending (`O_APPEND`),
    and each record goes out in one `os.write`, so records of concurrent
    writers never interleave.  `close` releases the descriptor."""

    def __init__(self, path: str):
        self.path = Path(path)
        self._memo: dict[str, CostBreakdown] = {}
        self._fd: int | None = None
        text = _read_text(path) if self.path.exists() else ""
        # a truncated last record may lack its newline; never append onto it
        self._needs_newline = bool(text) and not text.endswith("\n")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = read_object(parse_json(line, "record"), "record", _RECORD_KEYS,
                                     _RECORD_KEYS)
                if type(record["key"]) is not str:
                    raise InvalidDocument(f"key must be a string, got {record['key']!r}")
                cost = read_object(record["cost"], "cost", BREAKDOWN_FIELDS, BREAKDOWN_FIELDS)
                self._memo[record["key"]] = CostBreakdown(
                    *[read(cost[name], "cost", name) for name, read in _BREAKDOWN_READERS])
            except InvalidDocument as exc:
                print(f"warning: ignoring corrupt cache record at {path}:{lineno}: {exc}",
                      file=sys.stderr)

    @staticmethod
    def key(op, cfg, tile, constants) -> str:
        payload = {
            "version": COST_MODEL_VERSION,
            "op": encode_operator(op),
            "cfg": cfg.as_tuple(),
            "tile": tile.as_tuple(),
            "constants": _key_constants(constants),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def get(self, key: str) -> CostBreakdown | None:
        return self._memo.get(key)

    def put(self, key: str, cost: CostBreakdown) -> None:
        if key in self._memo:
            return
        self._memo[key] = cost
        record = json.dumps({"key": key, "cost": cost.to_dict()}) + "\n"
        if self._needs_newline:
            record = "\n" + record
            self._needs_newline = False
        if self._fd is None:
            try:
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            except OSError as exc:
                raise InvalidDocument(f"cannot write {self.path}: {exc}") from exc
        os.write(self._fd, record.encode())

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def _json_text(doc) -> str:
    """A report document as text: indented by two spaces, newline-terminated."""
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """A header line and one line per row, comma-separated, floats by `repr`."""
    lines = [",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_report(doc, out: str | None) -> None:
    """Write the report document to the file `out`, or to stdout."""
    text = _json_text(doc)
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="")


def _load_tilings(text: str, n_ops: int) -> list[TilingPlan]:
    """Parse a tiling document: one plan object for every operator, or
    ``{"tilings": [plan, ...]}`` with one plan per operator."""
    doc = parse_json(text, "tiling document")

    def plan_of(obj, where):
        read_object(obj, where, TILING_FIELDS, TILING_FIELDS)
        return construct(TilingPlan, where,
                         *[read_int(obj[name], where, name) for name in TILING_FIELDS])

    if isinstance(doc, dict) and "tilings" in doc:
        read_object(doc, "tiling document", ("tilings",))
        raw = read_list(doc["tilings"], "tiling document", "tilings")
        plans = [plan_of(obj, f"tiling {i}") for i, obj in enumerate(raw)]
        if len(plans) != n_ops:
            raise InvalidDocument(f"tiling document has {len(plans)} entries for {n_ops} operators")
        return plans
    return [plan_of(doc, "tiling")] * n_ops


def _constants(args) -> CostConstants:
    return load_constants(_read_text(args.constants)) if args.constants else CostConstants()


def _from_args(cls, args):
    """An instance of the dataclass `cls` from the given flags `_add_fields` made for it."""
    return cls(**{f.name: vars(args)[f.name] for f in fields(cls) if f.name in vars(args)})


def _budget(args) -> SearchBudget:
    """The search budget of the flags.  A negative rate would climb the cost
    (`--learning-rate`), make the annealer greedy (`--initial-temperature`)
    or flip the temperature's sign every step (`--cooling-rate`), so each
    lies in [0, 2**64]; the library leaves their signs free.  Then a given
    flag the engine does not read (`ENGINE_TABLE`) is a usage error."""
    budget = _from_args(SearchBudget, args)
    check_range(budget, dict.fromkeys(("initial_temperature", "cooling_rate", "learning_rate"),
                                      0.0), "the budget's rate range")
    _, reads = ENGINE_TABLE[args.engine]
    if "gumbel_tau" in reads:  # `--gumbel-mode` is the noise of the head sample drawn at it
        reads += ("gumbel_mode",)
    unread = ["--" + name.replace("_", "-") for name in vars(args)
              if name in _ENGINE_FLAGS and name not in reads]
    if unread:
        raise ValueError(f"engine {args.engine} does not read {', '.join(unread)}")
    return budget


def _cost_operators(args, subnet, cfg, constants, weights, cache):
    """Plans, per-operator costs and the subnet total of `cost`."""
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
        return plans, costs, subnet_total(costs, area(cfg, constants.area))
    mapping = map_subnet(subnet, cfg, constants, weights)
    plans = [r.best for r in mapping.per_op]
    costs = [r.cost for r in mapping.per_op]
    if cache:
        for op, plan, cost in zip(subnet, plans, costs):
            cache.put(CostCache.key(op, cfg, plan, constants), cost)
    return plans, costs, mapping.total


def cmd_cost(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    cfg = load_accel(_read_text(args.accel))
    constants = _constants(args)
    weights = _from_args(CostWeights, args)
    cache = CostCache(args.cache) if args.cache else None
    try:
        plans, costs, total = _cost_operators(args, subnet, cfg, constants, weights, cache)
    finally:
        if cache:
            cache.close()

    report = {
        "per_operator": [
            {
                "op_index": i,
                "tiling": p.to_dict(),
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
        "weights": {f.name: getattr(weights, f.name) for f in fields(weights)},
    }
    _write_report(report, args.out)
    return 0


def cmd_search_tile(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    cfg = load_accel(_read_text(args.accel))
    mapping = map_subnet(subnet, cfg, _constants(args), _from_args(CostWeights, args))

    cost_columns = ("energy_mj", "latency_ms", "dram_bytes")
    csv_text = _csv_text(
        ("op_index", *TILING_FIELDS, *cost_columns),
        ((i, *r.best.as_tuple(), *(getattr(r.cost, name) for name in cost_columns))
         for i, r in enumerate(mapping.per_op)))
    summary = _json_text({
        "aggregate_cost": mapping.total.to_dict(),
        "n_candidates": [r.n_candidates for r in mapping.per_op],
        "n_feasible": [r.n_feasible for r in mapping.per_op],
        "per_op_wall_time_s": [r.wall_time_s for r in mapping.per_op],
        "total_wall_time_s": mapping.wall_time_s,
    })
    if args.out:
        Path(args.out).write_text(csv_text)
        print(summary, end="")
    else:
        print(csv_text, end="")
        print(summary, end="", file=sys.stderr)
    return 0


def _write_trace_csv(out: str, result) -> None:
    """One CSV row per trace row (`TraceRow` or `AnnealRow`), headed by its field names."""
    path = Path(out).with_suffix("").as_posix() + ".trace.csv"
    header = [f.name for f in fields(result.trace[0])]
    Path(path).write_text(_csv_text(header, map(astuple, result.trace)))


def cmd_search_accel(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    space = load_space(_read_text(args.space)) if args.space else ParamSpace()
    constants = _constants(args)
    weights = _from_args(CostWeights, args)
    budget = _budget(args)
    try:  # the generator's head-sample temperature, checked before training
        final_tau = max(budget.gumbel_tau * budget.tau_decay**budget.steps, 1e-3)
    except OverflowError:
        final_tau = math.inf
    if final_tau == math.inf:
        raise ValueError("gumbel_tau * tau_decay**steps, the head sample's temperature, overflows")

    result = search_accel(args.engine, subnet, space, constants, budget, weights)
    report = {
        "engine": result.engine,
        "seed": args.seed,
        "config": result.config.to_dict(),
        "hw_cost": result.cost,
        "evaluations": result.evaluations,
        "wall_time_s": result.wall_time_s,
    }
    if result.net is not None:
        gumbel_mode = vars(args).get("gumbel_mode", "standard")
        probs, _ = generator_forward(result.net, featurize_subnet(subnet), final_tau,
                                     noise_seed=budget.seed, mode=gumbel_mode)
        report |= {
            "gradient_estimator": "score-function with EMA baseline",
            "gumbel_mode": gumbel_mode,
            "head_sample": [[float(p) for p in head] for head in probs],
        }
    _write_report(report, args.out)
    if args.out and result.trace:
        _write_trace_csv(args.out, result)
    return 0


def cmd_search_co(args) -> int:
    state = load_supernet_state(_read_text(args.state))
    space = load_space(_read_text(args.space)) if args.space else ParamSpace()
    weights = JointWeights(lam=args.lam, cost_weights=_from_args(CostWeights, args))
    report = co_search_step(state, space, _constants(args), weights,
                            _budget(args), engine=args.engine)
    _write_report(report.to_dict(), args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--constants", help="cost-constants JSON document")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="at least 1; accepted for compatibility and ignored: evaluation "
                             "runs on one thread, so results never depend on N")
    parser.add_argument("--seed", type=int, default=SearchBudget.seed)
    _add_fields(parser, CostWeights)


def _add_fields(parser: argparse.ArgumentParser, cls, exclude=()) -> None:
    """A ``--field-name`` flag per field of the dataclass `cls`, typed by it, absent unless given."""
    for f in fields(cls):
        if f.name not in exclude:
            parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                default=argparse.SUPPRESS)


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
    accel.add_argument("--engine", required=True, choices=ENGINES)
    accel.add_argument("--gumbel-mode", choices=("paper", "standard"), default=argparse.SUPPRESS,
                       help="relaxation noise of the generator's head sample (default: standard)")
    _add_common(accel)
    _add_fields(accel, SearchBudget, exclude=("seed",))
    accel.set_defaults(func=cmd_search_accel)

    co = kinds.add_parser("co", help="one joint co-search step")
    co.add_argument("--state", required=True, help="supernet state JSON")
    co.add_argument("--space", help="parameter-space JSON (default: full space)")
    co.add_argument("--engine", default="anneal", choices=ENGINES)
    co.add_argument("--lambda", dest="lam", type=float, default=JointWeights.lam)
    _add_common(co)
    _add_fields(co, SearchBudget, exclude=("seed",))
    co.set_defaults(func=cmd_search_co)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"threads must be at least 1, got {args.threads}")
        return args.func(args)
    except NoFeasibleTiling as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # `InvalidDocument` included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value is too large for the cost model: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
