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
import errno
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields
from operator import attrgetter
from pathlib import Path

from .accel import AreaConstants, ParamSpace, area, check_range, load_accel, load_space
from .costmodel import (
    BREAKDOWN_FIELDS,
    COST_MODEL_VERSION,
    DEFAULT_CONSTANTS,
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
from .documents import (
    Rows,
    construct,
    json_text,
    parse_json,
    read_int,
    read_list,
    read_number,
    read_object,
    record_writer,
    write_json,
)
from .errors import InvalidDocument, NoFeasibleTiling, SpaceTooLarge
from .hwsearch import (
    ENGINE_TABLE,
    ENGINES,
    TAU_FLOOR,
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
_record_line = record_writer(_RECORD_KEYS, BREAKDOWN_FIELDS)
# An operator's object in `cost`'s report.
_OPERATOR_LAYOUT = ("op_index", ("tiling", TILING_FIELDS), ("cost", BREAKDOWN_FIELDS), "hw_cost",
                    "edap")
_key_constants = attrgetter(*_CONSTANT_FIELDS, *(f"area.{name}" for name in _AREA_FIELDS))
# The flags only some engines read: the budget's but `--seed`, which every report echoes.
_ENGINE_FLAGS = (*(f.name for f in fields(SearchBudget) if f.name != "seed"), "gumbel_mode")


def _read_text(path: str, errors: str = "strict") -> str:
    """`path`'s text, decoded as UTF-8, as JSON is written (RFC 8259); with
    `errors="strict"`, a byte that is not UTF-8 cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8", errors=errors)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc


@contextmanager
def _writing(path: str | None):
    """The `write` of the text file `path`, opened for the `with` block, or
    of stdout for None, flushed at its end; an `OSError` from opening,
    writing, flushing or closing becomes `InvalidDocument`.  A write that
    fails partway leaves what was written before it.  A failing stdout is
    then pointed at the null device, so the interpreter's flush of what it
    still buffers cannot fail again at exit."""
    try:
        if path is None:
            yield sys.stdout.write
            sys.stdout.flush()
        else:
            with open(path, "w") as f:
                yield f.write
    except OSError as exc:
        if path is None:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise InvalidDocument(f"cannot write {path or '<stdout>'}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    with _writing(path) as write:
        write(text)


def _check_writable(path: str | None) -> None:
    """Raise now the error `_writing(path)` would raise after a long
    run, where the cause can be seen without creating the file: a missing
    or non-directory parent, a directory at `path`, or no write permission.
    None, standing for stdout, is always writable."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise InvalidDocument(f"cannot write {path}: {OSError(code, os.strerror(code), str(target))}")


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
    skipped with a warning and recomputed.  Each record is one line of ASCII,
    as `json.dumps` writes it, so a line with any other byte is corrupt.

    The file is opened once, on the first `put`, for appending (`O_APPEND`),
    and each record goes out in one `os.write`, so records of concurrent
    writers never interleave.  An append that fails or is cut short raises
    `InvalidDocument`.  `close` releases the descriptor."""

    def __init__(self, path: str):
        self.path = Path(path)
        self._memo: dict[str, CostBreakdown] = {}
        self._fd: int | None = None
        # a byte that is not UTF-8 stays in its line, as a lone surrogate
        text = _read_text(path, "surrogateescape") if self.path.exists() else ""
        # a truncated last record may lack its newline; never append onto it
        self._needs_newline = bool(text) and not text.endswith("\n")
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    raise InvalidDocument("record is not ASCII")
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
    def keyer(cfg, constants):
        """`key(op, tile)`, the memo key of (op, `cfg`, tile, `constants`): the
        sha256 hex digest of ``json.dumps(payload, sort_keys=True)``, where
        `payload` maps "version", "op", "cfg", "tile" and "constants" to
        `COST_MODEL_VERSION`, `encode_operator(op)`, `cfg.as_tuple()`,
        `tile.as_tuple()` and the constants' fields.  The sorted head up to
        "op" is hashed once; each key copies that hash and feeds it the rest.
        The op and tile fields are plain ints, as every reader and search
        gives them, so ``%d`` writes them as ``json`` does."""
        head = json.dumps({"cfg": cfg.as_tuple(), "constants": _key_constants(constants)},
                          sort_keys=True)
        prefix = hashlib.sha256((head[:-1] + ', "op": ').encode())
        rest = ('[%d, %d, %d, %d, %d, %d, %d], "tile": [%d, %d, %d, %d], "version": '
                + json.dumps(COST_MODEL_VERSION) + "}")

        def key(op, tile) -> str:
            digest = prefix.copy()
            digest.update((rest % (*encode_operator(op), *tile.as_tuple())).encode())
            return digest.hexdigest()

        return key

    def get(self, key: str) -> CostBreakdown | None:
        return self._memo.get(key)

    def put(self, key: str, cost: CostBreakdown) -> None:
        if key in self._memo:
            return
        record = _record_line(key, cost)
        data = (("\n" if self._needs_newline else "") + record).encode()
        try:
            if self._fd is None:
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            written = os.write(self._fd, data)
        except OSError as exc:
            raise InvalidDocument(f"cannot write {self.path}: {exc}") from exc
        # a short write leaves a partial record last; the next record starts a new line
        self._needs_newline = written < len(data)
        if self._needs_newline:
            raise InvalidDocument(f"cannot write {self.path}: wrote {written} of a record's "
                                  f"{len(data)} bytes")
        self._memo[key] = cost

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def _csv_text(header, rows) -> str:
    """A header line and one line per row, comma-separated, floats by `repr`."""
    lines = [",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_report(doc, out: str | None) -> None:
    """Stream the report document to the file `out`, or to stdout."""
    with _writing(out) as write:
        write_json(doc, write)


def _load_tilings(text: str, n_ops: int) -> list[TilingPlan]:
    """Parse a tiling document: one plan object for every operator, or
    ``{"tilings": [plan, ...]}`` with one plan per operator."""
    doc = parse_json(text, "tiling document")

    def plan_of(obj, where):
        read_object(obj, where, TILING_FIELDS, TILING_FIELDS)
        return construct(TilingPlan, where, *[obj[name] for name in TILING_FIELDS])

    if isinstance(doc, dict) and "tilings" in doc:
        read_object(doc, "tiling document", ("tilings",))
        raw = read_list(doc["tilings"], "tiling document", "tilings")
        plans = [plan_of(obj, f"tiling {i}") for i, obj in enumerate(raw)]
        if len(plans) != n_ops:
            raise InvalidDocument(f"tiling document has {len(plans)} entries for {n_ops} operators")
        return plans
    return [plan_of(doc, "tiling")] * n_ops


def _constants(args) -> CostConstants:
    return load_constants(_read_text(args.constants)) if args.constants else DEFAULT_CONSTANTS


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
    memo_key = CostCache.keyer(cfg, constants) if cache else None
    if args.tiling:
        plans = _load_tilings(_read_text(args.tiling), len(subnet))
        costs = []
        for i, (op, plan) in enumerate(zip(subnet, plans)):
            key = memo_key(op, plan) if cache else None
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
            cache.put(memo_key(op, plan), cost)
    return plans, costs, mapping.total


def cmd_cost(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    cfg = load_accel(_read_text(args.accel))
    constants = _constants(args)
    weights = _from_args(CostWeights, args)
    _check_writable(args.out)
    cache = CostCache(args.cache) if args.cache else None
    try:
        plans, costs, total = _cost_operators(args, subnet, cfg, constants, weights, cache)
    finally:
        if cache:
            cache.close()

    _write_report(_cost_report(plans, costs, total, weights), args.out)
    return 0


def _cost_report(plans, costs, total, weights) -> dict:
    """`cost`'s report: each operator's tiling and cost, and the subnet's.
    The per-operator rows are streamed from `plans` and `costs` as the
    report is written, so it is written once."""
    rows = ((i, *p.as_tuple(), *c.as_tuple(), hw_cost(c, weights), edap(c))
            for i, (p, c) in enumerate(zip(plans, costs)))
    return {
        "per_operator": Rows(_OPERATOR_LAYOUT, rows),
        "aggregate": {
            "cost": total.to_dict(),
            "hw_cost": hw_cost(total, weights),
            "edap": edap(total),
        },
        "weights": {f.name: getattr(weights, f.name) for f in fields(weights)},
    }


def cmd_search_tile(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    cfg = load_accel(_read_text(args.accel))
    constants, weights = _constants(args), _from_args(CostWeights, args)
    _check_writable(args.out)
    mapping = map_subnet(subnet, cfg, constants, weights)

    cost_columns = ("energy_mj", "latency_ms", "dram_bytes")
    csv_text = _csv_text(
        ("op_index", *TILING_FIELDS, *cost_columns),
        ((i, *r.best.as_tuple(), *(getattr(r.cost, name) for name in cost_columns))
         for i, r in enumerate(mapping.per_op)))
    summary = json_text({
        "aggregate_cost": mapping.total.to_dict(),
        "n_candidates": [r.n_candidates for r in mapping.per_op],
        "n_feasible": [r.n_feasible for r in mapping.per_op],
        "per_op_wall_time_s": [r.wall_time_s for r in mapping.per_op],
        "total_wall_time_s": mapping.wall_time_s,
    })
    if args.out:
        _write_text(args.out, csv_text)
        _write_text(None, summary)
    else:
        _write_text(None, csv_text)
        print(summary, end="", file=sys.stderr)
    return 0


def _trace_path(out: str) -> str:
    """The trace CSV written beside the report `out`."""
    return Path(out).with_suffix("").as_posix() + ".trace.csv"


def _write_trace_csv(out: str, result) -> None:
    """One CSV row per trace row (`TraceRow` or `AnnealRow`), headed by its field names."""
    header = [f.name for f in fields(result.trace[0])]
    _write_text(_trace_path(out), _csv_text(header, map(astuple, result.trace)))


def cmd_search_accel(args) -> int:
    subnet = load_subnet(_read_text(args.workload))
    space = load_space(_read_text(args.space)) if args.space else ParamSpace()
    constants = _constants(args)
    weights = _from_args(CostWeights, args)
    budget = _budget(args)
    try:  # the generator's head-sample temperature, checked before training
        final_tau = max(budget.gumbel_tau * budget.tau_decay**budget.steps, TAU_FLOOR)
    except OverflowError:
        final_tau = math.inf
    if final_tau == math.inf:
        raise ValueError("gumbel_tau * tau_decay**steps, the head sample's temperature, overflows")
    _check_writable(args.out)
    if args.out and args.engine != "exhaustive":  # the engines that write a trace
        _check_writable(_trace_path(args.out))

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
    constants, budget = _constants(args), _budget(args)
    _check_writable(args.out)
    report = co_search_step(state, space, constants, weights, budget, engine=args.engine)
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
