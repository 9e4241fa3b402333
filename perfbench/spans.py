"""Span recorder for the traced benchmark run.

Spans are recorded only from the benchmark: `installed` replaces public
functions of acceldse with wrappers at every module attribute that refers to
them (modules import names directly, so one function has several lookup
sites), and restores the originals on exit.  Each span is a list
``[id, parent_id, name, start, end, attrs]`` held in memory; `layer_metrics`
turns the spans of one repetition into the per-layer metrics.

The recorder keeps one stack of open spans, so it assumes one thread; the
benchmark runs acceldse with ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(args, kwargs, result):
    return {"rows": int(np.size(args[2] if len(args) > 2 else kwargs["t_oc"]))}


def _search(args, kwargs, result):
    return {"candidates": result.n_candidates, "feasible": result.n_feasible}


def _nbytes(args, kwargs, result):
    return {"bytes": int(np.asarray(args[0] if args else kwargs["values"]).nbytes)}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


# (span name, module, attribute, attrs) for module-level functions.
FUNCTIONS = (
    ("cli.main", "acceldse.cli", "main", None),
    ("workload.load_subnet", "acceldse.workload", "load_subnet", None),
    ("accel.load_accel", "acceldse.accel", "load_accel", None),
    ("accel.load_space", "acceldse.accel", "load_space", None),
    ("joint.co_search_step", "acceldse.joint", "co_search_step", None),
    ("joint.select_subnet", "acceldse.joint", "select_subnet", None),
    ("hwsearch.anneal_search", "acceldse.hwsearch", "anneal_search", None),
    ("hwsearch.train_policy", "acceldse.hwsearch", "train_policy", None),
    ("tiling.map_subnet", "acceldse.tiling", "map_subnet", None),
    ("tiling.batch_search", "acceldse.tiling", "batch_search", _search),
    ("costmodel.estimate_cost", "acceldse.costmodel", "estimate_cost", None),
    ("costmodel.evaluate_tilings", "acceldse.costmodel", "evaluate_tilings", _rows),
    ("costmodel.fits_caches_mask", "acceldse.costmodel", "fits_caches_mask", _rows),
    ("quant.quantize", "acceldse.quant", "quantize", _nbytes),
    ("quant.mix_precision", "acceldse.quant", "mix_precision", None),
    ("quant.quantize_channels", "acceldse.quant", "quantize_channels", None),
    ("quant.topk_channels", "acceldse.quant", "topk_channels", None),
    ("quant.channel_importance", "acceldse.quant", "channel_importance", None),
    ("quant.gumbel_softmax", "acceldse.quant", "gumbel_softmax", None),
)

# (span name, module, class, method, attrs); methods have one lookup site.
METHODS = (
    ("cli.CostCache.init", "acceldse.cli", "CostCache", "__init__", None),
    ("cli.CostCache.get", "acceldse.cli", "CostCache", "get", _hit),
    ("cli.CostCache.put", "acceldse.cli", "CostCache", "put", None),
    ("accel.config_at", "acceldse.accel", "ParamSpace", "config_at", None),
    ("hwsearch.net.forward", "acceldse.hwsearch", "GeneratorNet", "forward", None),
    ("hwsearch.net.backward", "acceldse.hwsearch", "GeneratorNet", "backward", None),
    ("hwsearch.net.sgd_step", "acceldse.hwsearch", "GeneratorNet", "sgd_step", None),
)


class Recorder:
    """Holds the spans of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = {"error": type(exc).__name__}
                raise
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return traced

    def wrap_scorer_factory(self, factory):
        """`make_subnet_scorer` returns a closure; trace every call of it."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap("hwsearch.scorer", factory(*args, **kwargs))

        return make


def _acceldse_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "acceldse" or name.startswith("acceldse."))]


@contextmanager
def installed(recorder: Recorder):
    """Patch every boundary for the duration of the block, then restore."""
    importlib.import_module("acceldse.cli")  # imports every acceldse module
    patched = []
    try:
        scorer = ("hwsearch.scorer", "acceldse.hwsearch", "make_subnet_scorer", None)
        for name, modname, attr, attrs in (*FUNCTIONS, scorer):
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                raise RuntimeError(f"trace boundary {name}: {modname}.{attr} does not exist")
            if name == "hwsearch.scorer":
                wrapper = recorder.wrap_scorer_factory(original)
            else:
                wrapper = recorder.wrap(name, original, attrs)
            for module in _acceldse_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        for name, modname, clsname, method, attrs in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                raise RuntimeError(f"trace boundary {name}: {modname}.{clsname}.{method} does not exist")
            setattr(cls, method, recorder.wrap(name, original, attrs))
            patched.append((cls, method, original))
        yield recorder
    finally:
        for obj, key, original in reversed(patched):
            setattr(obj, key, original)


# Per-layer metrics: (name, unit).  Counts, byte counts and ratios of counts
# must repeat exactly between repetitions of one input; the rest are times.
PER_LAYER = (
    ("costmodel.evaluate_tilings.calls", "count"),
    ("costmodel.evaluate_tilings.rows", "count"),
    ("costmodel.evaluate_tilings.self_s", "s"),
    ("costmodel.evaluate_tilings.ns_per_row", "ns"),
    ("costmodel.fits_caches_mask.calls", "count"),
    ("costmodel.fits_caches_mask.rows", "count"),
    ("costmodel.fits_caches_mask.self_s", "s"),
    ("costmodel.estimate_cost.calls", "count"),
    ("costmodel.estimate_cost.self_s", "s"),
    ("tiling.batch_search.calls", "count"),
    ("tiling.batch_search.self_s", "s"),
    ("tiling.map_subnet.calls", "count"),
    ("tiling.map_subnet.self_s", "s"),
    ("tiling.candidates", "count"),
    ("tiling.feasible", "count"),
    ("tiling.feasible_ratio", "ratio"),
    ("hwsearch.scorer.calls", "count"),
    ("hwsearch.scorer.self_s", "s"),
    ("hwsearch.memo_hits", "count"),
    ("hwsearch.memo_misses", "count"),
    ("hwsearch.memo_hit_ratio", "ratio"),
    ("hwsearch.infeasible_ratio", "ratio"),
    ("hwsearch.config_eval_ms.p50", "ms"),
    ("hwsearch.config_eval_ms.p90", "ms"),
    ("hwsearch.engine.self_s", "s"),
    ("hwsearch.net.forward.calls", "count"),
    ("hwsearch.net.forward.self_s", "s"),
    ("hwsearch.net.backward.calls", "count"),
    ("hwsearch.net.backward.self_s", "s"),
    ("hwsearch.net.sgd_step.self_s", "s"),
    ("joint.co_search_step.self_s", "s"),
    ("joint.select_subnet.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.CostCache.init.self_s", "s"),
    ("cli.CostCache.get.calls", "count"),
    ("cli.CostCache.hits", "count"),
    ("cli.CostCache.put.calls", "count"),
    ("cli.CostCache.put.self_s", "s"),
    ("cli.memo_file_bytes", "B"),
    ("workload.load_subnet.self_s", "s"),
    ("accel.load_accel.self_s", "s"),
    ("accel.load_space.self_s", "s"),
    ("accel.config_at.calls", "count"),
    ("accel.config_at.self_s", "s"),
    ("quant.quantize.calls", "count"),
    ("quant.quantize.bytes", "B"),
    ("quant.quantize.self_s", "s"),
    ("quant.mix_precision.self_s", "s"),
    ("quant.quantize_channels.self_s", "s"),
    ("quant.topk_channels.self_s", "s"),
    ("quant.gumbel_softmax.calls", "count"),
    ("quant.gumbel_softmax.self_s", "s"),
    ("trace.costmodel_tiling_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS = dict(PER_LAYER)


def is_exact(name: str) -> bool:
    """Counts and ratios of counts repeat exactly; times are summarised by median."""
    return UNITS[name] in ("count", "B", "ratio") and not name.startswith("trace.")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(span_lists, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one repetition from its span lists (one list per
    traced process).  `wall_s` is the repetition's traced wall time."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(int)
    miss_ms = []
    misses = infeasible = 0
    for spans in span_lists:
        covered = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            covered[parent] += end - start
        names = {span[0]: span[2] for span in spans}
        mapped_from = defaultdict(list)  # scorer span id -> its map_subnet spans
        for sid, parent, name, start, end, attrs in spans:
            calls[name] += 1
            self_s[name] += (end - start) - covered[sid]
            for key, value in (attrs or {}).items():
                if key != "error":
                    sums[f"{name}.{key}"] += int(value)
            if name == "tiling.map_subnet" and names.get(parent) == "hwsearch.scorer":
                mapped_from[parent].append(attrs)
        for sid, parent, name, start, end, _ in spans:
            if sid in mapped_from:
                misses += 1
                miss_ms.append((end - start) * 1e3)
                infeasible += any(a and a.get("error") == "NoFeasibleTiling" for a in mapped_from[sid])

    rows = sums["costmodel.evaluate_tilings.rows"]
    p50, p90 = np.percentile(miss_ms, [50, 90]) if miss_ms else (0.0, 0.0)
    m = {
        "costmodel.evaluate_tilings.rows": rows,
        "costmodel.evaluate_tilings.ns_per_row": _div(self_s["costmodel.evaluate_tilings"], rows) * 1e9,
        "costmodel.fits_caches_mask.rows": sums["costmodel.fits_caches_mask.rows"],
        "tiling.candidates": sums["tiling.batch_search.candidates"],
        "tiling.feasible": sums["tiling.batch_search.feasible"],
        "tiling.feasible_ratio": _div(sums["tiling.batch_search.feasible"],
                                      sums["tiling.batch_search.candidates"]),
        "hwsearch.memo_hits": calls["hwsearch.scorer"] - misses,
        "hwsearch.memo_misses": misses,
        "hwsearch.memo_hit_ratio": _div(calls["hwsearch.scorer"] - misses, calls["hwsearch.scorer"]),
        "hwsearch.infeasible_ratio": _div(infeasible, misses),
        "hwsearch.config_eval_ms.p50": float(p50),
        "hwsearch.config_eval_ms.p90": float(p90),
        "hwsearch.engine.self_s": self_s["hwsearch.anneal_search"] + self_s["hwsearch.train_policy"],
        "cli.CostCache.hits": sums["cli.CostCache.get.hit"],
        "quant.quantize.bytes": sums["quant.quantize.bytes"],
        "trace.costmodel_tiling_share": _div(
            sum(v for k, v in self_s.items() if k.startswith(("costmodel.", "tiling."))), wall_s),
        "trace.wall_s": wall_s,
    }
    for name, _ in PER_LAYER:
        if name in m or name.startswith("trace.") or name == "cli.memo_file_bytes":
            continue
        span, stat = name.rsplit(".", 1)
        m[name] = calls[span] if stat == "calls" else self_s[span]
    return m


def fired(span_lists) -> set[str]:
    return {span[2] for spans in span_lists for span in spans}
