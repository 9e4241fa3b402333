"""Tiling enumeration and per-operator mapping search.

An operator's candidate tilings are the open grid of its per-dimension tile
sizes held by its cost table (`costmodel._grid_table`), which alone knows
their order: (t_oc, t_ic, t_oh, t_ow) ascending, lexicographically.
`batch_search` passes that grid to the cost estimator whole: the cache-fit
mask and the costs are computed on the grid's axes, infeasible candidates
score +inf, and the argmin over the raveled grid is the earliest cheapest
feasible tiling.  The `oracle_search` reference costs the feasible
candidates of `enumerate_tilings` one by one, strictly sequentially, and
exists so the batched path can be checked for exact equivalence.  Both
walk the candidates through the table's map from a position in the raveled
grid to a tiling (`_GridTable.plan`).  Both rank tilings by one objective,
`_objective`: the weighted energy and latency, without the area term, which
no tiling changes.  Results aggregate from operators to subnets in
`map_subnet`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .accel import AcceleratorConfig, area
from .costmodel import (
    DEFAULT_CONSTANTS,
    DEFAULT_WEIGHTS,
    CostBreakdown,
    CostConstants,
    CostWeights,
    TilingPlan,
    _grid_table,
    estimate_cost,
    evaluate_tilings,
    fits_caches_mask,
    subnet_total,
)
from .errors import NoFeasibleTiling
from .workload import OperatorDescriptor, SubnetDescriptor


@dataclass(frozen=True)
class TilingSearchResult:
    best: TilingPlan
    cost: CostBreakdown
    n_candidates: int
    n_feasible: int
    wall_time_s: float


@dataclass(frozen=True)
class SubnetMapping:
    per_op: tuple[TilingSearchResult, ...]
    total: CostBreakdown
    wall_time_s: float


def enumerate_tilings(op: OperatorDescriptor, cfg: AcceleratorConfig) -> list[TilingPlan]:
    """Feasible tilings in deterministic (t_oc, t_ic, t_oh, t_ow) ascending order."""
    table = _grid_table(op)
    mask = fits_caches_mask(op, cfg, *table.grid)
    return [table.plan(index) for index in np.flatnonzero(mask)]


def _objective(energy_mj, latency_ms, weights: CostWeights | None):
    """The cost a tiling search minimizes, `λe·energy + λl·latency`, on
    scalars or arrays.  Area does not depend on the tiling, so it is left
    out and cannot perturb ties between candidates."""
    w = weights or DEFAULT_WEIGHTS
    return w.lambda_e * energy_mj + w.lambda_l * latency_ms


def _no_fit(op: OperatorDescriptor, cfg: AcceleratorConfig) -> NoFeasibleTiling:
    return NoFeasibleTiling(f"no tiling of operator {op} fits caches ({cfg.act_cache_kb}/"
                            f"{cfg.wgt_cache_kb}/{cfg.out_cache_kb} KB)")


def batch_search(
    op: OperatorDescriptor,
    cfg: AcceleratorConfig,
    constants: CostConstants | None = None,
    weights: CostWeights | None = None,
) -> TilingSearchResult:
    """Cost-optimal tiling by one batched pass over the operator's open grid
    of candidates; infeasible candidates are masked to +inf.

    Ties break toward the earliest candidate in enumeration order.
    """
    t0 = time.perf_counter()
    constants = constants or DEFAULT_CONSTANTS
    table = _grid_table(op)
    mask = fits_caches_mask(op, cfg, *table.grid)
    n_feasible = int(np.count_nonzero(mask))
    if n_feasible == 0:
        raise _no_fit(op, cfg)
    out = evaluate_tilings(op, cfg, *table.grid, constants=constants)
    costs = _objective(out["energy_mj"], out["latency_ms"], weights)
    best = table.plan(np.argmin(np.where(mask, costs, np.inf)))
    breakdown = estimate_cost(op, cfg, best, constants)
    return TilingSearchResult(
        best=best,
        cost=breakdown,
        n_candidates=mask.size,
        n_feasible=n_feasible,
        wall_time_s=time.perf_counter() - t0,
    )


def oracle_search(
    op: OperatorDescriptor,
    cfg: AcceleratorConfig,
    constants: CostConstants | None = None,
    weights: CostWeights | None = None,
) -> TilingSearchResult:
    """Reference implementation: same contract as `batch_search`, strictly
    sequential, no batching, no pruning."""
    t0 = time.perf_counter()
    constants = constants or DEFAULT_CONSTANTS
    n_candidates = math.prod(g.size for g in _grid_table(op).grid)  # the open grid's size
    plans = enumerate_tilings(op, cfg)
    if not plans:
        raise _no_fit(op, cfg)
    best_plan = None
    best_breakdown = None
    best_cost = None
    for plan in plans:
        breakdown = estimate_cost(op, cfg, plan, constants)
        cost = _objective(breakdown.energy_mj, breakdown.latency_ms, weights)
        if best_cost is None or cost < best_cost:
            best_plan, best_breakdown, best_cost = plan, breakdown, cost
    return TilingSearchResult(
        best=best_plan,
        cost=best_breakdown,
        n_candidates=n_candidates,
        n_feasible=len(plans),
        wall_time_s=time.perf_counter() - t0,
    )


def map_subnet(
    subnet: SubnetDescriptor,
    cfg: AcceleratorConfig,
    constants: CostConstants | None = None,
    weights: CostWeights | None = None,
) -> SubnetMapping:
    """Best tiling per operator plus the subnet-level aggregate
    (`subnet_total`: energies and latencies add, area counts once)."""
    t0 = time.perf_counter()
    constants = constants or DEFAULT_CONSTANTS
    results = []
    for index, op in enumerate(subnet):
        try:
            results.append(batch_search(op, cfg, constants, weights))
        except NoFeasibleTiling as exc:
            raise NoFeasibleTiling(f"operator {index}: {exc}", op_index=index) from exc
    total = subnet_total((r.cost for r in results), area(cfg, constants.area))
    return SubnetMapping(per_op=tuple(results), total=total, wall_time_s=time.perf_counter() - t0)
