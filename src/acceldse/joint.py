"""Joint objective composition: subnet selection from architecture parameters,
hardware search and mapping.

Gradient training of the architecture parameters themselves lives outside this
package; `co_search_step` produces the hardware-cost term `e_hw` and the
multiplier `lambda` in a fully serializable report, and an external trainer
adds `lambda * e_hw` to its task loss inside its own autograd graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .accel import AcceleratorConfig, ParamSpace, check_range
from .costmodel import DEFAULT_CONSTANTS, DEFAULT_WEIGHTS, CostConstants, CostWeights, hw_cost
from .documents import construct, parse_json, read_int, read_list, read_number, read_object
from .hwsearch import SearchBudget, search_accel
from .tiling import SubnetMapping, map_subnet
from .workload import ALLOWED_BITS, OperatorDescriptor, SubnetDescriptor, operator_from_dict


@dataclass(frozen=True)
class JointWeights:
    """Lagrange multiplier plus the energy/latency/area weights; `lam` lies in
    the weights' range of `CostWeights`, so `lam * e_hw` stays finite."""

    lam: float = 0.001
    cost_weights: CostWeights = DEFAULT_WEIGHTS

    def __post_init__(self):
        check_range(self, {"lam": 0.0}, "the weights' range")


@dataclass(frozen=True)
class SupernetLayer:
    """Architecture parameters for one supernet layer.

    `candidates[i] is None` encodes the skip choice; `beta_w[i]` and
    `beta_a[i]` weight the bitwidth candidates of operator candidate i.
    """

    alpha: tuple[float, ...]
    candidates: tuple[OperatorDescriptor | None, ...]
    beta_w: tuple[tuple[float, ...], ...]
    beta_a: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.alpha)
        if not n:
            raise ValueError("layer has no candidates")
        if len(self.candidates) != n or len(self.beta_w) != n or len(self.beta_a) != n:
            raise ValueError("alpha, candidates, beta_w, beta_a must have equal length")


@dataclass(frozen=True)
class SupernetState:
    """Supernet layers plus the bitwidth candidates every beta row weights:
    one or more, each an `int` in `ALLOWED_BITS`."""

    layers: tuple[SupernetLayer, ...]
    bit_choices: tuple[int, ...] = ALLOWED_BITS

    def __post_init__(self):
        if not self.layers:
            raise ValueError("supernet has no layers")
        if not self.bit_choices or any(type(b) is not int or b not in ALLOWED_BITS
                                       for b in self.bit_choices):
            raise ValueError(f"bit_choices must be one or more of {ALLOWED_BITS}, "
                             f"got {list(self.bit_choices)}")
        rows = (row for layer in self.layers for row in layer.beta_w + layer.beta_a)
        if any(len(row) != len(self.bit_choices) for row in rows):
            raise ValueError(f"each beta row must hold one weight per bit choice "
                             f"{self.bit_choices}")


_STATE_KEYS = tuple(f.name for f in fields(SupernetState))
_LAYER_KEYS = tuple(f.name for f in fields(SupernetLayer))


def select_subnet(state: SupernetState) -> SubnetDescriptor:
    """Argmax decode: highest alpha picks the operator per layer, highest
    betas pick its bitwidths; skip candidates are dropped.  Ties resolve
    toward the lower index."""
    operators = []
    for layer in state.layers:
        i = int(np.argmax(np.asarray(layer.alpha, dtype=np.float64)))
        template = layer.candidates[i]
        if template is None:
            continue
        kw = int(np.argmax(np.asarray(layer.beta_w[i], dtype=np.float64)))
        ka = int(np.argmax(np.asarray(layer.beta_a[i], dtype=np.float64)))
        operators.append(
            replace(template, act_bits=state.bit_choices[ka], wgt_bits=state.bit_choices[kw])
        )
    if not operators:
        raise ValueError("empty selected subnet")
    return SubnetDescriptor(tuple(operators))


@dataclass(frozen=True)
class CoSearchReport:
    subnet: SubnetDescriptor
    config: AcceleratorConfig
    mapping: SubnetMapping
    e_hw: float
    lam: float
    engine: str
    seed: int
    search_evaluations: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "subnet": self.subnet.to_dict(),
            "accel_config": self.config.to_dict(),
            "tilings": [
                {"op_index": i, **r.best.to_dict()} for i, r in enumerate(self.mapping.per_op)
            ],
            "per_op_costs": [r.cost.to_dict() for r in self.mapping.per_op],
            "aggregate_cost": self.mapping.total.to_dict(),
            "e_hw": self.e_hw,
            "lambda": self.lam,
            "engine": self.engine,
            "seed": self.seed,
            "search_evaluations": self.search_evaluations,
            "wall_time_s": self.wall_time_s,
        }


def co_search_step(
    state: SupernetState,
    space: ParamSpace,
    constants: CostConstants | None = None,
    weights: JointWeights | None = None,
    budget: SearchBudget | None = None,
    engine: str = "anneal",
) -> CoSearchReport:
    """One hardware-side step: decode the current subnet, search an accelerator
    config, map every operator, and return the scalar hardware cost.

    The winner is mapped a second time because the engines' scorer memoizes
    each config's cost, not its mapping; the report needs the winner's
    per-operator tilings and costs.
    """
    t0 = time.perf_counter()
    constants = constants or DEFAULT_CONSTANTS
    weights = weights or JointWeights()
    budget = budget or SearchBudget()
    subnet = select_subnet(state)
    found = search_accel(engine, subnet, space, constants, budget, weights.cost_weights)
    mapping = map_subnet(subnet, found.config, constants, weights.cost_weights)
    e_hw = hw_cost(mapping.total, weights.cost_weights)
    return CoSearchReport(
        subnet=subnet,
        config=found.config,
        mapping=mapping,
        e_hw=e_hw,
        lam=weights.lam,
        engine=engine,
        seed=budget.seed,
        search_evaluations=found.evaluations,
        wall_time_s=time.perf_counter() - t0,
    )


def load_supernet_state(text: str) -> SupernetState:
    """Parse a supernet document: per-layer alphas, candidate operator shapes
    (null = skip), and per-candidate bitwidth parameters."""
    where = "supernet document"
    doc = read_object(parse_json(text, where), where, _STATE_KEYS, ("layers",))
    kwargs = {}
    if "bit_choices" in doc:
        kwargs["bit_choices"] = tuple(read_list(doc["bit_choices"], where, "bit_choices", read_int))
    layers = []
    for li, raw in enumerate(read_list(doc["layers"], where, "layers")):
        at = f"supernet layer {li}"
        read_object(raw, at, _LAYER_KEYS, _LAYER_KEYS)
        candidates = tuple(
            None if c is None else operator_from_dict(c, f"{at}: candidate {ci}")
            for ci, c in enumerate(read_list(raw["candidates"], at, "candidates"))
        )
        alpha = tuple(read_list(raw["alpha"], at, "alpha", read_number))
        beta_w = tuple(read_list(raw["beta_w"], at, "beta_w", _read_row))
        beta_a = tuple(read_list(raw["beta_a"], at, "beta_a", _read_row))
        layers.append(construct(SupernetLayer, at, alpha, candidates, beta_w, beta_a))
    return construct(SupernetState, where, tuple(layers), **kwargs)


def _read_row(value, where: str, index: int) -> tuple[float, ...]:
    return tuple(read_list(value, where, index, read_number))
