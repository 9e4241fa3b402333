"""Joint objective composition: subnet selection from architecture parameters,
hardware search, mapping, and the Lagrangian combination of task loss with
hardware cost.

Gradient training of the architecture parameters themselves lives outside this
package; `co_search_step` produces the hardware-cost term and a fully
serializable report that an external trainer can bind into back-propagation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .accel import AcceleratorConfig, ParamSpace
from .costmodel import CostConstants, CostWeights, hw_cost
from .errors import InvalidDocument
from .hwsearch import (
    GeneratorNet,
    SearchBudget,
    anneal_search,
    exhaustive_search,
    train_generator,
)
from .tiling import SubnetMapping, map_subnet
from .workload import (
    OPERATOR_FIELDS,
    OperatorDescriptor,
    SubnetDescriptor,
    with_bits,
)

ENGINES = ("anneal", "generator", "exhaustive")


@dataclass(frozen=True)
class JointWeights:
    """Lagrange multiplier plus the energy/latency/area weights."""

    lam: float = 0.001
    cost_weights: CostWeights = field(default_factory=CostWeights)

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be non-negative")


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
    layers: tuple[SupernetLayer, ...]
    bit_choices: tuple[int, ...] = (2, 4, 8)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("supernet has no layers")


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
            with_bits(template, act_bits=state.bit_choices[ka], wgt_bits=state.bit_choices[kw])
        )
    if not operators:
        raise ValueError("empty selected subnet")
    return SubnetDescriptor(tuple(operators))


def lagrangian(ce_loss: float, e_hw: float, weights: JointWeights) -> float:
    """Task loss plus lambda times the hardware cost."""
    return ce_loss + weights.lam * e_hw


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
            "subnet": {
                "operators": [
                    {name: getattr(op, name) for name in OPERATOR_FIELDS}
                    for op in self.subnet
                ]
            },
            "accel_config": self.config.to_dict(),
            "tilings": [
                {
                    "op_index": i,
                    "t_oc": r.best.t_oc,
                    "t_ic": r.best.t_ic,
                    "t_ow": r.best.t_ow,
                    "t_oh": r.best.t_oh,
                }
                for i, r in enumerate(self.mapping.per_op)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def co_search_step(
    state: SupernetState,
    space: ParamSpace,
    constants: CostConstants | None = None,
    weights: JointWeights | None = None,
    budget: SearchBudget | None = None,
    engine: str = "anneal",
    warm_start: AcceleratorConfig | None = None,
) -> CoSearchReport:
    """One hardware-side step: decode the current subnet, search an accelerator
    config, map every operator, and return the scalar hardware cost.

    `warm_start` seeds the annealer at a previous config instead of a random
    one; the other engines ignore it (the exhaustive engine by definition,
    the generator because the net itself carries state across calls).
    """
    t0 = time.perf_counter()
    constants = constants or CostConstants()
    weights = weights or JointWeights()
    budget = budget or SearchBudget()
    subnet = select_subnet(state)

    if engine == "exhaustive":
        found = exhaustive_search(subnet, space, constants, weights.cost_weights)
    elif engine == "anneal":
        found = anneal_search(
            subnet, space, constants, budget, weights.cost_weights, initial=warm_start
        )
    elif engine == "generator":
        net = GeneratorNet(space, seed=budget.seed)
        found = train_generator(net, subnet, space, constants, budget, weights.cost_weights)
    else:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")

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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"supernet document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise InvalidDocument('supernet document must be an object with a "layers" list')
    bit_choices = tuple(doc.get("bit_choices", (2, 4, 8)))
    layers = []
    for li, raw in enumerate(doc["layers"]):
        try:
            candidates = tuple(
                None if c is None else OperatorDescriptor(**c) for c in raw["candidates"]
            )
            layer = SupernetLayer(
                alpha=tuple(float(a) for a in raw["alpha"]),
                candidates=candidates,
                beta_w=tuple(tuple(float(b) for b in row) for row in raw["beta_w"]),
                beta_a=tuple(tuple(float(b) for b in row) for row in raw["beta_a"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDocument(f"supernet layer {li}: {exc}") from exc
        layers.append(layer)
    try:
        return SupernetState(layers=tuple(layers), bit_choices=bit_choices)
    except ValueError as exc:
        raise InvalidDocument(str(exc)) from exc
