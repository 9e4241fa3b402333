"""Accelerator parameter search over a `ParamSpace` for a fixed subnet.

Three engines share one scoring path (tiling search per operator, then the
weighted energy/latency/area cost):

* `exhaustive_search` - ground-truth argmin, guarded to small spaces;
* `anneal_search` - classic simulated annealing over the seven fields;
* `train_generator` - a residual MLP with one classifier head per field,
  trained with a score-function (likelihood-ratio) gradient and an
  exponential-moving-average baseline.  The cost model is not differentiable
  (ceilings, argmins), so pathwise gradients are unavailable by design; the
  training trace records the estimator kind for downstream consumers.

Sampled configs with no feasible tiling score a penalty of ten times the worst
feasible cost seen so far, which keeps gradients finite; searches only ever
return configs that admit a feasible mapping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .accel import AcceleratorConfig, ParamSpace, iter_configs, space_cardinality
from .costmodel import CostConstants, CostWeights, hw_cost
from .errors import NoFeasibleTiling, SpaceTooLarge
from .quant import gumbel_softmax
from .tiling import map_subnet
from .workload import OPERATOR_FIELDS, SubnetDescriptor, encode_operator


@dataclass(frozen=True)
class FeatureNormalizers:
    """Per-field maxima used to scale operator encodings into [0, 1]."""

    kernel: float = 7.0
    stride: float = 2.0
    out_rows: float = 224.0
    in_channels: float = 1024.0
    out_channels: float = 1024.0
    act_bits: float = 8.0
    wgt_bits: float = 8.0
    count: float = 64.0

    def as_vector(self) -> np.ndarray:
        """The per-operator-field maxima, in encoding order (`count` excluded)."""
        return np.array([getattr(self, name) for name in OPERATOR_FIELDS], dtype=np.float64)


def featurize_subnet(
    subnet: SubnetDescriptor, normalizers: FeatureNormalizers | None = None
) -> np.ndarray:
    """Mean-pooled normalized operator encodings plus a scaled operator count.

    Pooling makes the feature invariant to permutations of identical
    operators; the count channel distinguishes subnet depth.
    """
    norms = normalizers or FeatureNormalizers()
    vectors = np.array([encode_operator(op) for op in subnet], dtype=np.float64)
    pooled = (vectors / norms.as_vector()).mean(axis=0)
    return np.concatenate([pooled, [len(subnet) / norms.count]])


@dataclass(frozen=True)
class SearchBudget:
    max_evaluations: int = 1000
    seed: int = 0
    # annealing
    initial_temperature: float = 1.0
    cooling_rate: float = 0.98
    # generator training
    steps: int = 100
    samples_per_step: int = 8
    learning_rate: float = 0.1
    gumbel_tau: float = 5.0
    tau_decay: float = 0.95
    baseline_decay: float = 0.9

    def __post_init__(self):
        if self.max_evaluations < 1 or self.steps < 1 or self.samples_per_step < 1:
            raise ValueError("budget counts must be positive")
        if self.gumbel_tau <= 0:
            raise ValueError("gumbel_tau must be positive")
        if not 0 <= self.baseline_decay <= 1:
            raise ValueError("baseline_decay must be in [0, 1]")


@dataclass(frozen=True)
class TraceRow:
    step: int
    mean_cost: float
    best_cost: float
    tau: float
    baseline: float


@dataclass(frozen=True)
class AnnealRow:
    step: int
    cost: float
    best_cost: float
    temperature: float


@dataclass(frozen=True)
class AccelSearchResult:
    config: AcceleratorConfig
    cost: float
    evaluations: int
    wall_time_s: float
    trace: tuple = ()
    engine: str = ""


class GeneratorNet:
    """Residual MLP mapping subnet features to per-field classifier logits.

    One input affine layer, `n_blocks` residual blocks (two affine layers with
    max(0, .) and an additive skip), and one linear head per config field whose
    output size equals that field's candidate count.  Initialization is
    uniform +/- 1/sqrt(fan_in) from the given seed, so forward passes are
    reproducible.
    """

    N_FEATURES = 8

    def __init__(self, space: ParamSpace, hidden: int = 128, n_blocks: int = 5, seed: int = 0):
        self.space = space
        self.hidden = hidden
        self.n_blocks = n_blocks
        rng = np.random.default_rng(seed)

        def init(fan_in, shape):
            bound = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        h = hidden
        self.w_in = init(self.N_FEATURES, (h, self.N_FEATURES))
        self.b_in = init(self.N_FEATURES, (h,))
        self.blocks = [
            {
                "u": init(h, (h, h)),
                "c": init(h, (h,)),
                "v": init(h, (h, h)),
                "d": init(h, (h,)),
            }
            for _ in range(n_blocks)
        ]
        self.heads = [
            {"p": init(h, (size, h)), "q": init(h, (size,))} for size in space.field_sizes
        ]

    @property
    def head_sizes(self) -> tuple[int, ...]:
        return tuple(head["q"].shape[0] for head in self.heads)

    def forward(self, feats: np.ndarray):
        x = np.asarray(feats, dtype=np.float64)
        if x.shape != (self.N_FEATURES,):
            raise ValueError(f"expected feature vector of shape ({self.N_FEATURES},), got {x.shape}")
        z0 = self.w_in @ x + self.b_in
        a = np.maximum(z0, 0.0)
        block_cache = []
        for blk in self.blocks:
            zh = blk["u"] @ a + blk["c"]
            hh = np.maximum(zh, 0.0)
            block_cache.append((a, zh, hh))
            a = a + blk["v"] @ hh + blk["d"]
        logits = [head["p"] @ a + head["q"] for head in self.heads]
        cache = (x, z0, block_cache, a)
        return logits, cache

    def backward(self, cache, dlogits):
        x, z0, block_cache, a_final = cache
        grads = {"heads": [], "blocks": [None] * self.n_blocks}
        da = np.zeros_like(a_final)
        for head, dl in zip(self.heads, dlogits):
            grads["heads"].append({"p": np.outer(dl, a_final), "q": dl.copy()})
            da = da + head["p"].T @ dl
        for j in range(self.n_blocks - 1, -1, -1):
            a_in, zh, hh = block_cache[j]
            blk = self.blocks[j]
            dv = np.outer(da, hh)
            dd = da.copy()
            dzh = (blk["v"].T @ da) * (zh > 0)
            du = np.outer(dzh, a_in)
            dc = dzh.copy()
            grads["blocks"][j] = {"u": du, "c": dc, "v": dv, "d": dd}
            da = da + blk["u"].T @ dzh
        dz0 = da * (z0 > 0)
        grads["w_in"] = np.outer(dz0, x)
        grads["b_in"] = dz0
        return grads

    def sgd_step(self, grads, lr: float):
        self.w_in -= lr * grads["w_in"]
        self.b_in -= lr * grads["b_in"]
        for blk, g in zip(self.blocks, grads["blocks"]):
            for key in ("u", "c", "v", "d"):
                blk[key] -= lr * g[key]
        for head, g in zip(self.heads, grads["heads"]):
            head["p"] -= lr * g["p"]
            head["q"] -= lr * g["q"]

    def decode(self, choices) -> AcceleratorConfig:
        return self.space.config_at(choices)


def generator_forward(
    net: GeneratorNet,
    feats: np.ndarray,
    tau: float,
    noise_seed: int | None = None,
    mode: str = "standard",
):
    """Per-field probability vectors and the hard-decoded config.

    With `noise_seed=None` the relaxation is noiseless (plain tempered
    softmax); otherwise per-head noise is drawn from one seeded stream.
    """
    logits, _ = net.forward(feats)
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    probs = [gumbel_softmax(l, tau, mode=mode, rng=rng) for l in logits]
    choices = tuple(int(np.argmax(p)) for p in probs)
    return probs, net.decode(choices)


def make_subnet_scorer(
    subnet: SubnetDescriptor,
    constants: CostConstants | None,
    weights: CostWeights | None,
):
    """Memoized config -> (cost, feasible) scorer shared by all engines."""
    constants = constants or CostConstants()
    weights = weights or CostWeights()
    memo: dict[tuple, float | None] = {}
    state = {"worst": None}

    def score(cfg: AcceleratorConfig):
        key = cfg.as_tuple()
        if key not in memo:
            try:
                mapping = map_subnet(subnet, cfg, constants, weights)
                memo[key] = hw_cost(mapping.total, weights)
            except NoFeasibleTiling:
                memo[key] = None
        cost = memo[key]
        if cost is None:
            worst = state["worst"]
            return (10.0 * worst if worst is not None else 1e9), False
        if state["worst"] is None or cost > state["worst"]:
            state["worst"] = cost
        return cost, True

    return score


@dataclass
class PolicyTrainResult:
    choices: tuple[int, ...]
    trace: tuple[TraceRow, ...]
    best_choices: tuple[int, ...] | None
    best_cost: float | None
    evaluations: int


def train_policy(net: GeneratorNet, feats: np.ndarray, score_fn, budget: SearchBudget) -> PolicyTrainResult:
    """Score-function gradient training of the classifier heads.

    Each step samples configs from the tempered per-head softmax, scores them,
    and descends the likelihood-ratio gradient of the expected cost with an
    EMA baseline (initialized at 0.0; decay 1.0 therefore freezes it there).
    """
    rng = np.random.default_rng(budget.seed)
    tau = budget.gumbel_tau
    baseline = 0.0
    best_choices = None
    best_cost = None
    evaluations = 0
    trace = []
    for step in range(budget.steps):
        if evaluations >= budget.max_evaluations:
            break
        logits, cache = net.forward(feats)
        probs = [gumbel_softmax(l, tau) for l in logits]
        n_samples = min(budget.samples_per_step, budget.max_evaluations - evaluations)
        sampled = []
        costs = np.empty(n_samples, dtype=np.float64)
        for s in range(n_samples):
            choices = tuple(int(rng.choice(len(p), p=p)) for p in probs)
            cost, feasible = score_fn(choices)
            sampled.append(choices)
            costs[s] = cost
            if feasible and (best_cost is None or cost < best_cost):
                best_cost, best_choices = cost, choices
        evaluations += n_samples

        advantages = costs - baseline
        dlogits = [np.zeros_like(l) for l in logits]
        for s, choices in enumerate(sampled):
            for k, p in enumerate(probs):
                g = -p.copy()
                g[choices[k]] += 1.0
                dlogits[k] += advantages[s] * g
        dlogits = [g / (n_samples * tau) for g in dlogits]
        net.sgd_step(net.backward(cache, dlogits), budget.learning_rate)

        mean_cost = float(costs.mean())
        baseline = budget.baseline_decay * baseline + (1.0 - budget.baseline_decay) * mean_cost
        best_for_trace = best_cost if best_cost is not None else float(costs.min())
        trace.append(TraceRow(step, mean_cost, best_for_trace, tau, baseline))
        tau = max(tau * budget.tau_decay, 1e-3)

    logits, _ = net.forward(feats)
    final_choices = tuple(int(np.argmax(l)) for l in logits)
    return PolicyTrainResult(
        choices=final_choices,
        trace=tuple(trace),
        best_choices=best_choices,
        best_cost=best_cost,
        evaluations=evaluations,
    )


def train_generator(
    net: GeneratorNet,
    subnet: SubnetDescriptor,
    space: ParamSpace,
    constants: CostConstants | None = None,
    budget: SearchBudget | None = None,
    weights: CostWeights | None = None,
) -> AccelSearchResult:
    """Train the generator against the cost model and decode a config.

    Returns the argmax decode after training when it is feasible, otherwise
    the best feasible config sampled during training.
    """
    if net.head_sizes != space.field_sizes:
        raise ValueError("generator head sizes do not match the search space")
    budget = budget or SearchBudget()
    t0 = time.perf_counter()
    feats = featurize_subnet(subnet)
    score_cfg = make_subnet_scorer(subnet, constants, weights)

    def score_choices(choices):
        return score_cfg(space.config_at(choices))

    fit = train_policy(net, feats, score_choices, budget)
    final_cost, final_feasible = score_choices(fit.choices)
    if final_feasible:
        config, cost = space.config_at(fit.choices), final_cost
    elif fit.best_choices is not None:
        config, cost = space.config_at(fit.best_choices), fit.best_cost
    else:
        raise NoFeasibleTiling("no sampled accelerator config admits a feasible tiling")
    return AccelSearchResult(
        config=config,
        cost=cost,
        evaluations=fit.evaluations,
        wall_time_s=time.perf_counter() - t0,
        trace=fit.trace,
        engine="generator",
    )


def anneal_search(
    subnet: SubnetDescriptor,
    space: ParamSpace,
    constants: CostConstants | None = None,
    budget: SearchBudget | None = None,
    weights: CostWeights | None = None,
    initial: AcceleratorConfig | None = None,
) -> AccelSearchResult:
    """Simulated annealing: resample one uniformly chosen field per step,
    accept improvements always and regressions with probability exp(-d/T).

    A zero initial temperature reduces to greedy hill climbing.  The returned
    config is the best feasible one ever visited.
    """
    budget = budget or SearchBudget()
    t0 = time.perf_counter()
    rng = np.random.default_rng(budget.seed)
    score = make_subnet_scorer(subnet, constants, weights)
    sizes = space.field_sizes

    if initial is not None:
        choices = space.choices_of(initial)
    else:
        choices = tuple(int(rng.integers(n)) for n in sizes)
    current_cost, current_feasible = score(space.config_at(choices))
    evaluations = 1
    best_choices = choices if current_feasible else None
    best_cost = current_cost if current_feasible else None
    temperature = budget.initial_temperature
    trace = []
    step = 0
    while evaluations < budget.max_evaluations:
        field = int(rng.integers(len(sizes)))
        neighbor = list(choices)
        neighbor[field] = int(rng.integers(sizes[field]))
        neighbor = tuple(neighbor)
        cost, feasible = score(space.config_at(neighbor))
        evaluations += 1
        delta = cost - current_cost
        accept = delta < 0 or (
            temperature > 0 and rng.random() < math.exp(-delta / temperature)
        )
        if accept:
            choices, current_cost = neighbor, cost
        if feasible and (best_cost is None or cost < best_cost):
            best_cost, best_choices = cost, neighbor
        trace.append(AnnealRow(step, cost, best_cost if best_cost is not None else cost, temperature))
        temperature *= budget.cooling_rate
        step += 1
    if best_choices is None:
        raise NoFeasibleTiling("no visited accelerator config admits a feasible tiling")
    return AccelSearchResult(
        config=space.config_at(best_choices),
        cost=best_cost,
        evaluations=evaluations,
        wall_time_s=time.perf_counter() - t0,
        trace=tuple(trace),
        engine="anneal",
    )


def exhaustive_search(
    subnet: SubnetDescriptor,
    space: ParamSpace,
    constants: CostConstants | None = None,
    weights: CostWeights | None = None,
    guard: int = 1_000_000,
) -> AccelSearchResult:
    """Global argmin over the whole space; refuses spaces above `guard`.

    Ties break toward the lexicographically first config in the space's
    candidate ordering.
    """
    cardinality = space_cardinality(space)
    if cardinality > guard:
        raise SpaceTooLarge(
            f"space has {cardinality} configs, above the exhaustive guard of {guard}"
        )
    t0 = time.perf_counter()
    score = make_subnet_scorer(subnet, constants, weights)
    best_cfg = None
    best_cost = None
    for cfg in iter_configs(space):
        cost, feasible = score(cfg)
        if feasible and (best_cost is None or cost < best_cost):
            best_cfg, best_cost = cfg, cost
    if best_cfg is None:
        raise NoFeasibleTiling("no config in the space admits a feasible tiling")
    return AccelSearchResult(
        config=best_cfg,
        cost=best_cost,
        evaluations=cardinality,
        wall_time_s=time.perf_counter() - t0,
        trace=(),
        engine="exhaustive",
    )
