"""Accelerator parameter search over a `ParamSpace` for a fixed subnet.

Three engines pick one candidate index per config field and score the
resulting choice tuple through one memoized scorer (tiling search per
operator, then the weighted energy/latency/area cost); a config is built
only for a tuple the scorer has not seen and for the returned winner:

* `exhaustive_search` - ground-truth argmin, guarded to small spaces;
* `anneal_search` - classic simulated annealing over the seven fields;
* `train_generator` - a residual MLP with one classifier head per field,
  trained with a score-function (likelihood-ratio) gradient and an
  exponential-moving-average baseline.  The cost model is not differentiable
  (ceilings, argmins), so pathwise gradients are unavailable by design; the
  `search accel` report's `gradient_estimator` field records the estimator
  kind for downstream consumers.

Sampled configs with no feasible tiling score a penalty of ten times the worst
feasible cost seen so far, which keeps gradients finite; searches only ever
return configs that admit a feasible mapping.  Every engine returns through
`_result`, which raises `NoFeasibleTiling` when it found no such config.
`search_accel` runs an engine by name, the one way the commands run one.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .accel import AcceleratorConfig, ParamSpace, space_cardinality
from .costmodel import CostConstants, CostWeights, hw_cost
from .errors import NoFeasibleTiling, SpaceTooLarge
from .quant import gumbel_softmax
from .tiling import map_subnet
from .workload import SubnetDescriptor, encode_operator

# The largest space `exhaustive_search` enumerates.
_EXHAUSTIVE_GUARD = 1_000_000

# Each engine: what it names when no config it scored was feasible, and the
# `SearchBudget` fields it reads.
ENGINE_TABLE = {
    "anneal": ("no visited accelerator config",
               ("seed", "max_evaluations", "initial_temperature", "cooling_rate")),
    "generator": ("no sampled accelerator config",
                  ("seed", "max_evaluations", "steps", "samples_per_step", "learning_rate",
                   "gumbel_tau", "tau_decay", "baseline_decay")),
    "exhaustive": ("no config in the space", ()),
}
ENGINES = tuple(ENGINE_TABLE)

# Feature scales: each operator field's maximum in `OPERATOR_FIELDS` order
# (kernel, stride, out_rows, in_channels, out_channels, act_bits, wgt_bits),
# then the operator count's.
_FEATURE_SCALES = np.array([7.0, 2.0, 224.0, 1024.0, 1024.0, 8.0, 8.0, 64.0])


def featurize_subnet(subnet: SubnetDescriptor) -> np.ndarray:
    """Mean-pooled normalized operator encodings plus a scaled operator count.

    Pooling makes the feature invariant to permutations of identical
    operators; the count channel distinguishes subnet depth.
    """
    vectors = np.array([encode_operator(op) for op in subnet], dtype=np.float64)
    pooled = (vectors / _FEATURE_SCALES[:-1]).mean(axis=0)
    return np.concatenate([pooled, [len(subnet) / _FEATURE_SCALES[-1]]])


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
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
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
    net: GeneratorNet | None = None  # the generator's trained net; None for the other engines


def _result(engine: str, space: ParamSpace, best_choices, best_cost, evaluations: int,
            t0: float, trace=(), net=None) -> AccelSearchResult:
    """The search result of `engine` for its best feasible choice tuple;
    `NoFeasibleTiling` if it found none (`best_choices` is None)."""
    if best_choices is None:
        raise NoFeasibleTiling(f"{ENGINE_TABLE[engine][0]} admits a feasible tiling")
    return AccelSearchResult(space.config_at(best_choices), best_cost, evaluations,
                             time.perf_counter() - t0, tuple(trace), engine, net)


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
    return probs, net.space.config_at(choices)


def make_subnet_scorer(
    subnet: SubnetDescriptor,
    space: ParamSpace,
    constants: CostConstants | None,
    weights: CostWeights | None,
):
    """Memoized choice tuple -> (cost, feasible) scorer shared by all engines.

    A choice tuple holds one candidate index per field of `space`.  The memo
    is keyed on the tuple, and `space.config_at` builds the config only when
    a tuple is scored the first time.  Since `ParamSpace` rejects repeated
    candidates, each tuple names exactly one config and each config one tuple,
    so this memo holds what a memo keyed on configs would.
    """
    constants = constants or CostConstants()
    weights = weights or CostWeights()
    memo: dict[tuple, float | None] = {}
    state = {"worst": None}

    def score(choices: tuple[int, ...]):
        if choices not in memo:
            try:
                mapping = map_subnet(subnet, space.config_at(choices), constants, weights)
                memo[choices] = hw_cost(mapping.total, weights)
            except NoFeasibleTiling:
                memo[choices] = None
        cost = memo[choices]
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


_PROB_ATOL = math.sqrt(np.finfo(np.float64).eps)  # `Generator.choice`'s tolerance
# The smallest nonzero max|dlogits| the no-op test uses: far above the
# subnormals, so that the absolute error of a backward product that underflows
# stays inside the test's factor of 2.
_NORMAL_D = 2.0**-1000


def head_cdfs(probs) -> list[np.ndarray]:
    """Per-head cumulative distributions, validated and built as
    `Generator.choice(len(p), p=p)` validates and builds them: NaN, negative
    entries or a sum off 1 by more than sqrt(eps) raise `ValueError`."""
    cdfs = []
    for p in probs:
        cdf = p.cumsum()
        if np.isnan(cdf[-1]):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(cdf[-1] - 1.0) > _PROB_ATOL:
            raise ValueError("Probabilities do not sum to 1")
        cdf /= cdf[-1]
        cdfs.append(cdf)
    return cdfs


def draw_choices(rng: np.random.Generator, cdfs, n_samples: int) -> np.ndarray:
    """`n_samples` rows of one index per head, each the index
    `rng.choice(len(p), p=p)` would pick, with `rng` left in the same state
    as that many calls in sample-major order: one uniform per pick, drawn in
    that order."""
    uniforms = rng.random((n_samples, len(cdfs)))
    picks = np.empty(uniforms.shape, dtype=np.intp)
    for k, cdf in enumerate(cdfs):
        picks[:, k] = cdf.searchsorted(uniforms[:, k], side="right")
    return picks


def update_bound(net: GeneratorNet, cache) -> tuple[float, float]:
    """`(C, floor)` for the weights of `net` and the activations in `cache`.

    `C` bounds every gradient entry `backward(cache, dlogits)` can return per
    unit of `max|dlogits|`: absolute values propagated back through the net,
    each matrix by its largest column sum.  `floor` is the smallest
    `spacing(|w|) / 4` over all weights, half the smaller gap next to `w`,
    so `w - delta == w` whenever `|delta| < floor` (0, so never a skip, when
    a weight is +-0).  A NaN or inf among the weights or activations makes
    `C` NaN or inf, or `floor` NaN, and either fails `update_is_no_op`.
    """
    x, _, block_cache, a_final = cache

    def amax(v):
        return np.abs(v).max()

    def colsum(m):
        return np.abs(m).sum(axis=0).max()

    da = sum(colsum(head["p"]) for head in net.heads)
    terms = [amax(a_final), 1.0, da]
    for blk, (a_in, _, hh) in zip(reversed(net.blocks), reversed(block_cache)):
        dzh = colsum(blk["v"]) * da
        terms += [da * amax(hh), dzh * amax(a_in), dzh]
        da = da + colsum(blk["u"]) * dzh
    terms += [da * amax(x), da]
    weights = [net.w_in, net.b_in, *(blk[key] for blk in net.blocks for key in "ucvd"),
               *(head[key] for head in net.heads for key in "pq")]
    floor = np.min([np.spacing(np.abs(w)).min() for w in weights]) / 4
    return float(np.max(terms)), float(floor)


def update_is_no_op(lr: float, d: float, bound: tuple[float, float]) -> bool:
    """Whether `sgd_step(backward(cache, dlogits), lr)` provably leaves every
    weight bit-identical, for `d = max|dlogits|` and `bound =
    update_bound(net, cache)`: `2 |lr| d C < floor`, with a nonzero `d`
    raised to at least `_NORMAL_D`.  The factor 2 covers the rounding of
    the backward products and sums, of `lr * g` and of the bound itself.
    NaN or inf in `lr`, `d` or the bound makes the test false."""
    c, floor = bound
    d = abs(d)
    if 0 < d < _NORMAL_D:
        d = _NORMAL_D
    return bool(2.0 * abs(lr) * d * c < floor)


def _score_gradient(neg_probs, offsets, picks, advantages, scale) -> np.ndarray:
    """The heads' likelihood-ratio gradient, concatenated: for each sample in
    order, its advantage times (its one-hot picks - p), summed from zero, then
    divided by `scale`.  `neg_probs` is -p of every head, concatenated, and
    `offsets` each head's first index in it."""
    rows = np.repeat(neg_probs[None, :], len(picks), axis=0)
    rows[np.arange(len(picks))[:, None], offsets + picks] += 1.0
    rows *= advantages[:, None]
    acc = np.zeros_like(neg_probs)
    for row in rows:
        acc += row
    return acc / scale


def train_policy(net: GeneratorNet, feats: np.ndarray, score_fn, budget: SearchBudget) -> PolicyTrainResult:
    """Score-function gradient training of the classifier heads.

    Each step samples configs from the tempered per-head softmax, scores them,
    and descends the likelihood-ratio gradient of the expected cost with an
    EMA baseline (initialized at 0.0; decay 1.0 therefore freezes it there).

    Work whose result is already known is skipped, with bit-identical
    results: an update that `update_is_no_op` proves leaves every weight
    unchanged does not run; while no update has run, the last forward pass
    (and, at an unchanged temperature, its probabilities and their
    cumulative distributions) is reused.
    """
    rng = np.random.default_rng(budget.seed)
    lr = budget.learning_rate
    tau = budget.gumbel_tau
    baseline = 0.0
    best_choices = None
    best_cost = None
    evaluations = 0
    trace = []
    forward = None  # (logits, cache) of the current weights
    bound = None  # update_bound of the current weights, once needed
    cdfs_tau = None  # the temperature `cdfs` and `neg_probs` were built at
    offsets = np.concatenate([[0], np.cumsum(net.head_sizes[:-1])])  # of each head's logits
    for step in range(budget.steps):
        if evaluations >= budget.max_evaluations:
            break
        if forward is None:
            forward = net.forward(feats)
            bound = cdfs_tau = None
        logits, cache = forward
        if cdfs_tau is None or tau != cdfs_tau:
            probs = [gumbel_softmax(l, tau) for l in logits]
            cdfs, neg_probs, cdfs_tau = head_cdfs(probs), -np.concatenate(probs), tau
        n_samples = min(budget.samples_per_step, budget.max_evaluations - evaluations)
        picks = draw_choices(rng, cdfs, n_samples)
        costs = np.empty(n_samples, dtype=np.float64)
        for s, choices in enumerate(map(tuple, picks.tolist())):
            cost, feasible = score_fn(choices)
            costs[s] = cost
            if feasible and (best_cost is None or cost < best_cost):
                best_cost, best_choices = cost, choices
        evaluations += n_samples

        dlogits = _score_gradient(neg_probs, offsets, picks, costs - baseline, n_samples * tau)
        d = np.abs(dlogits).max()
        # C >= 1 and floor <= spacing(max|b_in|) / 4, so a skip needs the first test
        if bound is None and 2.0 * abs(lr) * d < np.spacing(np.abs(net.b_in).max()) / 4:
            bound = update_bound(net, cache)
        if bound is None or not update_is_no_op(lr, d, bound):
            net.sgd_step(net.backward(cache, np.split(dlogits, offsets[1:])), lr)
            forward = None

        mean_cost = float(costs.mean())
        baseline = budget.baseline_decay * baseline + (1.0 - budget.baseline_decay) * mean_cost
        best_for_trace = best_cost if best_cost is not None else float(costs.min())
        trace.append(TraceRow(step, mean_cost, best_for_trace, tau, baseline))
        tau = max(tau * budget.tau_decay, 1e-3)

    logits, _ = forward or net.forward(feats)
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
    score = make_subnet_scorer(subnet, space, constants, weights)
    fit = train_policy(net, feats, score, budget)
    final_cost, final_feasible = score(fit.choices)
    if final_feasible:
        choices, cost = fit.choices, final_cost
    else:
        choices, cost = fit.best_choices, fit.best_cost
    return _result("generator", space, choices, cost, fit.evaluations, t0, fit.trace, net)


def anneal_search(
    subnet: SubnetDescriptor,
    space: ParamSpace,
    constants: CostConstants | None = None,
    budget: SearchBudget | None = None,
    weights: CostWeights | None = None,
) -> AccelSearchResult:
    """Simulated annealing: resample one uniformly chosen field per step,
    accept improvements always and regressions with probability exp(-d/T).

    A zero initial temperature reduces to greedy hill climbing.  The returned
    config is the best feasible one ever visited.
    """
    budget = budget or SearchBudget()
    t0 = time.perf_counter()
    rng = np.random.default_rng(budget.seed)
    score = make_subnet_scorer(subnet, space, constants, weights)
    sizes = space.field_sizes

    choices = tuple(int(rng.integers(n)) for n in sizes)
    current_cost, current_feasible = score(choices)
    best_choices = choices if current_feasible else None
    best_cost = current_cost if current_feasible else None
    temperature = budget.initial_temperature
    trace = []
    for step in range(budget.max_evaluations - 1):
        field = int(rng.integers(len(sizes)))
        neighbor = list(choices)
        neighbor[field] = int(rng.integers(sizes[field]))
        neighbor = tuple(neighbor)
        cost, feasible = score(neighbor)
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
    return _result("anneal", space, best_choices, best_cost, budget.max_evaluations, t0, trace)


def exhaustive_search(
    subnet: SubnetDescriptor,
    space: ParamSpace,
    constants: CostConstants | None = None,
    weights: CostWeights | None = None,
) -> AccelSearchResult:
    """Global argmin over the whole space; refuses spaces above
    `_EXHAUSTIVE_GUARD` configs.

    Ties break toward the first config in the space's candidate ordering:
    field order, last field fastest.
    """
    cardinality = space_cardinality(space)
    if cardinality > _EXHAUSTIVE_GUARD:
        raise SpaceTooLarge(f"space has {cardinality} configs, above the exhaustive guard "
                            f"of {_EXHAUSTIVE_GUARD}")
    t0 = time.perf_counter()
    score = make_subnet_scorer(subnet, space, constants, weights)
    best_choices = None
    best_cost = None
    for choices in itertools.product(*map(range, space.field_sizes)):
        cost, feasible = score(choices)
        if feasible and (best_cost is None or cost < best_cost):
            best_choices, best_cost = choices, cost
    return _result("exhaustive", space, best_choices, best_cost, cardinality, t0)


def search_accel(engine: str, subnet: SubnetDescriptor, space: ParamSpace,
                 constants: CostConstants | None, budget: SearchBudget,
                 weights: CostWeights | None) -> AccelSearchResult:
    """Run the engine named `engine`, one of `ENGINES`, with the budget fields it reads."""
    if engine == "anneal":
        return anneal_search(subnet, space, constants, budget, weights)
    if engine == "generator":
        net = GeneratorNet(space, seed=budget.seed)
        return train_generator(net, subnet, space, constants, budget, weights)
    if engine == "exhaustive":
        return exhaustive_search(subnet, space, constants, weights)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
