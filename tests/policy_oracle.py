"""Reference generator trainer: the plain loop `hwsearch.train_policy` must
match bit for bit.

Every step runs the net's forward pass, the tempered softmax of each head,
one `rng.choice` per sample and head, and a plain backward pass and update
(fresh arrays, `np.outer` and `w -= lr * g`, independent of the net's
buffered `backward` and `sgd_step`), with nothing reused or skipped.
"""

import numpy as np

from acceldse.hwsearch import PolicyTrainResult, TraceRow
from acceldse.quant import gumbel_softmax


def plain_backward(net, cache, dlogits) -> list[np.ndarray]:
    """The gradient of each weight array of `net`, in `parameters()` order,
    each a new array."""
    x, z0, block_cache, a_final = cache
    head_grads = []
    da = np.zeros_like(a_final)
    for head, dl in zip(net.heads, dlogits):
        head_grads += [np.outer(dl, a_final), dl.copy()]
        da = da + head["p"].T @ dl
    block_grads = []
    for blk, (a_in, zh, hh) in zip(reversed(net.blocks), reversed(block_cache)):
        dzh = (blk["v"].T @ da) * (zh > 0)
        block_grads[:0] = [np.outer(dzh, a_in), dzh, np.outer(da, hh), da]
        da = da + blk["u"].T @ dzh
    dz0 = da * (z0 > 0)
    return [np.outer(dz0, x), dz0, *block_grads, *head_grads]


def plain_update(net, grads, lr):
    for w, g in zip(net.parameters(), grads, strict=True):
        w -= lr * g


def plain_update_bound(net, cache) -> tuple[float, float]:
    """`hwsearch.update_bound` from its definition: fresh `|w|` arrays, and
    the floor as the smallest `spacing(|w|) / 4` taken entry by entry."""
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
    floor = np.min([np.spacing(np.abs(w)).min() for w in net.parameters()]) / 4
    return float(np.max(terms)), float(floor)


def reference_train_policy(net, feats, score_fn, budget) -> PolicyTrainResult:
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
        plain_update(net, plain_backward(net, cache, dlogits), budget.learning_rate)

        mean_cost = float(costs.mean())
        baseline = budget.baseline_decay * baseline + (1.0 - budget.baseline_decay) * mean_cost
        best_for_trace = best_cost if best_cost is not None else float(costs.min())
        trace.append(TraceRow(step, mean_cost, best_for_trace, tau, baseline))
        tau = max(tau * budget.tau_decay, 1e-3)

    logits, _ = net.forward(feats)
    return PolicyTrainResult(
        choices=tuple(int(np.argmax(l)) for l in logits),
        trace=tuple(trace),
        best_choices=best_choices,
        best_cost=best_cost,
        evaluations=evaluations,
    )
