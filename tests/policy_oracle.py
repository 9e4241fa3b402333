"""Reference generator trainer: the plain loop `hwsearch.train_policy` must
match bit for bit.

Every step runs the net's forward pass, the tempered softmax of each head,
one `rng.choice` per sample and head, and `backward` plus `sgd_step`, with
nothing reused or skipped.
"""

import numpy as np

from acceldse.hwsearch import PolicyTrainResult, TraceRow
from acceldse.quant import gumbel_softmax


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
        net.sgd_step(net.backward(cache, dlogits), budget.learning_rate)

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
