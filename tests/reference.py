"""A plain reference of the Basil ring, for checking the drivers.

Independent of ``basilsim``'s drivers, streams and scoring: it imports numpy
alone, runs one node at a time, keeps each node's stored models in one Python
list (the ring's S latest senders, newest first), draws every batch, random
attack and epoch order from its own ``np.random.default_rng(key)``, and
scores the softmax model with a plain loss and gradient.  The rules it
restates are the protocol's:

- the ring order is the sorted ids shuffled by ``default_rng([seed, 0xA0])``;
- a node's candidates are the window, plus its own last output while the
  window holds fewer than ``min(S, N)`` models; it picks the lowest loss on a
  fresh batch (NaN as +inf, ties to the earliest, that is the newest), then
  steps the pick on that batch, or runs ``epochs`` passes over its shard;
- a Byzantine node in a round where its attack is active sends the attack
  instead; gaussian, and hidden over a nonempty benign pool, need no pick,
  so the node draws no batch and records an empty pick;
- a benign node's output joins the pool, and its row holds the output's loss
  on the batch and its test accuracy.
"""

import math

import numpy as np

TAG_ORDER, TAG_BATCH, TAG_ATTACK, TAG_EPOCH = 0xA0, 0xA2, 0xA3, 0xEE
#: relative distance under which two best losses count as a near tie
NEAR_TIE = 1e-12


def _layers(params, classes, features):
    """``(w, b)`` of the softmax model's flat ``params``: w ``(C, d)``, then b."""
    return params[:classes * features].reshape(classes, features), params[classes * features:]


def loss(params, classes, X, y):
    """Mean softmax cross-entropy of the model on ``(X, y)``, +inf if the
    model holds a NaN or Inf."""
    if not np.isfinite(params).all():
        return math.inf
    w, b = _layers(params, classes, X.shape[1])
    z = X @ w.T + b
    z -= z.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(y)), y]))


def gradient(params, classes, X, y):
    w, b = _layers(params, classes, X.shape[1])
    logits = X @ w.T + b
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y] -= 1.0
    p /= len(y)
    return np.concatenate([(p.T @ X).ravel(), p.sum(axis=0)])


def accuracy(params, classes, X, y):
    w, b = _layers(params, classes, X.shape[1])
    return float(np.mean((X @ w.T + b).argmax(axis=1) == y))


def hidden(pool):
    """``mu - eps * sign(mu) / |sign(mu)|`` over the benign ``pool``."""
    stacked = np.array(pool)
    mu = stacked.mean(axis=0)
    eps = max(np.linalg.norm(p - mu) for p in stacked)
    direction = np.sign(mu)
    norm = np.linalg.norm(direction)
    return mu - eps * (direction / norm if norm > 0 else direction)


def run_ring(*, nodes, byzantine, S, seed, features, labels, shards, test, classes, batch,
             epochs, attack, activation_round, lr, rounds):
    """Records ``(round, node, benign, ((sender, loss), ...), winners)`` and
    rows ``(round, node, sender, train loss, test accuracy)`` of ``rounds``
    rounds of the ring, and the number of picks whose two best losses, of
    distinct models, lie within :data:`NEAR_TIE` of each other."""
    order = sorted(nodes)
    np.random.default_rng([seed, TAG_ORDER]).shuffle(order)
    n_params = classes * features.shape[1] + classes
    latest = {node: np.zeros(n_params) for node in order}
    benign_latest = {}
    window = []
    capacity = min(S, len(order))
    records, rows, near_ties = [], [], 0
    for k in range(1, rounds + 1):
        for node in order:
            active = attack != "none" and k >= max(activation_round, 1)
            pool = [benign_latest[i] for i in sorted(benign_latest)]
            if node in byzantine and active and (
                    attack == "gaussian" or (attack == "hidden" and pool)):
                if attack == "gaussian":
                    out = np.random.default_rng([seed, TAG_ATTACK, node, k]).standard_normal(
                        n_params)
                else:
                    out = hidden(pool)
                records.append((k, node, False, (), ()))
            else:
                candidates = list(window)
                if len(candidates) < capacity:
                    candidates.append((None, latest[node]))
                indices = shards[node]
                if batch is not None and batch < len(indices):
                    indices = np.random.default_rng([seed, TAG_BATCH, node, k]).choice(
                        indices, size=batch, replace=False)
                X, y = features[indices], labels[indices]
                losses = [loss(model, classes, X, y) for _, model in candidates]
                ranked = [math.inf if math.isnan(v) else v for v in losses]
                best = ranked.index(min(ranked))
                sender, prior = candidates[best]
                near_ties += any(i != best and math.isclose(v, ranked[best], rel_tol=NEAR_TIE)
                                 and not np.array_equal(model, prior)
                                 for i, (v, (_, model)) in enumerate(zip(ranked, candidates)))
                records.append((k, node, node not in byzantine,
                                tuple((s, v) for (s, _), v in zip(candidates, losses)), (sender,)))
                out = _update(prior, node, k, classes, X, y, features, labels, shards[node],
                              seed, batch, epochs, lr)
                if node in byzantine and active:
                    if attack == "random-sign-flip":
                        rng = np.random.default_rng([seed, TAG_ATTACK, node, k])
                        out = out.copy()
                        for sl in (slice(0, n_params - classes), slice(n_params - classes, None)):
                            if rng.random() < 0.5:
                                out[sl] = -out[sl]
                    elif attack == "inverse":
                        out = 2.0 * prior - out
                if node not in byzantine:
                    benign_latest[node] = out
                    rows.append((k, node, sender, loss(out, classes, X, y),
                                 accuracy(out, classes, *test)))
            latest[node] = out
            window = [(node, out), *window][:capacity]
    return records, rows, near_ties


def _update(model, node, k, classes, X, y, features, labels, shard, seed, batch, epochs, lr):
    """One SGD step on ``(X, y)``, or ``epochs`` passes of mini-batch SGD over
    the node's ``shard`` in the orders ``default_rng([seed, 0xEE, node, k])``
    draws, a trailing partial batch dropped."""
    if epochs is None:
        return model - lr * gradient(model, classes, X, y)
    rng = np.random.default_rng([seed, TAG_EPOCH, node, k])
    size = min(batch or len(shard), len(shard))
    for _ in range(epochs):
        order = rng.permutation(shard)
        for start in range(0, len(order) - size + 1, size):
            part = order[start:start + size]
            model = model - lr * gradient(model, classes, features[part], labels[part])
    return model
