"""Graph comparison schemes: a synchronous driver on a random graph, with
plain gossip averaging or the two-stage distance/performance defence as the
benign nodes' rule.

The unfiltered ring schemes need no code of their own: R-plain is the
filtered ring at connectivity one, and grouped R-plain the grouped driver at
connectivity one, where every selection has a single candidate."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .history import SelectionRecord
from .models import LossTask, ModelVector, average_models, score_wave
from .ring import Driver, Picks, Selection, Turn, basil_select, step_picks

TAG_GRAPH = 0xD0


def _benign_connected(adj: dict[int, set[int]], benign: list[int]) -> bool:
    if not benign:
        return True
    benign_set = set(benign)
    seen = {benign[0]}
    frontier = [benign[0]]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt in benign_set and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(benign)


def build_random_graph(
    node_ids,
    byzantine_ids,
    seed: int,
    edge_prob_benign: float = 0.4,
    edge_prob_byzantine: float = 0.4,
    max_retries: int = 100,
) -> dict[int, frozenset[int]]:
    """Random graph: benign-benign edges with one probability, benign-Byzantine
    with another, as an adjacency dict.  Retries seeds until the benign
    subgraph is connected."""
    ids = sorted(node_ids)
    byz = set(byzantine_ids)
    benign = [i for i in ids if i not in byz]
    for attempt in range(max_retries):
        rng = np.random.default_rng([int(seed), TAG_GRAPH, attempt])
        adj: dict[int, set[int]] = {i: set() for i in ids}
        for a_idx, a in enumerate(ids):
            for b in ids[a_idx + 1:]:
                both_byz = a in byz and b in byz
                if both_byz:
                    continue
                p = edge_prob_benign if (a not in byz and b not in byz) else edge_prob_byzantine
                if rng.random() < p:
                    adj[a].add(b)
                    adj[b].add(a)
        if _benign_connected(adj, benign):
            return {i: frozenset(adj[i]) for i in ids}
    raise ConfigError(f"no connected benign subgraph within {max_retries} seeds")


class GraphRule(NamedTuple):
    """A benign graph node's rule as a wave: ``pick(candidates, task, X, y)``
    (as :func:`ring.basil_select`) from each node's ``[(node, own),
    *neighbours]``, whose selections hold the (sender, loss) pairs it scored
    and the senders it kept, then ``update(turns, picks, X, y, lr)``, each
    node's output."""

    pick: Callable[..., Picks]
    update: Callable[..., list[ModelVector]]


def _average(candidates, task, X, y) -> Picks:
    """Gossip's pick: each node's average of its own model and all its
    neighbours', scored to be stepped."""
    averaged = [average_models([model for _, model in c]) for c in candidates]
    return Picks([Selection(m, (), tuple(j for j, _ in c[1:]))
                  for m, c in zip(averaged, candidates)],
                 score_wave([[m] for m in averaged], task, X, y), [0] * len(averaged))


#: plain gossip: average own model with all neighbours', then step
gossip_rule = GraphRule(_average, step_picks)


def ubar_rule(rho: float = 0.33, mixing: float = 0.5) -> GraphRule:
    """Two-stage graph defence.

    Stage 1 keeps the ``ceil(rho * degree)`` neighbours closest in Euclidean
    distance to the node's own model; stage 2 keeps those whose loss on a
    local mini-batch does not exceed the node's own, averaging them (or
    falling back to the single lowest-loss stage-1 candidate).  The update
    mixes the node's model with that aggregate before the gradient step,
    which steps the node's model from the forward that scored it.
    """
    if not 0 < rho <= 1:
        raise ConfigError("rho must lie in (0, 1]")

    def pick(candidates, task, X, y) -> Picks:
        pools = []
        for (node, own), *received in candidates:
            if not received:
                raise ConfigError(f"node {node} has no neighbours")
            received = dict(received)
            by_distance = sorted(
                received, key=lambda j: (float(np.linalg.norm(received[j].params - own.params)), j)
            )
            pools.append((own, received, by_distance[:math.ceil(rho * len(received))]))
        scores = score_wave([[own] + [received[j] for j in pool] for own, received, pool in pools],
                            task, X, y)
        picked = []
        for (_, received, pool), (own_loss, *pool_losses) in zip(pools, scores.losses.tolist()):
            scored = tuple(zip(pool, pool_losses))
            accepted = tuple(j for j, loss in scored if loss <= own_loss)
            if accepted:
                aggregate = average_models([received[j] for j in accepted])
            else:
                accepted = (min(scored, key=lambda c: (c[1], c[0]))[0],)
                aggregate = received[accepted[0]]
            picked.append(Selection(aggregate, scored, accepted))
        return Picks(picked, scores, [0] * len(picked))

    def update(turns, picks: Picks, X, y, lr) -> list[ModelVector]:
        outputs = []
        for t, s, stepped in zip(turns, picks.selections, step_picks(turns, picks, X, y, lr)):
            own = t.candidates[0][1]
            mixed = mixing * own.params + (1.0 - mixing) * s.model.params
            outputs.append(own.with_params(mixed - (own.params - stepped.params)))
        return outputs

    return GraphRule(pick, update)


class GraphDriver(Driver):
    """Stateful driver for a synchronous graph scheme: each round is two
    waves (:meth:`Driver.activate`) on the previous round's models.
    ``settings`` are :class:`Driver`'s.

    In the first, recording nothing, each Byzantine node picks by
    :func:`ring.basil_select` from its own model alone, takes one SGD step,
    sends the attack of that step to all its neighbours and keeps it: it
    never reads what it receives, so under ``attack: none`` it trains alone,
    and it skips the step when the attack ignores it.  A Byzantine ring
    member instead picks from what it stores and replaces only what it
    sends.  In the second, each benign node runs ``rule`` on its own model
    and what its neighbours sent."""

    TOPOLOGY = "graph"

    def __init__(
        self,
        adjacency: dict[int, frozenset[int]],
        byzantine: frozenset[int],
        rule: GraphRule,
        seed: int,
        task: LossTask,
        dataset: Dataset,
        **settings,
    ):
        for node, nbrs in adjacency.items():
            if node in nbrs:
                raise ConfigError(f"self-loop at node {node}")
            for other in nbrs:
                if node not in adjacency.get(other, frozenset()):
                    raise ConfigError(f"edge {node}-{other} is not symmetric")
        super().__init__(adjacency, byzantine, seed, task, dataset, **settings)
        self.adjacency = adjacency
        self.rule = rule
        initial_model = task.initial_model(seed)
        self.models: dict[int, ModelVector] = {i: initial_model for i in adjacency}
        self.round_idx = 0

    def _benign_pool(self) -> list[ModelVector]:
        return [m for i, m in sorted(self.models.items()) if i not in self.byzantine]

    def _record(self, k: int, group, node: int, *selection) -> SelectionRecord:
        return SelectionRecord(k, "graph", group, node, *selection,
                               fanout=len(self.adjacency[node]))

    def run_round(self) -> None:
        k = self.round_idx + 1
        lr = self.lr_schedule(k)
        sent = dict(self.models)
        self._prepare((self, node, (node, k), k) for node in sorted(self.models))
        turns = [Turn(self, node, ((node, self.models[node]),), (node, k))
                 for node in sorted(self.byzantine)]
        results = self.activate(turns, basil_select, partial(step_picks, lr=lr), None, k)
        sent.update((turn.node, out) for turn, (out, *_) in zip(turns, results))
        # a benign node's own model, as it sent it, then its neighbours'
        turns = [Turn(self, node, [(j, sent[j]) for j in (node, *sorted(nbrs))], (node, k))
                 for node, nbrs in sorted(self.adjacency.items()) if node not in self.byzantine]
        results = self.activate(turns, self.rule.pick, partial(self.rule.update, lr=lr),
                                partial(self._record, k), k)
        # (driver, node, selected sender, output, batch) of each benign node
        benign = [(self, t.node, None, out, batch) for t, (out, _, batch) in zip(turns, results)]
        self._end_pass(k, benign)
        self.models = {**sent, **{node: out for _, node, _, out, _ in benign}}
        self.round_idx = k
