"""Graph comparison schemes: a synchronous driver on a random graph, with
plain gossip averaging or the two-stage distance/performance defence as the
benign nodes' rule.

The unfiltered ring schemes need no code of their own: R-plain is the
filtered ring at connectivity one, and grouped R-plain the grouped driver at
connectivity one, where every selection has a single candidate."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .history import SelectionRecord
from .models import LossTask, ModelVector, average_models, score_wave, sgd_step, step_winners
from .ring import Driver, Picks, Selection, Turn, basil_select

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


#: ``rule(node, own, received, task, X, y, lr) -> Selection``: a benign
#: node's pick from its neighbours' (sender, model) pairs on its batch, whose
#: model is its stepped output, with the (sender, loss) pairs it scored and
#: the senders it kept
GraphRule = Callable[..., Selection]


def gossip_rule(node, own, received, task, X, y, lr) -> Selection:
    """Plain gossip: average own model with all neighbours', then step."""
    averaged = average_models([own, *(model for _, model in received)])
    return Selection(sgd_step(averaged, task, X, y, lr), (), tuple(j for j, _ in received))


def ubar_rule(rho: float = 0.33, mixing: float = 0.5) -> GraphRule:
    """Two-stage graph defence.

    Stage 1 keeps the ``ceil(rho * degree)`` neighbours closest in Euclidean
    distance to the node's own model; stage 2 keeps those whose loss on a
    local mini-batch does not exceed the node's own, averaging them (or
    falling back to the single lowest-loss stage-1 candidate).  The update
    mixes the node's model with the aggregate before the gradient step,
    which steps the node's model from the forward that scored it.
    """
    if not 0 < rho <= 1:
        raise ConfigError("rho must lie in (0, 1]")

    def rule(node, own, received, task, X, y, lr) -> Selection:
        if not received:
            raise ConfigError(f"node {node} has no neighbours")
        received = dict(received)
        by_distance = sorted(
            received, key=lambda j: (float(np.linalg.norm(received[j].params - own.params)), j)
        )
        pool = by_distance[:math.ceil(rho * len(received))]
        scores = score_wave([[own] + [received[j] for j in pool]], task, X[None], y[None])
        own_loss, *pool_losses = scores.losses[0].tolist()
        candidates = tuple(zip(pool, pool_losses))
        accepted = tuple(j for j, loss in candidates if loss <= own_loss)
        if accepted:
            aggregate = average_models([received[j] for j in accepted])
        else:
            accepted = (min(candidates, key=lambda c: (c[1], c[0]))[0],)
            aggregate = received[accepted[0]]
        (grad_step,) = step_winners(scores, [0], lr)
        mixed = mixing * own.params + (1.0 - mixing) * aggregate.params
        return Selection(own.with_params(mixed - (own.params - grad_step.params)),
                         candidates, accepted)

    return rule


class GraphDriver(Driver):
    """Stateful driver for a synchronous graph scheme: every round each
    Byzantine node sends one attacked model to all its neighbours, and each
    benign node picks (:meth:`Driver._pick`) by ``rule``; all reads in a
    round use the previous round's models.  ``settings`` are
    :class:`Driver`'s.

    The Byzantine nodes run the ring's activation (:meth:`Driver.activate`)
    as one wave, recording nothing: each picks by :func:`ring.basil_select`
    from its own model alone, and all step in one backward from the forward
    that scored them.  A Byzantine node never reads what it receives, takes
    one SGD step, sends the attack of that step and keeps it, so under
    ``attack: none`` it trains alone; it skips the step when the attack
    ignores it.  A Byzantine ring member instead picks from what it stores
    and replaces only what it sends."""

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

    def run_round(self) -> None:
        k = self.round_idx + 1
        lr = self.lr_schedule(k)
        sent = dict(self.models)
        self._prepare((self, node, (node, k), k) for node in sorted(self.models))
        turns = [Turn(self, node, ((node, self.models[node]),), (node, k))
                 for node in sorted(self.byzantine)]
        for turn, (out, *_) in zip(turns, self.activate(
                turns, basil_select,
                lambda turns, picks, X, y: step_winners(picks.scores, picks.rows, lr),
                None, k)):
            sent[turn.node] = out
        # (driver, node, selected sender, output, batch) of each benign node
        benign = []
        for node in sorted(self.models):
            if node in self.byzantine:
                continue
            received = [(j, sent[j]) for j in sorted(self.adjacency[node])]
            rule = partial(self.rule, node, self.models[node], lr=lr)
            ((selection, _, batch),) = self._pick(
                [Turn(self, node, received, (node, k))],
                lambda candidates, task, X, y: Picks([rule(candidates[0], task, X[0], y[0])]),
                partial(SelectionRecord, k, "graph", fanout=len(received)))
            benign.append((self, node, None, selection.model, batch))
        self._end_pass(k, benign)
        self.models = {**sent, **{node: out for _, node, _, out, _ in benign}}
        self.round_idx = k
