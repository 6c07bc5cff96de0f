"""Graph comparison schemes: one synchronous round on a random graph, with
plain gossip averaging or the two-stage distance/performance defence as the
benign nodes' rule.

The unfiltered ring schemes need no code of their own: R-plain is the
filtered ring at connectivity one, and grouped R-plain the grouped driver at
connectivity one, where every selection has a single candidate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .attacks import AttackSpec, apply_attack
from .data import Dataset
from .errors import ConfigError
from .history import HistoryRow, TrainHistory
from .models import (
    LossTask,
    ModelVector,
    accuracy,
    average_models,
    evaluate_loss,
    evaluate_losses,
    sgd_step,
)
from .ring import DEFAULT_BATCH_SIZE, TAG_ATTACK, TAG_BATCH, default_lr, local_batch

TAG_GRAPH = 0xD0


@dataclass(frozen=True)
class GraphTopology:
    """Undirected communication graph without self-loops."""

    adjacency: dict[int, frozenset[int]]

    def __post_init__(self):
        for node, nbrs in self.adjacency.items():
            if node in nbrs:
                raise ConfigError(f"self-loop at node {node}")
            for other in nbrs:
                if node not in self.adjacency.get(other, frozenset()):
                    raise ConfigError(f"edge {node}-{other} is not symmetric")

    def neighbours(self, node: int) -> frozenset[int]:
        return self.adjacency[node]


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
) -> GraphTopology:
    """Random graph: benign-benign edges with one probability, benign-Byzantine
    with another.  Retries seeds until the benign subgraph is connected."""
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
            return GraphTopology({i: frozenset(adj[i]) for i in ids})
    raise ConfigError(f"no connected benign subgraph within {max_retries} seeds")


@dataclass
class GraphState:
    """Synchronous graph training state: all reads in a round use the
    previous round's models."""

    topology: GraphTopology
    models: dict[int, ModelVector]
    byzantine: frozenset[int]
    seed: int
    round_idx: int = 0
    audit: dict[int, dict] = field(default_factory=dict)


def make_graph_state(
    topology: GraphTopology, byzantine_ids, seed: int, initial_model: ModelVector
) -> GraphState:
    models = {i: initial_model for i in topology.adjacency}
    return GraphState(topology, models, frozenset(byzantine_ids), seed)


#: ``rule(node, own, received, task, X, y, lr) -> (model, audit)``: a benign
#: node's update from its own model, its neighbours' (sender -> model) and its
#: batch; the audit, if not None, lands in ``GraphState.audit[node]``
GraphRule = Callable[..., tuple[ModelVector, dict | None]]


def gossip_rule(node, own, received, task, X, y, lr):
    """Plain gossip: average own model with all neighbours', then step."""
    return sgd_step(average_models([own, *received.values()]), task, X, y, lr), None


def ubar_rule(rho: float = 0.33, mixing: float = 0.5) -> GraphRule:
    """Two-stage graph defence.

    Stage 1 keeps the ``ceil(rho * degree)`` neighbours closest in Euclidean
    distance to the node's own model; stage 2 keeps those whose loss on a
    local mini-batch does not exceed the node's own, averaging them (or
    falling back to the single lowest-loss stage-1 candidate).  The update
    mixes the node's model with the aggregate before the gradient step.
    """
    if not 0 < rho <= 1:
        raise ConfigError("rho must lie in (0, 1]")

    def rule(node, own, received, task, X, y, lr):
        if not received:
            raise ConfigError(f"node {node} has no neighbours")
        by_distance = sorted(
            received, key=lambda j: (float(np.linalg.norm(received[j].params - own.params)), j)
        )
        pool = by_distance[:math.ceil(rho * len(received))]
        own_loss, *pool_losses = evaluate_losses(
            [own] + [received[j] for j in pool], task, X, y)
        losses = dict(zip(pool, pool_losses))
        accepted = [j for j in pool if losses[j] <= own_loss]
        if accepted:
            aggregate = average_models([received[j] for j in accepted])
        else:
            accepted = [min(pool, key=lambda j: (losses[j], j))]
            aggregate = received[accepted[0]]
        grad_step = sgd_step(own, task, X, y, lr)
        mixed = mixing * own.params + (1.0 - mixing) * aggregate.params
        out = own.with_params(mixed - (own.params - grad_step.params))
        return out, {"pool": pool, "accepted": accepted, "own_loss": own_loss,
                     "losses": losses}

    return rule


def graph_round(
    state: GraphState, rule: GraphRule, task: LossTask, dataset: Dataset,
    attack: AttackSpec | None = None,
    lr_schedule: Callable[[int], float] | None = None,
    batch_size: int | None = DEFAULT_BATCH_SIZE,
    history: TrainHistory | None = None,
    test_set=None,
) -> GraphState:
    """One synchronous round: each Byzantine node sends one attacked model to
    all its neighbours, and each benign node applies ``rule``.

    A Byzantine node never reads what it receives: it takes one SGD step on
    its own model, sends the attack of that step and keeps it, so under
    ``attack: none`` it trains alone.  A Byzantine ring member
    (``ring.BasilRing``) instead selects and forwards like a benign one and
    replaces only what it sends."""
    attack = attack or AttackSpec()
    k = state.round_idx + 1
    lr = (lr_schedule or default_lr)(k)
    sent = dict(state.models)
    benign_pool = [state.models[i] for i in sorted(state.models)
                   if i not in state.byzantine]
    for node in sorted(state.byzantine):
        X, y = local_batch(dataset, node, batch_size, [state.seed, TAG_BATCH, node, k])
        honest = sgd_step(state.models[node], task, X, y, lr)
        rng = np.random.default_rng([state.seed, TAG_ATTACK, node, k])
        sent[node] = apply_attack(attack, honest_update=honest, prior=state.models[node],
                                  benign_models=benign_pool, round_k=k, rng=rng)
    new_models: dict[int, ModelVector] = {}
    rows: list[HistoryRow] = []
    state.audit = {}
    for node in sorted(state.models):
        if node in state.byzantine:
            new_models[node] = sent[node]
            continue
        X, y = local_batch(dataset, node, batch_size, [state.seed, TAG_BATCH, node, k])
        received = {j: sent[j] for j in sorted(state.topology.neighbours(node))}
        out, audit = rule(node, state.models[node], received, task, X, y, lr)
        new_models[node] = out
        if audit is not None:
            state.audit[node] = audit
        if history is not None:
            rows.append(HistoryRow(
                round=k, node=node, selected_sender=None,
                train_loss=evaluate_loss(out, task, X, y), test_acc=None,
            ))
    if rows:
        # the round's benign outputs are scored on the test set together
        outs = [new_models[row.node] for row in rows]
        accs = accuracy(outs, task, *test_set) if test_set else [None] * len(rows)
        for row, acc in zip(rows, accs):
            history.add_row(replace(row, test_acc=acc))
    state.models = new_models
    state.round_idx = k
    return state


def run_graph(
    rule: GraphRule, topology: GraphTopology, byzantine_ids, seed: int,
    task: LossTask, dataset: Dataset, rounds: int, *, attack=None, lr_schedule=None,
    batch_size: int | None = DEFAULT_BATCH_SIZE, test_set=None,
) -> TrainHistory:
    """Run ``rounds`` graph rounds of ``rule`` from the task's seeded start model."""
    state = make_graph_state(topology, byzantine_ids, seed, task.initial_model(seed))
    history = TrainHistory()
    for _ in range(rounds):
        graph_round(state, rule, task, dataset, attack, lr_schedule, batch_size,
                    history, test_set)
    return history
