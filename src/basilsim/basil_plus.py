"""Grouped parallel ring training with robust circular aggregation.

Nodes split into ``G`` ring groups.  Every global round: (1) each group runs
the sequential ring protocol for ``tau`` rounds in parallel, (2) the groups'
tail nodes pass a running average around the ring of groups, filtering
received candidates with the performance-based rule, (3) the last group's
tails hand the result to the first group's tails, which filter and multicast
to every group's head nodes, and those adopt the filtered model as the next
round's start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .attacks import AttackSpec, apply_attack
from .data import Dataset
from .errors import ConfigError, ProtocolError
from .history import TrainHistory
from .models import LossTask, ModelVector
from .ring import (
    DEFAULT_BATCH_SIZE,
    BasilRing,
    RingConfig,
    Selection,
    agree_order,
    basil_select,
    default_lr,
    local_batch,
    place_byzantine,
)

TAG_CLUSTER = 0xC0
TAG_STAGE_BATCH = 0xC1
TAG_STAGE_ATTACK = 0xC2


@dataclass
class GroupState:
    """One group's ring order, connectivity, and per-member models."""

    gid: int
    members: tuple[int, ...]
    connectivity: int
    models: dict[int, ModelVector] = field(default_factory=dict)
    aggregates: dict[int, ModelVector] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.connectivity <= len(self.members) - 1 and len(self.members) > 1:
            raise ConfigError("group connectivity must satisfy 1 <= S <= n-1")

    @property
    def tail_set(self) -> tuple[int, ...]:
        """Last ``S`` members of the ring order (the aggregation senders)."""
        return self.members[-self.connectivity:]

    @property
    def head_set(self) -> tuple[int, ...]:
        """First ``S`` members of the ring order (the multicast receivers)."""
        return self.members[: self.connectivity]

    def tail_aggregates(self) -> list[tuple[int, ModelVector]]:
        return [(m, self.aggregates[m]) for m in self.tail_set]


@dataclass(frozen=True)
class GroupConfig:
    """Census for grouped training."""

    n_nodes: int
    n_groups: int
    n_byzantine: int = 0
    connectivity: int | None = None
    seed: int = 0
    byzantine_ids: frozenset[int] | None = None

    def __post_init__(self):
        if self.n_groups < 1 or self.n_nodes % self.n_groups != 0:
            raise ConfigError("group count must divide node count")
        n = self.group_size
        s = self.resolved_connectivity
        if n > 1 and not 1 <= s <= n - 1:
            raise ConfigError("need 1 <= S <= n-1 within each group")

    @property
    def group_size(self) -> int:
        return self.n_nodes // self.n_groups

    @property
    def resolved_connectivity(self) -> int:
        if self.connectivity is not None:
            return self.connectivity
        # one-node groups store one model (S=1), the shape r-plain-plus runs
        return max(1, min(self.group_size - 1, self.n_byzantine + 1))


def _group_seed(seed: int, gid: int) -> int:
    return int(seed) * 131071 + gid + 1


def cluster_nodes(node_ids, G: int, seed: int, connectivity: int = 1) -> list[GroupState]:
    """Seeded random split into ``G`` equal groups, each with its own ring order."""
    ids = sorted(node_ids)
    if G < 1 or len(ids) % G != 0:
        raise ConfigError(f"group count {G} must divide node count {len(ids)}")
    perm = list(ids)
    np.random.default_rng([int(seed), TAG_CLUSTER]).shuffle(perm)
    n = len(ids) // G
    states = []
    for g in range(G):
        members = agree_order(perm[g * n:(g + 1) * n], _group_seed(seed, g))
        states.append(GroupState(g, members, connectivity))
    return states


class BasilPlusDriver:
    """Stateful driver for grouped training; exposes group states for inspection."""

    def __init__(
        self,
        config: GroupConfig,
        task: LossTask,
        dataset: Dataset,
        *,
        tau: int = 1,
        attack: AttackSpec | None = None,
        lr_schedule: Callable[[int], float] | None = None,
        batch_size: int | None = DEFAULT_BATCH_SIZE,
        epochs: int | None = None,
        test_set=None,
    ):
        if tau < 0:
            raise ConfigError("tau must be >= 0")
        self.config = config
        self.task = task
        self.dataset = dataset
        self.tau = tau
        self.attack = attack or AttackSpec()
        self.base_lr = lr_schedule or default_lr
        self.batch_size = batch_size

        node_ids = list(range(config.n_nodes))
        self.byzantine = place_byzantine(
            node_ids, config.n_byzantine, config.seed, config.byzantine_ids)

        S = config.resolved_connectivity
        self.groups = cluster_nodes(node_ids, config.n_groups, config.seed, S)
        initial_model = task.initial_model(config.seed)
        for state in self.groups:
            for m in state.members:
                state.models[m] = initial_model

        self.history = TrainHistory()
        self.global_round = 0
        self.rings: dict[int, BasilRing] = {}
        for state in self.groups:
            gseed = _group_seed(config.seed, state.gid)
            group_byz = frozenset(state.members) & self.byzantine
            if len(group_byz) >= len(state.members):
                raise ProtocolError(f"group {state.gid} contains only Byzantine nodes")
            ring_cfg = RingConfig(
                n_nodes=len(state.members),
                n_byzantine=len(group_byz),
                connectivity=S,
                seed=gseed,
                byzantine_ids=group_byz,
            )
            tau_ = max(self.tau, 1)
            ring = BasilRing(
                ring_cfg,
                task,
                dataset,
                attack=self.attack,
                lr_schedule=(lambda k, t=tau_: self.base_lr((k - 1) // t + 1)),
                batch_size=batch_size,
                epochs=epochs,
                test_set=test_set,
                initial_model=initial_model,
                node_ids=list(state.members),
                group=state.gid,
            )
            ring.history = self.history
            self.rings[state.gid] = ring

    # -- helpers -----------------------------------------------------------

    def is_benign(self, node: int) -> bool:
        return node not in self.byzantine

    _STAGE_IDS = {"aggregate": 1, "multicast": 2, "adopt": 3}

    def _batch_for(self, node: int, stage: str):
        return local_batch(self.dataset, node, self.batch_size, [
            self.config.seed, TAG_STAGE_BATCH, self._STAGE_IDS[stage], node,
            self.global_round])

    def _benign_pool(self) -> list[ModelVector]:
        pool = {}
        for ring in self.rings.values():
            pool.update(ring.latest_benign)
        return [pool[i] for i in sorted(pool)]

    def _emit(self, node: int, honest: ModelVector, prior: ModelVector, stage: str) -> ModelVector:
        if self.is_benign(node):
            return honest
        rng = np.random.default_rng(
            [self.config.seed, TAG_STAGE_ATTACK, self._STAGE_IDS[stage], node,
             self.global_round]
        )
        return apply_attack(
            self.attack,
            honest_update=honest,
            prior=prior,
            benign_models=self._benign_pool(),
            round_k=self.global_round * max(self.tau, 1),
            rng=rng,
        )

    def _audit(self, stage: str, node: int, gid: int, selection: Selection) -> None:
        if not self.is_benign(node):
            return
        self.history.events.append({
            "event": f"{stage}-select",
            "round": self.global_round,
            "group": gid,
            "node": node,
            "sender": selection.sender,
            "losses": list(selection.candidate_losses),
        })

    # -- stages ------------------------------------------------------------

    def _stage_local_training(self) -> None:
        for state in self.groups:
            ring = self.rings[state.gid]
            if self.global_round > 1:
                ring.restart(state.models)
            ring.run(self.tau)
            for m in state.members:
                state.models[m] = ring.latest_output[m]
                state.aggregates[m] = state.models[m]

    # -- driver --------------------------------------------------------------

    def run_global_round(self) -> None:
        self.global_round += 1
        self._stage_local_training()
        hooks = dict(emit=self._emit, audit=self._audit)
        circular_aggregate(self.groups, self.task, self._batch_for, **hooks)
        robust_multicast(self.groups, self.task, self._batch_for, **hooks)

    def run(self, K: int) -> TrainHistory:
        for _ in range(K):
            self.run_global_round()
        return self.history


Emit = Callable[[int, ModelVector, ModelVector, str], ModelVector]
Audit = Callable[[str, int, int, Selection], None]


def _honest(node: int, honest: ModelVector, prior: ModelVector, stage: str) -> ModelVector:
    return honest


def _no_audit(stage: str, node: int, gid: int, selection: Selection) -> None:
    pass


def circular_aggregate(
    states: list[GroupState],
    task: LossTask,
    batch_for: Callable[[int, str], tuple[np.ndarray, np.ndarray]],
    *,
    emit: Emit = _honest,
    audit: Audit = _no_audit,
) -> list[GroupState]:
    """Aggregation pass over prepared group states.

    Each downstream tail node selects from the upstream tails with the
    performance rule and folds its own model into the running average.
    ``emit(node, honest, prior, stage)`` gives what a node sends (the honest
    value by default) and ``audit(stage, node, gid, selection)`` sees every
    selection (ignored by default).
    """
    for gi in range(len(states) - 1):
        upstream, downstream = states[gi], states[gi + 1]
        candidates = upstream.tail_aggregates()
        g_mult = gi + 1
        for node in downstream.tail_set:
            X, y = batch_for(node, "aggregate")
            sel = basil_select(candidates, task, X, y)
            own = downstream.models[node]
            honest = own.with_params((own.params + g_mult * sel.model.params) / (g_mult + 1))
            downstream.aggregates[node] = emit(node, honest, sel.model, "aggregate")
            audit("aggregate", node, downstream.gid, sel)
    return states


def robust_multicast(
    states: list[GroupState],
    task: LossTask,
    batch_for: Callable[[int, str], tuple[np.ndarray, np.ndarray]],
    *,
    emit: Emit = _honest,
    audit: Audit = _no_audit,
) -> dict[int, ModelVector]:
    """Final hand-off: filter at the first group's tails, then at every head
    node; returns the adopted model per head node.  Hooks as in
    :func:`circular_aggregate`."""
    first, last = states[0], states[-1]
    filtered = []
    for node in first.tail_set:
        X, y = batch_for(node, "multicast")
        sel = basil_select(last.tail_aggregates(), task, X, y)
        filtered.append((node, emit(node, sel.model, sel.model, "multicast")))
        audit("multicast", node, first.gid, sel)
    adopted: dict[int, ModelVector] = {}
    for state in states:
        for node in state.head_set:
            X, y = batch_for(node, "adopt")
            sel = basil_select(filtered, task, X, y)
            audit("adopt", node, state.gid, sel)
            adopted[node] = sel.model
            state.models[node] = sel.model
    return adopted
