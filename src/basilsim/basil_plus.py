"""Grouped parallel ring training with robust circular aggregation.

Nodes split into ``G`` ring groups.  Every global round: (1) each group runs
the sequential ring protocol for ``tau`` rounds in parallel, (2) the groups'
tail nodes pass a running average around the ring of groups, filtering
received candidates with the performance-based rule, (3) the last group's
tails hand the result to the first group's tails, which filter and multicast
to every group's head nodes, and those adopt the filtered model as the next
round's start.

The groups run in lock-step (:func:`ring.run_rings`): the turns at one
position of every ring are one wave.  Each group's aggregate tails, the
multicast tails and all head nodes' adopts are a wave each.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .history import SelectionRecord, TrainHistory
from .models import LossTask, ModelVector
from .ring import BasilRing, Driver, Turn, agree_order, basil_select, run_rings

TAG_CLUSTER = 0xC0
TAG_STAGE_BATCH = 0xC1
TAG_STAGE_ATTACK = 0xC2


def _group_seed(seed: int, gid: int) -> int:
    return int(seed) * 131071 + gid + 1


def cluster_nodes(node_ids, G: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded random split into ``G`` equal groups; returns each group's ring order."""
    ids = sorted(node_ids)
    if G < 1 or len(ids) % G != 0:
        raise ConfigError(f"group count {G} must divide node count {len(ids)}")
    perm = list(ids)
    np.random.default_rng([int(seed), TAG_CLUSTER]).shuffle(perm)
    n = len(ids) // G
    return [agree_order(perm[g * n:(g + 1) * n], _group_seed(seed, g)) for g in range(G)]


class BasilPlusDriver(Driver):
    """Stateful driver for grouped training: one :class:`BasilRing` per group,
    each with connectivity ``connectivity``, over nodes ``0..n_nodes-1`` of
    which the resolved set ``byzantine`` attack; ``settings`` are
    :class:`Driver`'s, and every ring shares them.  The hand-off stages are
    activations (:meth:`Driver.activate`) on the stage streams, an adopt
    never attacked.  A ring keeps its records and rows in its own history
    until its ``tau`` rounds end, then hands them on in ring order."""

    BATCH_TAG, ATTACK_TAG = TAG_STAGE_BATCH, TAG_STAGE_ATTACK

    def __init__(
        self,
        n_groups: int,
        byzantine: frozenset[int],
        connectivity: int,
        seed: int,
        task: LossTask,
        dataset: Dataset,
        *,
        n_nodes: int,
        tau: int = 1,
        epochs: int | None = None,
        **settings,
    ):
        if tau < 0:
            raise ConfigError("tau must be >= 0")
        super().__init__(range(n_nodes), byzantine, seed, task, dataset, **settings)
        self.tau = tau
        self.global_round = 0

        # ring round k falls in global round (k - 1) // tau + 1
        tau_ = max(tau, 1)
        initial_model = task.initial_model(seed)
        self.rings: list[BasilRing] = []
        for gid, members in enumerate(cluster_nodes(range(n_nodes), n_groups, seed)):
            self.rings.append(BasilRing(
                members,
                self.byzantine.intersection(members),
                connectivity,
                _group_seed(seed, gid),
                task,
                dataset,
                attack=self.attack,
                lr_schedule=lambda k: self.lr_schedule((k - 1) // tau_ + 1),
                batch_size=self.batch_size,
                epochs=epochs,
                test_set=self.test_set,
                initial_model=initial_model,
                group=gid,
            ))
        self._ring_of = {node: ring for ring in self.rings for node in ring.order}

    # -- helpers -----------------------------------------------------------

    _STAGE_IDS = {"aggregate": 1, "multicast": 2, "adopt": 3}

    def _benign_pool(self) -> list[ModelVector]:
        pool = {}
        for ring in self.rings:
            pool.update(ring.latest_benign)
        return [pool[i] for i in sorted(pool)]

    def _group_of(self, node: int) -> int | None:
        return self._ring_of[node].group

    @property
    def _stage_round(self) -> int:
        """The round a stage activation passes to the attack."""
        return self.global_round * max(self.tau, 1)

    def _stream(self, stage: str, node: int) -> tuple[int, ...]:
        return (self._STAGE_IDS[stage], node, self.global_round)

    def _stage(self, stage: str, nodes, candidates, fanout: int, round_k: int | None,
               update: Callable[[ModelVector, int], ModelVector] = lambda m, _: m
               ) -> list[ModelVector]:
        """The wave of ``nodes``' activations at ``stage`` in round ``round_k``
        (None for an adopt), each picking from the shared ``candidates`` and
        sending ``update(pick, node)``, recorded with the ``fanout`` it goes
        to."""
        turns = [Turn(self, node, candidates, self._stream(stage, node)) for node in nodes]
        return [out for out, *_ in self.activate(
            turns, basil_select,
            lambda turns, picks, *_: [update(s.model, t.node)
                                      for t, s in zip(turns, picks.selections)],
            partial(SelectionRecord, self.global_round, stage, fanout=fanout), round_k)]

    # -- driver --------------------------------------------------------------

    def run_global_round(self) -> None:
        """Train every ring for ``tau`` rounds, aggregate around the ring of
        groups, then hand the filtered result to every group's head nodes."""
        self.global_round += 1
        if self.global_round > 1:
            for ring in self.rings:
                ring.restart()
        for _ in range(self.tau):
            run_rings(self.rings)
        for ring in self.rings:
            self.history.rows += ring.history.rows
            self.history.selections += ring.history.selections
            ring.history = TrainHistory()

        first = self.rings[0]
        S = first.connectivity
        heads = [node for ring in self.rings for node in ring.order[:S]]
        # no attack replaces an adopt
        self._prepare((self, node, self._stream(stage, node), round_k)
                      for stage, nodes, round_k in (
                          ("aggregate", [node for ring in self.rings[1:]
                                         for node in ring.order[-S:]], self._stage_round),
                          ("multicast", first.order[-S:], self._stage_round),
                          ("adopt", heads, None))
                      for node in nodes)

        # circular aggregation: each downstream tail picks one upstream tail's
        # running average and folds its own model into it
        aggregates = [(node, first.latest_output[node]) for node in first.order[-S:]]
        for g_mult, ring in enumerate(self.rings[1:], 1):
            tails = ring.order[-S:]
            aggregates = list(zip(tails, self._stage(
                "aggregate", tails, aggregates, S, self._stage_round,
                lambda m, node: ring.latest_output[node].with_params(
                    (ring.latest_output[node].params + g_mult * m.params) / (g_mult + 1)))))

        # robust multicast: the first group's tails filter the last group's
        # aggregates, and every head node adopts its pick of theirs
        tails = first.order[-S:]
        filtered = list(zip(tails, self._stage("multicast", tails, aggregates,
                                               len(self.rings) * S, self._stage_round)))
        for node, model in zip(heads, self._stage("adopt", heads, filtered, 0, None)):
            self._ring_of[node].latest_output[node] = model

    def run(self, K: int) -> TrainHistory:
        for _ in range(K):
            self.run_global_round()
        return self.history
