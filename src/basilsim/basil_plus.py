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

from functools import partial
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .history import SelectionRecord, TrainHistory
from .models import LossTask, ModelVector
from .ring import BasilRing, Driver, agree_order, basil_select

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
    :class:`Driver`'s, and every ring shares them.  The aggregate and
    multicast stages are activations (:meth:`Driver.activate`) on the stage
    streams; a head node's adopt is a plain pick (:meth:`Driver._pick`),
    never attacked."""

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
            ring = BasilRing(
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
            )
            ring.history = self.history
            self.rings.append(ring)

    # -- helpers -----------------------------------------------------------

    _STAGE_IDS = {"aggregate": 1, "multicast": 2, "adopt": 3}

    def _benign_pool(self) -> list[ModelVector]:
        pool = {}
        for ring in self.rings:
            pool.update(ring.latest_benign)
        return [pool[i] for i in sorted(pool)]

    def _output(self, stage: str, node: int, gid: int, candidates, fanout: int,
                update: Callable[..., ModelVector]) -> ModelVector:
        """What ``node`` sends at ``stage``: ``update`` of its pick from
        ``candidates``, recorded with the ``fanout`` its output goes to."""
        return self.activate(
            node, candidates, basil_select, update,
            partial(SelectionRecord, self.global_round, stage, gid, fanout=fanout),
            self.global_round * max(self.tau, 1),
            (self._STAGE_IDS[stage], node, self.global_round))[0]

    # -- driver --------------------------------------------------------------

    def run_global_round(self) -> None:
        """Train every ring for ``tau`` rounds, aggregate around the ring of
        groups, then hand the filtered result to every group's head nodes."""
        self.global_round += 1
        for ring in self.rings:
            if self.global_round > 1:
                ring.restart()
            ring.run(self.tau)

        # circular aggregation: each downstream tail picks one upstream tail's
        # running average and folds its own model into it
        first = self.rings[0]
        S = first.connectivity
        aggregates = [(node, first.latest_output[node]) for node in first.order[-S:]]
        for g_mult, ring in enumerate(self.rings[1:], 1):
            upstream, aggregates = aggregates, []
            for node in ring.order[-S:]:
                own = ring.latest_output[node]
                aggregates.append((node, self._output(
                    "aggregate", node, ring.group, upstream, S,
                    lambda m, *_: own.with_params(
                        (own.params + g_mult * m.params) / (g_mult + 1)))))

        # robust multicast: the first group's tails filter the last group's
        # aggregates, and every head node adopts its pick of theirs
        filtered = [(node, self._output("multicast", node, first.group, aggregates,
                                        len(self.rings) * S, lambda m, *_: m))
                    for node in first.order[-S:]]
        for ring in self.rings:
            for node in ring.order[:S]:
                ring.latest_output[node] = self._pick(
                    node, filtered, basil_select,
                    partial(SelectionRecord, self.global_round, "adopt", ring.group, fanout=0),
                    (self._STAGE_IDS["adopt"], node, self.global_round),
                    node not in self.byzantine)[0].model

    def run(self, K: int) -> TrainHistory:
        for _ in range(K):
            self.run_global_round()
        return self.history
