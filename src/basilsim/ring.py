"""Sequential robust training over a logical ring.

Each round walks the agreed ring order once.  A benign node stores the
models multicast by its ``S`` counterclockwise neighbours, picks the one
with the lowest loss on a fresh local mini-batch, updates it (one SGD step
on the same mini-batch, or ``epochs`` passes of mini-batch SGD over its
local data), and multicasts the result to its next ``S`` clockwise
neighbours.  Byzantine nodes emit attack output instead, with no pick or
update when the attack ignores them.  Everything is driven by explicit
seeds, so two runs with the same configuration are bit-identical.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .attacks import AttackSpec, apply_attack, ignores_honest_update
from .data import Dataset
from .errors import ConfigError, ProtocolError
from .history import HistoryRow, SelectionRecord, TrainHistory
from .models import LossTask, ModelVector, accuracy, evaluate_loss, evaluate_losses, sgd_step

# rng stream tags; every consumer derives default_rng([seed, tag, ...])
TAG_ORDER = 0xA0
TAG_BYZANTINE = 0xA1
TAG_BATCH = 0xA2
TAG_ATTACK = 0xA3
TAG_EPOCH = 0xEE

DEFAULT_BATCH_SIZE = 80


def default_lr(k: int) -> float:
    """Decaying schedule 0.03 / (1 + 0.03 k) with k the 1-indexed round."""
    return 0.03 / (1.0 + 0.03 * k)


def constant_lr(eta: float) -> Callable[[int], float]:
    return lambda k: eta


def agree_order(node_ids, seed: int) -> tuple[int, ...]:
    """Deterministic ring permutation every node derives from the common seed."""
    ids = list(node_ids)
    if not ids:
        raise ConfigError("node id list is empty")
    if len(set(ids)) != len(ids):
        raise ConfigError("node ids must be unique")
    order = sorted(ids)
    np.random.default_rng([int(seed), TAG_ORDER]).shuffle(order)
    return tuple(order)


class StoredModels:
    """Bounded window of (sender, model) pairs, newest first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("FIFO capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[tuple[int | None, ModelVector]] = []

    def insert(self, sender: int | None, model: ModelVector) -> None:
        self.entries.insert(0, (sender, model))
        del self.entries[self.capacity:]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int | None, ModelVector]]:
        """(sender, model) candidates, newest first."""
        return iter(self.entries)


class Selection(NamedTuple):
    model: ModelVector
    sender: int | None
    candidate_losses: tuple[tuple[int | None, float], ...]


def basil_select(
    candidates: Iterable[tuple[int | None, ModelVector]], task: LossTask, X, y
) -> Selection:
    """Pick the (sender, model) candidate with the lowest loss on the batch.

    All candidates are scored in one stacked forward pass.  Non-finite models
    score +inf so the rule stays total; exact ties go to the earliest
    candidate (the ring's window lists them newest first).
    """
    candidates = list(candidates)
    if not candidates:
        raise ProtocolError("model queue is empty")
    losses = evaluate_losses([model for _, model in candidates], task, X, y)
    best = min(range(len(losses)), key=lambda i: (losses[i], i))
    sender, model = candidates[best]
    audit = tuple((s, l) for (s, _), l in zip(candidates, losses))
    return Selection(model, sender, audit)


def sample_byzantine_ids(node_ids, count: int, seed: int) -> frozenset[int]:
    """Uniform placement without replacement, driven by the run seed."""
    rng = np.random.default_rng([int(seed), TAG_BYZANTINE])
    picked = rng.choice(np.asarray(sorted(node_ids)), size=count, replace=False)
    return frozenset(int(x) for x in picked)


def local_batch(dataset: Dataset, node: int, batch_size: int | None, key: list[int]):
    """A node's mini-batch: all its local data if ``batch_size`` is None or not
    smaller, else ``batch_size`` samples without replacement from ``default_rng(key)``."""
    indices = dataset.node_indices(node)
    if batch_size is None or batch_size >= len(indices):
        return dataset.batch(indices)
    picked = np.random.default_rng(key).choice(indices, size=batch_size, replace=False)
    return dataset.batch(picked)


class BasilRing:
    """Stateful driver for the ring protocol over ``node_ids``, of which the
    resolved set ``byzantine`` attack; each node stores ``connectivity``
    models and multicasts to that many successors.  A node's S predecessors
    are the ring's S most recent senders, so one ``window`` of the S latest
    (sender, output) pairs stands for every node's queue.  Until S nodes have
    sent since the restart, a node's queue also holds its start model, which
    is still its ``latest_output`` as it has not activated; the window is
    then below capacity, and its candidates end with that model.
    """

    def __init__(
        self,
        node_ids,
        byzantine: frozenset[int],
        connectivity: int,
        seed: int,
        task: LossTask,
        dataset: Dataset,
        *,
        attack: AttackSpec | None = None,
        lr_schedule: Callable[[int], float] | None = None,
        batch_size: int | None = DEFAULT_BATCH_SIZE,
        epochs: int | None = None,
        test_set: tuple[np.ndarray, np.ndarray] | None = None,
        initial_model: ModelVector | None = None,
        group: int | None = None,
    ):
        self.task = task
        self.dataset = dataset
        self.attack = attack or AttackSpec()
        self.lr_schedule = lr_schedule or default_lr
        if epochs is not None and epochs < 1:
            raise ConfigError("epochs must be None or >= 1")
        self.batch_size = batch_size
        self.epochs = epochs
        self.test_set = test_set
        self.group = group
        self.seed = seed
        self.connectivity = connectivity

        self.node_ids = list(node_ids)
        self.order = agree_order(self.node_ids, seed)
        n = len(self.order)
        if n > 1 and not 1 <= connectivity <= n - 1:
            raise ConfigError(f"need 1 <= S <= N-1 = {n - 1}, got S = {connectivity}")
        self.byzantine = frozenset(byzantine)
        unknown = self.byzantine - set(self.node_ids)
        if unknown:
            raise ConfigError(f"byzantine ids {sorted(unknown)} are not ring members")
        if len(self.byzantine) == n:
            raise ConfigError("every ring member is Byzantine")
        if dataset.partition is None:
            raise ConfigError("dataset must be partitioned before training")
        missing = [i for i in self.node_ids if i not in dataset.partition]
        if missing:
            raise ConfigError(f"dataset partition missing nodes {missing}")

        self.latest_benign: dict[int, ModelVector] = {}
        self.round_idx = 0
        self.history = TrainHistory()
        if initial_model is None:
            initial_model = task.initial_model(seed)
        self.latest_output = {node: initial_model for node in self.node_ids}
        self.restart()

    def restart(self) -> None:
        """Empty the window, so every member restarts from its ``latest_output``;
        a one-node ring is its own only sender and stores one model."""
        self.window = StoredModels(min(self.connectivity, len(self.order)))

    # -- helpers ---------------------------------------------------------

    def is_benign(self, node: int) -> bool:
        return node not in self.byzantine

    def _update(self, model: ModelVector, node: int, k: int, X, y, lr: float) -> ModelVector:
        """One SGD step on the selection batch, or ``epochs`` passes of
        mini-batch SGD over the node's local data (batch clamped to its size)."""
        if self.epochs is None:
            return sgd_step(model, self.task, X, y, lr)
        indices = self.dataset.node_indices(node)
        bs = min(self.batch_size or len(indices), len(indices))
        rng = np.random.default_rng([self.seed, TAG_EPOCH, node, k])
        for _ in range(self.epochs):
            order = rng.permutation(indices)
            for start in range(0, len(order) - bs + 1, bs):
                bx, by = self.dataset.batch(order[start:start + bs])
                model = sgd_step(model, self.task, bx, by, lr)
        return model

    # -- protocol --------------------------------------------------------

    def run_round(self) -> None:
        k = self.round_idx + 1
        lr = self.lr_schedule(k)
        # (node, selection, train loss, output) of each benign activation; the
        # pass's outputs are scored on the test set together at its end
        benign: list[tuple[int, Selection, float, ModelVector]] = []
        for node in self.order:
            byzantine = not self.is_benign(node)
            pool = [self.latest_benign[i] for i in sorted(self.latest_benign)] if byzantine else []
            if byzantine and ignores_honest_update(self.attack, benign_models=pool, round_k=k):
                # the attack would discard a pick and step, so the node makes
                # none; of the model handed in, it reads only the shape
                self.history.selections.append(SelectionRecord(
                    k, "ring", self.group, node, False, (), (), self.connectivity))
                honest = prior = self.latest_output[node]
            else:
                X, y = local_batch(self.dataset, node, self.batch_size,
                                   [self.seed, TAG_BATCH, node, k])
                candidates = self.window.entries
                if len(self.window) < self.window.capacity:
                    candidates = [*candidates, (None, self.latest_output[node])]
                selection = basil_select(candidates, self.task, X, y)
                self.history.selections.append(SelectionRecord(
                    k, "ring", self.group, node, not byzantine,
                    selection.candidate_losses, (selection.sender,), self.connectivity))
                prior = selection.model
                honest = self._update(prior, node, k, X, y, lr)
            if not byzantine:
                out = honest
                self.latest_benign[node] = out
                benign.append((node, selection, evaluate_loss(out, self.task, X, y), out))
            else:
                out = apply_attack(self.attack, honest_update=honest, prior=prior,
                                   benign_models=pool, round_k=k,
                                   key=[self.seed, TAG_ATTACK, node, k])
            self.latest_output[node] = out
            self.window.insert(node, out)
        outs = [out for *_, out in benign]
        accs = (accuracy(outs, self.task, *self.test_set)
                if self.test_set is not None else [None] * len(outs))
        for (node, selection, loss, _), acc in zip(benign, accs):
            self.history.add_row(HistoryRow(
                round=k,
                node=node,
                selected_sender=selection.sender,
                train_loss=loss,
                test_acc=acc,
                group=self.group,
            ))
        self.round_idx = k

    def run(self, rounds: int) -> TrainHistory:
        for _ in range(rounds):
            self.run_round()
        return self.history
