"""Sequential robust training over a logical ring.

Each round walks the agreed ring order once.  A benign node stores the
models multicast by its ``S`` counterclockwise neighbours, picks the one
with the lowest loss on a fresh local mini-batch, updates it (one SGD step
on the same mini-batch, or ``epochs`` passes of mini-batch SGD over its
local data), and multicasts the result to its next ``S`` clockwise
neighbours.  Byzantine nodes emit attack output instead, with no pick or
update when the attack ignores them.  Everything is driven by explicit
seeds, so two runs with the same configuration are bit-identical.

That turn is :meth:`Driver.activate`, the one activation every driver runs:
the ring here, the Basil+ aggregate and multicast stages (``basil_plus``)
and the graph schemes' Byzantine nodes (``baselines``).  Its pick, a Basil+
head node's adopt and a benign graph node's rule are each one :meth:`Driver._pick`.
"""

from __future__ import annotations

from functools import partial
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
    """A pick: the model it yields, and its record's ``candidates`` and ``winners``."""

    model: ModelVector
    candidates: tuple[tuple[int | None, float], ...]
    winners: tuple[int | None, ...]


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
    return Selection(model, tuple((s, l) for (s, _), l in zip(candidates, losses)), (sender,))


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


class Driver:
    """What the ring, Basil+ and graph drivers share: the run's settings, the
    check of the Byzantine set against the ``members``, a node's pick and
    activation, and the end of a pass.  The keyword settings are declared
    here alone, and each driver forwards them.  A driver defines
    ``_benign_pool``, the benign models a Byzantine node's attack reads."""

    #: stream tags of an activation's batch and attack draws
    BATCH_TAG, ATTACK_TAG = TAG_BATCH, TAG_ATTACK
    TOPOLOGY = "ring"
    group: int | None = None

    def __init__(self, members, byzantine, seed, task, dataset, *,
                 attack: AttackSpec | None = None,
                 lr_schedule: Callable[[int], float] | None = None,
                 batch_size: int | None = DEFAULT_BATCH_SIZE, test_set=None):
        self.byzantine = frozenset(byzantine)
        unknown = self.byzantine.difference(members)
        if unknown:
            raise ConfigError(f"byzantine ids {sorted(unknown)} are not {self.TOPOLOGY} members")
        if self.byzantine and len(self.byzantine) == len(members):
            raise ConfigError(f"every {self.TOPOLOGY} member is Byzantine")
        self.seed = seed
        self.task = task
        self.dataset = dataset
        self.attack = attack or AttackSpec()
        self.lr_schedule = lr_schedule or default_lr
        self.batch_size = batch_size
        self.test_set = test_set
        self.history = TrainHistory()

    def _pick(self, node: int, candidates, pick: Callable[..., Selection],
              record: Callable[..., SelectionRecord] | None, stream: tuple[int, ...], benign: bool):
        """``pick(candidates, task, X, y)`` on ``node``'s batch from
        ``[seed, BATCH_TAG, *stream]``; appends the pick's record
        ``record(node, benign, candidates, winners)`` unless ``record`` is
        None.  Returns the selection and the batch."""
        X, y = local_batch(self.dataset, node, self.batch_size,
                           [self.seed, self.BATCH_TAG, *stream])
        selection = pick(candidates, self.task, X, y)
        if record is not None:
            self.history.selections.append(
                record(node, benign, selection.candidates, selection.winners))
        return selection, X, y

    def activate(
        self, node: int, candidates, pick: Callable[..., Selection],
        update: Callable[..., ModelVector], record: Callable[..., SelectionRecord] | None,
        round_k: int, stream: tuple[int, ...],
    ) -> tuple[ModelVector, Selection | None, np.ndarray | None, np.ndarray | None]:
        """``node``'s turn: its :meth:`_pick` on ``stream``, then
        ``update(model, node, X, y)`` of the pick on the same batch.  A
        Byzantine node sends the attack of that update, keyed by
        ``[seed, ATTACK_TAG, *stream]``, and picks, steps and scores nothing
        when the attack ignores them.  Returns the output, the selection
        and the batch (None for a node that picked nothing)."""
        byzantine = node in self.byzantine
        pool = self._benign_pool() if byzantine else None
        if byzantine and ignores_honest_update(self.attack, benign_models=pool, round_k=round_k):
            if record is not None:
                self.history.selections.append(record(node, False, (), ()))
            # the attack reads only the shape of the model handed in
            selection = X = y = None
            honest = prior = candidates[0][1]
        else:
            selection, X, y = self._pick(node, candidates, pick, record, stream, not byzantine)
            prior = selection.model
            honest = update(prior, node, X, y)
        if not byzantine:
            return honest, selection, X, y
        out = apply_attack(self.attack, honest_update=honest, prior=prior, benign_models=pool,
                           round_k=round_k, key=[self.seed, self.ATTACK_TAG, *stream])
        return out, selection, X, y

    def _end_pass(self, k: int, benign) -> None:
        """Score a pass's benign outputs, (node, selected sender, train loss,
        output) in order, on the test set together and add a row for each."""
        accs = (accuracy([out for *_, out in benign], self.task, *self.test_set)
                if self.test_set is not None else [None] * len(benign))
        for (node, sender, loss, _), acc in zip(benign, accs):
            self.history.rows.append(HistoryRow(k, node, sender, loss, acc, self.group))

    def run(self, rounds: int) -> TrainHistory:
        for _ in range(rounds):
            self.run_round()
        return self.history


class BasilRing(Driver):
    """Stateful driver for the ring protocol over ``node_ids``, of which the
    resolved set ``byzantine`` attack; each node stores ``connectivity``
    models and multicasts to that many successors.  A node's S predecessors
    are the ring's S most recent senders, so one ``window`` of the S latest
    (sender, output) pairs stands for every node's queue.  Until S nodes have
    sent since the restart, a node's queue also holds its start model, which
    is still its ``latest_output`` as it has not activated; the window is
    then below capacity, and its candidates end with that model.
    ``settings`` are :class:`Driver`'s.
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
        epochs: int | None = None,
        initial_model: ModelVector | None = None,
        group: int | None = None,
        **settings,
    ):
        if epochs is not None and epochs < 1:
            raise ConfigError("epochs must be None or >= 1")
        self.epochs = epochs
        self.group = group
        self.connectivity = connectivity
        self.node_ids = list(node_ids)
        self.order = agree_order(self.node_ids, seed)
        n = len(self.order)
        if n > 1 and not 1 <= connectivity <= n - 1:
            raise ConfigError(f"need 1 <= S <= N-1 = {n - 1}, got S = {connectivity}")
        super().__init__(self.node_ids, byzantine, seed, task, dataset, **settings)
        if dataset.partition is None:
            raise ConfigError("dataset must be partitioned before training")
        missing = [i for i in self.node_ids if i not in dataset.partition]
        if missing:
            raise ConfigError(f"dataset partition missing nodes {missing}")

        self.latest_benign: dict[int, ModelVector] = {}
        self.round_idx = 0
        if initial_model is None:
            initial_model = task.initial_model(seed)
        self.latest_output = {node: initial_model for node in self.node_ids}
        self.restart()

    def restart(self) -> None:
        """Empty the window, so every member restarts from its ``latest_output``;
        a one-node ring is its own only sender and stores one model."""
        self.window = StoredModels(min(self.connectivity, len(self.order)))

    # -- helpers ---------------------------------------------------------

    def _benign_pool(self) -> list[ModelVector]:
        return [self.latest_benign[i] for i in sorted(self.latest_benign)]

    def _update(self, model: ModelVector, node: int, X, y, k: int, lr: float) -> ModelVector:
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
        update = partial(self._update, k=k, lr=self.lr_schedule(k))
        record = partial(SelectionRecord, k, "ring", self.group, fanout=self.connectivity)
        # (node, selected sender, train loss, output) of each benign activation
        benign: list[tuple[int, int | None, float, ModelVector]] = []
        for node in self.order:
            candidates = self.window.entries
            if len(self.window) < self.window.capacity:
                candidates = [*candidates, (None, self.latest_output[node])]
            out, selection, X, y = self.activate(node, candidates, basil_select, update, record,
                                                 k, (node, k))
            if node not in self.byzantine:
                self.latest_benign[node] = out
                benign.append((node, selection.winners[0],
                               evaluate_loss(out, self.task, X, y), out))
            self.latest_output[node] = out
            self.window.insert(node, out)
        self._end_pass(k, benign)
        self.round_idx = k
