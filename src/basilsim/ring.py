"""Sequential robust training over a logical ring.

Each round walks the agreed ring order once.  A benign node stores the
models multicast by its ``S`` counterclockwise neighbours, picks the one
with the lowest loss on a fresh local mini-batch, updates it (one SGD step
on the same mini-batch, or ``epochs`` passes of mini-batch SGD over its
local data), and multicasts the result to its next ``S`` clockwise
neighbours.  Byzantine nodes emit attack output instead, with no pick or
update when the attack ignores them.  Everything is driven by explicit
seeds, so two runs with the same configuration are bit-identical: each
batch, random attack and epoch order draws from its own keyed stream.  Only
:meth:`Driver._prepare` turns keys into stream states, all of a pass's in one
call (:mod:`streams`), and each draw takes a generator set to its key's state.

That turn is :meth:`Driver.activate`, the one activation every driver runs:
the ring here, the Basil+ hand-off stages (``basil_plus``) and both waves of
a graph round (``baselines``).  It runs a *wave*: a list of independent
turns, whose picks are scored in one stacked forward and stepped in one
stacked backward.  A ring's wave is one turn; Basil+ runs the turns at one
position of all its rings as one wave (:func:`run_rings`).  What no pick
depends on is done once: a pass's batches are drawn and gathered at its
start (:meth:`Driver._prepare`), a list the turns share is scored once per
distinct model, and an attack that reads only the benign pool once per pool.
"""

from __future__ import annotations

from functools import partial
from weakref import ref
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .attacks import AttackSpec, apply_attack, ignores_honest_update
from .data import Dataset
from .errors import ConfigError, ProtocolError
from .history import HistoryRow, SelectionRecord, TrainHistory
from .models import (EvalSet, LossTask, ModelVector, WaveScores, accuracy, score_wave, sgd_step,
                     step_winners)
from .streams import keyed_states, set_state

# rng stream tags; every stream is default_rng([seed, tag, ...])'s
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


class Picks(NamedTuple):
    """A pick over a wave's turns: each turn's selection and, for a pick that
    scored its candidates, that stacked forward and each winner's row in it."""

    selections: list[Selection]
    scores: WaveScores | None = None
    rows: Sequence[int] = ()


def basil_select(candidates, task: LossTask, X, y) -> Picks:
    """Each turn's (sender, model) candidate with the lowest loss on its batch.

    ``X`` ``(T, B, d)`` and ``y`` ``(T, B)`` stack the ``T`` turns' batches,
    and ``candidates`` holds each turn's sequence, or one that all share.  All
    are scored in one stacked forward (:func:`models.score_wave`), a shared
    list once per distinct model (by identity): a model's loss does not depend
    on what else the forward holds, so a repeat takes its first copy's loss
    and winner row.  Non-finite models score +inf, and a NaN loss ranks as
    +inf, so the rule stays total; exact ties go to the earliest candidate
    (the ring's window lists them newest first).  A record keeps the loss
    scored, NaN included.
    """
    if not all(candidates):
        raise ProtocolError("model queue is empty")
    models = [[model for _, model in c] for c in candidates]
    index = None
    if len(models) == 1:
        # each model's row among the distinct ones, in order of first appearance
        distinct = {id(m): m for m in models[0]}
        if len(distinct) < len(models[0]):
            rows_of = {key: row for row, key in enumerate(distinct)}
            index = np.array([rows_of[id(m)] for m in models[0]])
            models = [list(distinct.values())]
    scores = score_wave(models, task, X, y)
    losses = scores.losses if index is None else scores.losses[:, index]
    # fmin ranks a NaN as the +inf it is compared with
    rows = np.fmin(losses, np.inf).argmin(axis=1)
    senders = [[s for s, _ in c] for c in candidates]
    if len(candidates) < len(X):
        candidates, senders = candidates * len(X), senders * len(X)
    return Picks([Selection(c[row][1], tuple(zip(s, row_losses)), (s[row],))
                  for row, row_losses, c, s in zip(rows.tolist(), losses.tolist(),
                                                   candidates, senders)],
                 scores, rows if index is None else index[rows])


def step_picks(turns, picks: Picks, X, y, lr: float) -> list[ModelVector]:
    """One SGD step of each turn's pick on its batch, all in the backward of
    the forward that scored them (:func:`models.step_winners`)."""
    return step_winners(picks.scores, picks.rows, lr)


def sample_byzantine_ids(node_ids, count: int, seed: int) -> frozenset[int]:
    """Uniform placement without replacement, driven by the run seed."""
    rng = np.random.default_rng([int(seed), TAG_BYZANTINE])
    picked = rng.choice(np.asarray(sorted(node_ids)), size=count, replace=False)
    return frozenset(int(x) for x in picked)


def local_batch(dataset: Dataset, node: int, batch_size: int | None,
                rng: np.random.Generator) -> np.ndarray:
    """The sample indices of a node's mini-batch: all its local data if
    ``batch_size`` is None or not smaller, else ``batch_size`` of them without
    replacement, drawn from ``rng``."""
    indices = dataset.node_indices(node)
    if batch_size is None or batch_size >= len(indices):
        return indices
    return rng.choice(indices, size=batch_size, replace=False)


class Turn(NamedTuple):
    """One node's turn in a wave: its pick from ``candidates``, (sender,
    model) pairs, on the batch its ``stream`` keys.  ``driver`` is the ring
    or driver whose seed, stream tags, Byzantine set, benign pool, groups and
    history the turn uses."""

    driver: "Driver"
    node: int
    candidates: Sequence[tuple[int | None, ModelVector]]
    stream: tuple[int, ...]


def _stack_by(batches: Sequence[tuple]) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """The indices of the ``batches`` in sets of one batch shape, in order of
    first appearance, each with its ``(X, y)`` batches stacked as
    ``(T, B, d)`` and ``(T, B)`` (views for one)."""
    groups: dict = {}
    for i, batch in enumerate(batches):
        groups.setdefault(batch[0].shape, []).append(i)
    stacked = []
    for ids in groups.values():
        if len(ids) == 1:
            X, y = batches[ids[0]]
            stacked.append((ids, X[None], y[None]))
        else:
            stacked.append((ids, np.array([batches[i][0] for i in ids]),
                            np.array([batches[i][1] for i in ids])))
    return stacked


class Driver:
    """What the ring, Basil+ and graph drivers share: the run's settings, the
    check of the Byzantine set against the ``members``, a wave's activation
    and the end of a pass.  The keyword settings are declared here alone, and
    each driver forwards them; the test set is prepared for
    :func:`models.accuracy` once.  A driver defines ``_benign_pool``, the
    benign models a Byzantine node's attack reads, and prepares every draw of
    a pass before it (:meth:`_prepare`)."""

    #: stream tags of an activation's batch and attack draws
    BATCH_TAG, ATTACK_TAG = TAG_BATCH, TAG_ATTACK
    TOPOLOGY = "ring"
    group: int | None = None
    epochs: int | None = None

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
        if test_set is not None and not isinstance(test_set, EvalSet):
            test_set = EvalSet(*test_set)
        self.test_set = test_set
        self.history = TrainHistory()
        # from _prepare, the pass's batches not yet taken, (X block, y block, row) by
        # (driver, stream), and its other draws' states, for the one generator
        self._batches: dict[tuple, tuple[np.ndarray, np.ndarray, int]] = {}
        self._states: dict[tuple, tuple[int, int]] = {}
        self._generator = np.random.Generator(np.random.PCG64(0))
        # the benign pool last attacked alone, by weak reference, and that attack's output
        self._attack_memo: tuple[list[ref[ModelVector]], ModelVector | None] = ([], None)

    def _group_of(self, node: int) -> int | None:
        """The group a record of ``node``'s turn names."""
        return self.group

    def _prepare(self, turns: Iterable[tuple["Driver", int, tuple[int, ...], int | None]]) -> None:
        """Prepare the draws of a pass's ``(driver, node, stream, round)``
        turns, replacing the last pass's; ``round`` is None for a turn no
        attack replaces (a Basil+ adopt).  One call hashes the keys ``[seed,
        tag, *stream]`` of each turn's driver: its batch's, its epoch orders'
        in epochs mode, and a Byzantine turn's attack's where the attack
        ``draws``.  The batches are drawn here, those of one length gathered
        in one ``Dataset.batch`` call that :meth:`activate` slices;
        :meth:`_keyed` takes the rest.  A turn that :meth:`_skips` at the pass
        start draws no batch or epoch order: a benign pool only grows within
        a pass, so it skips at its activation too."""
        draws, drawn, pools = [], [], {}
        for driver, node, stream, round_k in turns:
            if round_k is None or not self._skips(driver, node, round_k, pools):
                drawn.append((driver, node, stream))
                draws.append((driver, driver.BATCH_TAG, stream))
                if driver.epochs is not None:
                    draws.append((driver, TAG_EPOCH, stream))
            if round_k is not None and node in driver.byzantine and self.attack.draws(round_k):
                draws.append((driver, driver.ATTACK_TAG, stream))
        self._states = dict(zip(draws, keyed_states(
            [(driver.seed, tag, *stream) for driver, tag, stream in draws])))
        by_length: dict = {}
        for driver, node, stream in drawn:
            indices = local_batch(self.dataset, node, self.batch_size,
                                  self._keyed(driver, driver.BATCH_TAG, stream))
            by_length.setdefault(len(indices), []).append(((driver, stream), indices))
        self._batches = {}
        for batches in by_length.values():
            X, y = self.dataset.batch(np.array([indices for _, indices in batches]))
            for row, (turn, _) in enumerate(batches):
                self._batches[turn] = (X, y, row)

    def _keyed(self, driver: "Driver", tag: int, stream: tuple[int, ...]) -> np.random.Generator:
        """The generator, until the next call, in the state :meth:`_prepare`
        hashed for ``driver``'s key ``[seed, tag, *stream]``; a draw not
        prepared, or taken already, raises :class:`ProtocolError`."""
        state = self._states.pop((driver, tag, stream), None)
        if state is None:
            raise ProtocolError(f"no draw prepared for tag {tag:#x} of stream {stream}")
        return set_state(self._generator, state)

    def _skips(self, driver: "Driver", node: int, round_k: int, pools: dict) -> bool:
        """Whether ``node`` of ``driver`` draws, picks and updates nothing when
        it activates in round ``round_k``: it is Byzantine, and its attack
        ignores the pick given ``driver``'s benign pool, which is read into
        ``pools`` once per driver."""
        if node not in driver.byzantine:
            return False
        if driver not in pools:
            pools[driver] = driver._benign_pool()
        return ignores_honest_update(self.attack, benign_models=pools[driver], round_k=round_k)

    def activate(
        self, turns: Sequence[Turn], pick: Callable[..., Picks],
        update: Callable[..., list[ModelVector]], record: Callable[..., SelectionRecord] | None,
        round_k: int | None,
    ) -> list[tuple[ModelVector, Selection | None, tuple | None]]:
        """The wave ``turns``: each turn's ``pick(candidates, task, X, y)`` (as
        :func:`basil_select`) on its batch from ``[seed, BATCH_TAG, *stream]``
        of its driver, drawn by :meth:`_prepare`, then ``update(turns, picks,
        X, y)`` of those picks.  The turns whose batches share a length and
        whose candidate lists a length pick and update in one call, on their
        rows of the pass's block of batches, a list they all share passed
        once; each turn's batch is a view of those rows.  A turn whose batch
        was not drawn ahead, or was taken by an earlier activation, raises
        :class:`ProtocolError`.  Before any update, appends each turn's
        record ``record(group, node, benign, candidates, winners)`` to its
        driver's history, in turn order, unless ``record`` is None.

        In round ``round_k`` (None for no attack), a Byzantine node sends the
        attack of its update, a random one drawn from ``[seed, ATTACK_TAG,
        *stream]`` of its driver (:meth:`_keyed`), and picks and updates
        nothing when the attack ignores them; each driver's benign pool is
        read once per wave.  An attack that reads only that pool (the hidden
        one) is computed once per driver and pool: each driver keeps its last
        such output while its pool holds the same models, which it references
        weakly.  Returns each turn's output, selection and batch (None for a
        node that picked nothing)."""
        pools: dict = {}
        skip = [round_k is not None and self._skips(t.driver, t.node, round_k, pools)
                for t in turns]
        groups: dict = {}
        for i, t in enumerate(turns):
            if not skip[i]:
                prepared = self._batches.pop((t.driver, t.stream), None)
                if prepared is None:
                    raise ProtocolError(f"no batch drawn ahead for node {t.node}'s turn")
                X, y, row = prepared
                ids, rows = groups.setdefault((id(X), len(t.candidates)), (X, y, [], []))[2:]
                ids.append(i)
                rows.append(row)
        selections: list[Selection | None] = [None] * len(turns)
        batches: list[tuple | None] = [None] * len(turns)
        waves = []
        for X, y, ids, rows in groups.values():
            # consecutive rows are a view of the block, others a copy
            at = slice(rows[0], rows[0] + len(rows)) if rows == list(
                range(rows[0], rows[0] + len(rows))) else rows
            X, y = X[at], y[at]
            lists = [turns[j].candidates for j in ids]
            if all(c is lists[0] for c in lists[1:]):
                lists = lists[:1]
            picks = pick(lists, self.task, X, y)
            for r, (j, selection) in enumerate(zip(ids, picks.selections)):
                selections[j], batches[j] = selection, (X[r], y[r])
            waves.append((ids, picks, X, y))
        if record is not None:
            for turn, selection in zip(turns, selections):
                driver, node = turn.driver, turn.node
                driver.history.selections.append(record(
                    driver._group_of(node), node, node not in driver.byzantine,
                    *(selection[1:] if selection else ((), ()))))
        outputs: list[ModelVector | None] = [None] * len(turns)
        for ids, picks, X, y in waves:
            for j, out in zip(ids, update([turns[j] for j in ids], picks, X, y)):
                outputs[j] = out
        for i, t in enumerate(turns if pools else ()):
            if t.node not in t.driver.byzantine:
                continue
            pool = pools[t.driver]
            # an output that reads neither the update nor a stream reads the pool alone
            alone = skip[i] and not self.attack.draws(round_k)
            memo_pool, memo = t.driver._attack_memo
            if alone and len(memo_pool) == len(pool) and all(
                    r() is m for r, m in zip(memo_pool, pool)):
                outputs[i] = memo
                continue
            # a node that picked nothing hands in a model for its shape alone
            prior = selections[i].model if selections[i] else t.candidates[0][1]
            outputs[i] = apply_attack(
                self.attack, honest_update=outputs[i] or prior, prior=prior,
                benign_models=pool, round_k=round_k,
                rng=self._keyed(t.driver, t.driver.ATTACK_TAG, t.stream)
                if self.attack.draws(round_k) else None)
            if alone:
                # held weakly: a pool of outdated models is not kept alive
                t.driver._attack_memo = ([ref(m) for m in pool], outputs[i])
        return list(zip(outputs, selections, batches))

    def _end_pass(self, k: int, benign) -> None:
        """Score a pass's benign outputs, (driver, node, selected sender,
        output, batch) in order: the train loss of each on its batch, in one
        forward per batch shape, and the test accuracy of all in one call.
        Adds each output's row to its driver's history."""
        outs = [out for *_, out, _ in benign]
        losses = [0.0] * len(benign)
        for ids, X, y in _stack_by([batch for *_, batch in benign]):
            scores = score_wave([[outs[i]] for i in ids], self.task, X, y)
            for i, loss in zip(ids, scores.losses[:, 0].tolist()):
                losses[i] = loss
        test = self.test_set
        accs = (accuracy(outs, self.task, test.X, test.y, test)
                if test is not None else [None] * len(benign))
        for (driver, node, sender, *_), loss, acc in zip(benign, losses, accs):
            driver.history.rows.append(HistoryRow(k, node, sender, loss, acc, driver.group))

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

    def _update(self, turns, picks: Picks, X, y, lr: float) -> list[ModelVector]:
        """:func:`step_picks`, or ``epochs`` passes of mini-batch SGD over
        each node's local data, in orders drawn from its turn's epoch key."""
        if self.epochs is None:
            return step_picks(turns, picks, X, y, lr)
        return [t.driver._local_passes(s.model, t.node, lr,
                                       self._keyed(t.driver, TAG_EPOCH, t.stream))
                for t, s in zip(turns, picks.selections)]

    def _local_passes(self, model: ModelVector, node: int, lr: float,
                      rng: np.random.Generator) -> ModelVector:
        """``epochs`` passes of mini-batch SGD over ``node``'s local data
        (batch clamped to its size), each in an order drawn from ``rng``."""
        indices = self.dataset.node_indices(node)
        bs = min(self.batch_size or len(indices), len(indices))
        for _ in range(self.epochs):
            order = rng.permutation(indices)
            for start in range(0, len(order) - bs + 1, bs):
                bx, by = self.dataset.batch(order[start:start + bs])
                model = sgd_step(model, self.task, bx, by, lr)
        return model

    # -- protocol --------------------------------------------------------

    def _turn(self, position: int, k: int) -> Turn:
        """The turn at ``position`` of the ring order in round ``k``."""
        node = self.order[position]
        candidates = self.window.entries
        if len(self.window) < self.window.capacity:
            candidates = [*candidates, (None, self.latest_output[node])]
        return Turn(self, node, candidates, (node, k))

    def _emit(self, turn: Turn, out: ModelVector, selection: Selection | None, batch,
              benign: list) -> None:
        """Multicast ``turn``'s output; a benign node's joins the pool and
        ``benign``, the pass's (driver, node, selected sender, output, batch)."""
        node = turn.node
        if node not in self.byzantine:
            self.latest_benign[node] = out
            benign.append((self, node, selection.winners[0], out, batch))
        self.latest_output[node] = out
        self.window.insert(node, out)

    def run_round(self) -> None:
        run_rings([self])


def run_rings(rings: Sequence[BasilRing]) -> None:
    """One round of each ring, in lock-step: the turns at one position of
    every ring run as one wave.  No ring reads another's state, so the
    outputs are those of the rings run one after another.  The rings share
    their settings, size and connectivity, and each adds its records and
    rows to its own history."""
    lead = rings[0]
    k = lead.round_idx + 1
    # position-major, as the waves run, so that a wave's rows are consecutive
    lead._prepare((ring, node, (node, k), k)
                  for nodes in zip(*(ring.order for ring in rings))
                  for ring, node in zip(rings, nodes))
    update = partial(lead._update, lr=lead.lr_schedule(k))
    record = partial(SelectionRecord, k, "ring", fanout=lead.connectivity)
    # (driver, node, selected sender, output, batch) of each benign activation
    benign: list = []
    for position in range(len(lead.order)):
        turns = [ring._turn(position, k) for ring in rings]
        for turn, result in zip(turns, lead.activate(turns, basil_select, update, record, k)):
            turn.driver._emit(turn, *result, benign)
    lead._end_pass(k, benign)
    for ring in rings:
        ring.round_idx = k
