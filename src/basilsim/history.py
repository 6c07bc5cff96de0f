"""Run records: per-activation rows, one record per selection, the counters
and audit events derived from those records, and file export."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class HistoryRow:
    round: int
    node: int
    selected_sender: int | None
    train_loss: float
    test_acc: float | None
    group: int | None = None


@dataclass(frozen=True)
class SelectionRecord:
    """One pick: ``node`` scored ``candidates`` ((sender, loss) pairs, in the
    order offered), kept the senders in ``winners`` and sent its output to
    ``fanout`` nodes.

    ``stage`` is ``ring`` for a ring activation; ``aggregate``, ``multicast``
    or ``adopt`` for a Basil+ hand-off stage; ``graph`` for a benign graph
    node's round, whose candidates are the losses it scored (none for gossip)
    and whose winners are the neighbours it averaged.  ``round`` is the round
    of the loop that picked: under Basil+ a ring record's is the ring round
    (1..K·tau) and a stage record's the global round (1..K).

    A record with no candidates and no winners is a Byzantine ring,
    aggregate or multicast activation whose attack ignores the honest update
    (``attacks.ignores_honest_update``): the node scored nothing, took no
    step and sent its attack to ``fanout`` nodes.
    """

    round: int
    stage: str
    group: int | None
    node: int
    benign: bool
    candidates: tuple[tuple[int | None, float], ...]
    winners: tuple[int | None, ...]
    fanout: int


@dataclass
class TrainHistory:
    """Everything a run produced, in deterministic order."""

    manifest: dict = field(default_factory=dict)
    rows: list[HistoryRow] = field(default_factory=list)
    selections: list[SelectionRecord] = field(default_factory=list)

    @property
    def counters(self) -> dict[str, int]:
        """The ring's work: losses scored, models sent and FIFO inserts (one
        per successor, though the simulator stores each output once) and
        activations; empty when no ring activated.  A Byzantine activation
        whose attack ignores the honest update counts as an activation that
        sent its models and scored no loss."""
        ring = [s for s in self.selections if s.stage == "ring"]
        if not ring:
            return {}
        sent = sum(s.fanout for s in ring)
        return {"loss_evaluations": sum(len(s.candidates) for s in ring),
                "models_sent": sent, "fifo_inserts": sent, "activations": len(ring)}

    @property
    def events(self) -> list[dict]:
        """In selection order: a ``protocol-failure`` for each pick whose
        candidates all scored +inf, then a ``<stage>-select`` for each benign
        Basil+ stage pick."""
        events = []
        for s in self.selections:
            if s.candidates and all(loss == math.inf for _, loss in s.candidates):
                events.append({"event": "protocol-failure", "round": s.round,
                               "stage": s.stage, "group": s.group, "node": s.node})
            if s.benign and s.stage not in ("ring", "graph"):
                events.append({"event": f"{s.stage}-select", "round": s.round,
                               "group": s.group, "node": s.node, "sender": s.winners[0],
                               "losses": list(s.candidates)})
        return events

    def accuracy_series(self, stat: str = "worst") -> list[tuple[int, float]]:
        """Per-round benign test accuracy, reduced by ``worst`` or ``mean``."""
        by_round: dict[int, list[float]] = {}
        for r in self.rows:
            if r.test_acc is not None:
                by_round.setdefault(r.round, []).append(r.test_acc)
        return [(k, min(accs) if stat == "worst" else sum(accs) / len(accs))
                for k, accs in sorted(by_round.items())]

    def final_accuracy(self, stat: str = "worst") -> float:
        series = self.accuracy_series(stat)
        if not series:
            raise ValueError("history has no accuracy records")
        return series[-1][1]

    def _has_groups(self) -> bool:
        return any(r.group is not None for r in self.rows)

    def write_csv(self, path: str | Path) -> None:
        """One row per (round, active benign node); float formatting is repr-stable."""
        grouped = self._has_groups()
        header = ["round", "node", "selected_sender", "train_loss", "test_acc"]
        if grouped:
            header.insert(1, "group")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in self.rows:
                cells = [
                    r.round,
                    r.node,
                    "" if r.selected_sender is None else r.selected_sender,
                    repr(r.train_loss),
                    "" if r.test_acc is None else repr(r.test_acc),
                ]
                if grouped:
                    cells.insert(1, "" if r.group is None else r.group)
                writer.writerow(cells)

    def write_manifest(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_series_csv(self, path: str | Path, stat: str = "worst") -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", f"{stat}_benign_test_acc"])
            for k, acc in self.accuracy_series(stat):
                writer.writerow([k, repr(acc)])
