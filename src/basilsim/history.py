"""Run records: per-activation rows, audit events, and file export."""

from __future__ import annotations

import csv
import json
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
    #: (sender, evaluated loss) for every stored model considered, newest first
    candidate_losses: tuple[tuple[int | None, float], ...] = ()


@dataclass
class TrainHistory:
    """Everything a run produced, in deterministic order."""

    manifest: dict = field(default_factory=dict)
    rows: list[HistoryRow] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def add_row(self, row: HistoryRow) -> None:
        self.rows.append(row)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

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
