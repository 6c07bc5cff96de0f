"""Datasets, per-node partitioning, and synthetic data generators."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError


@dataclass
class Dataset:
    """Sample store plus an optional node -> sample-index partition map.

    ``sensitive`` marks samples a node would refuse to share (see the data
    sharing protocol); everything defaults to non-sensitive.  Sample identity
    is the row index, which stays stable across partitioning.
    """

    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray = field(default=None)
    partition: dict[int, np.ndarray] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ConfigError("features must be (n, dim) aligned with labels")
        if self.sensitive is None:
            self.sensitive = np.zeros(len(self.labels), dtype=bool)
        else:
            self.sensitive = np.asarray(self.sensitive, dtype=bool)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def node_indices(self, node: int) -> np.ndarray:
        if self.partition is None:
            raise ConfigError("dataset has no partition map")
        return self.partition[node]

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.features[indices], self.labels[indices]


def partition(dataset: Dataset, n_nodes: int, mode: str, seed: int) -> Dataset:
    """Split samples into equal disjoint per-node shards.

    ``iid`` shuffles with the seed before splitting; ``non-iid`` sorts by
    label and hands each node one contiguous block.  Trailing samples that do
    not divide evenly are dropped so every node holds the same count.
    """
    n = len(dataset)
    if n_nodes <= 0:
        raise ConfigError("n_nodes must be positive")
    if n_nodes > n:
        raise ConfigError(f"n_nodes {n_nodes} exceeds sample count {n}")
    if mode not in ("iid", "non-iid"):
        raise ConfigError(f"unknown partition mode {mode!r}")

    per_node = n // n_nodes
    usable = per_node * n_nodes
    if mode == "iid":
        order = np.random.default_rng([int(seed), 0x1D]).permutation(n)
    else:
        order = np.argsort(dataset.labels, kind="stable")
    order = order[:usable]
    part = {i: np.sort(order[i * per_node:(i + 1) * per_node]) for i in range(n_nodes)}
    return replace(dataset, partition=part)


def make_cluster_dataset(
    n_samples: int,
    n_classes: int,
    dim: int,
    separation: float,
    seed: int,
    class_std: float = 1.0,
) -> Dataset:
    """Gaussian class clusters: class means on a sphere of radius ``separation``."""
    if n_classes < 2 or dim < 1 or n_samples < n_classes:
        raise ConfigError("cluster dataset needs >=2 classes and >=1 sample per class")
    rng = np.random.default_rng([int(seed), 0xC1])
    means = rng.standard_normal((n_classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.integers(0, n_classes, size=n_samples)
    # the same sums as means[labels] + class_std * noise, computed in place
    # with 128 KiB temporaries instead of three more (n, dim) arrays
    feats = rng.standard_normal((n_samples, dim))
    feats *= class_std
    rows = max(1, (1 << 14) // dim)
    for start in range(0, n_samples, rows):
        feats[start:start + rows] += means[labels[start:start + rows]]
    return Dataset(feats, labels)


def make_quadratic_dataset(n_samples: int, dim: int, seed: int) -> Dataset:
    """Noise-direction samples for the quadratic task, centred to mean zero."""
    rng = np.random.default_rng([int(seed), 0x0D])
    eps = rng.standard_normal((n_samples, dim))
    eps -= eps.mean(axis=0)
    return Dataset(eps, np.zeros(n_samples, dtype=np.int64))


def flag_sensitive_by_class(dataset: Dataset, gamma: float) -> Dataset:
    """Mark the trailing ``1-gamma`` fraction of label classes as sensitive.

    Mirrors the per-subclass split used for heterogeneous-data sharing
    experiments: the first ``ceil(gamma * n_classes)`` labels (in sorted label
    order) stay shareable, the rest never leave their owner.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("gamma must lie in [0, 1]")
    classes = np.unique(dataset.labels)
    n_open = int(np.ceil(gamma * len(classes)))
    return replace(dataset, sensitive=~np.isin(dataset.labels, classes[:n_open]))
