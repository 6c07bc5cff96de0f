"""Anonymous cyclic data sharing: grouping, ring rounds, cost accounting.

Nodes split into ``G`` ring groups.  Within a group the shared list makes
``H`` passes: each node removes its previous batch from the circulating
list, stores the rest, appends its next batch, shuffles, and forwards.  A
final dummy pass (placeholder batches, first ``n-2`` nodes forwarding)
delivers the last-round batches to the nodes that still miss them, then each
group's first node multicasts the gathered set to every other group.

The simulator keeps an omniscient delivery ledger per node, each stored batch
with its candidate-owner set, that protocol participants never see;
anonymity queries read that ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .data import Dataset
from .errors import ConfigError

TAG_GROUPS = 0xB0
TAG_SELECT = 0xB1
TAG_SHUFFLE = 0xB2


@dataclass(frozen=True)
class DataBatch:
    owner: int
    index: int  # 1-based pass number; dummies use H + 1
    sample_ids: tuple[int, ...]
    dummy: bool = False

    @property
    def key(self) -> tuple[int, int]:
        return (self.owner, self.index)

    def __len__(self) -> int:
        return len(self.sample_ids)


@dataclass(frozen=True)
class AcdsPlan:
    """Group assignment, per-node batch partition, and sharing geometry."""

    groups: tuple[tuple[int, ...], ...]
    alpha: float
    n_batches: int          # H
    batch_size: int         # M
    node_batches: dict[int, tuple[DataBatch, ...]]
    local_data_size: int    # D

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def group_size(self) -> int:
        return len(self.groups[0])

    @property
    def actual_shared_fraction(self) -> float:
        return self.n_batches * self.batch_size / self.local_data_size


def plan_acds(
    dataset: Dataset, node_ids, G: int, alpha: float, H: int, seed: int
) -> AcdsPlan:
    """Deterministic grouping plus per-node batch selection.

    Batch size is ``floor(alpha * D / H)``; the actual shared fraction after
    rounding is exposed on the plan.  Batches draw from non-sensitive samples
    only.
    """
    ids = sorted(node_ids)
    N = len(ids)
    if G < 1 or N % G != 0:
        raise ConfigError(f"group count {G} must divide node count {N}")
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    if H < 1:
        raise ConfigError("need at least one batch per node")
    if dataset.partition is None:
        raise ConfigError("dataset must be partitioned before planning")

    sizes = {len(dataset.partition[i]) for i in ids}
    if len(sizes) != 1:
        raise ConfigError("nodes must hold equally sized local datasets")
    D = sizes.pop()
    M = int(alpha * D / H + 1e-9)
    if M < 1:
        raise ConfigError(f"alpha*D/H = {alpha * D / H:.3f} rounds down to zero samples")

    perm = np.random.default_rng([int(seed), TAG_GROUPS]).permutation(np.asarray(ids))
    n = N // G
    groups = tuple(tuple(int(x) for x in perm[g * n:(g + 1) * n]) for g in range(G))

    node_batches: dict[int, tuple[DataBatch, ...]] = {}
    for node in ids:
        local = dataset.partition[node]
        pool = local[~dataset.sensitive[local]]
        if len(pool) < M * H:
            raise ConfigError(
                f"node {node} holds {len(pool)} non-sensitive samples, needs {M * H}"
            )
        rng = np.random.default_rng([int(seed), TAG_SELECT, node])
        picked = rng.choice(pool, size=M * H, replace=False)
        node_batches[node] = tuple(
            DataBatch(node, h + 1, tuple(int(s) for s in picked[h * M:(h + 1) * M]))
            for h in range(H)
        )
    return AcdsPlan(groups, alpha, H, M, node_batches, D)


def _dummy_batch(owner: int, H: int, M: int) -> DataBatch:
    ids = tuple(-(owner * M + j) - 1 for j in range(M))
    return DataBatch(owner, H + 1, ids, dummy=True)


@dataclass
class SharedPool:
    """Omniscient record of what every node received, sent, and could infer."""

    plan: AcdsPlan
    # per node, each stored batch with its candidate owners, in delivery order
    stored: dict[int, list[tuple[DataBatch, frozenset[int]]]] = field(default_factory=dict)
    # per node, the samples the closed-form cost model counts: all uploads plus
    # downloads during the global-sharing phase
    cost_samples: dict[int, int] = field(default_factory=dict)
    pre_dummy_missing: dict[int, frozenset[tuple[int, int]]] = field(default_factory=dict)

    def received_ids(self, node: int) -> list[int]:
        return [s for b, _ in self.stored[node] if not b.dummy for s in b.sample_ids]

    def dummy_sample_count(self, node: int) -> int:
        return sum(len(b) for b, _ in self.stored[node] if b.dummy)

    def comm_cost_bits(self, node: int, bits_per_sample: int) -> int:
        return self.cost_samples[node] * bits_per_sample

    def anonymity_histogram(self) -> dict[int, int]:
        """Received (non-dummy) samples per candidate-owner count."""
        hist: dict[int, int] = {}
        for stored in self.stored.values():
            for b, cands in stored:
                if not b.dummy:
                    hist[len(cands)] = hist.get(len(cands), 0) + len(b)
        return dict(sorted(hist.items()))

    def summary(self, bits_per_sample: int | None = None, bandwidth: float | None = None) -> dict:
        plan = self.plan
        out = {
            "groups": [list(g) for g in plan.groups],
            "alpha": plan.alpha,
            "actual_shared_fraction": plan.actual_shared_fraction,
            "batch_size": plan.batch_size,
            "batches_per_node": plan.n_batches,
            "received_counts": {
                str(i): len(self.received_ids(i)) for i in sorted(self.stored)
            },
            "anonymity_histogram": {str(k): v for k, v in self.anonymity_histogram().items()},
        }
        if bits_per_sample is not None:
            out["comm_cost_bits"] = {
                str(i): self.comm_cost_bits(i, bits_per_sample)
                for i in sorted(self.stored)
            }
            out["worst_case_cost_bits"] = acds_comm_cost(
                plan.actual_shared_fraction, plan.local_data_size, bits_per_sample,
                plan.n_batches, plan.group_size, plan.n_groups,
            )
            if bandwidth is not None:
                out["total_time_seconds"] = acds_comm_time(
                    plan.actual_shared_fraction, plan.local_data_size, bits_per_sample,
                    plan.n_batches, plan.group_size, plan.n_groups, bandwidth,
                )
        return out


def run_acds(plan: AcdsPlan, shuffle_seed: int = 0) -> SharedPool:
    """Execute the three sharing phases and return the omniscient pool."""
    pool = SharedPool(plan)
    all_nodes = [i for g in plan.groups for i in g]
    for node in all_nodes:
        pool.stored[node] = []
        pool.cost_samples[node] = 0

    H, M, n = plan.n_batches, plan.batch_size, plan.group_size
    position = {node: i for i, node in enumerate(all_nodes)}
    # delivered[node, owner, pass index, dummy]; dummies use pass H + 1
    delivered = np.zeros((len(all_nodes), len(all_nodes), H + 2, 2), dtype=bool)

    def store(node: int, batch: DataBatch, candidates: frozenset[int]) -> None:
        mark = (position[node], position[batch.owner], batch.index, int(batch.dummy))
        if delivered[mark]:
            raise AssertionError(f"batch {batch.key} delivered twice to node {node}")
        delivered[mark] = True
        pool.stored[node].append((batch, candidates))

    for gid, group in enumerate(plan.groups):
        rng = np.random.default_rng([int(shuffle_seed), TAG_SHUFFLE, gid])
        shared: list[DataBatch] = []

        def pass_through(node: int, incoming: DataBatch, remove_index: int,
                         candidates: frozenset[int]) -> None:
            if remove_index >= 1:
                own = [b for b in shared if b.key == (node, remove_index)]
                if not own:
                    raise AssertionError(f"node {node} batch {remove_index} missing from list")
                shared.remove(own[0])
            for b in list(shared):
                store(node, b, candidates)
            shared.append(incoming)
            rng.shuffle(shared)

        for h in range(1, H + 1):
            for pos, node in enumerate(group):
                cand = frozenset(group[:pos]) if h == 1 else frozenset(group) - {node}
                pass_through(node, plan.node_batches[node][h - 1], h - 1, cand)
                pool.cost_samples[node] += sum(len(b) for b in shared)

        all_keys = {b.key for m in group for b in plan.node_batches[m]}
        for node in group:
            mine = {b.key for b in plan.node_batches[node]}
            have = {b.key for b, _ in pool.stored[node] if not b.dummy}
            pool.pre_dummy_missing[node] = frozenset(all_keys - mine - have)

        # dummy pass: first n-1 nodes receive and store, first n-2 forward
        for pos, node in enumerate(group[:n - 1]):
            cand = frozenset(group) - {node}
            pass_through(node, _dummy_batch(node, H, M), H, cand)
            if pos < n - 2:
                pool.cost_samples[node] += sum(len(b) for b in shared)

    # global sharing: each group's first node multicasts all the group's batches
    for gid, group in enumerate(plan.groups):
        leader = group[0]
        content = [b for node in group for b in plan.node_batches[node]]
        pool.cost_samples[leader] += sum(len(b) for b in content)
        cand = frozenset(group)
        for other_gid, other_group in enumerate(plan.groups):
            if other_gid == gid:
                continue
            for node in other_group:
                pool.cost_samples[node] += sum(len(b) for b in content)
                for b in content:
                    store(node, b, cand)
    return pool


def anonymity_level(pool: SharedPool, node: int, sample_id: int) -> int:
    """Number of equally likely candidate owners for a received data point."""
    for b, cands in pool.stored[node]:
        if not b.dummy and sample_id in b.sample_ids:
            return len(cands)
    raise ConfigError(f"sample {sample_id} was not received by node {node}")


def _shared_bits(alpha: float, D: int, I: int, H: int, n: int, G: int) -> Fraction:
    """``alpha * D * I`` once the inputs check out, with ``alpha`` as its nearest
    simple rational so that decimal-looking floats stay exact."""
    if not 0 < alpha <= 1:
        raise ConfigError("alpha must lie in (0, 1]")
    for name, v in {"D": D, "I": I, "H": H, "n": n, "G": G}.items():
        if v <= 0:
            raise ConfigError(f"{name} must be positive")
    return Fraction(alpha).limit_denominator(10**9) * D * I


def acds_comm_cost(alpha: float, D: int, I: int, H: int, n: int, G: int) -> float:
    """Worst-case communication cost per node in bits."""
    return float(_shared_bits(alpha, D, I, H, n, G) * (Fraction(1, H) + n * (G + 1)))


def acds_comm_time(alpha: float, D: int, I: int, H: int, n: int, G: int, R: float) -> float:
    """Total seconds to complete all sharing phases at per-node bandwidth ``R`` b/s."""
    if not R > 0:  # NaN too
        raise ConfigError("bandwidth R must be positive")
    bracket = Fraction(n * n) * (Fraction(2 * H + 1, 2)) + n * (H * (G - 1) - Fraction(3, 2))
    return float(_shared_bits(alpha, D, I, H, n, G) * bracket / H) / R
