import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from basilsim.acds import (
    acds_comm_cost,
    acds_comm_time,
    anonymity_level,
    plan_acds,
    run_acds,
)
from basilsim.data import Dataset, flag_sensitive_by_class, make_cluster_dataset, partition
from basilsim.errors import ConfigError


def shared_dataset(n_nodes, per_node, classes=4, seed=0):
    n = n_nodes * per_node
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.standard_normal((n, 3)), rng.integers(0, classes, n))
    return partition(ds, n_nodes, "iid", seed)


class TestPlan:
    def test_eight_nodes_two_groups(self):
        ds = shared_dataset(8, 50)
        plan = plan_acds(ds, range(8), G=2, alpha=0.2, H=2, seed=0)
        assert plan.n_groups == 2 and plan.group_size == 4
        members = sorted(i for g in plan.groups for i in g)
        assert members == list(range(8))

    def test_remark_parameters_give_five_per_batch(self):
        ds = shared_dataset(4, 500)
        plan = plan_acds(ds, range(4), G=1, alpha=0.05, H=5, seed=0)
        assert plan.batch_size == 5
        assert plan.n_batches == 5

    def test_same_seed_same_plan(self):
        ds = shared_dataset(6, 40)
        a = plan_acds(ds, range(6), G=3, alpha=0.25, H=2, seed=5)
        b = plan_acds(ds, range(6), G=3, alpha=0.25, H=2, seed=5)
        assert a.groups == b.groups
        assert a.node_batches == b.node_batches

    def test_group_count_must_divide(self):
        ds = shared_dataset(6, 40)
        with pytest.raises(ConfigError):
            plan_acds(ds, range(6), G=4, alpha=0.2, H=2, seed=0)

    def test_rounding_records_actual_fraction(self):
        ds = shared_dataset(4, 50)
        plan = plan_acds(ds, range(4), G=2, alpha=0.13, H=3, seed=0)  # 6.5/3 -> 2
        assert plan.batch_size == 2
        assert plan.actual_shared_fraction == pytest.approx(6 / 50)

    def test_sensitive_samples_never_selected(self):
        ds = shared_dataset(4, 40, classes=4)
        ds = flag_sensitive_by_class(ds, 0.5)
        plan = plan_acds(ds, range(4), G=2, alpha=0.2, H=2, seed=1)
        for node, batches in plan.node_batches.items():
            for b in batches:
                assert not ds.sensitive[list(b.sample_ids)].any()

    def test_insufficient_non_sensitive_rejected(self):
        ds = shared_dataset(4, 40, classes=4)
        ds = flag_sensitive_by_class(ds, 0.0)  # everything sensitive
        with pytest.raises(ConfigError):
            plan_acds(ds, range(4), G=2, alpha=0.2, H=2, seed=1)


class TestRun:
    def test_figure_trace_n4_h2(self):
        # one group of four, two batches per node, then the dummy pass
        ds = shared_dataset(4, 50)
        plan = plan_acds(ds, range(4), G=1, alpha=0.2, H=2, seed=3)
        pool = run_acds(plan)
        g = plan.groups[0]
        missing = pool.pre_dummy_missing
        assert missing[g[0]] == {(g[1], 2), (g[2], 2), (g[3], 2)}
        assert missing[g[1]] == {(g[2], 2), (g[3], 2)}
        assert missing[g[2]] == {(g[3], 2)}
        assert missing[g[3]] == frozenset()
        # after the dummy pass nobody misses anything
        for node in g:
            mine = {b.key for b in plan.node_batches[node]}
            have = {b.key for b, _ in pool.stored[node] if not b.dummy}
            everything = {b.key for m in g for b in plan.node_batches[m]}
            assert everything - mine - have == set()

    def test_duplicate_delivery_is_asserted(self):
        ds = shared_dataset(4, 50)
        plan = plan_acds(ds, range(4), G=1, alpha=0.2, H=2, seed=3)
        owner = plan.groups[0][0]
        first, second = plan.node_batches[owner]
        # the second pass re-sends a batch under the first pass's key
        batches = {**plan.node_batches, owner: (first, replace(second, index=1))}
        with pytest.raises(AssertionError, match=r"delivered twice"):
            run_acds(replace(plan, node_batches=batches))

    def test_minimal_pair_exchange(self):
        ds = shared_dataset(2, 30)
        plan = plan_acds(ds, range(2), G=1, alpha=0.1, H=1, seed=0)
        pool = run_acds(plan)
        a, b = plan.groups[0]
        assert pool.received_ids(a) == list(plan.node_batches[b][0].sample_ids)
        assert pool.received_ids(b) == list(plan.node_batches[a][0].sample_ids)

    def test_every_node_gets_all_foreign_samples(self):
        ds = shared_dataset(8, 60)
        plan = plan_acds(ds, range(8), G=2, alpha=0.2, H=3, seed=7)
        pool = run_acds(plan, shuffle_seed=11)
        N, H, M = 8, 3, plan.batch_size
        for node in range(8):
            got = pool.received_ids(node)
            assert len(got) == len(set(got)) == (N - 1) * H * M
            foreign = {
                s for other in range(8) if other != node
                for b in plan.node_batches[other] for s in b.sample_ids
            }
            assert set(got) == foreign

    def test_own_batches_never_stored(self):
        ds = shared_dataset(6, 40)
        plan = plan_acds(ds, range(6), G=2, alpha=0.2, H=2, seed=2)
        pool = run_acds(plan)
        for node in range(6):
            own = {b.key for b in plan.node_batches[node]}
            stored = {b.key for b, _ in pool.stored[node]}
            assert own.isdisjoint(stored)

    def test_shuffle_seed_never_changes_the_multiset(self):
        ds = shared_dataset(6, 40)
        plan = plan_acds(ds, range(6), G=2, alpha=0.2, H=2, seed=2)
        pools = [run_acds(plan, shuffle_seed=s) for s in (0, 1, 99)]
        for node in range(6):
            expect = sorted(pools[0].received_ids(node))
            for pool in pools[1:]:
                assert sorted(pool.received_ids(node)) == expect

    def test_dummy_content_flagged_and_separated(self):
        ds = shared_dataset(4, 50)
        plan = plan_acds(ds, range(4), G=1, alpha=0.2, H=2, seed=3)
        pool = run_acds(plan)
        g = plan.groups[0]
        # second and later dummy receivers see earlier nodes' dummies
        assert pool.dummy_sample_count(g[1]) == plan.batch_size
        assert pool.dummy_sample_count(g[2]) == 2 * plan.batch_size
        assert pool.dummy_sample_count(g[0]) == 0
        for node in g:
            assert all(s >= 0 for s in pool.received_ids(node))


class TestAnonymity:
    def test_first_round_provenance_counts_predecessors(self):
        ds = shared_dataset(4, 50)
        plan = plan_acds(ds, range(4), G=1, alpha=0.2, H=2, seed=3)
        pool = run_acds(plan)
        g = plan.groups[0]
        first_batch_of_leader = plan.node_batches[g[0]][0]
        for pos, node in enumerate(g[1:], start=2):
            for s in first_batch_of_leader.sample_ids:
                assert anonymity_level(pool, node, s) == pos - 1

    def test_later_rounds_are_n_minus_one(self):
        ds = shared_dataset(8, 60)
        plan = plan_acds(ds, range(8), G=2, alpha=0.2, H=3, seed=7)
        pool = run_acds(plan)
        n = plan.group_size
        for group in plan.groups:
            for node in group:
                for other in group:
                    if other == node:
                        continue
                    for b in plan.node_batches[other][1:]:  # rounds >= 2
                        for s in b.sample_ids:
                            assert anonymity_level(pool, node, s) == n - 1

    def test_two_node_group_has_anonymity_one(self):
        ds = shared_dataset(2, 30)
        plan = plan_acds(ds, range(2), G=1, alpha=0.1, H=2, seed=0)
        pool = run_acds(plan)
        a, b = plan.groups[0]
        for s in pool.received_ids(a):
            assert anonymity_level(pool, a, s) == 1

    def test_unreceived_sample_rejected(self):
        ds = shared_dataset(2, 30)
        plan = plan_acds(ds, range(2), G=1, alpha=0.1, H=1, seed=0)
        pool = run_acds(plan)
        a = plan.groups[0][0]
        own_sample = plan.node_batches[a][0].sample_ids[0]
        with pytest.raises(ConfigError):
            anonymity_level(pool, a, own_sample)

    def test_minimum_anonymity_only_from_round_one(self):
        ds = shared_dataset(8, 60)
        plan = plan_acds(ds, range(8), G=2, alpha=0.2, H=3, seed=7)
        pool = run_acds(plan)
        n = plan.group_size
        for group in plan.groups:
            for node in group:
                pos = group.index(node)
                for b, cands in pool.stored[node]:
                    if b.dummy or len(cands) >= n - 1:
                        continue
                    # must be a round-1 batch from a predecessor
                    for s in b.sample_ids:
                        owners = [
                            m for m in group
                            if s in plan.node_batches[m][0].sample_ids
                        ]
                        assert owners and group.index(owners[0]) < pos


#: sha256 of pool_json at the benchmark's ACDS shape, per seed
POOL_DIGESTS = {
    6: "6f558b1e2e478a048d9679ad5de531ec3f2db6e64582a491d93948d2de146dc0",
    2027: "9095e3afe2f45d791043696943b9d67b0a692b34c56e1cfcd13ca4fed82b27a2",
}


def pool_json(seed):
    """Canonical JSON of a pool at N=100, G=4, alpha=0.1, H=4, D=200: the
    summary, each node's received ids, dummy count and pre-dummy missing set,
    and the anonymity level of every sample received by four nodes a group."""
    N, D = 100, 200
    ds = partition(make_cluster_dataset(N * D, 10, 8, 2.0, seed), N, "iid", seed)
    plan = plan_acds(ds, range(N), G=4, alpha=0.1, H=4, seed=seed)
    pool = run_acds(plan, shuffle_seed=seed)
    n = plan.group_size
    spread = [g[pos] for g in plan.groups for pos in (0, 1, n // 2, n - 1)]
    anonymity = {}
    for node in spread:
        # one pass over the node's deliveries; a sample's level is that of its
        # first real batch, as anonymity_level finds it
        level = {}
        for batch, cands in pool.stored[node]:
            if not batch.dummy:
                for s in batch.sample_ids:
                    level.setdefault(s, len(cands))
        received = pool.received_ids(node)
        for s in (received[0], received[-1]):
            assert anonymity_level(pool, node, s) == level[s]
        anonymity[str(node)] = [level[s] for s in received]
    out = {
        "summary": pool.summary(24500, 1e8),
        "nodes": {str(node): [pool.received_ids(node), pool.dummy_sample_count(node),
                              sorted(pool.pre_dummy_missing[node])]
                  for node in range(N)},
        "anonymity": anonymity,
    }
    return json.dumps(out, sort_keys=True)


@pytest.mark.parametrize("seed", sorted(POOL_DIGESTS))
def test_pool_is_pinned(seed):
    digest = hashlib.sha256(pool_json(seed).encode()).hexdigest()
    assert digest == POOL_DIGESTS[seed]


class TestCostAccounting:
    def test_remark_parameters_bit_count(self):
        assert acds_comm_cost(0.05, 500, 24500, 5, 25, 4) == 76_685_000

    def test_cost_scales_linearly_in_bits(self):
        base = acds_comm_cost(0.05, 500, 1000, 5, 25, 4)
        assert acds_comm_cost(0.05, 500, 2000, 5, 25, 4) == 2 * base

    def test_cost_vanishes_with_alpha(self):
        costs = [acds_comm_cost(a, 500, 24500, 5, 25, 4) for a in (1e-3, 1e-6, 1e-9)]
        assert costs[0] > costs[1] > costs[2]
        assert costs[2] < 1e-5 * costs[0]

    def test_simulated_leader_traffic_matches_formula_exactly(self):
        rng = np.random.default_rng(0)
        cases = 0
        while cases < 10:
            n = int(rng.integers(3, 6))
            G = int(rng.integers(1, 4))
            H = int(rng.integers(1, 4))
            M = int(rng.integers(1, 4))
            D = M * H * int(rng.integers(2, 5))
            N = n * G
            alpha = M * H / D
            ds = shared_dataset(N, D, seed=cases)
            plan = plan_acds(ds, range(N), G=G, alpha=alpha, H=H, seed=cases)
            assert plan.batch_size == M
            pool = run_acds(plan, shuffle_seed=cases)
            I = int(rng.integers(8, 64))
            for g in plan.groups:
                leader = g[0]
                assert pool.comm_cost_bits(leader, I) == acds_comm_cost(
                    alpha, D, I, H, n, G)
                # the leader is the worst case within its group
                assert all(
                    pool.comm_cost_bits(m, I) <= pool.comm_cost_bits(leader, I)
                    for m in g
                )
            cases += 1


class TestTimeModel:
    def test_remark_parameters_hand_substitution(self):
        # independent evaluation with exact rationals
        a, D, I, H, n, G, R = Fraction(1, 20), 500, 24500, 5, 25, 4, 10**8
        bracket = n * n * (H + Fraction(1, 2)) + n * (H * (G - 1) - Fraction(3, 2))
        expect = float(a * D * I * bracket / (H * R))
        got = acds_comm_time(0.05, 500, 24500, 5, 25, 4, 1e8)
        assert got == pytest.approx(expect, rel=1e-10)
        assert got == pytest.approx(4.624375, rel=1e-9)

    def test_time_vanishes_with_bandwidth(self):
        assert acds_comm_time(0.05, 500, 24500, 5, 25, 4, 1e15) < 1e-4

    def test_degenerate_single_node_is_zero(self):
        assert acds_comm_time(0.5, 10, 8, 1, 1, 1, 100.0) == pytest.approx(0.0)

    def test_invalid_bandwidth_rejected(self):
        for R in (0.0, float("nan")):
            with pytest.raises(ConfigError):
                acds_comm_time(0.05, 500, 24500, 5, 25, 4, R)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5, 2.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        for formula, rate in ((acds_comm_cost, ()), (acds_comm_time, (1e8,))):
            with pytest.raises(ConfigError, match="alpha"):
                formula(alpha, 500, 24500, 5, 25, 4, *rate)

    def test_alpha_one_shares_all_local_data(self):
        assert acds_comm_cost(1.0, 500, 24500, 5, 25, 4) == 20 * 76_685_000

    @pytest.mark.parametrize("name", ["D", "I", "H", "n", "G"])
    def test_nonpositive_size_rejected(self, name):
        sizes = {"D": 500, "I": 24500, "H": 5, "n": 25, "G": 4, name: 0}
        with pytest.raises(ConfigError, match=f"^{name} must be positive"):
            acds_comm_time(0.05, **sizes, R=1e8)
