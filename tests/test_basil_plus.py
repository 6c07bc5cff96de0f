import numpy as np
import pytest

from basilsim.attacks import AttackSpec
from basilsim.basil_plus import (
    BasilPlusDriver,
    GroupConfig,
    GroupState,
    circular_aggregate,
    cluster_nodes,
    robust_multicast,
)
from basilsim.data import make_cluster_dataset, make_quadratic_dataset, partition
from basilsim.errors import ConfigError
from basilsim.models import QuadraticTask, SoftmaxTask, evaluate_loss
from basilsim.ring import constant_lr


def scalar_task():
    return QuadraticTask(np.ones(1), np.zeros(1))


def scalar_batch(_node=None, _stage=None):
    return np.zeros((1, 1)), np.zeros(1, dtype=np.int64)


def scalar_states(values, members_per_group=2, S=1):
    """One state per value; every member's model/aggregate set to the value."""
    states = []
    nid = 0
    task = scalar_task()
    for g, v in enumerate(values):
        members = tuple(range(nid, nid + members_per_group))
        nid += members_per_group
        state = GroupState(g, members, S)
        for m in members:
            state.models[m] = task.make_model([float(v)])
            state.aggregates[m] = task.make_model([float(v)])
        states.append(state)
    return states


class TestClusterNodes:
    def test_even_split_disjoint(self):
        states = cluster_nodes(range(4), 2, seed=0)
        assert len(states) == 2
        all_members = sorted(m for s in states for m in s.members)
        assert all_members == [0, 1, 2, 3]
        assert len(states[0].members) == len(states[1].members) == 2

    def test_same_seed_same_clustering(self):
        a = cluster_nodes(range(12), 3, seed=4)
        b = cluster_nodes(range(12), 3, seed=4)
        assert [s.members for s in a] == [s.members for s in b]

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            cluster_nodes(range(10), 3, seed=0)

    def test_tail_and_head_sets(self):
        state = GroupState(0, (4, 9, 2, 7), connectivity=2)
        assert state.tail_set == (2, 7)
        assert state.head_set == (4, 9)


class TestCircularAggregate:
    def test_scalar_telescoping_to_global_mean(self):
        states = scalar_states([1.0, 2.0, 3.0])
        circular_aggregate(states, scalar_task(), scalar_batch)
        for node in states[-1].tail_set:
            assert states[-1].aggregates[node].params[0] == pytest.approx(2.0, abs=1e-10)

    def test_telescoping_with_wider_tails(self):
        states = scalar_states([4.0, 8.0, 12.0, 16.0], members_per_group=3, S=2)
        circular_aggregate(states, scalar_task(), scalar_batch)
        for node in states[-1].tail_set:
            assert states[-1].aggregates[node].params[0] == pytest.approx(10.0, abs=1e-10)

    def test_single_group_is_noop(self):
        states = scalar_states([5.0])
        before = {m: states[0].aggregates[m].params.copy() for m in states[0].members}
        circular_aggregate(states, scalar_task(), scalar_batch)
        for m in states[0].members:
            assert np.array_equal(states[0].aggregates[m].params, before[m])


class TestRobustMulticast:
    def test_unanimous_aggregate_adopted_everywhere(self):
        states = scalar_states([7.0, 7.0, 7.0], members_per_group=3, S=2)
        adopted = robust_multicast(states, scalar_task(), scalar_batch)
        assert adopted  # every head node present
        for state in states:
            for node in state.head_set:
                assert state.models[node].params[0] == pytest.approx(7.0)

    def test_single_faulty_candidate_never_adopted(self):
        task = scalar_task()
        states = scalar_states([1.0, 1.0], members_per_group=4, S=3)
        bad_node = states[-1].tail_set[1]
        states[-1].aggregates[bad_node] = task.make_model([500.0])  # huge loss
        adopted = robust_multicast(states, task, scalar_batch)
        for node, model in adopted.items():
            assert model.params[0] != pytest.approx(500.0)
            assert model.params[0] == pytest.approx(1.0)

    def test_single_group_hands_off_filtered_aggregate(self):
        states = scalar_states([3.0], members_per_group=3, S=2)
        adopted = robust_multicast(states, scalar_task(), scalar_batch)
        for node in states[0].head_set:
            assert adopted[node].params[0] == pytest.approx(3.0)


def quad_group_setup(n_nodes=8, groups=2, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    task = QuadraticTask(rng.uniform(0.4, 1.0, dim), rng.standard_normal(dim))
    dataset = partition(make_quadratic_dataset(n_nodes * 20, dim, seed),
                        n_nodes, "iid", seed)
    return task, dataset


class TestDriver:
    def test_tau_zero_single_round_keeps_initial_model(self):
        task, dataset = quad_group_setup()
        config = GroupConfig(n_nodes=8, n_groups=2, seed=1)
        driver = BasilPlusDriver(config, task, dataset, tau=0, batch_size=None)
        x0 = task.initial_model(config.seed)
        driver.run(1)
        for state in driver.groups:
            for m in state.members:
                np.testing.assert_allclose(state.models[m].params, x0.params)

    def test_quadratic_suboptimality_strictly_decreases(self):
        task, dataset = quad_group_setup()
        config = GroupConfig(n_nodes=8, n_groups=2, seed=2)
        driver = BasilPlusDriver(
            config, task, dataset, tau=1,
            lr_schedule=constant_lr(1.0 / task.smoothness), batch_size=None,
        )
        X, y = dataset.batch(np.arange(len(dataset)))
        values = []
        for _ in range(5):
            driver.run_global_round()
            mean = np.mean([
                evaluate_loss(state.models[m], task, X, y)
                for state in driver.groups for m in state.members
            ])
            values.append(mean)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_default_connectivity_rule(self):
        assert GroupConfig(n_nodes=20, n_groups=4, n_byzantine=2).resolved_connectivity == 3
        assert GroupConfig(n_nodes=20, n_groups=4, n_byzantine=9).resolved_connectivity == 4

    def test_gaussian_tail_never_selected_downstream(self):
        ds = make_cluster_dataset(1200, 4, 6, separation=3.0, seed=5)
        from basilsim.data import Dataset
        train = partition(Dataset(ds.features[:900], ds.labels[:900]), 6, "iid", 5)
        task = SoftmaxTask(6, 4)
        byz = frozenset({4})
        config = GroupConfig(n_nodes=6, n_groups=2, n_byzantine=1, connectivity=2,
                             seed=5, byzantine_ids=byz)
        driver = BasilPlusDriver(config, task, train, tau=2,
                                 attack=AttackSpec.make("gaussian"), batch_size=40)
        driver.run(3)
        selects = [e for e in driver.history.events if e["event"].endswith("-select")]
        assert selects
        for event in selects:
            if event["round"] >= 1:
                assert event["sender"] not in byz

    def test_history_rows_carry_group_ids(self):
        task, dataset = quad_group_setup()
        config = GroupConfig(n_nodes=8, n_groups=2, seed=3)
        history = BasilPlusDriver(config, task, dataset, tau=1, batch_size=None).run(2)
        groups_seen = {r.group for r in history.rows}
        assert groups_seen == {0, 1}

    def test_bit_identical_reruns(self):
        task, dataset = quad_group_setup()
        config = GroupConfig(n_nodes=8, n_groups=2, n_byzantine=1, seed=4)
        kw = dict(tau=1, attack=AttackSpec.make("gaussian"), batch_size=10)
        h1 = BasilPlusDriver(config, task, dataset, **kw).run(3)
        h2 = BasilPlusDriver(config, task, dataset, **kw).run(3)
        assert h1.rows == h2.rows

    def test_epoch_mode_runs(self):
        task, dataset = quad_group_setup()
        config = GroupConfig(n_nodes=8, n_groups=2, seed=6)
        history = BasilPlusDriver(config, task, dataset, tau=1,
                                  epochs=2, batch_size=10).run(1)
        assert len(history.rows) == 8

    @pytest.mark.parametrize("batch_size", [10, 20, 21, 80, None])
    def test_epoch_mode_trains_when_batch_exceeds_local_data(self, batch_size):
        task, dataset = quad_group_setup()  # 20 samples per node
        config = GroupConfig(n_nodes=8, n_groups=2, seed=6)
        driver = BasilPlusDriver(config, task, dataset, tau=1, epochs=2,
                                 batch_size=batch_size)
        x0 = task.initial_model(config.seed)
        driver.run(1)
        for ring in driver.rings.values():
            for node in ring.node_ids:
                assert not np.array_equal(ring.latest_output[node].params, x0.params)

    @pytest.mark.parametrize("n_byzantine", [0, 2])
    def test_epoch_mode_counts_like_single_step(self, n_byzantine):
        task, dataset = quad_group_setup()
        config = GroupConfig(n_nodes=8, n_groups=2, n_byzantine=n_byzantine, seed=6)
        kw = dict(tau=2, attack=AttackSpec.make("gaussian"), batch_size=10)
        single = BasilPlusDriver(config, task, dataset, **kw).run(2)
        epochs = BasilPlusDriver(config, task, dataset, epochs=2, **kw).run(2)
        assert epochs.counters["activations"] == 8 * 2 * 2
        assert epochs.counters == single.counters

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        task, dataset = quad_group_setup()
        config = GroupConfig(n_nodes=8, n_groups=2, seed=6)
        with pytest.raises(ConfigError, match="epochs"):
            BasilPlusDriver(config, task, dataset, epochs=epochs)
