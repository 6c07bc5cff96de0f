import math

import numpy as np
import pytest

from basilsim.attacks import AttackSpec
from basilsim.basil_plus import BasilPlusDriver, cluster_nodes
from basilsim.data import make_cluster_dataset, make_quadratic_dataset, partition
from basilsim.errors import ConfigError
from basilsim.models import QuadraticTask, SoftmaxTask, evaluate_loss
from basilsim.ring import constant_lr, sample_byzantine_ids
from test_ring import assert_skips_are_the_attacks_that_ignore_the_pick


def scalar_task():
    return QuadraticTask(np.ones(1), np.zeros(1))


def scalar_driver(values, members_per_group=2, S=1):
    """A driver at tau = 0 with one group per value and every member's model
    set to its group's value, so a global round runs only the hand-off stages."""
    task = scalar_task()
    n = len(values) * members_per_group
    dataset = partition(make_quadratic_dataset(10 * n, 1, 0), n, "iid", 0)
    driver = BasilPlusDriver(len(values), frozenset(), S, 0, task, dataset, n_nodes=n,
                             tau=0, batch_size=None)
    for ring, v in zip(driver.rings, values):
        for m in ring.order:
            ring.latest_output[m] = task.make_model([float(v)])
    return driver


def head_values(driver):
    return {node: ring.latest_output[node].params[0]
            for ring in driver.rings for node in ring.order[:ring.connectivity]}


class TestClusterNodes:
    def test_even_split_disjoint(self):
        orders = cluster_nodes(range(4), 2, seed=0)
        assert len(orders) == 2
        assert sorted(m for order in orders for m in order) == [0, 1, 2, 3]
        assert len(orders[0]) == len(orders[1]) == 2

    def test_same_seed_same_clustering(self):
        assert cluster_nodes(range(12), 3, seed=4) == cluster_nodes(range(12), 3, seed=4)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            cluster_nodes(range(10), 3, seed=0)

    def test_tail_and_head_sets(self):
        # the last S members of each ring order send, the first S receive
        driver = scalar_driver([1.0, 2.0], members_per_group=4, S=2)
        first, second = driver.rings
        for ring in driver.rings:
            for m in ring.order:
                ring.latest_output[m] = scalar_task().make_model([float(m)])
        before = {m: r.latest_output[m] for r in driver.rings for m in r.order}
        driver.run_global_round()
        events = driver.history.events
        stage = {name: [e for e in events if e["event"] == f"{name}-select"]
                 for name in ("aggregate", "multicast", "adopt")}
        assert [e["node"] for e in stage["aggregate"]] == list(second.order[-2:])
        assert {e["sender"] for e in stage["aggregate"]} <= set(first.order[-2:])
        assert [e["node"] for e in stage["multicast"]] == list(first.order[-2:])
        assert {e["sender"] for e in stage["multicast"]} <= set(second.order[-2:])
        assert [e["node"] for e in stage["adopt"]] == [*first.order[:2], *second.order[:2]]
        assert {e["sender"] for e in stage["adopt"]} <= set(first.order[-2:])
        changed = {m for r in driver.rings for m in r.order
                   if r.latest_output[m] is not before[m]}
        assert changed <= {*first.order[:2], *second.order[:2]}


class TestCircularAggregate:
    def test_scalar_telescoping_to_global_mean(self):
        driver = scalar_driver([1.0, 2.0, 3.0])
        driver.run_global_round()
        for value in head_values(driver).values():
            assert value == pytest.approx(2.0, abs=1e-10)

    def test_telescoping_with_wider_tails(self):
        driver = scalar_driver([4.0, 8.0, 12.0, 16.0], members_per_group=3, S=2)
        driver.run_global_round()
        for value in head_values(driver).values():
            assert value == pytest.approx(10.0, abs=1e-10)

    def test_single_group_is_noop(self):
        # one group: its heads adopt a tail's own model, not an average
        driver = scalar_driver([5.0])
        ring = driver.rings[0]
        head, tail = ring.order
        ring.latest_output[head] = scalar_task().make_model([9.0])
        before = ring.latest_output[tail].params.copy()
        driver.run_global_round()
        assert np.array_equal(ring.latest_output[head].params, before)
        assert np.array_equal(ring.latest_output[tail].params, before)


class TestRobustMulticast:
    def test_unanimous_aggregate_adopted_everywhere(self):
        driver = scalar_driver([7.0, 7.0, 7.0], members_per_group=3, S=2)
        driver.run_global_round()
        heads = head_values(driver)
        assert len(heads) == 3 * 2  # every head node present
        for value in heads.values():
            assert value == pytest.approx(7.0)

    def test_single_faulty_candidate_never_adopted(self):
        driver = scalar_driver([1.0, 1.0], members_per_group=4, S=3)
        last = driver.rings[-1]
        bad_node = last.order[-3:][1]
        # its running average is (999 + 1 * 1) / 2 = 500, a huge loss
        last.latest_output[bad_node] = scalar_task().make_model([999.0])
        driver.run_global_round()
        aggregates = {e["sender"] for e in driver.history.events
                      if e["event"] == "multicast-select"}
        assert bad_node not in aggregates
        for value in head_values(driver).values():
            assert value != pytest.approx(500.0)
            assert value == pytest.approx(1.0)

    def test_single_group_hands_off_filtered_aggregate(self):
        driver = scalar_driver([3.0], members_per_group=3, S=2)
        driver.run_global_round()
        for value in head_values(driver).values():
            assert value == pytest.approx(3.0)


class TestNonFiniteStagePicks:
    def test_all_infinite_candidates_raise_a_protocol_failure(self):
        # group 0's models are +inf, so every stage pick scores only +inf
        driver = scalar_driver([math.inf, 2.0])
        driver.run_global_round()
        stage = [r for r in driver.history.selections if r.stage != "ring"]
        assert [r.stage for r in stage] == ["aggregate", "multicast", "adopt", "adopt"]
        assert all(loss == math.inf for r in stage for _, loss in r.candidates)
        # each pick's failure comes before its select event
        assert [e["event"] for e in driver.history.events] == [
            "protocol-failure", "aggregate-select", "protocol-failure", "multicast-select",
            "protocol-failure", "adopt-select", "protocol-failure", "adopt-select"]
        failures = [e for e in driver.history.events if e["event"] == "protocol-failure"]
        assert failures == [{"event": "protocol-failure", "round": 1, "stage": r.stage,
                             "group": r.group, "node": r.node} for r in stage]
        # group 1's tail aggregates, group 0's tail multicasts, each group's head adopts
        assert [(e["stage"], e["group"]) for e in failures] == [
            ("aggregate", 1), ("multicast", 0), ("adopt", 0), ("adopt", 1)]
        # the heads still adopt the pick; the events are what make it visible
        assert all(math.isinf(v) for v in head_values(driver).values())


def quad_group_setup(n_nodes=8, groups=2, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    task = QuadraticTask(rng.uniform(0.4, 1.0, dim), rng.standard_normal(dim))
    dataset = partition(make_quadratic_dataset(n_nodes * 20, dim, seed),
                        n_nodes, "iid", seed)
    return task, dataset


class TestDriver:
    def test_tau_zero_single_round_keeps_initial_model(self):
        task, dataset = quad_group_setup()
        driver = BasilPlusDriver(2, frozenset(), 1, 1, task, dataset, n_nodes=8,
                                 tau=0, batch_size=None)
        x0 = task.initial_model(1)
        driver.run(1)
        for ring in driver.rings:
            for m in ring.order:
                np.testing.assert_allclose(ring.latest_output[m].params, x0.params)

    def test_quadratic_suboptimality_strictly_decreases(self):
        task, dataset = quad_group_setup()
        driver = BasilPlusDriver(
            2, frozenset(), 1, 2, task, dataset, n_nodes=8, tau=1,
            lr_schedule=constant_lr(1.0 / task.smoothness), batch_size=None,
        )
        X, y = dataset.batch(np.arange(len(dataset)))
        values = []
        for _ in range(5):
            driver.run_global_round()
            mean = np.mean([
                evaluate_loss(ring.latest_output[m], task, X, y)
                for ring in driver.rings for m in ring.order
            ])
            values.append(mean)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rings_restart_from_their_latest_outputs(self):
        # each queue holds only its node's start model when a global round begins
        task, dataset = quad_group_setup()
        driver = BasilPlusDriver(2, frozenset(), 1, 1, task, dataset, n_nodes=8, tau=1,
                                 batch_size=None)
        history = driver.run(2)
        for ring in driver.rings:
            head = [r for r in history.rows if r.round == 2 and r.node == ring.order[0]]
            assert [r.selected_sender for r in head] == [None]

    def test_gaussian_tail_never_selected_downstream(self):
        ds = make_cluster_dataset(1200, 4, 6, separation=3.0, seed=5)
        from basilsim.data import Dataset
        train = partition(Dataset(ds.features[:900], ds.labels[:900]), 6, "iid", 5)
        task = SoftmaxTask(6, 4)
        byz = frozenset({4})
        driver = BasilPlusDriver(2, byz, 2, 5, task, train, n_nodes=6, tau=2,
                                 attack=AttackSpec.make("gaussian"), batch_size=40)
        driver.run(3)
        selects = [e for e in driver.history.events if e["event"].endswith("-select")]
        assert selects
        for event in selects:
            if event["round"] >= 1:
                assert event["sender"] not in byz

    def test_stage_events_are_the_benign_stage_records(self):
        task, dataset = quad_group_setup(n_nodes=12)
        byzantine = sample_byzantine_ids(range(12), 3, 5)
        history = BasilPlusDriver(3, byzantine, 2, 5, task, dataset, n_nodes=12, tau=2,
                                  attack=AttackSpec.make("gaussian"), batch_size=10).run(2)
        ring = [r for r in history.selections if r.stage == "ring"]
        stage = [r for r in history.selections if r.stage != "ring"]
        # ring records count ring rounds (1..K*tau), stage records global rounds
        assert sorted({r.round for r in ring}) == [1, 2, 3, 4]
        assert sorted({r.round for r in stage}) == [1, 2]
        # per global round: S picks per downstream group, S tails, S heads per group
        per_round = ["aggregate"] * 4 + ["multicast"] * 2 + ["adopt"] * 6
        assert [r.stage for r in stage] == per_round * 2
        fanout = {"aggregate": 2, "multicast": 3 * 2, "adopt": 0}
        assert all(r.fanout == fanout[r.stage] for r in stage)
        assert any(not r.benign for r in stage)
        # the Byzantine aggregate and multicast picks the attack discards are
        # not made; Byzantine heads still adopt
        assert_skips_are_the_attacks_that_ignore_the_pick(history.selections,
                                                          AttackSpec.make("gaussian"), tau=2)
        assert any(not r.candidates and r.stage != "ring" for r in stage)
        assert all(r.candidates for r in stage if r.stage == "adopt")
        selects = [e for e in history.events if e["event"].endswith("-select")]
        assert selects == [
            {"event": f"{r.stage}-select", "round": r.round, "group": r.group, "node": r.node,
             "sender": r.winners[0], "losses": list(r.candidates)}
            for r in stage if r.benign]

    def test_stage_attacks_activate_by_ring_round(self):
        # with tau = 2 the hidden attack from ring round 3 is off in global
        # round 1 (ring round 2) and on in global round 2 (ring round 4), so
        # the Byzantine tails pick in the first and not in the second
        task, dataset = quad_group_setup(n_nodes=12)
        attack = AttackSpec.make("hidden", activation_round=3)
        history = BasilPlusDriver(3, sample_byzantine_ids(range(12), 3, 5), 2, 5, task, dataset,
                                  n_nodes=12, tau=2, attack=attack, batch_size=10).run(2)
        assert_skips_are_the_attacks_that_ignore_the_pick(history.selections, attack, tau=2)
        byzantine_tails = [r for r in history.selections
                           if not r.benign and r.stage in ("aggregate", "multicast")]
        assert {(r.round, bool(r.candidates)) for r in byzantine_tails} == {(1, True), (2, False)}

    def test_history_rows_carry_group_ids(self):
        task, dataset = quad_group_setup()
        history = BasilPlusDriver(2, frozenset(), 1, 3, task, dataset, n_nodes=8, tau=1,
                                  batch_size=None).run(2)
        groups_seen = {r.group for r in history.rows}
        assert groups_seen == {0, 1}

    def test_bit_identical_reruns(self):
        task, dataset = quad_group_setup()
        args = (2, sample_byzantine_ids(range(8), 1, 4), 2, 4, task, dataset)
        kw = dict(n_nodes=8, tau=1, attack=AttackSpec.make("gaussian"), batch_size=10)
        h1 = BasilPlusDriver(*args, **kw).run(3)
        h2 = BasilPlusDriver(*args, **kw).run(3)
        assert h1.rows == h2.rows

    def test_epoch_mode_runs(self):
        task, dataset = quad_group_setup()
        history = BasilPlusDriver(2, frozenset(), 1, 6, task, dataset, n_nodes=8, tau=1,
                                  epochs=2, batch_size=10).run(1)
        assert len(history.rows) == 8

    @pytest.mark.parametrize("batch_size", [10, 20, 21, 80, None])
    def test_epoch_mode_trains_when_batch_exceeds_local_data(self, batch_size):
        task, dataset = quad_group_setup()  # 20 samples per node
        driver = BasilPlusDriver(2, frozenset(), 1, 6, task, dataset, n_nodes=8, tau=1,
                                 epochs=2, batch_size=batch_size)
        x0 = task.initial_model(6)
        driver.run(1)
        for ring in driver.rings:
            for node in ring.node_ids:
                assert not np.array_equal(ring.latest_output[node].params, x0.params)

    @pytest.mark.parametrize("n_byzantine", [0, 2])
    def test_epoch_mode_counts_like_single_step(self, n_byzantine):
        task, dataset = quad_group_setup()
        args = (2, sample_byzantine_ids(range(8), n_byzantine, 6), n_byzantine + 1, 6,
                task, dataset)
        kw = dict(n_nodes=8, tau=2, attack=AttackSpec.make("gaussian"), batch_size=10)
        single = BasilPlusDriver(*args, **kw).run(2)
        epochs = BasilPlusDriver(*args, epochs=2, **kw).run(2)
        assert epochs.counters["activations"] == 8 * 2 * 2
        assert epochs.counters == single.counters

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        task, dataset = quad_group_setup()
        with pytest.raises(ConfigError, match="epochs"):
            BasilPlusDriver(2, frozenset(), 1, 6, task, dataset, n_nodes=8, epochs=epochs)

    def test_byzantine_set_must_name_members(self):
        task, dataset = quad_group_setup()
        with pytest.raises(ConfigError, match="not ring members"):
            BasilPlusDriver(2, frozenset({8}), 1, 6, task, dataset, n_nodes=8)
