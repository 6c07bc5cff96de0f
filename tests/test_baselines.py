import csv
import math

import numpy as np
import pytest

from basilsim.attacks import AttackSpec
from basilsim.baselines import (
    GraphTopology,
    build_random_graph,
    gossip_rule,
    graph_round,
    make_graph_state,
    ubar_rule,
)
from basilsim.basil_plus import BasilPlusDriver, _group_seed, cluster_nodes
from basilsim.data import Dataset, make_cluster_dataset, make_quadratic_dataset, partition
from basilsim.errors import ConfigError
from basilsim.harness import run_experiment
from basilsim.history import TrainHistory
from basilsim.models import QuadraticTask, SoftmaxTask, evaluate_loss
from basilsim.ring import BasilRing, sample_byzantine_ids


def quad_setup(n_nodes, dim=3, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    task = QuadraticTask(rng.uniform(0.4, 1.0, dim), rng.standard_normal(dim),
                         noise_scale=noise)
    dataset = partition(make_quadratic_dataset(n_nodes * 30, dim, seed),
                        n_nodes, "iid", seed)
    return task, dataset


def softmax_setup(n_nodes, samples=900, classes=4, dim=6, seed=1):
    full = make_cluster_dataset(samples + 300, classes, dim, separation=3.0, seed=seed)
    train = partition(Dataset(full.features[:samples], full.labels[:samples]),
                      n_nodes, "iid", seed)
    test = (full.features[samples:], full.labels[samples:])
    return SoftmaxTask(dim, classes), train, test


class TestGraphTopology:
    def test_generator_is_reproducible(self):
        a = build_random_graph(range(12), {3, 7}, seed=5)
        b = build_random_graph(range(12), {3, 7}, seed=5)
        assert a.adjacency == b.adjacency

    def test_symmetric_no_self_loops(self):
        topo = build_random_graph(range(15), {1, 2}, seed=0)
        for node, nbrs in topo.adjacency.items():
            assert node not in nbrs
            for other in nbrs:
                assert node in topo.adjacency[other]

    def test_no_byzantine_byzantine_edges(self):
        topo = build_random_graph(range(15), {1, 2, 3}, seed=0)
        for a in (1, 2, 3):
            assert not (topo.adjacency[a] & {1, 2, 3})

    def test_benign_connectivity_enforced(self):
        with pytest.raises(ConfigError):
            build_random_graph(range(30), set(), seed=0,
                               edge_prob_benign=0.0, max_retries=3)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ConfigError):
            GraphTopology({0: frozenset({1}), 1: frozenset()})


def run_config(scheme, out_dir, **overrides):
    cfg = {
        "scheme": scheme,
        "seed": 2,
        "rounds": 6,
        "dataset": {"kind": "quadratic", "dim": 3, "samples": 120,
                    "noise_scale": 0.3, "seed": 2},
        "ring": {"nodes": 4, "connectivity": 1},
        "training": {"batch_size": 10},
    }
    cfg.update(overrides)
    return run_experiment(cfg, out_dir)


class TestRPlain:
    """R-plain is the filtered ring at connectivity one."""

    def test_matches_filtered_ring_when_connectivity_is_one(self, tmp_path):
        # r-plain ignores the connectivity it is given
        ring = {"nodes": 6, "byzantine": 2}
        plain = run_config("r-plain", tmp_path / "plain", ring={**ring, "connectivity": 3},
                           attack={"kind": "gaussian"})
        basil = run_config("basil", tmp_path / "basil", ring={**ring, "connectivity": 1},
                           attack={"kind": "gaussian"})
        assert plain.csv_path.read_bytes() == basil.csv_path.read_bytes()

    def test_single_node_is_plain_sgd(self, tmp_path):
        # a one-node ring feeds each output back to itself
        for scheme in ("basil", "r-plain"):
            result = run_config(scheme, tmp_path / scheme, rounds=5,
                                ring={"nodes": 1, "connectivity": 1},
                                training={"batch_size": None})
            losses = [r.train_loss for r in result.history.rows]
            assert len(losses) == 5, scheme
            assert all(b < a for a, b in zip(losses, losses[1:])), (scheme, losses)

    def test_gaussian_attacker_corrupts_downstream(self):
        task, train, test = softmax_setup(6)
        clean = BasilRing(range(6), frozenset(), 1, 1, task, train,
                          batch_size=40, test_set=test).run(8)
        attacked = BasilRing(range(6), sample_byzantine_ids(range(6), 2, 1), 1, 1,
                             task, train, attack=AttackSpec.make("gaussian"),
                             batch_size=40, test_set=test).run(8)
        # unfiltered ring: whoever sits just after an attacker blows up
        final = max(r.train_loss for r in attacked.rows if r.round == 8)
        final_clean = max(r.train_loss for r in clean.rows if r.round == 8)
        assert final > 5 * final_clean


class TestGPlain:
    def test_complete_graph_keeps_symmetric_models_identical(self):
        # deterministic gradients: every node stays at the common trajectory
        task, dataset = quad_setup(4)
        adj = {i: frozenset(set(range(4)) - {i}) for i in range(4)}
        state = make_graph_state(GraphTopology(adj), set(), 0, task.initial_model(0))
        for _ in range(3):
            graph_round(state, gossip_rule, task, dataset, batch_size=None)
        first = state.models[0].params
        for node in range(1, 4):
            np.testing.assert_allclose(state.models[node].params, first)

    def test_disconnected_components_never_mix(self):
        task, dataset = quad_setup(4, noise=0.5, seed=5)
        adj = {0: frozenset({1}), 1: frozenset({0}),
               2: frozenset({3}), 3: frozenset({2})}
        state = make_graph_state(GraphTopology(adj), set(), 3, task.initial_model(3))
        twin = make_graph_state(
            GraphTopology({0: frozenset({1}), 1: frozenset({0})}), set(), 3,
            task.initial_model(3))
        for _ in range(4):
            graph_round(state, gossip_rule, task, dataset, batch_size=10)
            graph_round(twin, gossip_rule, task, dataset, batch_size=10)
        for node in (0, 1):
            np.testing.assert_allclose(state.models[node].params,
                                       twin.models[node].params)

    def test_benign_quadratic_loss_nonincreasing(self):
        task, dataset = quad_setup(5)
        topo = build_random_graph(range(5), set(), seed=1)
        history = TrainHistory(manifest={})
        state = make_graph_state(topo, set(), 1, task.initial_model(1))
        from basilsim.ring import constant_lr
        X, y = dataset.batch(np.arange(len(dataset)))
        losses = []
        for _ in range(6):
            graph_round(state, gossip_rule, task, dataset,
                        lr_schedule=constant_lr(0.5 / task.smoothness),
                        batch_size=None, history=history)
            losses.append(np.mean([
                evaluate_loss(state.models[i], task, X, y) for i in range(5)
            ]))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestUbar:
    def test_identical_neighbours_reduce_to_local_sgd(self):
        task, dataset = quad_setup(4)
        adj = {i: frozenset(set(range(4)) - {i}) for i in range(4)}
        state = make_graph_state(GraphTopology(adj), set(), 0, task.initial_model(0))
        before = state.models[0]
        graph_round(state, ubar_rule(rho=1.0, mixing=0.5), task, dataset, batch_size=None)
        lr = 0.03 / 1.03  # decaying schedule at round one
        expected = before.params - lr * task.gradient(
            before, *dataset.batch(dataset.node_indices(0)))
        np.testing.assert_allclose(state.models[0].params, expected)

    def test_stage_one_pool_size_is_ceil_rho_degree(self):
        task, train, _ = softmax_setup(8)
        topo = build_random_graph(range(8), {7}, seed=4)
        state = make_graph_state(topo, {7}, 4, task.initial_model(4))
        for _ in range(3):
            graph_round(state, ubar_rule(rho=0.33), task, train, batch_size=40,
                        attack=AttackSpec.make("gaussian"))
            for node, audit in state.audit.items():
                degree = len(topo.adjacency[node])
                assert len(audit["pool"]) == math.ceil(0.33 * degree)

    def test_gaussian_neighbour_excluded(self):
        task, train, _ = softmax_setup(6)
        adj = {i: frozenset(set(range(6)) - {i}) for i in range(6)}
        state = make_graph_state(GraphTopology(adj), {5}, 2, task.initial_model(2))
        for _ in range(4):
            graph_round(state, ubar_rule(rho=0.4), task, train, batch_size=40,
                        attack=AttackSpec.make("gaussian"))
            for node, audit in state.audit.items():
                assert 5 not in audit["accepted"]

    def test_rho_one_with_better_neighbours_averages_them(self):
        task, dataset = quad_setup(3)
        adj = {0: frozenset({1, 2}), 1: frozenset({0, 2}), 2: frozenset({0, 1})}
        state = make_graph_state(GraphTopology(adj), set(), 0, task.initial_model(0))
        # place node 0 far from the optimum, neighbours at the optimum
        before = task.make_model(task.x_star + 4.0)
        state.models[0] = before
        state.models[1] = task.optimum()
        state.models[2] = task.optimum()
        graph_round(state, ubar_rule(rho=1.0, mixing=0.5), task, dataset, batch_size=None)
        audit = state.audit[0]
        assert sorted(audit["accepted"]) == [1, 2]
        # reduces to neighbourhood averaging plus a gradient step
        lr = 0.03 / 1.03
        X, y = dataset.batch(dataset.node_indices(0))
        expected = (0.5 * before.params + 0.5 * task.x_star
                    - lr * task.gradient(before, X, y))
        np.testing.assert_allclose(state.models[0].params, expected)

    def test_isolated_node_rejected(self):
        task, dataset = quad_setup(2)
        with pytest.raises(ConfigError):
            adj = {0: frozenset(), 1: frozenset()}
            state = make_graph_state(GraphTopology(adj), set(), 0,
                                     task.initial_model(0))
            graph_round(state, ubar_rule(), task, dataset, batch_size=None)


class TestRPlainPlus:
    """Grouped R-plain is the grouped driver at connectivity one."""

    def test_single_group_matches_r_plain(self):
        task, dataset = quad_setup(4, noise=0.3, seed=7)
        initial = task.initial_model(7)
        plain = BasilRing(range(4), frozenset(), 1, _group_seed(7, 0), task, dataset,
                          batch_size=10, initial_model=initial).run(4)
        plus = BasilPlusDriver(1, frozenset(), 1, 7, task, dataset, n_nodes=4,
                               tau=1, batch_size=10).run(4)
        a = [(r.round, r.node, r.train_loss) for r in plain.rows]
        b = [(r.round, r.node, r.train_loss) for r in plus.rows]
        assert a == b

    def test_heads_receive_plain_mean_of_tails(self):
        task = QuadraticTask(np.ones(1), np.zeros(1))
        dataset = partition(make_quadratic_dataset(60, 1, 0), 6, "iid", 0)
        # tau = 0: a global round runs only the hand-off stages
        driver = BasilPlusDriver(3, frozenset(), 1, 0, task, dataset, n_nodes=6, tau=0,
                                 batch_size=None)
        values = [1.0, 2.0, 3.0]
        for ring, value in zip(driver.rings, values):
            for node in ring.order:
                ring.latest_output[node] = task.make_model([value])
        driver.run_global_round()
        for ring, value in zip(driver.rings, values):
            head, tail = ring.order
            assert ring.latest_output[head].params[0] == 2.0
            assert ring.latest_output[tail].params[0] == value

    def test_byzantine_tail_corrupts_unfiltered_mean(self):
        task, train, test = softmax_setup(8)
        tail_node = cluster_nodes(range(8), 2, 0)[0][-1]  # attacker on a tail
        X, y = train.batch(np.arange(200))

        def head_losses(byzantine):
            attack = AttackSpec.make("gaussian") if byzantine else None
            driver = BasilPlusDriver(2, frozenset({tail_node} if byzantine else ()), 1, 0,
                                     task, train, n_nodes=8, tau=1, attack=attack,
                                     batch_size=40)
            driver.run(3)
            return [evaluate_loss(ring.latest_output[ring.order[0]], task, X, y)
                    for ring in driver.rings]

        clean, corrupted = head_losses(False), head_losses(True)
        # the unfiltered mean inherits the Gaussian noise in every group head
        assert all(c > 2 * a for a, c in zip(clean, corrupted))

    def test_one_node_groups_match_basil_plus(self, tmp_path):
        # basil-plus resolves no connectivity for one-node groups to S=1
        shape = {"rounds": 3, "groups": {"count": 4}, "ring": {"nodes": 4}}
        plain = run_config("r-plain-plus", tmp_path / "plain", **shape)
        basil = run_config("basil-plus", tmp_path / "basil", **shape)
        assert plain.csv_path.read_bytes() == basil.csv_path.read_bytes()

    def test_history_carries_the_group(self, tmp_path):
        result = run_config("r-plain-plus", tmp_path, rounds=2, groups={"count": 2},
                            ring={"nodes": 8})
        with open(result.csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["round", "group", "node"]
        groups = {int(row[2]): int(row[1]) for row in rows[1:]}
        assert len(groups) == 8
        for gid, order in enumerate(cluster_nodes(range(8), 2, 2)):
            assert all(groups[node] == gid for node in order)
