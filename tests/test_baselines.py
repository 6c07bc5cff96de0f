import csv
import math
from functools import partial

import numpy as np
import pytest

from basilsim.attacks import AttackSpec
from basilsim.baselines import GraphDriver, GraphRule, build_random_graph, gossip_rule, ubar_rule
from basilsim.basil_plus import BasilPlusDriver, _group_seed, cluster_nodes
from basilsim.data import Dataset, make_cluster_dataset, make_quadratic_dataset, partition
from basilsim.errors import ConfigError, NumericFaultError
from basilsim.harness import run_experiment
from basilsim.models import QuadraticTask, SoftmaxTask, evaluate_loss
from basilsim.ring import (
    TAG_BATCH,
    BasilRing,
    constant_lr,
    default_lr,
    local_batch,
    sample_byzantine_ids,
)


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


def complete_graph(n):
    return {i: frozenset(set(range(n)) - {i}) for i in range(n)}


def quad_gradient(task, params, X):
    """The quadratic's mean gradient on the batch ``X`` in closed form:
    ``h (x - x*) + noise mean(e)``."""
    return task.hessian_diag * (params - task.x_star) + task.noise_scale * X.mean(axis=0)


class TestGraphTopology:
    def test_generator_is_reproducible(self):
        a = build_random_graph(range(12), {3, 7}, seed=5)
        b = build_random_graph(range(12), {3, 7}, seed=5)
        assert a == b

    def test_symmetric_no_self_loops(self):
        adj = build_random_graph(range(15), {1, 2}, seed=0)
        for node, nbrs in adj.items():
            assert node not in nbrs
            for other in nbrs:
                assert node in adj[other]

    def test_no_byzantine_byzantine_edges(self):
        adj = build_random_graph(range(15), {1, 2, 3}, seed=0)
        for a in (1, 2, 3):
            assert not (adj[a] & {1, 2, 3})

    def test_benign_connectivity_enforced(self):
        with pytest.raises(ConfigError):
            build_random_graph(range(30), set(), seed=0,
                               edge_prob_benign=0.0, max_retries=3)

    def test_asymmetric_adjacency_rejected(self):
        task, dataset = quad_setup(2)
        with pytest.raises(ConfigError, match="not symmetric"):
            GraphDriver({0: frozenset({1}), 1: frozenset()}, set(), gossip_rule, 0,
                        task, dataset)

    def test_self_loop_rejected(self):
        task, dataset = quad_setup(2)
        with pytest.raises(ConfigError, match="self-loop"):
            GraphDriver({0: frozenset({0, 1}), 1: frozenset({0})}, set(), gossip_rule, 0,
                        task, dataset)

    def test_byzantine_set_must_name_members(self):
        task, dataset = quad_setup(4)
        with pytest.raises(ConfigError, match="not graph members"):
            GraphDriver(complete_graph(4), {7}, gossip_rule, 0, task, dataset)

    def test_byzantine_set_must_leave_a_benign_member(self):
        task, dataset = quad_setup(4)
        with pytest.raises(ConfigError, match="every graph member"):
            GraphDriver(complete_graph(4), set(range(4)), gossip_rule, 0, task, dataset)


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
        driver = GraphDriver(complete_graph(4), set(), gossip_rule, 0, task, dataset,
                             batch_size=None)
        driver.run(3)
        first = driver.models[0].params
        for node in range(1, 4):
            np.testing.assert_allclose(driver.models[node].params, first)

    def test_disconnected_components_never_mix(self):
        task, dataset = quad_setup(4, noise=0.5, seed=5)
        adj = {0: frozenset({1}), 1: frozenset({0}),
               2: frozenset({3}), 3: frozenset({2})}
        driver = GraphDriver(adj, set(), gossip_rule, 3, task, dataset, batch_size=10)
        twin = GraphDriver({0: frozenset({1}), 1: frozenset({0})}, set(), gossip_rule, 3,
                           task, dataset, batch_size=10)
        driver.run(4)
        twin.run(4)
        for node in (0, 1):
            np.testing.assert_allclose(driver.models[node].params,
                                       twin.models[node].params)

    def test_benign_quadratic_loss_nonincreasing(self):
        task, dataset = quad_setup(5)
        driver = GraphDriver(build_random_graph(range(5), set(), seed=1), set(), gossip_rule,
                             1, task, dataset, lr_schedule=constant_lr(0.5 / task.smoothness),
                             batch_size=None)
        X, y = dataset.batch(np.arange(len(dataset)))
        losses = []
        for _ in range(6):
            driver.run_round()
            losses.append(np.mean([
                evaluate_loss(driver.models[i], task, X, y) for i in range(5)
            ]))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_byzantine_node_without_attack_trains_alone(self):
        task, dataset = quad_setup(4, noise=0.5, seed=3)
        driver = GraphDriver(complete_graph(4), {0}, gossip_rule, 3, task, dataset,
                             batch_size=10)
        # neighbours far from the start model change nothing for node 0
        for node in (1, 2, 3):
            driver.models[node] = task.make_model(task.x_star + 5.0 * node)
        expected = driver.models[0].params
        for k in range(1, 5):
            X, _ = dataset.batch(local_batch(dataset, 0, 10,
                                             np.random.default_rng([3, TAG_BATCH, 0, k])))
            expected = expected - default_lr(k) * quad_gradient(task, expected, X)
        driver.run(4)
        assert np.array_equal(driver.models[0].params, expected)
        assert all(row.node != 0 for row in driver.history.rows)

    @pytest.mark.parametrize("kind, byzantine_steps", [
        ("none", 4), ("random-sign-flip", 4), ("inverse", 4), ("gaussian", 0), ("hidden", 0)])
    def test_byzantine_node_steps_only_when_its_attack_reads_the_step(
            self, kind, byzantine_steps, monkeypatch):
        import basilsim.ring as ring

        stepped = []
        real_wave = ring.step_winners
        monkeypatch.setattr(ring, "step_winners",
                            lambda scores, rows, lr: stepped.append(len(rows))
                            or real_wave(scores, rows, lr))
        task, dataset = quad_setup(4, noise=0.5, seed=3)
        GraphDriver(complete_graph(4), {0}, gossip_rule, 3, task, dataset, batch_size=10,
                    attack=AttackSpec.make(kind, activation_round=1)).run(4)
        # each round, a stepped row for the Byzantine node when its wave
        # steps, then one per benign node; the hidden attack's pool (the
        # benign models) is never empty
        assert stepped == ([1, 3] if byzantine_steps else [3]) * 4
        assert sum(stepped) == 3 * 4 + byzantine_steps

    def test_gossip_records_every_neighbour_as_a_winner(self):
        task, dataset = quad_setup(5)
        adj = build_random_graph(range(5), {4}, seed=1)
        driver = GraphDriver(adj, {4}, gossip_rule, 1, task, dataset, batch_size=None)
        driver.run(2)
        assert [(r.round, r.node) for r in driver.history.selections] == [
            (k, node) for k in (1, 2) for node in range(4)]
        for record in driver.history.selections:
            assert record.candidates == ()
            assert record.winners == tuple(sorted(adj[record.node]))
        # a pick with no candidates is no protocol failure
        assert driver.history.events == []


class TestUbar:
    def test_identical_neighbours_reduce_to_local_sgd(self):
        task, dataset = quad_setup(4)
        driver = GraphDriver(complete_graph(4), set(), ubar_rule(rho=1.0, mixing=0.5), 0,
                             task, dataset, batch_size=None)
        before = driver.models[0]
        driver.run_round()
        lr = 0.03 / 1.03  # decaying schedule at round one
        X, _ = dataset.batch(dataset.node_indices(0))
        expected = before.params - lr * quad_gradient(task, before.params, X)
        np.testing.assert_allclose(driver.models[0].params, expected)

    def test_one_forward_per_benign_pick(self, monkeypatch):
        # on a complete graph every benign node has one degree: the rule
        # scores each node's own model with its pool in one forward for all,
        # and steps each own model from it, with no second forward
        task, train, _ = softmax_setup(6)
        forwards, per_round = [], []
        real = task._forward
        monkeypatch.setattr(task, "_forward", lambda *a: forwards.append(1) or real(*a))
        rule = ubar_rule(rho=0.5)

        def pick(*args):
            per_round.append(len(forwards))
            return rule.pick(*args)

        def update(*args, **kwargs):
            outputs = rule.update(*args, **kwargs)
            per_round[-1] = len(forwards) - per_round[-1]
            return outputs

        GraphDriver(complete_graph(6), {5}, GraphRule(pick, update), 2, task, train,
                    attack=AttackSpec.make("inverse"), batch_size=40).run(3)
        assert per_round == [1] * 3

    def test_stage_one_pool_size_is_ceil_rho_degree(self):
        task, train, _ = softmax_setup(8)
        adj = build_random_graph(range(8), {7}, seed=4)
        driver = GraphDriver(adj, {7}, ubar_rule(rho=0.33), 4, task, train,
                             attack=AttackSpec.make("gaussian"), batch_size=40)
        driver.run(3)
        assert {r.round for r in driver.history.selections} == {1, 2, 3}
        for record in driver.history.selections:
            degree = len(adj[record.node])
            assert len(record.candidates) == math.ceil(0.33 * degree)
            assert record.fanout == degree

    def test_gaussian_neighbour_excluded(self):
        task, train, _ = softmax_setup(6)
        driver = GraphDriver(complete_graph(6), {5}, ubar_rule(rho=0.4), 2, task, train,
                             attack=AttackSpec.make("gaussian"), batch_size=40)
        driver.run(4)
        assert {r.round for r in driver.history.selections} == {1, 2, 3, 4}
        for record in driver.history.selections:
            assert 5 not in record.winners

    def test_rho_one_with_better_neighbours_averages_them(self):
        task, dataset = quad_setup(3)
        driver = GraphDriver(complete_graph(3), set(), ubar_rule(rho=1.0, mixing=0.5), 0,
                             task, dataset, batch_size=None)
        # place node 0 far from the optimum, neighbours at the optimum
        before = task.make_model(task.x_star + 4.0)
        driver.models[0] = before
        driver.models[1] = task.optimum()
        driver.models[2] = task.optimum()
        driver.run_round()
        record = next(r for r in driver.history.selections if r.node == 0)
        assert sorted(record.winners) == [1, 2]
        # reduces to neighbourhood averaging plus a gradient step
        lr = 0.03 / 1.03
        X, _ = dataset.batch(dataset.node_indices(0))
        expected = (0.5 * before.params + 0.5 * task.x_star
                    - lr * quad_gradient(task, before.params, X))
        np.testing.assert_allclose(driver.models[0].params, expected)

    def test_one_record_per_benign_node_per_round(self):
        task, train, _ = softmax_setup(8)
        byzantine = {6, 7}
        adj = build_random_graph(range(8), byzantine, seed=2)
        driver = GraphDriver(adj, byzantine, ubar_rule(rho=0.5), 2, task, train,
                             attack=AttackSpec.make("gaussian"), batch_size=40)
        driver.run(3)
        records = driver.history.selections
        assert [(r.round, r.node) for r in records] == [
            (k, node) for k in (1, 2, 3) for node in range(6)]
        for record in records:
            assert record.stage == "graph" and record.benign
            assert set(record.winners) <= {s for s, _ in record.candidates}
        assert driver.history.counters == {} and driver.history.events == []

    def test_all_infinite_pool_is_a_protocol_failure(self):
        task, dataset = quad_setup(3)
        driver = GraphDriver(complete_graph(3), set(), ubar_rule(rho=1.0), 0, task, dataset,
                             batch_size=None)
        driver.models[1] = driver.models[2] = task.make_model(np.full(3, np.inf))
        # node 0 scores only +inf neighbours; nodes 1 and 2 cannot step from
        # +inf, and every record is kept before the wave steps
        with np.errstate(invalid="ignore"), pytest.raises(NumericFaultError):
            driver.run_round()
        records = driver.history.selections
        assert [r.node for r in records] == [0, 1, 2]
        assert [l for _, l in records[0].candidates] == [math.inf] * 2
        assert driver.history.events == [{"event": "protocol-failure", "round": 1,
                                          "stage": "graph", "group": None, "node": 0}]

    def test_isolated_node_rejected(self):
        task, dataset = quad_setup(2)
        driver = GraphDriver({0: frozenset(), 1: frozenset()}, set(), ubar_rule(), 0,
                             task, dataset, batch_size=None)
        with pytest.raises(ConfigError, match="node 0 has no neighbours"):
            driver.run_round()


@pytest.mark.parametrize("rule", [gossip_rule, ubar_rule(rho=0.5)], ids=["gossip", "ubar"])
def test_benign_wave_matches_each_node_alone(rule, monkeypatch):
    # a round is two activations, the Byzantine wave and the benign one; each
    # benign node's output and record are those of a wave of that node alone,
    # and the benign wave runs one forward per distinct degree
    task, train, _ = softmax_setup(8)
    adj = build_random_graph(range(8), {7}, seed=4)
    degrees = {len(adj[node]) for node in range(7)}
    assert len(degrees) > 1
    make = partial(GraphDriver, adj, {7}, rule, 2, task, train,
                   attack=AttackSpec.make("inverse"), batch_size=40)
    driver = make()
    forwards, calls = [], []
    real_forward, real_activate = task._forward, driver.activate
    monkeypatch.setattr(task, "_forward", lambda *a: forwards.append(1) or real_forward(*a))

    def activate(*args):
        start = len(forwards)
        results = real_activate(*args)
        calls.append((args, results, len(forwards) - start))
        return results

    driver.activate = activate
    for k in (1, 2, 3):
        driver.run_round()
        assert len(calls) == 2
        (turns, pick, update, record, round_k), results, benign_forwards = calls.pop()
        calls.clear()
        assert [t.node for t in turns] == list(range(7)) and benign_forwards == len(degrees)
        records = [r for r in driver.history.selections if r.round == k]
        for turn, (out, *_), wave_record in zip(turns, results, records, strict=True):
            alone = make()
            alone._prepare([(alone, turn.node, turn.stream, round_k)])
            [(alone_out, *_)] = alone.activate([turn._replace(driver=alone)], pick, update,
                                               record, round_k)
            assert alone_out.params.tobytes() == out.params.tobytes()
            assert alone.history.selections == [wave_record]


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
