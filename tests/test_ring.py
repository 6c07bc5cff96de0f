import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import basilsim.ring as ring_module
from basilsim import attacks
from basilsim.attacks import AttackSpec, ignores_honest_update
from basilsim.basil_plus import TAG_STAGE_ATTACK, TAG_STAGE_BATCH, BasilPlusDriver, cluster_nodes
from basilsim.data import Dataset, make_cluster_dataset, make_quadratic_dataset, partition
from basilsim.errors import ConfigError, NumericFaultError, ProtocolError
from basilsim.models import MlpTask, QuadraticTask, SoftmaxTask, sgd_step, step_winners
from basilsim.ring import (
    TAG_ATTACK,
    TAG_BATCH,
    TAG_EPOCH,
    BasilRing,
    Driver,
    StoredModels,
    agree_order,
    basil_select,
    constant_lr,
    local_batch,
    run_rings,
    sample_byzantine_ids,
)
from basilsim.streams import keyed_states, set_state
from test_models import plain_loss, ref_step


def select_one(candidates, task, X, y):
    """``basil_select`` of a wave of one turn: its selection."""
    return basil_select([list(candidates)], task, X[None], y[None]).selections[0]


def quad_setup(n_nodes=3, dim=4, samples=60, seed=0, noise=0.0):
    task_rng = np.random.default_rng(seed)
    task = QuadraticTask(task_rng.uniform(0.3, 1.0, dim), task_rng.standard_normal(dim),
                         noise_scale=noise)
    dataset = partition(make_quadratic_dataset(samples, dim, seed), n_nodes, "iid", seed)
    return task, dataset


def cluster_setup(n_nodes, samples=800, classes=5, dim=8, seed=1):
    ds = make_cluster_dataset(samples + 400, classes, dim, separation=3.0, seed=seed)
    from basilsim.data import Dataset
    train = Dataset(ds.features[:samples], ds.labels[:samples])
    test = (ds.features[samples:], ds.labels[samples:])
    train = partition(train, n_nodes, "iid", seed)
    task = SoftmaxTask(dim, classes)
    return task, train, test


class TestAgreeOrder:
    def test_deterministic_permutation(self):
        ids = [1, 2, 3, 4, 5, 6]
        first = agree_order(ids, seed=6)
        assert agree_order(ids, seed=6) == first
        assert sorted(first) == ids

    def test_single_node(self):
        assert agree_order([7], seed=0) == (7,)

    def test_different_seeds_differ(self):
        ids = list(range(1, 101))
        for s1, s2 in [(0, 1), (2, 3), (10, 11), (100, 200), (7, 8)]:
            assert agree_order(ids, s1) != agree_order(ids, s2)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            agree_order([1, 1, 2], seed=0)

    def test_input_order_irrelevant(self):
        assert agree_order([3, 1, 2], 5) == agree_order([1, 2, 3], 5)


class TestBasilSelect:
    def test_single_entry_returned(self):
        task, dataset = quad_setup()
        fifo = StoredModels(capacity=3)
        model = task.make_model(np.ones(4))
        fifo.insert(9, model)
        X, y = dataset.batch(dataset.node_indices(0))
        sel = select_one(fifo, task, X, y)
        assert sel.winners[0] == 9
        assert np.array_equal(sel.model.params, model.params)

    def test_descent_ordering_prefers_most_steps(self):
        # deterministic descent: more steps, lower loss
        task, dataset = quad_setup()
        X, y = dataset.batch(dataset.node_indices(0))
        lr = 1.0 / task.smoothness
        m0 = task.make_model(task.x_star + 3.0)
        m1 = sgd_step(m0, task, X, y, lr)
        m2 = sgd_step(m1, task, X, y, lr)
        m3 = sgd_step(m2, task, X, y, lr)
        fifo = StoredModels(capacity=3)
        for sender, m in [(1, m1), (2, m2), (3, m3)]:
            fifo.insert(sender, m)
        sel = select_one(fifo, task, X, y)
        assert sel.winners[0] == 3

    def test_benign_beats_gaussian_noise_model(self):
        task, train, test = cluster_setup(n_nodes=2)
        X, y = train.batch(train.node_indices(0))
        benign = task.initial_model(0)
        for _ in range(30):
            benign = sgd_step(benign, task, X, y, 0.1)
        noise = benign.with_params(np.random.default_rng(0).standard_normal(benign.size))
        fifo = StoredModels(capacity=2)
        fifo.insert(1, benign)
        fifo.insert(2, noise)  # newer, but worse
        sel = select_one(fifo, task, X, y)
        assert sel.winners[0] == 1
        losses = dict(sel.candidates)
        assert losses[2] > losses[1]

    def test_tie_breaks_toward_newest(self):
        task, dataset = quad_setup()
        X, y = dataset.batch(dataset.node_indices(0))
        model = task.make_model(np.ones(4))
        fifo = StoredModels(capacity=2)
        fifo.insert(1, model)
        fifo.insert(2, model.with_params(model.params.copy()))
        assert select_one(fifo, task, X, y).winners[0] == 2

    def test_non_finite_models_evaluate_to_infinity(self):
        task, dataset = quad_setup()
        X, y = dataset.batch(dataset.node_indices(0))
        good = task.make_model(np.ones(4))
        bad = task.make_model(np.full(4, np.nan))
        fifo = StoredModels(capacity=2)
        fifo.insert(1, good)
        fifo.insert(2, bad)
        sel = select_one(fifo, task, X, y)
        assert sel.winners[0] == 1
        assert math.isinf(dict(sel.candidates)[2])

    @pytest.mark.parametrize("task", [
        QuadraticTask(np.linspace(0.3, 1.0, 6), np.zeros(6), noise_scale=0.5),
        SoftmaxTask(6, 4),
        MlpTask((6, 8, 8, 4)),
    ], ids=lambda t: t.kind)
    def test_non_finite_candidates_mixed_in(self, task):
        rng = np.random.default_rng(4)
        X, y = rng.standard_normal((17, 6)), rng.integers(0, 4, size=17)
        start = task.initial_model(0)
        best, worse = sorted(
            (start.with_params(rng.standard_normal(start.size) * scale) for scale in (0.1, 2.0)),
            key=lambda m: plain_loss(task, m, X, y))
        nan = best.with_params(np.where(np.arange(start.size) == 1, np.nan, best.params))
        inf = best.with_params(np.full(start.size, np.inf))
        tie = best.with_params(best.params.copy())
        candidates = [(10, nan), (11, worse), (12, best), (13, inf), (14, tie)]
        with np.errstate(all="raise"):
            sel = select_one(candidates, task, X, y)
        assert sel.winners[0] == 12 and sel.model is best
        assert [s for s, _ in sel.candidates] == [10, 11, 12, 13, 14]
        assert [l for _, l in sel.candidates] == [
            math.inf, plain_loss(task, worse, X, y), plain_loss(task, best, X, y),
            math.inf, plain_loss(task, best, X, y)]

    def test_all_non_finite_selects_the_first(self):
        task, dataset = quad_setup()
        X, y = dataset.batch(dataset.node_indices(0))
        bad = [task.make_model(np.full(4, v)) for v in (np.nan, np.inf, -np.inf)]
        with np.errstate(all="raise"):
            sel = select_one(list(enumerate(bad)), task, X, y)
        assert sel.winners[0] == 0
        assert all(math.isinf(l) for _, l in sel.candidates)

    @pytest.mark.parametrize("order", [(7, 8), (8, 7)])
    def test_nan_loss_ranks_as_infinity(self, order):
        # weights of +-1e308 are finite, but their logits overflow and
        # inf - inf makes the loss NaN: listed first, that model must not win
        task = SoftmaxTask(4, 3)
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((5, 4)), rng.integers(0, 3, size=5)
        good = task.initial_model(0)
        huge = good.with_params(np.where(np.arange(good.size) % 2, 1e308, -1e308))
        models = {7: huge, 8: good}
        with np.errstate(all="ignore"):
            picks = basil_select([[(s, models[s]) for s in order]], task, X[None], y[None])
        sel = picks.selections[0]
        assert sel.winners == (8,) and sel.model is good
        # the record keeps the NaN it scored
        losses = dict(sel.candidates)
        assert math.isnan(losses[7]) and losses[8] == plain_loss(task, good, X, y)
        # and the winner steps as it would alone
        (stepped,) = step_winners(picks.scores, picks.rows, 0.1)
        assert np.array_equal(stepped.params, ref_step(task, good, X, y, 0.1))

    def test_empty_queue_is_a_protocol_error(self):
        task, dataset = quad_setup()
        X, y = dataset.batch(dataset.node_indices(0))
        with pytest.raises(ProtocolError):
            select_one(StoredModels(capacity=1), task, X, y)

    @pytest.mark.parametrize("T", [1, 3])
    def test_a_shared_list_scores_each_distinct_model_once(self, T):
        # repeats of one object are scored once; the picks, their records and
        # the stepped winners are those of the list with each repeat a copy
        task = SoftmaxTask(6, 4)
        rng = np.random.default_rng(9)
        X, y = rng.standard_normal((T, 11, 6)), rng.integers(0, 4, size=(T, 11))
        start = task.initial_model(0)
        a, b = start, start.with_params(rng.standard_normal(start.size) * 2.0)
        nan = b.with_params(np.where(np.arange(start.size) == 2, np.nan, b.params))
        shared = [(1, b), (2, nan), (3, b), (4, a), (5, a), (6, nan)]
        copied, seen = [], set()
        for sender, m in shared:
            copied.append((sender, m.with_params(m.params.copy()) if id(m) in seen else m))
            seen.add(id(m))
        assert [m is n for (_, m), (_, n) in zip(shared, copied)] == [1, 1, 0, 1, 0, 0]
        picks, apart = (basil_select([c], task, X, y) for c in (shared, copied))
        assert picks.scores.params.shape[1] == 3 and apart.scores.params.shape[1] == 6
        # the exact tie between a and its repeat goes to the earlier one
        assert {s.winners for s in picks.selections} == {(4,)}
        for got, want in zip(picks.selections, apart.selections, strict=True):
            assert got.model is want.model is a
            assert repr(got) == repr(want)
        stepped = [step_winners(p.scores, p.rows, 0.1) for p in (picks, apart)]
        assert [m.params.tobytes() for m in stepped[0]] == [m.params.tobytes() for m in stepped[1]]


class TestLockStep:
    """Rings run in lock-step (a wave of their turns at each position) give
    what they give one after another: each ring's rows and records, and
    every output, bit for bit."""

    @pytest.mark.parametrize("attack, epochs", [
        ("gaussian", None), ("inverse", None), ("hidden", None), ("random-sign-flip", 2)])
    def test_waves_equal_the_rings_one_after_another(self, attack, epochs):
        task, train, test = cluster_setup(n_nodes=12, samples=900)
        # shards of 30 to 120 samples: at batch 40 a wave mixes batch shapes
        sizes = [30, 120, 45, 90, 60, 75] * 2
        order = np.random.default_rng(3).permutation(900)[:sum(sizes)]
        shards = np.split(order, np.cumsum(sizes)[:-1])
        train = replace(train, partition={i: np.sort(part) for i, part in enumerate(shards)})

        def rings():
            return [BasilRing(members, byzantine, 2, seed, task, train, group=gid,
                              attack=AttackSpec.make(attack, 1), batch_size=40,
                              epochs=epochs, test_set=test)
                    for gid, (members, byzantine, seed) in enumerate(
                        [(range(6), {1}, 4), (range(6, 12), {8, 9}, 5)])]

        apart, together = rings(), rings()
        for _ in range(3):
            for ring in apart:
                ring.run_round()
            run_rings(together)
        # at some position one ring's batch holds 30 samples and the other's 40
        assert {30, 40} in [{len(train.node_indices(ring.order[i])[:40]) for ring in together}
                            for i in range(6)]
        for a, b in zip(apart, together):
            assert a.history.rows == b.history.rows
            assert a.history.selections == b.history.selections
            for node in a.order:
                assert np.array_equal(a.latest_output[node].params,
                                      b.latest_output[node].params)


class TestWorkDoneOncePerPass:
    """What no pick depends on is done once: a pass's batches are drawn and
    gathered at its start, and an attack that reads only the benign pool is
    computed once per driver and pool."""

    def test_a_turn_not_drawn_ahead_is_a_protocol_error(self):
        task, train, _ = cluster_setup(n_nodes=4)
        ring = BasilRing(range(4), frozenset(), 1, 3, task, train, batch_size=5)
        update = partial(ring._update, lr=0.1)
        turn = ring._turn(0, 1)
        with pytest.raises(ProtocolError, match="no batch drawn ahead"):
            ring.activate([turn], basil_select, update, None, 1)
        ring._prepare([(ring, turn.node, turn.stream, 1)])
        [(_, selection, (X, y))] = ring.activate([turn], basil_select, update, None, 1)
        assert selection.winners == (None,) and X.shape == (5, 8)
        # a batch is taken once
        with pytest.raises(ProtocolError, match="no batch drawn ahead"):
            ring.activate([turn], basil_select, update, None, 1)
        # a pass's batches are replaced by the next pass's
        ring._prepare([(ring, turn.node, (turn.node, 2), 2)])
        with pytest.raises(ProtocolError, match="no batch drawn ahead"):
            ring.activate([turn], basil_select, update, None, 1)
        # an attack drawn in a pass prepared for a turn that no attack replaces
        ring = BasilRing(range(4), frozenset({turn.node}), 1, 3, task, train, batch_size=5,
                         attack=AttackSpec.make("random-sign-flip"))
        turn = ring._turn(0, 1)
        ring._prepare([(ring, turn.node, turn.stream, None)])
        with pytest.raises(ProtocolError, match="no draw prepared"):
            ring.activate([turn], basil_select, partial(ring._update, lr=0.1), None, 1)
        # local passes of a ring put in epochs mode after its pass was prepared
        ring = BasilRing(range(4), frozenset(), 1, 3, task, train, batch_size=5)
        turn = ring._turn(0, 1)
        ring._prepare([(ring, turn.node, turn.stream, 1)])
        ring.epochs = 1
        with pytest.raises(ProtocolError, match="no draw prepared"):
            ring.activate([turn], basil_select, partial(ring._update, lr=0.1), None, 1)

    def test_a_pass_draws_the_keyed_choices_in_one_gather_per_batch_length(self, monkeypatch):
        task, train, _ = cluster_setup(n_nodes=6, samples=120)
        # shards of 3 samples are below the batch of 5 and are taken whole
        sizes = [3, 30, 3, 25, 20, 3]
        order = np.random.default_rng(2).permutation(120)[:sum(sizes)]
        shards = np.split(order, np.cumsum(sizes)[:-1])
        train = replace(train, partition={i: np.sort(part) for i, part in enumerate(shards)})
        gathers, batches = [], {}
        gather, activate = Dataset.batch, Driver.activate
        monkeypatch.setattr(Dataset, "batch",
                            lambda ds, ix: gathers.append(ix.shape) or gather(ds, ix))

        def record_activate(driver, turns, *args):
            results = activate(driver, turns, *args)
            batches.update(((t.node, t.stream[1]), batch)
                           for t, (*_, batch) in zip(turns, results))
            return results

        monkeypatch.setattr(Driver, "activate", record_activate)
        ring = BasilRing(range(6), frozenset(), 2, 7, task, train, batch_size=5)
        ring.run(2)
        assert sorted(gathers) == [(3, 3), (3, 3), (3, 5), (3, 5)]
        assert len(batches) == 12
        for (node, k), (X, y) in batches.items():
            indices = train.node_indices(node)
            if len(indices) > 5:
                indices = np.random.default_rng([7, TAG_BATCH, node, k]).choice(
                    indices, size=5, replace=False)
            assert X.tobytes() == train.features[indices].tobytes()
            assert y.tobytes() == train.labels[indices].tobytes()

    def test_hidden_attack_runs_once_per_driver_and_pool(self, monkeypatch):
        real = attacks.hidden_attack
        attacked, outputs = [], []
        monkeypatch.setattr(attacks, "hidden_attack",
                            lambda pool: attacked.append(pool) or real(pool))
        activate = Driver.activate

        def record_activate(driver, turns, pick, update, record, round_k):
            pools = {t.driver: t.driver._benign_pool() for t in turns}
            results = activate(driver, turns, pick, update, record, round_k)
            outputs.extend((t.driver, pools[t.driver], out) for t, (out, *_) in zip(turns, results)
                           if round_k is not None and t.node in t.driver.byzantine
                           and pools[t.driver])
            return results

        monkeypatch.setattr(Driver, "activate", record_activate)
        task, train, _ = cluster_setup(n_nodes=16, samples=640)
        # a Byzantine node behind a benign one in every ring, and two in a row in one
        groups = cluster_nodes(range(16), 4, 5)
        byzantine = {order[1] for order in groups} | {groups[0][2]}
        driver = BasilPlusDriver(4, byzantine, 2, 5, task, train, n_nodes=16, tau=2,
                                 attack=AttackSpec.make("hidden", 1), batch_size=5)
        driver.run(3)
        # each output over a nonempty pool is that pool's attack, bit for bit
        for _, pool, out in outputs:
            assert out.params.tobytes() == real(pool).params.tobytes()
        # the attack ran once for each distinct (driver, pool), the pool by
        # the identity of its models, and some outputs reused it
        distinct = {(d, tuple(map(id, pool))) for d, pool, _ in outputs}
        assert len(attacked) == len(distinct) < len(outputs)
        assert {tuple(map(id, pool)) for pool in attacked} == {pool for _, pool in distinct}
        assert {d for d, _ in distinct} == {driver, *driver.rings}


class TestRunBasil:
    def test_quadratic_descent_monotone(self):
        task, dataset = quad_setup(n_nodes=3)
        history = BasilRing(
            range(3), frozenset(), 1, 0, task, dataset,
            lr_schedule=constant_lr(1.0 / task.smoothness), batch_size=None,
        ).run(10)
        losses = [r.train_loss for r in history.rows]
        assert len(losses) == 30
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_fig2_configuration_audit(self):
        # six nodes, the two Byzantine ones are never selected after round 1
        task, train, test = cluster_setup(n_nodes=6)
        history = BasilRing(
            range(6), frozenset({3, 5}), 3, 3, task, train, attack=AttackSpec.make("gaussian"),
            batch_size=40, test_set=test,
        ).run(8)
        benign = {0, 1, 2, 4}
        assert {r.node for r in history.rows} == benign
        for row in history.rows:
            if row.round >= 2:
                assert row.selected_sender not in {3, 5}

    def test_zero_rounds_leaves_initial_state(self):
        task, dataset = quad_setup(n_nodes=4)
        ring = BasilRing(range(4), frozenset(), 2, 1, task, dataset)
        history = ring.run(0)
        assert history.rows == []
        assert len(ring.window) == 0
        x0 = task.initial_model(1)
        for node in range(4):
            assert np.array_equal(ring.latest_output[node].params, x0.params)

    def test_bit_identical_reruns(self):
        task, train, test = cluster_setup(n_nodes=5)
        args = (range(5), sample_byzantine_ids(range(5), 1, 9), 2, 9, task, train)
        kw = dict(attack=AttackSpec.make("gaussian"), batch_size=30, test_set=test)
        h1 = BasilRing(*args, **kw).run(5)
        h2 = BasilRing(*args, **kw).run(5)
        assert h1.rows == h2.rows
        assert h1.counters == h2.counters

    def test_theorem_one_argmin_invariance(self):
        # deterministic quadratic, lr = 1/L, no attack: newest model always wins
        task, dataset = quad_setup(n_nodes=4, dim=3, seed=5)
        ring = BasilRing(
            range(4), frozenset(), 3, 5, task, dataset,
            lr_schedule=constant_lr(1.0 / task.smoothness), batch_size=None,
        )
        history = ring.run(6)
        order = ring.order
        for row in history.rows:
            pos = order.index(row.node)
            if row.round == 1 and pos == 0:
                assert row.selected_sender is None  # only the start model stored
            else:
                expected = order[(pos - 1) % 4]
                assert row.selected_sender == expected

    def test_selection_never_worse_than_any_candidate(self):
        task, train, test = cluster_setup(n_nodes=6)
        history = BasilRing(
            range(6), sample_byzantine_ids(range(6), 2, 7), 3, 7, task, train, attack=AttackSpec.make("random-sign-flip"),
            batch_size=40,
        ).run(6)
        assert len(history.selections) == 6 * 6
        for record in history.selections:
            losses = dict(record.candidates)
            assert losses[record.winners[0]] <= min(losses.values()) + 1e-12

    def test_cost_counters_scale_with_connectivity(self):
        task, train, _ = cluster_setup(n_nodes=6)
        for S in (2, 4):
            history = BasilRing(range(6), frozenset(), S, 2, task, train,
                                batch_size=20).run(3)
            acts = history.counters["activations"]
            assert acts == 18
            assert history.counters["models_sent"] == acts * S
            assert history.counters["fifo_inserts"] == acts * S
            assert history.counters["loss_evaluations"] <= acts * S

    def test_counters_are_sums_over_the_ring_records(self):
        task, train, _ = cluster_setup(n_nodes=6)
        history = BasilRing(range(6), sample_byzantine_ids(range(6), 2, 2), 3, 2, task, train,
                            attack=AttackSpec.make("gaussian"), batch_size=20).run(3)
        records = history.selections
        assert [r.stage for r in records] == ["ring"] * 18
        assert history.counters == {
            "loss_evaluations": sum(len(r.candidates) for r in records),
            "models_sent": 3 * 18,
            "fifo_inserts": 3 * 18,
            "activations": 18,
        }
        # the first pass's picks see 1..S stored models, later ones S; the
        # Byzantine nodes, whose gaussian attack discards a pick, score none
        assert_skips_are_the_attacks_that_ignore_the_pick(records, AttackSpec.make("gaussian"))
        assert sum(not r.candidates for r in records) == 2 * 3
        want = [1, 2, 3, 3, 3, 3] + [3] * 12
        assert all(len(r.candidates) == n for r, n in zip(records, want) if r.candidates)

    def test_benign_connectivity_under_random_placements(self):
        # placements with no S-run of Byzantine nodes keep a benign model in view
        task, train, _ = cluster_setup(n_nodes=8)
        S, b = 3, 3
        found = 0
        for seed in range(12):
            ring = BasilRing(range(8), sample_byzantine_ids(range(8), b, seed), S, seed,
                             task, train,
                             attack=AttackSpec.make("gaussian"), batch_size=20)
            byz_mask = [m in ring.byzantine for m in ring.order]
            runs = _longest_circular_run(byz_mask)
            if runs >= S:
                continue
            found += 1
            history = ring.run(4)
            assert_skips_are_the_attacks_that_ignore_the_pick(history.selections, ring.attack)
            benign_ok = set(m for m in ring.order if m not in ring.byzantine)
            for record in history.selections:
                senders = [s for s, _ in record.candidates]
                assert not senders or any(s is None or s in benign_ok for s in senders)
        assert found >= 5

    def test_protocol_failure_event_recorded(self):
        task, dataset = quad_setup(n_nodes=3)
        ring = BasilRing(range(3), frozenset(), 1, 0, task, dataset, batch_size=None)
        bad = task.make_model(np.full(4, np.inf))
        first = ring.order[0]
        ring.latest_output[first] = bad
        with pytest.raises(NumericFaultError):
            ring.run_round()
        assert any(e["event"] == "protocol-failure" and e["node"] == first
                   and e["stage"] == "ring" for e in ring.history.events)

    def test_byzantine_node_whose_attack_ignores_the_pick_cannot_fail_it(self):
        # the same non-finite start model in a gaussian attacker's queue: it
        # scores nothing and steps on nothing, so its activation finishes
        task, dataset = quad_setup(n_nodes=3)
        first = agree_order(range(3), 0)[0]
        ring = BasilRing(range(3), frozenset({first}), 1, 0, task, dataset, batch_size=None,
                         attack=AttackSpec.make("gaussian"))
        ring.latest_output[first] = task.make_model(np.full(4, np.inf))
        ring.run_round()
        assert ring.history.events == []
        record = ring.history.selections[0]
        assert (record.node, record.benign, record.candidates, record.winners) == (
            first, False, (), ())
        assert np.isfinite(ring.latest_output[first].params).all()


def assert_skips_are_the_attacks_that_ignore_the_pick(records, attack, tau=1):
    """The records with no candidates are exactly the Byzantine ring,
    aggregate and multicast picks whose ``attack`` ignores the honest update,
    replayed with the benign pool each saw (a ring pick its group's benign
    activations so far, a stage pick every group's), and they name no winner."""
    pools: dict = {}  # group -> benign ring records so far
    for record in records:
        if record.stage == "ring":
            pool, round_k = pools.get(record.group, []), record.round
        else:
            pool, round_k = [p for g in pools.values() for p in g], record.round * max(tau, 1)
        skipped = (not record.benign and record.stage != "adopt"
                   and ignores_honest_update(attack, benign_models=pool, round_k=round_k))
        assert (record.candidates == ()) == skipped, record
        assert (record.winners == ()) == skipped, record
        if record.stage == "ring" and record.benign:
            pools.setdefault(record.group, []).append(record)


def assert_candidates_are_recent_predecessors(records, orders, S, restarts):
    """Each ring record that picked has as candidate senders its node's nearest
    predecessors in ``orders[group]`` that activated since the ring's last
    restart, at most S of them, then ``None`` when fewer than S did;
    ``restarts(round)`` says whether the rings restart before that ring
    round's first activation."""
    done: dict = {}  # group -> nodes that activated since its ring's restart
    last_round: dict = {}  # group -> ring round of its latest record
    for record in (r for r in records if r.stage == "ring"):
        group = record.group
        if last_round.get(group) != record.round and restarts(record.round):
            done[group] = set()
        last_round[group] = record.round
        order = orders[group]
        pos = order.index(record.node)
        expected = [order[(pos - j) % len(order)] for j in range(1, S + 1)]
        expected = [node for node in expected if node in done[group]]
        if len(expected) < S:
            expected.append(None)
        if record.candidates:
            assert [sender for sender, _ in record.candidates] == expected, record
        done[group].add(record.node)


class TestCandidateSet:
    """The candidates a node scores are those its queue of the S models last
    multicast to it holds, under every driver that runs a ring."""

    @pytest.mark.parametrize("S", [1, 3, 7])
    def test_basil_with_a_gaussian_attacker(self, S):
        task, train, _ = cluster_setup(n_nodes=8)
        ring = BasilRing(range(8), sample_byzantine_ids(range(8), 2, 4), S, 4, task, train,
                         attack=AttackSpec.make("gaussian"), batch_size=20)
        history = ring.run(3)
        assert len(history.selections) == 24
        assert_skips_are_the_attacks_that_ignore_the_pick(history.selections, ring.attack)
        assert_candidates_are_recent_predecessors(
            history.selections, {None: ring.order}, S, lambda k: k == 1)

    def test_basil_with_a_hidden_attacker_from_round_one(self):
        # the attackers that activate before any benign node have an empty
        # pool, so they still pick and update; later ones do not
        task, train, _ = cluster_setup(n_nodes=8)
        attack = AttackSpec.make("hidden", activation_round=1)
        seed = next(s for s in range(50)
                    if agree_order(range(8), s)[0] in sample_byzantine_ids(range(8), 2, s))
        ring = BasilRing(range(8), sample_byzantine_ids(range(8), 2, seed), 3, seed, task,
                         train, attack=attack, batch_size=20)
        history = ring.run(3)
        assert history.selections[0].candidates and not history.selections[0].benign
        assert_skips_are_the_attacks_that_ignore_the_pick(history.selections, attack)
        assert sum(not r.candidates for r in history.selections) == 2 * 3 - 1
        assert_candidates_are_recent_predecessors(
            history.selections, {None: ring.order}, 3, lambda k: k == 1)

    @pytest.mark.parametrize("epochs", [None, 2])
    def test_basil_plus_restarts_every_global_round(self, epochs):
        task, train, _ = cluster_setup(n_nodes=12)
        tau = 2
        driver = BasilPlusDriver(2, sample_byzantine_ids(range(12), 2, 8), 3, 8, task, train,
                                 n_nodes=12, tau=tau, attack=AttackSpec.make("gaussian"),
                                 batch_size=20, epochs=epochs)
        history = driver.run(2)
        assert sum(r.stage == "ring" for r in history.selections) == 12 * tau * 2
        assert_skips_are_the_attacks_that_ignore_the_pick(history.selections, driver.attack, tau)
        assert_candidates_are_recent_predecessors(
            history.selections, {ring.group: ring.order for ring in driver.rings}, 3,
            lambda k: (k - 1) % tau == 0)


def _longest_circular_run(mask):
    n = len(mask)
    doubled = list(mask) + list(mask)
    best = cur = 0
    for v in doubled[: 2 * n - 1]:
        cur = cur + 1 if v else 0
        best = max(best, cur)
    return min(best, n)


class TestRingValidation:
    def test_connectivity_bounds(self):
        task, dataset = quad_setup(n_nodes=5)
        for S in (0, 5):
            with pytest.raises(ConfigError, match="S"):
                BasilRing(range(5), frozenset(), S, 0, task, dataset)

    def test_byzantine_set_must_name_members(self):
        task, dataset = quad_setup(n_nodes=5)
        with pytest.raises(ConfigError, match="not ring members"):
            BasilRing(range(4), frozenset({4}), 1, 0, task, dataset)

    def test_byzantine_set_must_leave_a_benign_member(self):
        task, dataset = quad_setup(n_nodes=5)
        with pytest.raises(ConfigError, match="every ring member"):
            BasilRing(range(5), frozenset(range(5)), 1, 0, task, dataset)


def numpy_state(key):
    """The PCG64 (state, inc) ``np.random.default_rng(key)`` starts in."""
    state = np.random.default_rng(list(key)).bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    return state["state"]["state"], state["state"]["inc"]


class TestKeyedStreams:
    """The bulk-hashed states and the draws from them are numpy's own, so a
    numpy that changes its seeding fails here by name, not only in the
    golden digests; and a pass hashes each key it draws, once."""

    @pytest.mark.parametrize("keys", [
        pytest.param([(6, 0xA2, node, k) for node in range(6) for k in (1, 2, 50)],
                     id="four-entries"),
        pytest.param([(6, 0xC1, stage, node, g) for stage in (1, 2, 3) for node in range(5)
                      for g in (1, 9)], id="five-entries"),
        pytest.param([(0, 0, 0, 0), (0, 0xA2, 0, 1), (1, 0, 0, 0, 0), (2**32 - 1, 0, 5, 2**32 - 1)],
                     id="zero-and-top-word"),
        pytest.param([(2**32, 0xA2, 3, 1), (2**40 + 7, 0xC1, 1, 2, 3), (5, 2**64, 2**96 - 1, 0)],
                     id="entries-past-2-to-the-32"),
        pytest.param([(6, 0xA2, 1, 1), (2**33, 0xA2, 1, 1), (6, 0xC1, 1, 1, 1), (7,),
                      (2**70, 1), (0,), (2**33, 0xC1, 1, 1, 1)], id="mixed-word-counts"),
    ])
    def test_bulk_states_are_default_rngs(self, keys):
        assert keyed_states(keys) == [numpy_state(key) for key in keys]

    def test_negative_entries_are_rejected_as_numpy_rejects_them(self):
        with pytest.raises(ValueError):
            np.random.default_rng([6, -1])
        with pytest.raises(ValueError):
            keyed_states([(6, -1)])

    @pytest.mark.parametrize("grouped, kind, activation_round, seed, epochs", [
        pytest.param(False, "gaussian", 1, 3, None, id="gaussian-ring"),
        pytest.param(True, "gaussian", 1, 3, None, id="gaussian-basil-plus"),
        pytest.param(False, "hidden", 1, 3, None, id="hidden-ring"),
        pytest.param(True, "hidden", 1, 3, None, id="hidden-basil-plus"),
        # no attack key is hashed before the attack's round
        pytest.param(False, "gaussian", 3, 3, None, id="gaussian-from-round-3-ring"),
        # group seeds are seed * 131071 + g + 1, past 2^32 from seed 32,768
        pytest.param(True, "random-sign-flip", 0, 40_000, 2,
                     id="sign-flip-epochs-basil-plus-at-seed-40000"),
    ])
    def test_keys_of_turns_whose_attack_ignores_the_pick_are_not_hashed(
            self, monkeypatch, grouped, kind, activation_round, seed, epochs):
        prepared, drawn, picked = [], [], set()
        hashed, keyed, activate = ring_module.keyed_states, Driver._keyed, Driver.activate

        def record_hash(keys):
            prepared.extend(keys)
            return hashed(keys)

        def record_keyed(lead, driver, tag, stream):
            drawn.append((driver.seed, tag, *stream))
            return keyed(lead, driver, tag, stream)

        def record_activate(driver, turns, *args):
            results = activate(driver, turns, *args)
            picked.update((t.driver.seed, t.driver.BATCH_TAG, *t.stream)
                          for t, (_, selection, _) in zip(turns, results) if selection)
            return results

        monkeypatch.setattr(ring_module, "keyed_states", record_hash)
        monkeypatch.setattr(Driver, "_keyed", record_keyed)
        monkeypatch.setattr(Driver, "activate", record_activate)
        task, train, _ = cluster_setup(n_nodes=8, samples=320)
        byzantine, attack = frozenset({1, 6}), AttackSpec.make(kind, activation_round)
        if grouped:
            driver = BasilPlusDriver(2, byzantine, 2, seed, task, train, n_nodes=8, attack=attack,
                                     batch_size=5, epochs=epochs)
            rings = driver.rings
        else:
            driver = BasilRing(range(8), byzantine, 2, seed, task, train, attack=attack,
                               batch_size=5, epochs=epochs)
            rings = [driver]
        driver.run(3)
        # each key hashed is drawn, once
        assert len(set(drawn)) == len(drawn) and sorted(drawn) == sorted(prepared)
        assert {key[-1] for key in prepared if key[1] in (TAG_ATTACK, TAG_STAGE_ATTACK)} == (
            set(range(max(activation_round, 1), 4)) if attack.kind != "hidden" else set())
        assert len([key for key in prepared if key[1] == TAG_EPOCH]) == (8 * 3 if epochs else 0)
        unused = {key for key in drawn if key[1] in (TAG_BATCH, TAG_STAGE_BATCH)} - picked
        if kind != "hidden":
            assert not unused
        else:
            # the hidden attack reads the pool, empty at the start of the first
            # ring pass: the Byzantine nodes behind a benign one in their ring
            # skip at their turn, and leave that pass's batch unused
            assert unused == {(ring.seed, TAG_BATCH, node, 1) for ring in rings
                              for p, node in enumerate(ring.order)
                              if node in byzantine and not byzantine.issuperset(ring.order[:p])}
            assert unused
        if seed > 2**15:
            assert min(ring.seed for ring in rings) > 2**32
            assert {len(key) for key in prepared} == {4, 5}
            assert keyed_states(prepared) == [numpy_state(key) for key in prepared]

    @pytest.mark.parametrize("kind, epochs", [
        ("gaussian", None), ("random-sign-flip", None), ("random-sign-flip", 2)])
    def test_a_pass_draws_what_each_keys_default_rng_draws(self, monkeypatch, kind, epochs):
        def run():
            task, train, test = cluster_setup(n_nodes=8, samples=320)
            ring = BasilRing(range(8), frozenset({1, 6}), 2, 5, task, train,
                             attack=AttackSpec.make(kind), batch_size=5, epochs=epochs,
                             test_set=test)
            ring.run(3)
            return ring

        bulk, taken, keyed = run(), [], Driver._keyed

        def fresh(lead, driver, tag, stream):
            # takes the prepared state, then draws as default_rng(key) does
            keyed(lead, driver, tag, stream)
            taken.append(tag)
            return np.random.default_rng([driver.seed, tag, *stream])

        monkeypatch.setattr(Driver, "_keyed", fresh)
        plain = run()
        assert set(taken) == {TAG_BATCH, TAG_ATTACK} | ({TAG_EPOCH} if epochs else set())
        assert plain.history.rows == bulk.history.rows
        assert plain.history.selections == bulk.history.selections
        for node in range(8):
            assert (plain.latest_output[node].params.tobytes()
                    == bulk.latest_output[node].params.tobytes()), node

    @pytest.mark.parametrize("shard, size", [
        (1, 1), (2, 1), (30, 1), (30, 8), (30, 29), (200, 80),
        # past 10,000 samples and shard // 50 numpy shuffles the tail of a permutation
        (12_000, 8), (12_000, 240), (12_000, 241), (12_000, 11_999),
        # a batch of the whole shard or more is the shard, undrawn
        (30, 30), (30, 31), (30, None)])
    def test_local_batch_is_the_keyed_choice(self, shard, size):
        dataset = Dataset(np.zeros((shard + 7, 1)), np.zeros(shard + 7),
                          partition={3: np.arange(7, shard + 7)})
        indices = dataset.node_indices(3)
        keys = [(seed, TAG_BATCH, 3, k) for seed in (0, 6, 2027, 2**33) for k in (1, 2)]
        generator = np.random.Generator(np.random.PCG64(0))
        for key, state in zip(keys, keyed_states(keys)):
            got = local_batch(dataset, 3, size, set_state(generator, state))
            if size is None or size >= shard:
                assert got is indices
            else:
                want = np.random.default_rng(list(key)).choice(indices, size=size, replace=False)
                assert got.tobytes() == want.tobytes(), key
