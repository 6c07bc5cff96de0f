"""The ring driver against the plain reference (``tests/reference.py``) over
drawn configs: every record and row agrees, losses and accuracies to a
relative 1e-12, since the two sum in different orders."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import reference
from basilsim.attacks import ATTACK_KINDS, AttackSpec
from basilsim.data import Dataset, make_cluster_dataset
from basilsim.models import SoftmaxTask
from basilsim.ring import BasilRing, constant_lr

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ROUNDS = 6
#: what the reference may not import: the drivers, the streams, the scoring
BARRED = {"basilsim.ring", "basilsim.basil_plus", "basilsim.baselines", "basilsim.streams"}
SCORING = {"score_wave", "step_winners", "sgd_step", "evaluate_loss", "accuracy",
           "DenseTask", "SoftmaxTask"}


def test_the_reference_imports_no_driver_stream_or_scoring():
    # each import as the dotted name it binds: ``from a import b`` is ``a.b``
    names = []
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    barred = BARRED | {f"basilsim.models.{name}" for name in SCORING}
    assert names and not [n for n in names if n in barred or n.startswith(tuple(
        f"{b}." for b in barred))]


@st.composite
def ring_configs(draw):
    n = draw(st.integers(3, 11))
    byzantine = frozenset(draw(st.permutations(range(n)))[:draw(st.integers(0, n - 1))])
    scheme = draw(st.sampled_from(["basil", "r-plain"]))
    return dict(
        nodes=range(n), byzantine=byzantine,
        S=1 if scheme == "r-plain" else draw(st.integers(1, n - 1)),
        seed=draw(st.integers(0, 2**34)),
        shard_sizes=draw(st.lists(st.integers(1, 14), min_size=n, max_size=n)),
        batch=draw(st.integers(1, 11)), classes=draw(st.integers(2, 5)),
        features=draw(st.integers(2, 6)), epochs=draw(st.sampled_from([None, 1, 2])),
        attack=draw(st.sampled_from(ATTACK_KINDS)),
        activation_round=draw(st.sampled_from([0, 1, 3])),
        lr=draw(st.sampled_from([0.1, 0.5, 2.0])))


def compare(config):
    """Run the driver and the reference on ``config``; False if the reference
    met a near tie, where the two may break it differently."""
    config = dict(config)
    sizes, features, classes = config.pop("shard_sizes"), config["features"], config["classes"]
    data = make_cluster_dataset(sum(sizes) + 30, classes, features, separation=1.5,
                                seed=config["seed"] % 1000)
    bounds = np.cumsum([0, *sizes])
    shards = {node: np.arange(bounds[node], bounds[node + 1]) for node in config["nodes"]}
    test = (data.features[-30:], data.labels[-30:])
    ring = BasilRing(
        config["nodes"], config["byzantine"], config["S"], config["seed"],
        SoftmaxTask(features, classes),
        Dataset(data.features, data.labels, partition=shards), epochs=config["epochs"],
        attack=AttackSpec.make(config["attack"], config["activation_round"]),
        lr_schedule=constant_lr(config["lr"]), batch_size=config["batch"], test_set=test)
    history = ring.run(ROUNDS)
    records, rows, near_ties = reference.run_ring(
        **{**config, "features": data.features}, labels=data.labels, shards=shards, test=test,
        rounds=ROUNDS)
    if near_ties:
        return False
    close = lambda a, b: math.isclose(a, b, rel_tol=1e-12) or a == b
    assert len(history.selections) == len(records)
    for got, (k, node, benign, candidates, winners) in zip(history.selections, records):
        assert (got.round, got.stage, got.group, got.node, got.benign, got.winners,
                got.fanout) == (k, "ring", None, node, benign, winners, config["S"])
        assert [s for s, _ in got.candidates] == [s for s, _ in candidates], (k, node)
        assert all(close(a, b) for (_, a), (_, b) in zip(got.candidates, candidates)), (k, node)
    assert len(history.rows) == len(rows)
    for got, (k, node, sender, loss, acc) in zip(history.rows, rows):
        assert (got.round, got.node, got.selected_sender, got.group) == (k, node, sender, None)
        assert close(got.train_loss, loss) and close(got.test_acc, acc), (k, node)
    return True


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(ring_configs())
def test_the_ring_matches_the_reference(config):
    hypothesis.assume(compare(config))
