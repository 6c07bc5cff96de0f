"""Experiment driver: config validation, seeding, run dispatch, file export.

A run is fully described by a JSON config; the emitted manifest embeds the
resolved config so any run can be replayed bit-identically from its manifest
alone.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import acds as acds_mod
from . import baselines
from .attacks import ATTACK_KINDS, AttackSpec
from .basil_plus import BasilPlusDriver, cluster_nodes
from .data import Dataset, flag_sensitive_by_class, make_cluster_dataset, make_quadratic_dataset, partition
from .errors import ConfigError, IdxFormatError
from .history import TrainHistory
from .idx import idx_dataset, read_idx_images, read_idx_labels
from .models import MlpTask, QuadraticTask, SoftmaxTask
from .ring import BasilRing, constant_lr, sample_byzantine_ids

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "BASILSIM_OUTPUT_ROOT"

SCHEMES = ("basil", "basil-plus", "r-plain", "g-plain", "r-plain-plus", "ubar")
RING_SCHEMES = ("basil", "r-plain")
GROUPED_SCHEMES = ("basil-plus", "r-plain-plus")
GRAPH_SCHEMES = ("g-plain", "ubar")
EPOCH_SCHEMES = ("basil", "basil-plus")


#: defaults that are not values: the field must be given, or may be left out
REQUIRED, ABSENT = object(), object()
EXISTS = "an existing file"
NUMBER = (int, float)
NULL = type(None)


def _when(path: str, values: tuple, default=REQUIRED, otherwise=ABSENT):
    """A default that is ``default`` where the resolved ``path`` is one of
    ``values`` and ``otherwise`` elsewhere; ``default`` may be a function too."""
    parts = path.split(".")

    def resolve(cfg: dict):
        node = cfg
        for part in parts:
            node = node[part]
        return (default(cfg) if callable(default) else default) if node in values else otherwise
    return resolve


#: path -> (type, bound, default), parents before their fields.  A bound is a
#: minimum, a tuple of allowed values, an interval within [0, 1], or EXISTS.
#: A null value takes the default, except where the type admits NULL.
FIELDS = {
    "schema_version": (int, (SCHEMA_VERSION,), SCHEMA_VERSION),
    "scheme": (str, SCHEMES, REQUIRED),
    "seed": (int, 0, REQUIRED),
    "rounds": (int, 0, REQUIRED),
    "tau": (int, 0, 1),
    "dataset": (dict, None, REQUIRED),
    "dataset.kind": (str, ("synthetic", "mnist-idx", "quadratic"), REQUIRED),
    "dataset.samples": (int, 1, _when("dataset.kind", ("synthetic", "quadratic"))),
    "dataset.test_samples": (int, 1, _when("dataset.kind", ("synthetic",))),
    "dataset.classes": (int, 2, _when("dataset.kind", ("synthetic",))),
    "dataset.dim": (int, 1, _when("dataset.kind", ("synthetic", "quadratic"))),
    "dataset.separation": (NUMBER, None, _when("dataset.kind", ("synthetic",), 3.0)),
    "dataset.class_std": (NUMBER, None, _when("dataset.kind", ("synthetic",), 1.0)),
    "dataset.noise_scale": (NUMBER, None, _when("dataset.kind", ("quadratic",), 0.0)),
    "dataset.seed": (int, 0, _when("dataset.kind", ("synthetic", "quadratic"),
                                   lambda cfg: cfg["seed"])),
    "dataset.train_images": (str, EXISTS, _when("dataset.kind", ("mnist-idx",))),
    "dataset.train_labels": (str, EXISTS, _when("dataset.kind", ("mnist-idx",))),
    "dataset.test_images": (str, EXISTS, _when("dataset.kind", ("mnist-idx",))),
    "dataset.test_labels": (str, EXISTS, _when("dataset.kind", ("mnist-idx",))),
    "dataset.limit": (int, 1, ABSENT),
    "partition": (dict, None, {}),
    "partition.mode": (str, ("iid", "non-iid"), "iid"),
    "task": (dict, None, {}),
    "task.kind": (str, ("quadratic-convex", "softmax-regression", "mlp-3fc"),
                  _when("dataset.kind", ("quadratic",), "quadratic-convex", "softmax-regression")),
    "ring": (dict, None, REQUIRED),
    "ring.nodes": (int, 1, REQUIRED),
    "ring.byzantine": (int, 0, 0),
    "ring.byzantine_ids": (list, None, None),
    "ring.connectivity": (int, 1, _when("scheme", ("basil",))),
    "groups": (dict, None, _when("scheme", GROUPED_SCHEMES)),
    "groups.count": (int, 1, _when("scheme", GROUPED_SCHEMES)),
    "graph": (dict, None, _when("scheme", GRAPH_SCHEMES, {})),
    "graph.edge_prob_benign": (NUMBER, "[0, 1]", 0.4),
    "graph.edge_prob_byzantine": (NUMBER, "[0, 1]", 0.4),
    "graph.rho": (NUMBER, "(0, 1]", 0.33),
    "graph.mixing": (NUMBER, "[0, 1]", 0.5),
    "attack": (dict, None, {}),
    "attack.kind": (str, ATTACK_KINDS, "none"),
    "attack.activation_round": (int, 0, ABSENT),
    "training": (dict, None, {}),
    # null means all of a node's data
    "training.batch_size": ((int, NULL), 1, 80),
    "training.epochs": (int, 1, None),
    "training.lr": (dict, None, {}),
    "training.lr.kind": (str, ("decay", "constant"), "decay"),
    "training.lr.eta0": (NUMBER, None, _when("training.lr.kind", ("decay",), 0.03)),
    "training.lr.decay": (NUMBER, None, _when("training.lr.kind", ("decay",), 0.03)),
    "training.lr.eta": (NUMBER, None, _when("training.lr.kind", ("constant",))),
    "acds": (dict, None, {}),
    "acds.enabled": (bool, None, False),
    "acds.alpha": (NUMBER, "(0, 1)", _when("acds.enabled", (True,))),
    "acds.batches": (int, 1, _when("acds.enabled", (True,))),
    "acds.groups": (int, 1, _when("acds.enabled", (True,))),
    "acds.sensitive_gamma": (NUMBER, "[0, 1]", ABSENT),
    "output": (dict, None, {}),
    "output.emit_series": (bool, None, True),
    "output.dir": (str, None, ABSENT),
}

#: (path, parent path, key, types, bound, default) for each row of FIELDS
_ROWS = [(path, *path.rpartition(".")[::2], types if isinstance(types, tuple) else (types,),
          bound, default) for path, (types, bound, default) in FIELDS.items()]
#: dict path ("" for the top level) -> the keys the table lists in it
_KEYS = {parent: {k for _, p, k, *_ in _ROWS if p == parent} for _, parent, *_ in _ROWS}


def _reject_unknown(node: dict, path: str) -> None:
    unknown = sorted(node.keys() - _KEYS[path])
    if unknown:
        raise ConfigError(f"{path + '.' if path else ''}{unknown[0]}: unknown field")


def _check(path: str, value, types: tuple, bound) -> None:
    # bool is an int subclass; accept it only where bool itself is allowed
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = " or ".join(t.__name__ for t in types if t is not NULL)
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")
    if bound is EXISTS:
        ok, want = Path(value).exists(), bound
    elif isinstance(bound, tuple):
        ok, want = value in bound, "one of " + ", ".join(map(repr, bound))
    elif isinstance(bound, str):  # an interval such as "(0, 1]"
        ok = ((value > 0 if bound[0] == "(" else value >= 0)
              and (value < 1 if bound[-1] == ")" else value <= 1))
        want = f"in {bound}"
    else:
        ok, want = bound is None or value >= bound, f">= {bound}"
    if not ok:
        raise ConfigError(f"{path}: must be {want}, got {value!r}")


def validate_config(cfg: dict) -> dict:
    """Fill the defaults of ``FIELDS`` and fail fast with field-level messages."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    out = json.loads(json.dumps(cfg))  # deep copy, JSON-typed
    _reject_unknown(out, "")
    dicts = {"": out}  # the resolved dict at each path
    for path, parent, key, types, bound, default in _ROWS:
        node = dicts.get(parent)
        if node is None:
            continue  # the enclosing dict is left out
        value = node.get(key)
        if value is None and (key not in node or NULL not in types):
            value = default(out) if callable(default) else default
            if value is REQUIRED:
                raise ConfigError(f"{path}: required field is missing")
            if value is ABSENT:
                node.pop(key, None)
                continue
            node[key] = value = copy.copy(value)
        if value is not None:
            _check(path, value, types, bound)
        if isinstance(value, dict):
            _reject_unknown(value, path)
            dicts[path] = value

    scheme, ring = out["scheme"], out["ring"]
    n_nodes, n_byzantine, ids = ring["nodes"], ring["byzantine"], ring["byzantine_ids"]
    if n_byzantine >= n_nodes:
        raise ConfigError(f"ring.byzantine: must be below ring.nodes = {n_nodes}, "
                          f"got {n_byzantine}")
    if ids is not None and (len(ids) > n_byzantine
                            or not all(type(i) is int and 0 <= i < n_nodes for i in ids)
                            or len(set(ids)) != len(ids)):
        raise ConfigError(f"ring.byzantine_ids: expected at most ring.byzantine = {n_byzantine} "
                          f"distinct ints in 0..{n_nodes - 1}, got {ids!r}")
    if scheme in GROUPED_SCHEMES and n_nodes % out["groups"]["count"] != 0:
        raise ConfigError("groups.count: must divide ring.nodes")
    if scheme in GROUPED_SCHEMES and n_nodes // out["groups"]["count"] <= n_byzantine:
        # a group with no benign member has no model to train
        byzantine = _byzantine_set(out)
        for gid, members in enumerate(cluster_nodes(range(n_nodes), out["groups"]["count"],
                                                     out["seed"])):
            if byzantine.issuperset(members):
                raise ConfigError(f"ring.byzantine{'' if ids is None else '_ids'}: the "
                                  f"placement at seed {out['seed']} leaves group "
                                  f"{gid} with only Byzantine nodes")
    if scheme == "ubar" and n_byzantine >= n_nodes - 1:
        # two or more benign nodes are kept connected, but a sole benign node
        # may draw no edge, and UBAR has no neighbour to filter
        byzantine = _byzantine_set(out)
        field = "graph.edge_prob_byzantine" if n_nodes > 1 else "ring.nodes"
        for node, nbrs in _graph(out, byzantine).items():
            if not nbrs and node not in byzantine:
                raise ConfigError(f"{field}: the graph at seed {out['seed']} gives benign "
                                  f"node {node} no neighbours, and ubar needs one")
    if "connectivity" in ring and scheme in ("basil", "basil-plus"):
        # basil-plus runs one ring per group; a ring of one node stores one model
        size = n_nodes if scheme == "basil" else n_nodes // out["groups"]["count"]
        if 1 < size <= ring["connectivity"]:
            raise ConfigError(f"ring.connectivity: must be at most the ring size minus one = "
                              f"{size - 1}, got {ring['connectivity']}")
    if out["acds"]["enabled"] and n_nodes % out["acds"]["groups"] != 0:
        raise ConfigError(f"acds.groups: must divide ring.nodes = {n_nodes}, "
                          f"got {out['acds']['groups']}")
    data = out["dataset"]
    size = "limit" if data["kind"] == "mnist-idx" else "samples"
    if data.get(size, n_nodes) < n_nodes:
        raise ConfigError(f"dataset.{size}: must be at least ring.nodes = {n_nodes}, "
                          f"got {data[size]}")
    epochs = out["training"]["epochs"]
    if epochs is not None and scheme not in EPOCH_SCHEMES:
        raise ConfigError(f"training.epochs: scheme {scheme!r} takes no epochs, got {epochs!r}")
    task, kind = out["task"]["kind"], out["dataset"]["kind"]
    if (task == "quadratic-convex") != (kind == "quadratic"):
        raise ConfigError(f"task.kind: {task!r} does not fit dataset.kind {kind!r}")
    return out


def _byzantine_set(cfg: dict) -> frozenset[int]:
    """The run's Byzantine nodes: ``ring.byzantine_ids`` if given, else a
    placement of ``ring.byzantine`` nodes seeded by the run seed."""
    ring = cfg["ring"]
    if ring["byzantine_ids"] is not None:
        return frozenset(ring["byzantine_ids"])
    return sample_byzantine_ids(range(ring["nodes"]), ring["byzantine"], cfg["seed"])


def _graph(cfg: dict, byzantine: frozenset[int]) -> dict[int, frozenset[int]]:
    """The graph schemes' random graph over ``ring.nodes``."""
    graph = cfg["graph"]
    return baselines.build_random_graph(range(cfg["ring"]["nodes"]), byzantine, cfg["seed"],
                                        graph["edge_prob_benign"], graph["edge_prob_byzantine"])


def _build_lr(cfg: dict):
    lr = cfg["training"]["lr"]
    if lr["kind"] == "constant":
        return constant_lr(float(lr["eta"]))
    eta0, decay = float(lr["eta0"]), float(lr["decay"])
    return lambda k: eta0 / (1.0 + decay * k)


def _load_idx(d: dict, split: str) -> Dataset:
    """The ``split`` IDX pair; a file that is not IDX is a fault of its field,
    and a pair whose counts differ of both."""
    arrays = []
    for part, read in (("images", read_idx_images), ("labels", read_idx_labels)):
        try:
            arrays.append(read(d[f"{split}_{part}"]))
        except IdxFormatError as exc:
            raise ConfigError(f"dataset.{split}_{part}: {exc}") from exc
    try:
        return idx_dataset(*arrays)
    except IdxFormatError as exc:
        raise ConfigError(f"dataset.{split}_images and dataset.{split}_labels: {exc}") from exc


def _build_dataset(cfg: dict) -> tuple[Dataset, tuple | None]:
    d = cfg["dataset"]
    if d["kind"] == "synthetic":
        # one draw, then split, so train and test share the class geometry
        full = make_cluster_dataset(
            d["samples"] + d["test_samples"], d["classes"], d["dim"],
            d["separation"], d["seed"], class_std=d["class_std"],
        )
        train = Dataset(full.features[: d["samples"]], full.labels[: d["samples"]])
        test = full.features[d["samples"]:], full.labels[d["samples"]:]
        return train, test
    if d["kind"] == "mnist-idx":
        train, test = (_load_idx(d, split) for split in ("train", "test"))
        if "limit" in d:
            train = Dataset(train.features[:d["limit"]], train.labels[:d["limit"]])
        # validate_config checks dataset.limit; only the file knows its size
        if len(train) < cfg["ring"]["nodes"]:
            raise ConfigError(f"dataset.train_images: must hold at least ring.nodes = "
                              f"{cfg['ring']['nodes']} samples, holds {len(train)}")
        if not len(test):
            raise ConfigError("dataset.test_images: holds no images to score")
        return train, (test.features, test.labels)
    train = make_quadratic_dataset(d["samples"], d["dim"], d["seed"])
    return train, None


def _build_task(cfg: dict, dataset: Dataset):
    kind = cfg["task"]["kind"]
    if kind == "quadratic-convex":
        rng = np.random.default_rng([cfg["dataset"]["seed"], 0x7A])
        hess = rng.uniform(0.3, 1.0, size=dataset.dim)
        x_star = rng.standard_normal(dataset.dim)
        return QuadraticTask(hess, x_star, noise_scale=float(cfg["dataset"]["noise_scale"]))
    n_classes = int(dataset.labels.max()) + 1
    if kind == "softmax-regression":
        return SoftmaxTask(dataset.dim, n_classes)
    return MlpTask((dataset.dim, 100, 100, n_classes))


def _apply_acds(cfg: dict, dataset: Dataset, manifest: dict) -> Dataset:
    ac = cfg["acds"]
    if not ac["enabled"]:
        return dataset
    if "sensitive_gamma" in ac:
        dataset = flag_sensitive_by_class(dataset, float(ac["sensitive_gamma"]))
    try:
        plan = acds_mod.plan_acds(dataset, sorted(dataset.partition), ac["groups"],
                                  ac["alpha"], ac["batches"], cfg["seed"])
    except ConfigError as exc:
        # validate_config checks the rest: only the per-node size, known once
        # partitioned, can still empty a batch or starve a node of shareable samples
        field = "acds.sensitive_gamma" if "non-sensitive" in str(exc) else "acds.alpha"
        raise ConfigError(f"{field}: {exc}") from exc
    pool = acds_mod.run_acds(plan, shuffle_seed=cfg["seed"])
    augmented = {
        node: np.sort(np.concatenate([
            dataset.partition[node], np.asarray(pool.received_ids(node), dtype=np.int64)
        ]))
        for node in dataset.partition
    }
    manifest["acds_summary"] = pool.summary()
    return replace(dataset, partition=augmented)


@dataclass
class RunResult:
    history: TrainHistory
    output_dir: Path
    csv_path: Path
    manifest_path: Path
    series_path: Path | None


def run_experiment(config: dict | str | Path, output_dir: str | Path | None = None) -> RunResult:
    """Validate, run, and export one experiment.

    ``config`` may be a config dict/file or a previously written manifest
    (replaying a manifest reproduces the CSV byte for byte).  Partial outputs,
    and the directories the run created, are removed if the run fails.
    """
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    if "config" in config and "scheme" not in config:
        config = config["config"]
    cfg = validate_config(config)

    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out_dir = Path(output_dir) if output_dir is not None else root / cfg["output"].get("dir", "run")
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "history.csv"
    manifest_path = out_dir / "manifest.json"
    series_path = out_dir / "series.csv" if cfg["output"]["emit_series"] else None
    written: list[Path] = []
    try:
        history, stat, manifest = _dispatch(cfg)
        history.manifest = {**manifest, "schema_version": SCHEMA_VERSION, "config": cfg}
        history.write_csv(csv_path)
        written.append(csv_path)
        history.write_manifest(manifest_path)
        written.append(manifest_path)
        if series_path is not None and history.rows:
            history.write_series_csv(series_path, stat)
            written.append(series_path)
        return RunResult(history, out_dir, csv_path, manifest_path, series_path)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        for path in created:
            try:
                path.rmdir()
            except OSError:  # something else wrote there: leave it
                break
        raise


def _dispatch(cfg: dict) -> tuple[TrainHistory, str, dict]:
    """Build and run the scheme's driver; returns its history, the accuracy
    statistic of its series, and the manifest entries the run adds."""
    scheme, seed = cfg["scheme"], cfg["seed"]
    dataset, test_set = _build_dataset(cfg)
    n_nodes = cfg["ring"]["nodes"]
    attack = AttackSpec.make(cfg["attack"]["kind"], cfg["attack"].get("activation_round"))
    manifest = {"attack": attack.to_manifest()}
    dataset = partition(dataset, n_nodes, cfg["partition"]["mode"], seed)
    dataset = _apply_acds(cfg, dataset, manifest)
    task = _build_task(cfg, dataset)
    common = dict(attack=attack, lr_schedule=_build_lr(cfg),
                  batch_size=cfg["training"]["batch_size"], test_set=test_set)
    byzantine = _byzantine_set(cfg)

    # the unfiltered schemes run the filtered drivers at connectivity one,
    # where every selection has a single candidate
    if scheme in RING_SCHEMES:
        S = 1 if scheme == "r-plain" else cfg["ring"]["connectivity"]
        driver = BasilRing(range(n_nodes), byzantine, S, seed, task, dataset,
                           epochs=cfg["training"]["epochs"], **common)
    elif scheme in GRAPH_SCHEMES:
        rule = (baselines.gossip_rule if scheme == "g-plain"
                else baselines.ubar_rule(cfg["graph"]["rho"], cfg["graph"]["mixing"]))
        driver = baselines.GraphDriver(_graph(cfg, byzantine), byzantine, rule, seed, task,
                                       dataset, **common)
    else:
        n_groups = cfg["groups"]["count"]
        if scheme == "r-plain-plus":
            S = 1
        elif "connectivity" in cfg["ring"]:
            S = cfg["ring"]["connectivity"]
        else:
            # b+1 stored models, capped at the group size less one; a one-node
            # group stores one model (S=1), the shape r-plain-plus runs
            S = max(1, min(n_nodes // n_groups - 1, cfg["ring"]["byzantine"] + 1))
        driver = BasilPlusDriver(n_groups, byzantine, S, seed, task, dataset, n_nodes=n_nodes,
                                 tau=cfg["tau"], epochs=cfg["training"]["epochs"], **common)
    stat = "mean" if scheme in GROUPED_SCHEMES else "worst"
    return driver.run(cfg["rounds"]), stat, manifest
