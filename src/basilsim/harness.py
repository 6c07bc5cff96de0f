"""Experiment driver: config validation, seeding, run dispatch, file export.

A run is fully described by a JSON config; the emitted manifest embeds the
resolved config so any run can be replayed bit-identically from its manifest
alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import acds as acds_mod
from . import baselines
from .attacks import AttackSpec
from .basil_plus import GroupConfig, run_basil_plus
from .data import Dataset, flag_sensitive_by_class, make_cluster_dataset, make_quadratic_dataset, partition
from .errors import ConfigError
from .history import TrainHistory
from .idx import load_idx
from .models import MlpTask, QuadraticTask, SoftmaxTask
from .ring import RingConfig, constant_lr, default_lr, place_byzantine, run_basil

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "BASILSIM_OUTPUT_ROOT"

SCHEMES = ("basil", "basil-plus", "r-plain", "g-plain", "r-plain-plus", "ubar")
RING_SCHEMES = ("basil", "r-plain")
GROUPED_SCHEMES = ("basil-plus", "r-plain-plus")
GRAPH_SCHEMES = ("g-plain", "ubar")
EPOCH_SCHEMES = ("basil", "basil-plus")


def _require(cfg: dict, path: str, types, default=None, required=False):
    node = cfg
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.get(part, {}) if isinstance(node, dict) else {}
    value = node.get(parts[-1], None) if isinstance(node, dict) else None
    if value is None:
        if required:
            raise ConfigError(f"{path}: required field is missing")
        return default
    allowed = types if isinstance(types, tuple) else (types,)
    # bool is an int subclass; accept it only where bool itself is allowed
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        names = " or ".join(t.__name__ for t in allowed)
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")
    return value


def _require_int(cfg: dict, path: str, low: int, default=None, required=False):
    value = _require(cfg, path, int, default, required)
    if value is not None and value < low:
        raise ConfigError(f"{path}: must be >= {low}, got {value}")
    return value


def validate_config(cfg: dict) -> dict:
    """Fill defaults and fail fast with field-level messages."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    out = json.loads(json.dumps(cfg))  # deep copy, JSON-typed
    version = _require(out, "schema_version", int, default=SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported version {version}")
    out["schema_version"] = SCHEMA_VERSION

    scheme = _require(out, "scheme", str, required=True)
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme: unknown scheme {scheme!r}")
    _require(out, "seed", int, required=True)
    _require_int(out, "rounds", 0, required=True)
    _require_int(out, "tau", 0)
    out.setdefault("tau", 1)

    dataset = _require(out, "dataset", dict, required=True)
    kind = _require(out, "dataset.kind", str, required=True)
    if kind == "synthetic":
        for key in ("samples", "test_samples", "classes", "dim"):
            _require_int(out, f"dataset.{key}", 1, required=True)
        dataset.setdefault("separation", 3.0)
        dataset.setdefault("class_std", 1.0)
        dataset.setdefault("seed", out["seed"])
    elif kind == "mnist-idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            path = _require(out, f"dataset.{key}", str, required=True)
            if not Path(path).exists():
                raise ConfigError(f"dataset.{key}: file not found: {path}")
    elif kind == "quadratic":
        for key in ("dim", "samples"):
            _require_int(out, f"dataset.{key}", 1, required=True)
        dataset.setdefault("noise_scale", 0.0)
        dataset.setdefault("seed", out["seed"])
    else:
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}")

    out.setdefault("partition", {})
    mode = out["partition"].setdefault("mode", "iid")
    if mode not in ("iid", "non-iid"):
        raise ConfigError(f"partition.mode: unknown mode {mode!r}")

    out.setdefault("task", {})
    default_task = "quadratic-convex" if kind == "quadratic" else "softmax-regression"
    task_kind = out["task"].setdefault("kind", default_task)
    if task_kind not in ("quadratic-convex", "softmax-regression", "mlp-3fc"):
        raise ConfigError(f"task.kind: unknown kind {task_kind!r}")

    ring = _require(out, "ring", dict, required=True)
    n_nodes = _require(out, "ring.nodes", int, required=True)
    ring.setdefault("byzantine", 0)
    ring.setdefault("dropout", 0)
    ring.setdefault("byzantine_ids", None)
    ids = _require(out, "ring.byzantine_ids", list)
    if ids is not None and (not all(type(i) is int and 0 <= i < n_nodes for i in ids)
                            or len(set(ids)) != len(ids)):
        raise ConfigError(f"ring.byzantine_ids: expected distinct ints in 0..{n_nodes - 1}, "
                          f"got {ids!r}")
    n_byzantine = ring["byzantine"] = _require_int(out, "ring.byzantine", 0, default=0)
    if ids is not None and len(ids) > n_byzantine:
        raise ConfigError(f"ring.byzantine_ids: {len(ids)} ids exceed ring.byzantine "
                          f"= {n_byzantine}")
    ring["dropout"] = _require_int(out, "ring.dropout", 0, default=0)
    if ring["dropout"] and scheme != "basil":
        raise ConfigError(f"ring.dropout: scheme {scheme!r} has no dropout mode")
    if scheme == "basil":
        # optional in dropout mode, where width b+d+1 and depth b+1 replace it
        _require(out, "ring.connectivity", int, required=ring["dropout"] == 0)
    if scheme in GROUPED_SCHEMES:
        count = _require_int(out, "groups.count", 1, required=True)
        if n_nodes % count != 0:
            raise ConfigError("groups.count: must divide ring.nodes")
    if scheme in GRAPH_SCHEMES:
        graph = out.setdefault("graph", {})
        for key, default in (("edge_prob_benign", 0.4), ("edge_prob_byzantine", 0.4),
                             ("rho", 0.33), ("mixing", 0.5)):
            graph.setdefault(key, default)
            value = _require(out, f"graph.{key}", (int, float), required=True)
            if not 0 <= value <= 1 or (key == "rho" and value == 0):
                interval = "(0, 1]" if key == "rho" else "[0, 1]"
                raise ConfigError(f"graph.{key}: must lie in {interval}, got {value!r}")

    out.setdefault("attack", {})
    atk_kind = out["attack"].setdefault("kind", "none")
    _require_int(out, "attack.activation_round", 0)
    try:
        AttackSpec.make(atk_kind, out["attack"].get("activation_round"))
    except ConfigError as exc:
        raise ConfigError(f"attack.kind: {exc}") from None

    out.setdefault("training", {})
    out["training"].setdefault("batch_size", 80)
    _require_int(out, "training.batch_size", 1)
    epochs = out["training"].setdefault("epochs", None)
    _require_int(out, "training.epochs", 1)
    if epochs is not None and scheme not in EPOCH_SCHEMES:
        raise ConfigError(f"training.epochs: scheme {scheme!r} takes no epochs, got {epochs!r}")
    out["training"].setdefault("lr", {"kind": "decay", "eta0": 0.03, "decay": 0.03})
    lr = _require(out, "training.lr", dict)
    if lr.get("kind") not in ("decay", "constant"):
        raise ConfigError("training.lr.kind: must be 'decay' or 'constant'")
    for key in ("eta0", "decay"):
        _require(out, f"training.lr.{key}", (int, float))
    _require(out, "training.lr.eta", (int, float), required=lr["kind"] == "constant")

    out["acds"] = _require(out, "acds", dict, default={})
    enabled = out["acds"]["enabled"] = _require(out, "acds.enabled", bool, default=False)
    alpha = _require(out, "acds.alpha", (int, float), required=enabled)
    if alpha is not None and not 0 < alpha < 1:
        raise ConfigError(f"acds.alpha: must lie in (0, 1), got {alpha!r}")
    for key in ("batches", "groups"):
        _require_int(out, f"acds.{key}", 1, required=enabled)
    out["output"] = _require(out, "output", dict, default={})
    out["output"]["emit_series"] = _require(out, "output.emit_series", bool, default=True)
    return out


def _build_lr(cfg: dict):
    lr = cfg["training"]["lr"]
    if lr["kind"] == "constant":
        return constant_lr(float(lr["eta"]))
    eta0, decay = float(lr.get("eta0", 0.03)), float(lr.get("decay", 0.03))
    if (eta0, decay) == (0.03, 0.03):
        return default_lr
    return lambda k: eta0 / (1.0 + decay * k)


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
        train = load_idx(d["train_images"], d["train_labels"])
        test = load_idx(d["test_images"], d["test_labels"])
        limit = d.get("limit")
        if limit:
            train = Dataset(train.features[:limit], train.labels[:limit])
        return train, (test.features, test.labels)
    train = make_quadratic_dataset(d["samples"], d["dim"], d["seed"])
    return train, None


def _build_task(cfg: dict, dataset: Dataset):
    kind = cfg["task"]["kind"]
    if kind == "quadratic-convex":
        rng = np.random.default_rng([cfg["dataset"]["seed"], 0x7A])
        dim = dataset.dim
        hess = rng.uniform(0.3, 1.0, size=dim)
        x_star = rng.standard_normal(dim)
        return QuadraticTask(hess, x_star, noise_scale=float(cfg["dataset"].get("noise_scale", 0.0)))
    n_classes = int(dataset.labels.max()) + 1
    if kind == "softmax-regression":
        return SoftmaxTask(dataset.dim, n_classes)
    return MlpTask((dataset.dim, 100, 100, n_classes))


def _apply_acds(cfg: dict, dataset: Dataset) -> tuple[Dataset, dict | None]:
    ac = cfg["acds"]
    if not ac["enabled"]:
        return dataset, None
    if ac.get("sensitive_gamma") is not None:
        dataset = flag_sensitive_by_class(dataset, float(ac["sensitive_gamma"]))
    plan = acds_mod.plan_acds(
        dataset, sorted(dataset.partition), ac["groups"], float(ac["alpha"]),
        int(ac["batches"]), cfg["seed"],
    )
    pool = acds_mod.run_acds(plan, shuffle_seed=cfg["seed"])
    augmented = {
        node: np.sort(np.concatenate([
            dataset.partition[node], np.asarray(pool.received_ids(node), dtype=np.int64)
        ]))
        for node in dataset.partition
    }
    return replace(dataset, partition=augmented), pool.summary()


@dataclass
class RunResult:
    history: TrainHistory
    output_dir: Path
    csv_path: Path
    manifest_path: Path
    series_path: Path | None


def _resolve_output_dir(cfg: dict, override: str | Path | None) -> Path:
    if override is not None:
        return Path(override)
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    return root / cfg.get("output", {}).get("dir", "run")


def run_experiment(config: dict | str | Path, output_dir: str | Path | None = None) -> RunResult:
    """Validate, run, and export one experiment.

    ``config`` may be a config dict/file or a previously written manifest
    (replaying a manifest reproduces the CSV byte for byte).  Partial outputs
    are removed if the run fails.
    """
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    if "config" in config and "scheme" not in config:
        config = config["config"]
    cfg = validate_config(config)

    out_dir = _resolve_output_dir(cfg, output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "history.csv"
    manifest_path = out_dir / "manifest.json"
    series_path = out_dir / "series.csv" if cfg["output"]["emit_series"] else None
    written: list[Path] = []
    try:
        history, stat = _dispatch(cfg)
        history.manifest.update({
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "attack": AttackSpec.make(
                cfg["attack"]["kind"], cfg["attack"].get("activation_round")
            ).to_manifest(),
        })
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
        raise


def _dispatch(cfg: dict) -> tuple[TrainHistory, str]:
    scheme = cfg["scheme"]
    seed = cfg["seed"]
    dataset, test_set = _build_dataset(cfg)
    n_nodes = cfg["ring"]["nodes"]
    dataset = partition(dataset, n_nodes, cfg["partition"]["mode"], seed)
    dataset, acds_summary = _apply_acds(cfg, dataset)
    task = _build_task(cfg, dataset)
    lr = _build_lr(cfg)
    batch_size = cfg["training"]["batch_size"]
    attack = AttackSpec.make(cfg["attack"]["kind"], cfg["attack"].get("activation_round"))
    byz_ids = cfg["ring"]["byzantine_ids"]
    byz_ids = None if byz_ids is None else frozenset(byz_ids)
    manifest = {} if acds_summary is None else {"acds_summary": acds_summary}

    # the unfiltered schemes run the filtered drivers at connectivity one,
    # where every selection has a single candidate
    if scheme in RING_SCHEMES:
        connectivity = 1 if scheme == "r-plain" else cfg["ring"].get("connectivity")
        config = RingConfig(
            n_nodes=n_nodes,
            n_byzantine=cfg["ring"]["byzantine"],
            n_dropout=cfg["ring"]["dropout"],
            # None only in dropout mode, where width and depth replace it
            connectivity=RingConfig.connectivity if connectivity is None else connectivity,
            seed=seed,
            byzantine_ids=byz_ids,
        )
        history = run_basil(
            config, task, dataset, cfg["rounds"], attack=attack, lr_schedule=lr,
            batch_size=batch_size, epochs=cfg["training"]["epochs"], test_set=test_set,
            manifest=manifest,
        )
        return history, "worst"
    if scheme in GRAPH_SCHEMES:
        ids = list(range(n_nodes))
        byz_ids = place_byzantine(ids, cfg["ring"]["byzantine"], seed, byz_ids)
        topo = baselines.build_random_graph(
            ids, byz_ids, seed,
            edge_prob_benign=cfg["graph"]["edge_prob_benign"],
            edge_prob_byzantine=cfg["graph"]["edge_prob_byzantine"],
        )
        history = baselines.run_graph_scheme(
            scheme, topo, byz_ids, seed, task, dataset, cfg["rounds"],
            rho=cfg["graph"]["rho"], mixing=cfg["graph"]["mixing"], attack=attack,
            lr_schedule=lr, batch_size=batch_size, test_set=test_set, manifest=manifest,
        )
        return history, "worst"
    config = GroupConfig(
        n_nodes=n_nodes,
        n_groups=cfg["groups"]["count"],
        n_byzantine=cfg["ring"]["byzantine"],
        connectivity=1 if scheme == "r-plain-plus" else cfg["ring"].get("connectivity"),
        seed=seed,
        byzantine_ids=byz_ids,
    )
    history = run_basil_plus(
        config, task, dataset, cfg["rounds"], cfg["tau"], attack=attack,
        lr_schedule=lr, batch_size=batch_size, epochs=cfg["training"]["epochs"],
        test_set=test_set, manifest=manifest,
    )
    return history, "mean"
