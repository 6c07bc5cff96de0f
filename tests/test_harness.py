import ast
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import basilsim
from basilsim.analytics import monte_carlo_basil_plus_failure
from basilsim.cli import QUERIES
from basilsim.cli import main as cli_main
from basilsim.errors import ConfigError
from basilsim.harness import FIELDS, SCHEMES, run_experiment, validate_config
from basilsim.ring import sample_byzantine_ids
from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_idx import write_idx_images, write_idx_labels


def desk_config(**overrides):
    cfg = {
        "scheme": "basil",
        "seed": 3,
        "rounds": 2,
        "dataset": {"kind": "synthetic", "samples": 400, "test_samples": 100,
                    "classes": 4, "dim": 8, "separation": 3.0, "seed": 3},
        "ring": {"nodes": 8, "byzantine": 2, "connectivity": 3},
        "attack": {"kind": "gaussian"},
        "training": {"batch_size": 16},
    }
    cfg.update(overrides)
    return cfg


def usage_error(capsys, argv):
    """The message of an argv the parser rejects with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


SYNTHETIC = {"kind": "synthetic", "samples": 400, "test_samples": 100, "classes": 4, "dim": 8}
ACDS = {"enabled": True, "alpha": 0.2, "batches": 2, "groups": 2}
#: an mnist-idx dataset whose four paths exist but hold no IDX data
NOT_IDX = {"kind": "mnist-idx", **{f"{split}_{part}": __file__ for split in ("train", "test")
                                   for part in ("images", "labels")}}

#: a malformed value of each field, as desk_config overrides; a name is the
#: field path, with "=value" added where a field has a second case
MALFORMED = {
    "ring.byzantine": {"ring": {"nodes": 8, "byzantine": "1", "connectivity": 3}},
    "training.batch_size": {"training": {"batch_size": -3}},
    "training.lr.eta": {"training": {"lr": {"kind": "constant"}}},
    "groups.count": {"scheme": "basil-plus", "groups": {"count": 0}},
    "attack.activation_round": {"attack": {"kind": "hidden", "activation_round": "x"}},
    "rounds": {"rounds": True},
    "graph.rho": {"scheme": "ubar", "graph": {"rho": 2}},
    "graph.mixing": {"scheme": "ubar", "graph": {"mixing": "half"}},
    "graph.edge_prob_benign": {"scheme": "g-plain", "graph": {"edge_prob_benign": "0.4"}},
    "graph.edge_prob_byzantine": {"scheme": "g-plain", "graph": {"edge_prob_byzantine": -0.1}},
    "ring.byzantine_ids": {"ring": {"nodes": 8, "byzantine_ids": 5, "connectivity": 3}},
    "dataset.samples": {"dataset": {"kind": "synthetic", "samples": -5, "test_samples": 100,
                                    "classes": 4, "dim": 8}},
    "dataset.test_samples": {"dataset": {"kind": "synthetic", "samples": 400,
                                         "test_samples": 0, "classes": 4, "dim": 8}},
    "dataset.dim": {"dataset": {"kind": "quadratic", "samples": 400, "dim": 0}},
    "acds.enabled": {"acds": {"enabled": "yes", "alpha": 0.2, "batches": 2, "groups": 2}},
    "acds.alpha": {"acds": {"enabled": True, "alpha": "x", "batches": 2, "groups": 2}},
    "acds.batches": {"acds": {"enabled": True, "alpha": 0.2, "batches": 0, "groups": 2}},
    "acds.groups": {"acds": {"enabled": True, "alpha": 0.2, "batches": 2, "groups": 1.5}},
    "acds.groups=3": {"acds": {**ACDS, "groups": 3}},
    "dataset.samples=4": {"dataset": {**SYNTHETIC, "samples": 4}},
    "dataset.limit": {"dataset": {**NOT_IDX, "limit": 4}},
    "output.emit_series": {"output": {"emit_series": "no"}},
    "dataset.separation": {"dataset": {**SYNTHETIC, "separation": "x"}},
    "dataset.class_std": {"dataset": {**SYNTHETIC, "class_std": "x"}},
    "dataset.seed": {"dataset": {**SYNTHETIC, "seed": "x"}},
    "dataset.seed=1.5": {"dataset": {**SYNTHETIC, "seed": 1.5}},
    "dataset.noise_scale": {"dataset": {"kind": "quadratic", "samples": 400, "dim": 4,
                                        "noise_scale": "x"}},
    "partition": {"partition": []},
    "task": {"task": "x"},
    "training": {"training": 5},
    "attack": {"attack": "x"},
    "graph": {"scheme": "ubar", "graph": 5},
    "acds.sensitive_gamma": {"acds": {**ACDS, "sensitive_gamma": "x"}},
    "acds.sensitive_gamma=2": {"acds": {**ACDS, "sensitive_gamma": 2}},
    # found once partitioned, at 50 samples a node: 0.001 * 50 / 2 rounds
    # down to an empty batch, and with every class sensitive no node can
    # share its 2 samples
    "acds.alpha=0.001": {"acds": {**ACDS, "alpha": 0.001}},
    "acds.sensitive_gamma=0": {"acds": {**ACDS, "alpha": 0.05, "sensitive_gamma": 0}},
    "output.dir": {"output": {"dir": 5}},
    "dataset_typo": {"dataset_typo": 1},
    "ring.conectivity": {"ring": {"nodes": 8, "byzantine": 2, "connectivity": 3,
                                  "conectivity": 3}},
    "ring.nodes": {"ring": {"nodes": 0, "connectivity": 3}},
    "ring.connectivity": {"ring": {"nodes": 6, "connectivity": 6}},
    "ring.connectivity=3": {"scheme": "basil-plus", "groups": {"count": 2},
                            "ring": {"nodes": 6, "connectivity": 3}},
    "ring.dropout": {"ring": {"nodes": 6, "byzantine": 2, "dropout": 3}},
    # seed 3 places six Byzantine nodes over both members of group 0
    "ring.byzantine=6": {"scheme": "basil-plus", "groups": {"count": 4},
                         "ring": {"nodes": 8, "byzantine": 6, "connectivity": 1}},
    # the sole benign node of a ubar graph draws no edge
    "graph.edge_prob_byzantine=0": {"scheme": "ubar", "seed": 1,
                                    "ring": {"nodes": 3, "byzantine": 2},
                                    "graph": {"edge_prob_byzantine": 0}},
    "ring.nodes=1": {"scheme": "ubar", "ring": {"nodes": 1}},
}


def bundled_config():
    path = resources.files("basilsim") / "configs" / "fig4b-desk.json"
    return json.loads(path.read_text())


class TestValidation:
    def test_missing_dataset_path_names_the_field(self):
        cfg = desk_config(dataset={
            "kind": "mnist-idx",
            "train_images": "/nonexistent/train-images",
            "train_labels": "x", "test_images": "x", "test_labels": "x",
        })
        with pytest.raises(ConfigError, match="dataset.train_images"):
            validate_config(cfg)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="scheme"):
            validate_config(desk_config(scheme="paxos"))

    def test_missing_required_ring_field(self):
        cfg = desk_config()
        del cfg["ring"]["connectivity"]
        with pytest.raises(ConfigError, match="ring.connectivity"):
            validate_config(cfg)

    def test_groups_must_divide_nodes(self):
        cfg = desk_config(scheme="basil-plus", groups={"count": 3})
        with pytest.raises(ConfigError, match="groups.count"):
            validate_config(cfg)

    def test_null_ring_counts_take_their_defaults(self):
        cfg = validate_config(desk_config(ring={"nodes": 8, "byzantine": None,
                                                "connectivity": 3}))
        assert cfg["ring"]["byzantine"] == 0

    @pytest.mark.parametrize("name", ["bundled", *sorted(GOLDEN_CONFIGS)])
    def test_validation_is_idempotent(self, name):
        cfg = validate_config(bundled_config() if name == "bundled" else GOLDEN_CONFIGS[name])
        assert validate_config(cfg) == cfg

    def test_null_optional_fields_are_left_out(self, tmp_path):
        cfg = desk_config(scheme="basil-plus", groups={"count": 2},
                          ring={"nodes": 8, "byzantine": 1, "connectivity": None},
                          attack={"kind": "hidden", "activation_round": None},
                          acds={**ACDS, "sensitive_gamma": None}, rounds=1)
        resolved = validate_config(cfg)
        assert "connectivity" not in resolved["ring"]
        assert "activation_round" not in resolved["attack"]
        assert "sensitive_gamma" not in resolved["acds"]
        assert run_experiment(cfg, output_dir=tmp_path).history.rows

    def test_explicit_null_batch_size_is_kept(self):
        assert validate_config(desk_config(training={"batch_size": None}))[
            "training"]["batch_size"] is None
        assert validate_config(desk_config(training={}))["training"]["batch_size"] == 80

    def test_readme_lists_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Experiment configs")[1].split("\n## ")[0]
        named = set(re.findall(r"`([a-z_]+(?:\.[a-z_0-9]+)*)`", section))
        assert set(FIELDS) - named == set(), "fields the README does not document"
        top = {path.split(".")[0] for path in FIELDS}
        dotted = {name for name in named if "." in name and name.split(".")[0] in top}
        assert dotted - set(FIELDS) == set(), "README names paths the table lacks"

    def test_defaults_are_filled(self):
        cfg = validate_config(desk_config())
        assert cfg["training"]["lr"]["kind"] == "decay"
        assert cfg["partition"]["mode"] == "iid"
        assert cfg["output"]["emit_series"] is True


class TestRunExperiment:
    def test_bundled_config_structure(self, tmp_path):
        cfg = bundled_config()
        cfg["rounds"] = 3  # structural check only; acceptance runs the full 50
        result = run_experiment(cfg, output_dir=tmp_path / "out")
        lines = result.csv_path.read_text().strip().splitlines()
        benign = cfg["ring"]["nodes"] - cfg["ring"]["byzantine"]
        assert len(lines) == 1 + cfg["rounds"] * benign
        assert lines[0] == "round,node,selected_sender,train_loss,test_acc"
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["config"]["scheme"] == "basil"
        assert result.series_path.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = desk_config()
        a = run_experiment(cfg, output_dir=tmp_path / "a")
        b = run_experiment(cfg, output_dir=tmp_path / "b")
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes()

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        first = run_experiment(desk_config(), output_dir=tmp_path / "a")
        replada = run_experiment(first.manifest_path, output_dir=tmp_path / "b")
        assert first.csv_path.read_bytes() == replada.csv_path.read_bytes()

    def test_every_scheme_dispatches(self, tmp_path):
        schemes = {
            "basil": {},
            "r-plain": {},
            "g-plain": {},
            "ubar": {},
            "basil-plus": {"groups": {"count": 2}},
            "r-plain-plus": {"groups": {"count": 2}},
        }
        for scheme, extra in schemes.items():
            cfg = desk_config(scheme=scheme, rounds=1, **extra)
            result = run_experiment(cfg, output_dir=tmp_path / scheme)
            assert result.history.rows, scheme

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        cfg = desk_config()
        out = tmp_path / "broken"
        import basilsim.harness as harness

        def boom(history, stat):
            raise RuntimeError("disk full")

        real = harness.TrainHistory.write_manifest
        monkeypatch.setattr(harness.TrainHistory, "write_manifest",
                            lambda self, path: boom(self, path))
        with pytest.raises(RuntimeError):
            run_experiment(cfg, output_dir=out)
        monkeypatch.setattr(harness.TrainHistory, "write_manifest", real)
        assert not (out / "history.csv").exists()

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BASILSIM_OUTPUT_ROOT", str(tmp_path))
        cfg = desk_config(output={"dir": "enviro", "emit_series": False})
        result = run_experiment(cfg)
        assert result.output_dir == tmp_path / "enviro"
        assert result.csv_path.exists()

    def test_quadratic_scheme_runs_without_accuracy(self, tmp_path):
        cfg = desk_config(
            dataset={"kind": "quadratic", "dim": 4, "samples": 160,
                     "noise_scale": 0.2, "seed": 1},
            attack={"kind": "none"},
        )
        result = run_experiment(cfg, output_dir=tmp_path / "quad")
        assert all(r.test_acc is None for r in result.history.rows)

    def test_default_connectivity_rule(self, tmp_path):
        # basil-plus stores b+1 models per group, at most the group size less one
        def history(byzantine, **connectivity):
            cfg = desk_config(scheme="basil-plus", groups={"count": 2}, ring={
                "nodes": 8, "byzantine": byzantine, **connectivity})
            out = tmp_path / f"{byzantine}-{connectivity}"
            return run_experiment(cfg, output_dir=out).csv_path.read_bytes()

        assert history(1) == history(1, connectivity=2)
        assert history(3) == history(3, connectivity=3)
        assert history(1) != history(1, connectivity=1)

    def test_one_node_ring_stores_one_model_whatever_s(self, tmp_path):
        # its only sender is itself, so any S keeps one model and one candidate
        def run(connectivity):
            cfg = desk_config(rounds=3, attack={"kind": "none"},
                              ring={"nodes": 1, "byzantine": 0, "connectivity": connectivity})
            return run_experiment(cfg, output_dir=tmp_path / str(connectivity))

        wide, one = run(3), run(1)
        assert wide.csv_path.read_bytes() == one.csv_path.read_bytes()
        assert [len(r.candidates) for r in wide.history.selections] == [1, 1, 1]
        assert wide.history.counters["loss_evaluations"] == 3

    def test_acds_augments_training_pools(self, tmp_path):
        cfg = desk_config(
            partition={"mode": "non-iid"},
            acds={"enabled": True, "alpha": 0.2, "batches": 2, "groups": 2},
            rounds=1,
        )
        result = run_experiment(cfg, output_dir=tmp_path / "acds")
        assert "acds_summary" in result.history.manifest
        counts = result.history.manifest["acds_summary"]["received_counts"]
        assert all(v > 0 for v in counts.values())


#: the paper's ACDS sharing sizes (D = 500, I = 24,500, H = 5, n = 25, G = 4)
SHARING = ["--D", "500", "--I", "24500", "--H", "5", "--n", "25", "--G", "4"]


class TestCli:
    def test_run_and_analyze_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(desk_config()))
        assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["csv"]).exists()

    def test_analyze_failure_reference_value(self, capsys):
        assert cli_main(["analyze", "failure", "ring", "--N", "100", "--b", "33",
                         "--S", "10"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["analytic"] == pytest.approx(5.347e-4, rel=1e-3)

    def test_analyze_failure_negative_trials_exit_code(self, capsys):
        assert cli_main(["analyze", "failure", "grouped", "--N", "400", "--b", "60",
                         "--n", "100", "--G", "4", "--S", "7", "--trials", "-5"]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--S", "3"],  # S = n-1 is the event case 1 already bounds
        ["--S", "2"],  # the run event is the grouped kind
    ])
    def test_analyze_failure_case1_misuse_exit_code(self, capsys, flags):
        assert "--S" in usage_error(capsys, ["analyze", "failure", "case1", "--N", "20",
                                             "--b", "6", "--n", "4", "--G", "5", *flags])

    def test_analyze_failure_case1_query(self, capsys):
        assert cli_main(["analyze", "failure", "case1", "--N", "20", "--b", "6",
                         "--n", "4", "--G", "5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["query"] == {"kind": "case1", "N": 20, "b": 6, "n": 4, "G": 5}

    def test_analyze_failure_case1_trials_run_the_grouped_oracle_at_n_minus_1(self, capsys):
        assert cli_main(["analyze", "failure", "case1", "--N", "20", "--b", "6", "--n", "4",
                         "--G", "5", "--trials", "2000", "--seed", "7"]) == 0
        record = json.loads(capsys.readouterr().out)
        est, se = monte_carlo_basil_plus_failure(20, 6, 4, 5, 3, 2000, 7)
        assert (record["monte_carlo"], record["std_error"], record["trials"]) == (est, se, 2000)

    def test_analyze_cost_reference_value(self, capsys):
        assert cli_main(["analyze", "cost", "--alpha", "0.05", "--D", "500",
                         "--I", "24500", "--H", "5", "--n", "25", "--G", "4"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cost_bits"] == 76_685_000

    def test_analyze_time_models(self, capsys):
        assert cli_main(["analyze", "time", "basil-plus", "--tau", "1", "--n", "25",
                         "--G", "16", "--S", "6", "--t-perf", "1", "--t-comm", "1",
                         "--t-sgd", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["time"] == 187

    def test_analyze_time_without_costs_exit_code(self, capsys):
        # the costs once defaulted to zero, and this printed a time of 0.0
        err = usage_error(capsys, ["analyze", "time", "basil-plus", "--tau", "1",
                                   "--n", "25", "--G", "16", "--S", "6"])
        assert "required: --t-perf, --t-comm, --t-sgd" in err

    @pytest.mark.parametrize("query, kind", [
        (query, kind) for query, (_, _, kinds) in QUERIES.items() for kind in kinds])
    def test_analyze_flags_are_the_formula_parameters(self, capsys, query, kind):
        formula, oracle = QUERIES[query][2][kind]
        flags = ["--" + name.replace("_", "-") for name in inspect.signature(formula).parameters]
        every = {"--trials", "--seed"} | {
            "--" + name.replace("_", "-")
            for _, _, kinds in QUERIES.values() for fn, _ in kinds.values()
            for name in inspect.signature(fn).parameters}
        foreign = sorted(every - set(flags) - ({"--trials", "--seed"} if oracle else set()))
        assert foreign

        words = ["analyze", query, *([kind] if kind else [])]

        def argv(*given):
            return [*words, *(x for flag in given for x in (flag, "1"))]

        for drop in flags:
            err = usage_error(capsys, argv(*(f for f in flags if f != drop)))
            assert f"required: {drop}" in err
        for extra in foreign:
            err = usage_error(capsys, argv(*flags, extra))
            assert f"unrecognized arguments: {extra} 1" in err
            # the kind's own usage, not the root's
            assert err.startswith(f"usage: basilsim {' '.join(words)} [-h]")

    @pytest.mark.parametrize("argv, name", [
        # each printed a negative time, or more bits than sharing all the data, and exit 0
        (["analyze", "time", "basil", "--tau", "-3", "--n", "2", "--G", "2",
          "--t-perf", "1", "--t-comm", "1", "--t-sgd", "1"], "tau"),
        (["analyze", "time", "ubar", "--K", "-1", "--S", "1", "--d", "8", "--R", "1",
          "--t-dist", "1", "--t-perf", "1", "--t-agg", "1", "--t-sgd", "1"], "K"),
        (["analyze", "time", "acds", "--alpha", "-1", *SHARING, "--R", "1"], "alpha"),
        (["analyze", "cost", "--alpha", "2", *SHARING], "alpha"),
    ])
    def test_analyze_out_of_range_input_exit_code_names_it(self, capsys, argv, name):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must ")

    @pytest.mark.parametrize("argv", [
        ["analyze", "failure", "ring", "--N", "100", "--b", "33", "--S", "10",
         "--trials", "10", "--seed", "-1"],
        ["acds-demo", "--seed", "-1"],
    ])
    def test_negative_seed_exit_code_names_it(self, capsys, argv):
        assert "argument --seed: must be a non-negative integer" in usage_error(capsys, argv)

    def test_readme_commands_run(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```sh\n")[1].split("```")[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith(("basilsim analyze ", "basilsim acds-demo "))]
        assert len(lines) >= 6
        for line in lines:
            assert cli_main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()

    def test_acds_demo(self, capsys):
        assert cli_main(["acds-demo", "--nodes", "6", "--groups", "2",
                         "--alpha", "0.2", "--batches", "2",
                         "--samples-per-node", "40", "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["received_counts"]
        assert summary["anonymity_histogram"]

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["analyze", "unknown-thing"])
        assert exc.value.code == 2

    def test_validation_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(scheme="bogus")))
        assert cli_main(["run", str(cfg_path)]) == 2

    @pytest.mark.parametrize("epochs", [-1, 0, True, "2", 1.5])
    def test_bad_epochs_exit_code_names_the_field(self, tmp_path, capsys, epochs):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(
            scheme="basil-plus", groups={"count": 2},
            training={"batch_size": 16, "epochs": epochs})))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "training.epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["r-plain", "r-plain-plus", "g-plain", "ubar"])
    def test_epochs_rejected_where_unused(self, tmp_path, capsys, scheme):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(
            scheme=scheme, groups={"count": 2}, training={"batch_size": 16, "epochs": 2})))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "training.epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_field_exit_code_names_the_field(self, tmp_path, capsys, name):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(**MALFORMED[name])))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--output-dir", str(out)]) == 2
        assert name.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["basil", "basil-plus", "r-plain", "r-plain-plus",
                                        "g-plain", "ubar"])
    @pytest.mark.parametrize("byzantine", [8, 9])
    def test_byzantine_not_below_nodes(self, tmp_path, capsys, scheme, byzantine):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(
            scheme=scheme, groups={"count": 2},
            ring={"nodes": 8, "byzantine": byzantine, "connectivity": 3})))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "ring.byzantine" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["basil-plus", "r-plain-plus"])
    def test_group_with_a_benign_member_runs(self, tmp_path, scheme):
        # groups of two as in the all-Byzantine case, with two Byzantine
        # nodes that seed 4 places in different groups
        cfg_path = tmp_path / "ok.json"
        cfg_path.write_text(json.dumps(desk_config(
            scheme=scheme, seed=4, groups={"count": 4},
            ring={"nodes": 8, "byzantine": 2, "connectivity": 1})))
        assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 0

    def test_sole_benign_ubar_node_needs_a_neighbour(self, tmp_path):
        # validation fails before any data is built; at edge probability one
        # the benign node is joined to both Byzantine nodes and the run goes on
        cfg = desk_config(scheme="ubar", seed=1, ring={"nodes": 3, "byzantine": 2})
        with pytest.raises(ConfigError, match="graph.edge_prob_byzantine: .* benign node 0 "):
            validate_config({**cfg, "graph": {"edge_prob_byzantine": 0}})
        result = run_experiment({**cfg, "graph": {"edge_prob_byzantine": 1}},
                                output_dir=tmp_path)
        assert [(r.node, r.fanout) for r in result.history.selections] == [(0, 2)] * 2

    @pytest.mark.parametrize("dataset, task", [
        ({"kind": "quadratic", "samples": 400, "dim": 4}, "softmax-regression"),
        ({"kind": "quadratic", "samples": 400, "dim": 4}, "mlp-3fc"),
        (SYNTHETIC, "quadratic-convex"),
    ])
    def test_task_must_fit_the_dataset(self, tmp_path, capsys, dataset, task):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(dataset=dataset, task={"kind": task})))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "task.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["basil", "basil-plus", "r-plain", "r-plain-plus",
                                        "g-plain", "ubar"])
    def test_dropout_rejected_where_unused(self, tmp_path, capsys, scheme):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(
            scheme=scheme, groups={"count": 2},
            ring={"nodes": 8, "byzantine": 2, "dropout": 1, "connectivity": 3})))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "ring.dropout" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [0, 1, 1.5, -0.1])
    def test_acds_alpha_outside_unit_interval(self, alpha):
        cfg = desk_config(acds={"enabled": True, "alpha": alpha, "batches": 2, "groups": 2})
        with pytest.raises(ConfigError, match="acds.alpha"):
            validate_config(cfg)

    @pytest.mark.parametrize("scheme", ["basil", "basil-plus", "r-plain", "r-plain-plus",
                                        "g-plain", "ubar"])
    def test_more_byzantine_ids_than_declared(self, tmp_path, capsys, scheme):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(
            scheme=scheme, groups={"count": 2},
            ring={"nodes": 8, "byzantine": 2, "byzantine_ids": [0, 1, 2, 3],
                  "connectivity": 3})))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "ring.byzantine_ids" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["basil", "basil-plus", "ubar"])
    def test_empty_byzantine_ids_mean_no_attackers(self, tmp_path, scheme):
        def history(byzantine, **ids):
            cfg = desk_config(scheme=scheme, groups={"count": 2}, rounds=1, ring={
                "nodes": 8, "byzantine": byzantine, "connectivity": 3, **ids})
            out = tmp_path / f"{byzantine}-{bool(ids)}"
            return run_experiment(cfg, output_dir=out).csv_path.read_bytes()

        assert history(2, byzantine_ids=[]) == history(0)
        assert history(2, byzantine_ids=[]) != history(2)

    def test_basil_runs_its_epochs(self, tmp_path, monkeypatch):
        import basilsim.ring as ring

        steps = []
        real = ring.sgd_step
        monkeypatch.setattr(ring, "sgd_step", lambda *a: steps.append(1) or real(*a))
        cfg_path = tmp_path / "epochs.json"
        cfg_path.write_text(json.dumps(desk_config(training={"batch_size": 16, "epochs": 2})))
        assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 0
        # 6 benign nodes x 2 rounds, each 2 passes over 50 local samples in
        # batches of 16; the gaussian attack of the 2 Byzantine nodes ignores
        # the update, so they take no step
        assert len(steps) == 6 * 2 * 2 * 3

    def test_file_that_is_not_idx_names_the_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(desk_config(dataset=NOT_IDX)))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dataset.train_images" in err and "dataset.train_labels" not in err
        assert not out.exists()

    @staticmethod
    def idx_dataset(tmp_path, train=40, test=10):
        """An mnist-idx dataset section over 2x2 images, 4 classes."""
        paths = {}
        for split, n in (("train", train), ("test", test)):
            rng = np.random.default_rng(n)
            for part, write, data in (
                    ("images", write_idx_images, rng.integers(0, 256, (n, 2, 2))),
                    ("labels", write_idx_labels, np.arange(n) % 4)):
                paths[f"{split}_{part}"] = path = tmp_path / f"{split}-{part}.idx"
                write(path, data)
        return {"kind": "mnist-idx", **{k: str(v) for k, v in paths.items()}}

    def run_cli(self, tmp_path, dataset, out):
        cfg_path = tmp_path / "idx.json"
        cfg_path.write_text(json.dumps(desk_config(dataset=dataset)))
        return cli_main(["run", str(cfg_path), "--output-dir", str(out)])

    def test_idx_pair_runs(self, tmp_path):
        assert self.run_cli(tmp_path, self.idx_dataset(tmp_path), tmp_path / "out") == 0

    def test_bad_labels_next_to_good_images_names_only_the_labels(self, tmp_path, capsys):
        dataset = {**self.idx_dataset(tmp_path), "train_labels": __file__}
        assert self.run_cli(tmp_path, dataset, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "dataset.train_labels:" in err and "dataset.train_images" not in err

    def test_count_mismatch_names_both_files(self, tmp_path, capsys):
        dataset = self.idx_dataset(tmp_path)
        dataset["test_labels"] = dataset["train_labels"]
        assert self.run_cli(tmp_path, dataset, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "dataset.test_images and dataset.test_labels" in err

    def test_idx_training_file_below_the_node_count_names_it(self, tmp_path, capsys):
        out = tmp_path / "new" / "out"
        assert self.run_cli(tmp_path, self.idx_dataset(tmp_path, train=4), out) == 2
        assert "dataset.train_images: must hold at least ring.nodes = 8" in capsys.readouterr().err
        # the run created both directories and removed both
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_idx_file_of_zero_images_names_it(self, tmp_path, capsys, split):
        dataset = self.idx_dataset(tmp_path, **{split: 0})
        assert self.run_cli(tmp_path, dataset, tmp_path / "out") == 2
        assert f"dataset.{split}_images:" in capsys.readouterr().err

    def test_failed_run_keeps_a_directory_it_did_not_create(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert self.run_cli(tmp_path, self.idx_dataset(tmp_path, train=4), out) == 2
        assert out.is_dir() and list(out.iterdir()) == []

    def test_missing_config_file_exit_code(self):
        assert cli_main(["run", "/nonexistent/config.json"]) == 2


def test_scheme_names_live_in_the_harness():
    # cli's literals of the same spelling name time models, not schemes
    found = []
    for path in sorted(Path(basilsim.__file__).parent.glob("*.py")):
        if path.stem in ("harness", "cli"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in SCHEMES:
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], "scheme names outside harness"


def _perfbench_tracing():
    """perfbench's tracer module, loaded from its file without installing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_traced_names_exist():
    # perfbench traces these by name; a refactor must keep them
    tracing = _perfbench_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"basilsim.{layer}")
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"basilsim.{layer}")
        for cls_name, methods in classes.items():
            for method in methods:
                assert callable(vars(getattr(module, cls_name)).get(method)), \
                    f"{layer}.{cls_name}.{method}"
    for layer, attr in tracing.ALIASES:
        module = importlib.import_module(f"basilsim.{layer}")
        original = getattr(importlib.import_module("basilsim.ring"), attr)
        assert vars(module).get(attr) is original, f"{layer}.{attr}"
    # every "layer.function" span the runner reports must be a public function
    # defined in that module, or a renamed function silently reports zero
    aliases = set(tracing.ALIASES.values())
    spans = [name for _, (kind, *names) in _perfbench_per_layer().values()
             if kind in ("calls", "s", "self_s") for name in names]
    functions = [name for name in spans if name.count(".") == 1 and name not in aliases]
    assert "models.accuracy" in functions
    for name in functions:
        layer, attr = name.split(".")
        assert layer in tracing.LAYERS, name
        module = importlib.import_module(f"basilsim.{layer}")
        fn = vars(module).get(attr)
        assert (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not attr.startswith("_")), name


def _perfbench_per_layer() -> dict:
    """perfbench's ``PER_LAYER`` table, read from its source without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "runner.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PER_LAYER"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/runner.py has no PER_LAYER")


def test_perfbench_byzantine_set_matches_the_seeded_placement(tmp_path):
    # perfbench counts Byzantine selections against sample_byzantine_ids(range(N), b, seed)
    cfg = desk_config()
    ids = sample_byzantine_ids(range(8), 2, cfg["seed"])
    seeded = run_experiment(cfg, output_dir=tmp_path / "seeded")
    given = run_experiment(desk_config(ring={**cfg["ring"], "byzantine_ids": sorted(ids)}),
                           output_dir=tmp_path / "given")
    assert seeded.csv_path.read_bytes() == given.csv_path.read_bytes()


_RING_COUNTERS = ("ring.loss_evaluations", "ring.models_sent", "ring.fifo_inserts")
#: per workload, the traced metrics a smoke run must see nonzero; analysis is
#: the benchmark's caller of the ACDS API (plan, run, received ids,
#: anonymity levels, costs and the summary)
SMOKE_METRICS = {
    "ring-desk": _RING_COUNTERS,
    "grouped-noniid": _RING_COUNTERS + ("basil_plus.stage_select.calls",),
    "ring-mlp": _RING_COUNTERS,
    "analysis": ("acds.run_acds.s",),
}


@pytest.mark.parametrize("workload", SMOKE_METRICS)
def test_perfbench_smoke_reads_the_run_counters(workload):
    # the benchmark reads the history's counters and traces the drivers by
    # name; a traced smoke run must pass its checks and see the work
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", "1", "--smoke"], capture_output=True, text=True, timeout=300, cwd=root)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name in SMOKE_METRICS[workload]:
        assert metrics[name] > 0, name
