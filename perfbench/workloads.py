"""The benchmark's four workloads: configs made from the seed, one iteration, checks.

Every workload is driven through the public API.  One iteration is one
repetition of the whole workload; iterations of one run use the same seed, so
their outputs must be identical.  The check functions are plain functions of
the outputs, so the self-test can show that each of them fails on bad input.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from basilsim import acds, analytics, data, harness, ring
from basilsim.basil_plus import BasilPlusDriver
from basilsim.ring import BasilRing

from tracing import StepClock

#: the seed the bundled desk config uses; the default run
DEFAULT_SEED = 6
#: the seed later changes must not be tuned against (see README.md)
HELD_OUT_SEED = 2027

DESK_CONFIG = Path(harness.__file__).resolve().parent / "configs" / "fig4b-desk.json"


@dataclass
class Sample:
    """What one iteration produced, with its timings."""

    wall_s: float
    setup_s: float
    steps: list[float]          # duration of each step (global round / MC block)
    work: int                   # activations or Monte-Carlo trials
    work_s: float               # time the work took: the sum of the steps
    digest: str                 # sha256 of the iteration's output
    counters: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    losses: tuple[float, ...] = ()


# -- checks: each returns a list of failure messages, empty when it passes --

def check_same(label: str, value, reference) -> list[str]:
    if value == reference:
        return []
    return [f"{label}: {value!r} differs from the first iteration's {reference!r}"]


def check_activations(activations: int, active_nodes: int, rounds: int) -> list[str]:
    expected = active_nodes * rounds
    if activations == expected:
        return []
    return [f"activations: {activations} != {active_nodes} active nodes x {rounds} rounds"]


def check_finite(label: str, values) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{label}: {len(bad)} non-finite values"] if bad else []


def check_above(label: str, value: float, floor: float) -> list[str]:
    return [] if value > floor else [f"{label}: {value} is not above the floor {floor}"]


def check_estimate(label: str, estimate: float, se: float, bound: float) -> list[str]:
    if 0.0 <= estimate <= bound + 3.0 * se:
        return []
    return [f"{label}: estimate {estimate} outside [0, union bound {bound} + 3 x SE {se}]"]


def check_received(received: dict[int, int], expected: int) -> list[str]:
    wrong = {node: n for node, n in received.items() if n != expected}
    return [f"ACDS: nodes {sorted(wrong)} did not receive {expected} samples"] if wrong else []


def check_worst_cost(costs: list[int], formula: float) -> list[str]:
    if costs and max(costs) == formula:
        return []
    return [f"ACDS: largest per-node cost {max(costs, default=None)} != formula {formula}"]


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# -- training workloads --------------------------------------------------------

def desk_config(seed: int, smoke: bool) -> dict:
    """The bundled desk config; at the default seed it is used unchanged."""
    cfg = json.loads(DESK_CONFIG.read_text())
    cfg["seed"] = seed
    cfg["dataset"]["seed"] = seed
    if smoke:
        cfg["rounds"] = 3
        cfg["dataset"].update(samples=400, test_samples=100)
    return cfg


def mlp_config(seed: int, smoke: bool) -> dict:
    """The desk ring with the 784-100-100-10 network (89,610 parameters).

    500 test samples (not the desk's 2,000) keep a round near 200 ms, so a
    run pools 100 rounds in about 20 s.
    """
    cfg = desk_config(seed, smoke=False)
    cfg["rounds"] = 5
    cfg["dataset"].update(classes=10, dim=784, separation=8.0, test_samples=500)
    cfg["task"] = {"kind": "mlp-3fc"}
    cfg["attack"] = {"kind": "random-sign-flip"}
    cfg["training"]["batch_size"] = 80
    if smoke:
        cfg["rounds"] = 2
        cfg["dataset"].update(samples=400, test_samples=100)
    return cfg


def grouped_config(seed: int, smoke: bool) -> dict:
    """basil-plus over a label-sorted split, with ACDS pre-sharing."""
    cfg = {
        "scheme": "basil-plus",
        "seed": seed,
        "rounds": 24,
        "tau": 1,
        "dataset": {"kind": "synthetic", "samples": 4000, "test_samples": 2000,
                    "classes": 16, "dim": 64, "separation": 2.4, "seed": seed},
        "partition": {"mode": "non-iid"},
        "task": {"kind": "softmax-regression"},
        "ring": {"nodes": 40, "byzantine": 8},
        "groups": {"count": 4},
        "attack": {"kind": "hidden", "activation_round": 1},
        "training": {"batch_size": 8},
        "acds": {"enabled": True, "alpha": 0.05, "batches": 2, "groups": 4},
    }
    if smoke:
        cfg["rounds"] = 2
        cfg["dataset"].update(samples=800, test_samples=100)
        cfg["ring"] = {"nodes": 8, "byzantine": 2}
        cfg["groups"]["count"] = 2
        cfg["acds"].update(alpha=0.1, groups=2)
    return cfg


class TrainingWorkload:
    """One ``harness.run_experiment`` per iteration; a step is one global round."""

    step_unit = "global round"

    def __init__(self, config: dict, run_dir: Path, *, accuracy_floor=None):
        self.grouped = config["scheme"] == "basil-plus"
        self.stat = "mean" if self.grouped else "worst"
        n_nodes = config["ring"]["nodes"]
        self.active_nodes = n_nodes
        self.rounds = config["rounds"] * (config.get("tau", 1) if self.grouped else 1)
        self.accuracy_floor = accuracy_floor
        # both drivers place Byzantine nodes with this call when no ids are given
        self.byzantine = ring.sample_byzantine_ids(
            range(n_nodes), config["ring"]["byzantine"], config["seed"])
        run_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2))
        self.out_dir = run_dir / "out"
        target = (BasilPlusDriver, "run_global_round") if self.grouped else (BasilRing, "run_round")
        self.clock = StepClock(*target)
        self.reference: Sample | None = None

    def install(self) -> None:
        self.clock.install()

    def uninstall(self) -> None:
        self.clock.uninstall()

    def iterate(self) -> Sample:
        self.clock.steps.clear()
        t0 = perf_counter()
        result = harness.run_experiment(self.config_path, self.out_dir)
        wall = perf_counter() - t0
        steps = [end - start for start, end in self.clock.steps]
        history = result.history
        senders = [r.selected_sender for r in history.rows]
        senders += [e["sender"] for e in history.events if e["event"].endswith("-select")]
        return Sample(
            wall_s=wall,
            setup_s=self.clock.steps[0][0] - t0,
            steps=steps,
            work=history.counters.get("activations", 0),
            work_s=sum(steps),
            digest=_sha256(result.csv_path.read_bytes()),
            counters=dict(history.counters),
            extra={
                "final_acc": history.final_accuracy(self.stat),
                "benign_selections": len(senders),
                "byzantine_selected": sum(s in self.byzantine for s in senders),
            },
            losses=tuple(r.train_loss for r in history.rows),
        )

    def check(self, sample: Sample) -> list[str]:
        ref = self.reference = self.reference or sample
        failures = check_same("history.csv sha256", sample.digest, ref.digest)
        failures += check_same("counters", sample.counters, ref.counters)
        failures += check_activations(sample.work, self.active_nodes, self.rounds)
        failures += check_finite("train_loss", sample.losses)
        if self.accuracy_floor is not None:
            failures += check_above("final_acc", sample.extra["final_acc"], self.accuracy_floor)
        return failures


# -- analysis workload ---------------------------------------------------------

class AnalysisWorkload:
    """Monte-Carlo oracles, their union bounds, and an ACDS plan + run at N=100.

    A step is one Monte-Carlo block.  Block sizes are chosen so a ring block
    (10,000 trials of N=100) and a grouped block (2,500 trials of N=400) each
    take about 40 ms.
    """

    step_unit = "Monte-Carlo block"

    RING = (100, 33, 10)              # N, b, S
    GROUPED = (400, 60, 100, 4, 7)    # N, b, n, G, S
    BITS_PER_SAMPLE = 24_500

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        if smoke:
            self.ring_blocks, self.ring_block = 2, 1_000
            self.grouped_blocks, self.grouped_block = 2, 250
            self.acds_nodes, self.acds_groups, self.acds_batches, self.local_size = 8, 2, 2, 40
        else:
            self.ring_blocks, self.ring_block = 10, 10_000
            self.grouped_blocks, self.grouped_block = 8, 2_500
            self.acds_nodes, self.acds_groups, self.acds_batches, self.local_size = 100, 4, 4, 200
        self.alpha = 0.1
        self.reference: Sample | None = None

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def _blocks(self, oracle, args, blocks: int, block: int, offset: int, steps: list):
        hits = 0
        for j in range(blocks):
            t = perf_counter()
            estimate, _ = oracle(*args, block, seed=self.seed * 1000 + offset + j)
            steps.append(perf_counter() - t)
            hits += round(estimate * block)
        trials = blocks * block
        estimate = hits / trials
        return estimate, math.sqrt(estimate * (1.0 - estimate) / trials), trials

    def iterate(self) -> Sample:
        N, D = self.acds_nodes, self.local_size
        t0 = perf_counter()
        dataset = data.partition(
            data.make_cluster_dataset(N * D, 10, 8, 2.0, self.seed), N, "iid", self.seed)
        setup = perf_counter() - t0

        steps: list[float] = []
        ring_est, ring_se, ring_trials = self._blocks(
            analytics.monte_carlo_ring_failure, self.RING,
            self.ring_blocks, self.ring_block, 0, steps)
        grouped_est, grouped_se, grouped_trials = self._blocks(
            analytics.monte_carlo_basil_plus_failure, self.GROUPED,
            self.grouped_blocks, self.grouped_block, 500, steps)
        ring_bound = analytics.basil_failure_prob(*self.RING).probability
        grouped_bound = analytics.basil_plus_failure_prob(*self.GROUPED).probability

        t = perf_counter()
        plan = acds.plan_acds(dataset, range(N), self.acds_groups, self.alpha,
                              self.acds_batches, self.seed)
        pool = acds.run_acds(plan, shuffle_seed=self.seed)
        received = {node: len(pool.received_ids(node)) for node in range(N)}
        anonymity = [acds.anonymity_level(pool, node, pool.received_ids(node)[0])
                     for node in range(N)]
        costs = [pool.comm_cost_bits(node, self.BITS_PER_SAMPLE) for node in range(N)]
        worst = acds.acds_comm_cost(plan.actual_shared_fraction, plan.local_data_size,
                                    self.BITS_PER_SAMPLE, plan.n_batches,
                                    plan.group_size, plan.n_groups)
        summary = pool.summary(self.BITS_PER_SAMPLE)
        acds_s = perf_counter() - t
        wall = perf_counter() - t0

        output = {
            "ring": [ring_est, ring_bound], "grouped": [grouped_est, grouped_bound],
            "anonymity": anonymity, "acds": summary,
        }
        return Sample(
            wall_s=wall,
            setup_s=setup,
            steps=steps,
            work=ring_trials + grouped_trials,
            work_s=sum(steps),
            digest=_sha256(json.dumps(output, sort_keys=True).encode()),
            extra={
                "acds_run_s": acds_s,
                "ring_trials": ring_trials, "grouped_trials": grouped_trials,
                "ring_estimate": ring_est, "ring_se": ring_se, "ring_bound": ring_bound,
                "grouped_estimate": grouped_est, "grouped_se": grouped_se,
                "grouped_bound": grouped_bound,
                "expected_received": (N - 1) * plan.n_batches * plan.batch_size,
                "received": received, "costs": costs, "worst_cost": worst,
            },
        )

    def check(self, sample: Sample) -> list[str]:
        ref = self.reference = self.reference or sample
        x = sample.extra
        failures = check_same("analysis output sha256", sample.digest, ref.digest)
        failures += check_estimate("ring Monte-Carlo", x["ring_estimate"], x["ring_se"],
                                   x["ring_bound"])
        failures += check_estimate("grouped Monte-Carlo", x["grouped_estimate"],
                                   x["grouped_se"], x["grouped_bound"])
        failures += check_received(x["received"], x["expected_received"])
        failures += check_worst_cost(x["costs"], x["worst_cost"])
        return failures


def make_workload(name: str, seed: int, smoke: bool, run_dir: Path):
    if name == "ring-desk":
        cfg = desk_config(seed, smoke)
        # chance level is 1 / classes; the desk run ends near 0.65
        floor = 2.0 / cfg["dataset"]["classes"]
        return TrainingWorkload(cfg, run_dir, accuracy_floor=floor)
    if name == "ring-mlp":
        return TrainingWorkload(mlp_config(seed, smoke), run_dir)
    if name == "grouped-noniid":
        return TrainingWorkload(grouped_config(seed, smoke), run_dir)
    if name == "analysis":
        return AnalysisWorkload(seed, smoke)
    raise KeyError(name)


WORKLOADS = ("ring-desk", "ring-mlp", "grouped-noniid", "analysis")
