"""Measure one workload for a fixed time and print its metrics.

The load is a closed loop: one client runs iterations of the workload back to
back in this process, with no concurrency.  One untimed warm-up iteration runs
first and becomes the reference the checks compare against.  An iteration
whose checks fail, or which raises, counts as failed.

With ``trace=0`` the run reports the end-to-end metrics.  With ``trace=1`` it
spends the first half of the time untraced and the second half with the span
tracer installed, and reports the per-layer metrics plus the tracing overhead
(fastest traced minus fastest untraced iteration wall time).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, Sample, check_same, make_workload

#: a run pools at least this many steps, so ten or more lie beyond p90
MIN_STEPS = 100
#: the measuring loop stops here whatever it still lacks, so a run ends in time
HARD_LIMIT_S = 120.0

#: end-to-end metrics, reported with ``trace=0`` (the names BENCHMARK.json lists)
END_TO_END = {
    "step_ms_min": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics, reported with ``trace=1``: name -> (unit, source).
#: A span source sums ``calls``, inclusive ``s`` or ``self_s`` over the named
#: spans in one iteration; calls repeat exactly, times are the fastest iteration's.
PER_LAYER = {
    "models.accuracy.calls": ("count", ("calls", "models.accuracy")),
    "models.accuracy.self_s": ("s", ("self_s", "models.accuracy")),
    "models.evaluate_loss.calls": ("count", ("calls", "models.evaluate_loss")),
    "models.evaluate_loss.self_s": ("s", ("self_s", "models.evaluate_loss")),
    "models.sgd_step.calls": ("count", ("calls", "models.sgd_step")),
    "models.sgd_step.self_s": ("s", ("self_s", "models.sgd_step")),
    "models.ModelVector.layer.calls": ("count", ("calls", "models.ModelVector.layer")),
    "models.ModelVector.layer.self_s": ("s", ("self_s", "models.ModelVector.layer")),
    "ring.basil_select.calls": ("count", ("calls", "ring.basil_select")),
    "ring.basil_select.self_s": ("s", ("self_s", "ring.basil_select")),
    "ring.StoredModels.insert.calls": ("count", ("calls", "ring.StoredModels.insert")),
    "ring.StoredModels.insert.self_s": ("s", ("self_s", "ring.StoredModels.insert")),
    "ring.BasilRing.run_round.calls": ("count", ("calls", "ring.BasilRing.run_round")),
    "ring.BasilRing.run_round.self_s": ("s", ("self_s", "ring.BasilRing.run_round")),
    "basil_plus.stage_select.calls": ("count", ("calls", "basil_plus.stage_select")),
    "basil_plus.stage_select.self_s": ("s", ("self_s", "basil_plus.stage_select")),
    "basil_plus.BasilPlusDriver.run_global_round.calls":
        ("count", ("calls", "basil_plus.BasilPlusDriver.run_global_round")),
    "basil_plus.BasilPlusDriver.run_global_round.self_s":
        ("s", ("self_s", "basil_plus.BasilPlusDriver.run_global_round")),
    "attacks.apply_attack.calls": ("count", ("calls", "attacks.apply_attack")),
    "attacks.apply_attack.self_s": ("s", ("self_s", "attacks.apply_attack")),
    "data.make_cluster_dataset.s": ("s", ("s", "data.make_cluster_dataset")),
    "data.partition.s": ("s", ("s", "data.partition")),
    "data.Dataset.batch.calls": ("count", ("calls", "data.Dataset.batch")),
    "data.Dataset.batch.self_s": ("s", ("self_s", "data.Dataset.batch")),
    "acds.plan_acds.s": ("s", ("s", "acds.plan_acds")),
    "acds.run_acds.s": ("s", ("s", "acds.run_acds")),
    "analytics.monte_carlo_ring_failure.s": ("s", ("s", "analytics.monte_carlo_ring_failure")),
    "analytics.monte_carlo_ring_failure.trials": ("count", ("extra", "ring_trials")),
    "analytics.monte_carlo_basil_plus_failure.s":
        ("s", ("s", "analytics.monte_carlo_basil_plus_failure")),
    "analytics.monte_carlo_basil_plus_failure.trials": ("count", ("extra", "grouped_trials")),
    "analytics.bounds.s":
        ("s", ("s", "analytics.basil_failure_prob", "analytics.basil_plus_failure_prob")),
    "history.write_csv.s": ("s", ("s", "history.TrainHistory.write_csv")),
    "history.write_series_csv.s": ("s", ("s", "history.TrainHistory.write_series_csv")),
    "harness.validate_config.s": ("s", ("s", "harness.validate_config")),
    "ring.loss_evaluations": ("count", ("counter", "loss_evaluations")),
    "ring.fifo_inserts": ("count", ("counter", "fifo_inserts")),
    "ring.models_sent": ("count", ("counter", "models_sent")),
    # base: activations
    "ring.evals_per_activation": ("ratio", ("ratio", "loss_evaluations", "activations")),
    # base: benign selections (ring activations plus grouped stage selections)
    "ring.byzantine_selected_ratio":
        ("ratio", ("ratio", "byzantine_selected", "benign_selections")),
    "trace.wall_s": ("s", ("trace", "wall_s")),
    "trace.overhead_s": ("s", ("trace", "overhead_s")),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def run_iteration(workload, tally: Tally, extra_check=None) -> Sample | None:
    """One closed-loop iteration; a raised error or a failed check counts as failed."""
    tally.attempted += 1
    gc.collect()  # every iteration starts from the same heap, outside the timing
    try:
        sample = workload.iterate()
        failures = workload.check(sample)
        if extra_check is not None:
            failures += extra_check()
    except Exception:  # the loop reports every failure and keeps measuring
        traceback.print_exc(file=sys.stderr)
        tally.failed += 1
        return None
    if failures:
        tally.failed += 1
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
    return sample


def measure(workload, tally: Tally, seconds: float, min_iterations: int, min_steps: int,
            before=None, extra_check=None) -> list[Sample]:
    samples: list[Sample] = []
    start = perf_counter()
    failed_before = tally.failed
    while True:
        if before is not None:
            before(len(samples))
        sample = run_iteration(workload, tally, extra_check)
        if sample is not None:
            samples.append(sample)
        elapsed = perf_counter() - start
        steps = sum(len(s.steps) for s in samples)
        enough = (len(samples) >= min_iterations and steps >= min_steps
                  or tally.failed > failed_before)
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and enough):
            return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """The gated metrics.

    The host's CPU supply changes over seconds to minutes, so medians and
    percentiles of one run move with the share of slow time.  The fastest
    repetition moves least: it is the cost when the host gives a full core.
    """
    return {
        "step_ms_min": min(d for s in samples for d in s.steps) * 1e3,
        "setup_s": min(s.setup_s for s in samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_metrics(workload, samples: list[Sample], tally: Tally) -> list[tuple]:
    """Pooled medians and tails under each workload's own names, as (name, value, unit, note)."""
    steps = [d for s in samples for d in s.steps]
    p50 = statistics.median(steps) * 1e3
    p90 = statistics.quantiles(steps, n=10, method="inclusive")[-1] * 1e3
    beyond = sum(d * 1e3 > p90 for d in steps)
    pooled = f"{len(steps)} {workload.step_unit}s pooled, {beyond} beyond p90"
    rate = sum(s.work for s in samples) / sum(s.work_s for s in samples)
    n = f"median of {len(samples)} iterations"
    rows = [
        ("wall_s", statistics.median(s.wall_s for s in samples), "s", n),
        ("setup_s", statistics.median(s.setup_s for s in samples), "s", n),
    ]
    if workload.step_unit == "global round":
        rows += [
            ("round_ms_p50", p50, "ms", pooled),
            ("round_ms_p90", p90, "ms", pooled),
            ("activations_per_s", rate, "1/s", "activations / total round time"),
            ("final_acc", samples[0].extra["final_acc"], "fraction",
             "mean benign" if workload.grouped else "worst-case benign"),
        ]
    else:
        rows += [
            ("mc_block_ms_p50", p50, "ms", pooled),
            ("mc_block_ms_p90", p90, "ms", pooled),
            ("mc_trials_per_s", rate, "1/s", "trials / total Monte-Carlo time"),
            ("acds_run_s", statistics.median(s.extra["acds_run_s"] for s in samples), "s",
             "plan + run + queries, " + n),
        ]
    rows += [
        ("peak_rss_mb", peak_rss_mb(), "MB", "this process"),
        ("error_rate", tally.failed / tally.attempted, "failed/attempted",
         f"{tally.failed} / {tally.attempted}"),
    ]
    return rows


def per_layer(tracer: Tracer, traced: list[Sample], plain: list[Sample]) -> dict[str, float]:
    spans = tracer.per_iteration()
    first = traced[0]
    values = {"wall_s": min(s.wall_s for s in traced)}
    values["overhead_s"] = values["wall_s"] - min(s.wall_s for s in plain)
    out = {}
    for metric, (_, (kind, *keys)) in PER_LAYER.items():
        if kind in ("calls", "s", "self_s"):
            per_it = [sum(spans[k][kind][i] for k in keys if k in spans)
                      for i in range(len(traced))]
            out[metric] = int(per_it[0]) if kind == "calls" else min(per_it)
        elif kind == "extra":
            out[metric] = first.extra.get(keys[0], 0)
        elif kind == "counter":
            out[metric] = first.counters.get(keys[0], 0)
        elif kind == "ratio":
            num, base = (first.counters.get(k, first.extra.get(k, 0)) for k in keys)
            out[metric] = num / base if base else 0.0
        else:
            out[metric] = values[keys[0]]
    return out


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment(root: Path, workload: str, seed: int, nproc: int) -> dict:
    """Stamp recorded with every result."""
    src = [p for p in sorted((root / "src").rglob("*"))
           if p.is_file() and "__pycache__" not in p.parts]
    tree = "".join(f"{p.relative_to(root)}\n" for p in src).encode()
    tree += b"".join(p.read_bytes() for p in src)
    return {
        "git_sha": _git_sha(root),
        "src_sha256": hashlib.sha256(tree).hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "workload": workload,
        "seed": seed,
    }


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool, nproc: int) -> int:
    if workload_name not in WORKLOADS:
        print(f"perfbench: unknown workload {workload_name!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    out_root = root / ".perfbench_out"
    tag = f"{workload_name}-seed{seed}" + ("-smoke" if smoke else "")
    run_dir = out_root / f"run-{workload_name}-{os.getpid()}"
    stamp = environment(root, workload_name, seed, nproc)
    tally = Tally()
    tracer = Tracer()
    min_steps = 0 if smoke or trace else MIN_STEPS
    workload = make_workload(workload_name, seed, smoke, run_dir)
    workload.install()
    try:
        run_iteration(workload, tally)  # warm-up: untimed, sets the reference
        if not trace:
            samples = measure(workload, tally, seconds, 2, min_steps)
            traced = plain = []
        else:
            plain = measure(workload, tally, seconds / 2, 1, 0)
            counts: dict[str, dict] = {}

            def start_iteration(i):
                tracer.current_iteration = i
                counts["mark"] = len(tracer)

            def same_calls():
                now = tracer.calls_since(counts["mark"])
                counts.setdefault("first", now)
                return check_same("traced call counts", now, counts["first"])

            tracer.install()
            try:
                traced = measure(workload, tally, seconds / 2, 2, 0,
                                 before=start_iteration, extra_check=same_calls)
            finally:
                tracer.uninstall()
            samples = traced
    finally:
        workload.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    if not samples or trace and not plain:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    # in a traced run the plain half gives the timings, the traced half the layers
    report = report_metrics(workload, plain if trace else samples, tally)
    if trace:
        values = per_layer(tracer, traced, plain)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
        tracer.save(out_root / f"spans-{tag}.npz")
    else:
        values = end_to_end(samples)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }

    print(f"perfbench {workload_name} seed={seed} trace={int(trace)} "
          f"iterations={len(samples)} (closed loop, 1 client)")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"digest {samples[0].digest}")
    for name, value, unit, note in report:
        print(f"metric {name} {value!r} {unit}  # {note}")
    if trace:
        for name, m in metrics.items():
            print(f"layer {name} {m['value']!r} {m['unit']}")
    out_root.mkdir(parents=True, exist_ok=True)
    record = dict(result, env=stamp, digest=samples[0].digest,
                  report={name: {"value": v, "unit": u} for name, v, u, _ in report},
                  samples=[{"wall_s": s.wall_s, "setup_s": s.setup_s, "steps": s.steps}
                           for s in samples])
    (out_root / f"result-{tag}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0
