"""Self-test of the benchmark itself, at reduced size.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It checks that:

* every workload, untraced and traced, emits exactly the metrics
  BENCHMARK.json lists, each with its unit, plus the report lines the
  benchmark doc names;
* each correctness check rejects an output it must reject, and a failed check
  or a raised error is counted in ``failed``;
* a directory that holds only BENCHMARK.json and this directory fails without
  printing a result.

Exit status 0 means every test passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import runner  # noqa: E402  (needs src/ on the path)
import workloads as wl  # noqa: E402

#: the report lines the benchmark doc lists, per kind of workload
REPORTED = {
    "training": {"wall_s": "s", "setup_s": "s", "round_ms_p50": "ms", "round_ms_p90": "ms",
                 "activations_per_s": "1/s", "final_acc": "fraction", "peak_rss_mb": "MB",
                 "error_rate": "failed/attempted"},
    "analysis": {"wall_s": "s", "setup_s": "s", "mc_block_ms_p50": "ms",
                 "mc_block_ms_p90": "ms", "mc_trials_per_s": "1/s", "acds_run_s": "s",
                 "peak_rss_mb": "MB", "error_rate": "failed/attempted"},
}


def _smoke(workload: str, trace: int, seed: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=root)


def test_metrics_emitted_with_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    # the untraced runs use the default seed, the traced ones the held-out seed
    for trace, key, seed in ((0, "end_to_end", wl.DEFAULT_SEED),
                             (1, "per_layer", wl.HELD_OUT_SEED)):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        own = runner.END_TO_END if trace == 0 else {k: u for k, (u, _) in runner.PER_LAYER.items()}
        assert own == wanted, f"{key} in runner.py differs from BENCHMARK.json"
        for workload in wl.WORKLOADS:
            proc = _smoke(workload, trace, seed)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace={trace}: {got}"
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (workload, name)
            report = {}
            for line in proc.stdout.splitlines():
                if line.startswith("metric "):
                    _, name, value, unit = line.split("#")[0].split()
                    report[name] = unit
            kind = "analysis" if workload == "analysis" else "training"
            assert report == REPORTED[kind], f"{workload}: report lines {report}"
            assert any(line.startswith("env {") for line in proc.stdout.splitlines())
            assert any(line.startswith("digest ") for line in proc.stdout.splitlines())


def test_each_check_can_fail():
    cases = [
        (wl.check_same, ("digest", "aa", "aa"), ("digest", "aa", "bb")),
        (wl.check_activations, (1000, 20, 50), (999, 20, 50)),
        (wl.check_finite, ("loss", [0.1, 2.0]), ("loss", [0.1, math.nan])),
        (wl.check_above, ("acc", 0.6, 0.125), ("acc", 0.1, 0.125)),
        (wl.check_estimate, ("mc", 4e-4, 1e-5, 5e-4), ("mc", 6e-4, 1e-5, 5e-4)),
        (wl.check_estimate, ("mc", 0.0, 0.0, 5e-4), ("mc", -1e-6, 0.0, 5e-4)),
        (wl.check_received, ({0: 1980, 1: 1980}, 1980), ({0: 1980, 1: 1975}, 1980)),
        (wl.check_worst_cost, ([5, 9], 9.0), ([5, 8], 9.0)),
    ]
    for check, good, bad in cases:
        assert check(*good) == [], (check.__name__, good)
        assert check(*bad), (check.__name__, bad)


def test_failures_are_counted():
    run_dir = ROOT / ".perfbench_out" / "selftest-run"
    try:
        for name in wl.WORKLOADS:
            workload = wl.make_workload(name, wl.DEFAULT_SEED, True, run_dir)
            workload.install()
            try:
                tally = runner.Tally()
                assert runner.run_iteration(workload, tally) is not None
                assert (tally.attempted, tally.failed) == (1, 0), name
                log = io.StringIO()
                with contextlib.redirect_stderr(log):
                    # a changed output must fail the comparison with the reference
                    workload.reference.digest = "0" * 64
                    runner.run_iteration(workload, tally)
                    assert (tally.attempted, tally.failed) == (2, 1), name
                    # so must a raised error
                    workload.iterate = lambda: 1 / 0
                    assert runner.run_iteration(workload, tally) is None
                    assert (tally.attempted, tally.failed) == (3, 2), name
                assert "check failed" in log.getvalue() and "ZeroDivisionError" in log.getvalue()
            finally:
                workload.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def test_fails_without_sources():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _smoke("ring-desk", 0, wl.DEFAULT_SEED, root=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [test_each_check_can_fail, test_failures_are_counted,
             test_fails_without_sources, test_metrics_emitted_with_units]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:  # report every test, then exit non-zero
            failed += 1
            traceback.print_exc()
            print(f"FAIL {test.__name__}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
