"""basilsim benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring-desk --seed 6 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  ``--smoke`` shrinks every
workload to a few rounds for the self-test.  The simulator is imported from
``src/`` of the same checkout; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: OpenBLAS worker threads spin between calls, so with two of them a run keeps
#: both cores busy and every timing depends on the second core being free.
#: One thread keeps the closed loop on one core, within the nproc cap.
BLAS_THREADS = 1


def limit_blas_threads() -> int:
    """Set the BLAS thread count before numpy loads; returns ``nproc``."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    nproc = limit_blas_threads()
    src = ROOT / "src"
    if not (src / "basilsim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {src / 'basilsim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import runner  # imports numpy, so only after the thread count is set

    return runner.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                      args.smoke, nproc)


if __name__ == "__main__":
    sys.exit(main())
