"""Command-line front end.

Exit codes: 0 success, 1 run failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acds as acds_mod
from . import analytics
from .data import make_cluster_dataset, partition
from .errors import ConfigError
from .harness import run_experiment


def _cmd_run(args) -> int:
    result = run_experiment(args.config, output_dir=args.output_dir)
    print(json.dumps({
        "output_dir": str(result.output_dir),
        "csv": str(result.csv_path),
        "manifest": str(result.manifest_path),
        "series": str(result.series_path) if result.series_path else None,
        "rows": len(result.history.rows),
    }, indent=2))
    return 0


def _cmd_analyze_failure(args) -> int:
    query = {"N": args.N, "b": args.b}
    if args.S is not None:
        query["S"] = args.S
    grouped = args.n is not None or args.G is not None
    if grouped and (args.n is None or args.G is None):
        raise ConfigError("grouped queries need both --n and --G")
    if args.case1 and not grouped:
        raise ConfigError("--case1 is a grouped query and needs --n and --G")
    if args.case1 and args.S not in (None, args.n - 1):
        raise ConfigError(f"--case1 is the S = n-1 event, got --S {args.S} with n-1 = {args.n - 1}")
    if grouped:
        query.update({"n": args.n, "G": args.G})
        if args.case1:
            query["case1"] = True
            bound = analytics.basil_plus_failure_case1(args.N, args.b, args.n, args.G)
        else:
            if args.S is None:
                raise ConfigError("grouped run-length queries need --S")
            bound = analytics.basil_plus_failure_prob(args.N, args.b, args.n, args.G, args.S)
    else:
        if args.S is None:
            raise ConfigError("ring queries need --S")
        bound = analytics.basil_failure_prob(args.N, args.b, args.S)
    record = {
        "query": query,
        "analytic": bound.probability,
        "raw_bound": bound.raw_bound,
        "monte_carlo": None,
        "std_error": None,
        "trials": None,
    }
    if args.trials:
        if grouped:
            s_mc = args.S if args.S is not None else args.n - 1
            est, se = analytics.monte_carlo_basil_plus_failure(
                args.N, args.b, args.n, args.G, s_mc, args.trials, args.seed)
        else:
            est, se = analytics.monte_carlo_ring_failure(
                args.N, args.b, args.S, args.trials, args.seed)
        record.update({"monte_carlo": est, "std_error": se, "trials": args.trials})
    print(json.dumps(record, indent=2))
    return 0


def _cmd_analyze_cost(args) -> int:
    bits = acds_mod.acds_comm_cost(args.alpha, args.D, args.I, args.H, args.n, args.G)
    print(json.dumps({
        "query": {"alpha": args.alpha, "D": args.D, "I": args.I,
                  "H": args.H, "n": args.n, "G": args.G},
        "cost_bits": bits,
    }, indent=2))
    return 0


def _cmd_analyze_time(args) -> int:
    query = vars(args).copy()
    query.pop("func", None)
    query.pop("command", None)
    query.pop("analyze_what", None)
    model = args.model
    if model == "basil":
        value = analytics.basil_training_time(
            args.tau, args.n, args.G, args.t_perf, args.t_comm, args.t_sgd)
    elif model == "basil-recursion":
        value = analytics.basil_training_time_recursion(
            args.tau, args.n * args.G, args.S, args.t_perf, args.t_comm, args.t_sgd)
    elif model == "basil-plus":
        value = analytics.basil_plus_training_time(
            args.tau, args.n, args.G, args.S, args.t_perf, args.t_comm, args.t_sgd)
    elif model == "ubar":
        value = analytics.ubar_training_time(
            args.K, args.S, args.d, args.R,
            args.t_dist, args.t_perf, args.t_agg, args.t_sgd)
    else:  # acds
        value = acds_mod.acds_comm_time(
            args.alpha, args.D, args.I, args.H, args.n, args.G, args.R)
    print(json.dumps({"query": query, "time": value}, indent=2))
    return 0


def _cmd_acds_demo(args) -> int:
    dataset = make_cluster_dataset(
        args.nodes * args.samples_per_node, max(args.classes, 2), args.dim,
        separation=3.0, seed=args.seed,
    )
    dataset = partition(dataset, args.nodes, "non-iid", args.seed)
    plan = acds_mod.plan_acds(
        dataset, list(range(args.nodes)), args.groups, args.alpha, args.batches, args.seed)
    pool = acds_mod.run_acds(plan, shuffle_seed=args.seed)
    print(json.dumps(pool.summary(args.bits_per_sample, args.bandwidth), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basilsim",
        description="Simulate and analyse Byzantine-resilient ring training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config or manifest")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="closed-form reliability/cost/time queries")
    an_sub = p_an.add_subparsers(dest="analyze_what", required=True)

    p_fail = an_sub.add_parser("failure", help="ring or grouped failure probability")
    p_fail.add_argument("--N", type=int, required=True)
    p_fail.add_argument("--b", type=int, required=True)
    p_fail.add_argument("--S", type=int, default=None,
                        help="run length / connectivity (not needed with --case1)")
    p_fail.add_argument("--n", type=int, default=None, help="group size (grouped query)")
    p_fail.add_argument("--G", type=int, default=None, help="group count (grouped query)")
    p_fail.add_argument("--case1", action="store_true",
                        help="fully connected groups (S = n-1 variant)")
    p_fail.add_argument("--trials", type=int, default=0,
                        help="also run a Monte-Carlo estimate")
    p_fail.add_argument("--seed", type=int, default=0)
    p_fail.set_defaults(func=_cmd_analyze_failure)

    p_cost = an_sub.add_parser("cost", help="data-sharing communication cost")
    for flag, typ in (("--alpha", float), ("--D", int), ("--I", int),
                      ("--H", int), ("--n", int), ("--G", int)):
        p_cost.add_argument(flag, type=typ, required=True)
    p_cost.set_defaults(func=_cmd_analyze_cost)

    p_time = an_sub.add_parser("time", help="training/communication time models")
    p_time.add_argument("--model", required=True,
                        choices=["basil", "basil-recursion", "basil-plus", "ubar", "acds"])
    p_time.add_argument("--tau", type=int, default=1)
    p_time.add_argument("--n", type=int, default=1)
    p_time.add_argument("--G", type=int, default=1)
    p_time.add_argument("--S", type=int, default=1)
    p_time.add_argument("--K", type=int, default=1)
    p_time.add_argument("--d", type=int, default=1)
    p_time.add_argument("--R", type=float, default=1.0)
    p_time.add_argument("--alpha", type=float, default=0.05)
    p_time.add_argument("--D", type=int, default=1)
    p_time.add_argument("--I", type=int, default=1)
    p_time.add_argument("--H", type=int, default=1)
    p_time.add_argument("--t-perf", type=float, default=0.0)
    p_time.add_argument("--t-comm", type=float, default=0.0)
    p_time.add_argument("--t-sgd", type=float, default=0.0)
    p_time.add_argument("--t-dist", type=float, default=0.0)
    p_time.add_argument("--t-agg", type=float, default=0.0)
    p_time.set_defaults(func=_cmd_analyze_time)

    p_demo = sub.add_parser("acds-demo", help="run anonymous data sharing on synthetic data")
    p_demo.add_argument("--nodes", type=int, default=8)
    p_demo.add_argument("--groups", type=int, default=2)
    p_demo.add_argument("--alpha", type=float, default=0.05)
    p_demo.add_argument("--batches", type=int, default=2)
    p_demo.add_argument("--samples-per-node", type=int, default=200)
    p_demo.add_argument("--classes", type=int, default=4)
    p_demo.add_argument("--dim", type=int, default=8)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--bits-per-sample", type=int, default=None)
    p_demo.add_argument("--bandwidth", type=float, default=None)
    p_demo.set_defaults(func=_cmd_acds_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # run failure
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
