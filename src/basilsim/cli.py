"""Command-line front end.

Exit codes: 0 success, 1 run failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import inspect
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


def _case1_oracle(N: int, b: int, n: int, G: int, trials: int, seed: int):
    """The grouped oracle at S = n-1, the event case 1 bounds."""
    return analytics.monte_carlo_basil_plus_failure(N, b, n, G, n - 1, trials, seed)


#: analyze query -> (help, key of the value, {kind: (formula, oracle)}). A kind's
#: flags are its formula's parameters. A failure kind also names the Monte-Carlo
#: oracle of its event and prints the bound's fields; the one kind of ``cost``
#: takes no positional word.
QUERIES = {
    "failure": ("ring or grouped failure probability bounds", None, {
        "ring": (analytics.basil_failure_prob, analytics.monte_carlo_ring_failure),
        "grouped": (analytics.basil_plus_failure_prob,
                    analytics.monte_carlo_basil_plus_failure),
        "case1": (analytics.basil_plus_failure_case1, _case1_oracle),
    }),
    "time": ("training and data-sharing time models", "time", {
        "basil": (analytics.basil_training_time, None),
        "basil-recursion": (analytics.basil_training_time_recursion, None),
        "basil-plus": (analytics.basil_plus_training_time, None),
        "ubar": (analytics.ubar_training_time, None),
        "acds": (acds_mod.acds_comm_time, None),
    }),
    "cost": ("data-sharing communication cost", "cost_bits", {
        None: (acds_mod.acds_comm_cost, None),
    }),
}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _cmd_analyze(args) -> int:
    inputs = {name: getattr(args, name) for name in inspect.signature(args.formula).parameters}
    value = args.formula(**inputs)
    record = {"query": {"kind": args.kind, **inputs} if args.kind else inputs}
    if args.oracle is None:
        record[args.value_key] = value
    else:
        record.update(analytic=value.probability, raw_bound=value.raw_bound,
                      monte_carlo=None, std_error=None, trials=None)
        if args.trials:
            est, se = args.oracle(**inputs, trials=args.trials, seed=args.seed)
            record.update(monte_carlo=est, std_error=se, trials=args.trials)
    print(json.dumps(record, indent=2))
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
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_an = sub.add_parser("analyze", help="closed-form reliability/cost/time queries")
    an_sub = p_an.add_subparsers(dest="query", required=True)

    for query, (summary, value_key, kinds) in QUERIES.items():
        p_query = an_sub.add_parser(query, help=summary)
        kind_sub = None if None in kinds else p_query.add_subparsers(dest="kind", required=True)
        for kind, (formula, oracle) in kinds.items():
            p = p_query if kind is None else kind_sub.add_parser(
                kind, help=inspect.getdoc(formula).split("\n\n")[0])
            for name, param in inspect.signature(formula, eval_str=True).parameters.items():
                p.add_argument("--" + name.replace("_", "-"), type=param.annotation,
                               required=True)
            if oracle:
                p.add_argument("--trials", type=int, default=0,
                               help="also run a Monte-Carlo estimate of the same event")
                p.add_argument("--seed", type=_seed, default=0)
            p.set_defaults(func=_cmd_analyze, parser=p, kind=kind, formula=formula,
                           oracle=oracle, value_key=value_key)

    p_demo = sub.add_parser("acds-demo", help="run anonymous data sharing on synthetic data")
    p_demo.add_argument("--nodes", type=int, default=8)
    p_demo.add_argument("--groups", type=int, default=2)
    p_demo.add_argument("--alpha", type=float, default=0.05)
    p_demo.add_argument("--batches", type=int, default=2)
    p_demo.add_argument("--samples-per-node", type=int, default=200)
    p_demo.add_argument("--classes", type=int, default=4)
    p_demo.add_argument("--dim", type=int, default=8)
    p_demo.add_argument("--seed", type=_seed, default=0)
    p_demo.add_argument("--bits-per-sample", type=int, default=None)
    p_demo.add_argument("--bandwidth", type=float, default=None)
    p_demo.set_defaults(func=_cmd_acds_demo, parser=p_demo)
    return parser


def main(argv=None) -> int:
    # nested subparsers hand unknown flags up to the root: report them with the command's usage
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
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
