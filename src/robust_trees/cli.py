"""Command line interface.

Exit codes: 0 on success, 2 when an exact solve returned an incumbent
without proof (time limit), 1 on any error including bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, heuristics
from .exact import post_process, robust_value, scenario_generation
from .instances import (InstanceSpec, compute_budget, generate_instance,
                        instance_from_json, instance_to_json)
from .model import (UncertaintyBudget, nominal_objective, tree_from_json,
                    tree_to_json)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCUMBENT = 2

METHODS = ("nominal", "SG", "H1", "Htree", "Hsol", "Halt")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for incumbents here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_budget_args(p):
    p.add_argument("--kind", choices=("local", "global"), default="local",
                   help="per-sample or shared perturbation budget")
    p.add_argument("--lambda", dest="lam", type=float, default=0.05,
                   help="budget scale relative to depth times item spread")
    p.add_argument("--gamma", type=float, default=None,
                   help="absolute budget, overrides --lambda")
    p.add_argument("--coupling", choices=("N", "1"), default="N",
                   help="shared budget: N per-sample amounts, or one")


def _build_parser():
    parser = _Parser(prog="robust-trees",
                     description="Robust decision-tree policies for "
                                 "combinatorial optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random instance as JSON")
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--train", type=int, default=5)
    p.add_argument("--test", type=int, default=1000)
    p.add_argument("--scenarios", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="fit a tree on an instance's "
                                     "training data")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=METHODS, default="SG")
    _add_budget_args(p)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--post-process", action="store_true",
                   help="refine thresholds after solving")
    p.add_argument("--out", default=None,
                   help="write tree and report JSON here (default stdout)")

    p = sub.add_parser("evaluate", help="score a stored tree on an "
                                        "instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--tree", required=True)
    _add_budget_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("exp-corr", help="budget correlation experiment")
    p.add_argument("--out", required=True)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--trees", type=int, default=200)
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--train", type=int, default=5)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("exp-sweep", help="budget scale sweep experiment")
    p.add_argument("--out", required=True)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--grid", type=int, default=3)
    p.add_argument("--train", type=int, default=4)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("exp-tables", help="method comparison tables")
    p.add_argument("--out", required=True)
    p.add_argument("--instances", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--workers", type=int, default=None)
    return parser


def _budget(args, dataset, depth):
    if args.gamma is not None:
        if args.kind == "local":
            return UncertaintyBudget.local(args.gamma)
        return UncertaintyBudget.global_(args.gamma)
    return compute_budget(dataset, args.lam, depth, args.kind,
                          args.coupling)


def _emit(payload, out):
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _cmd_generate(args):
    spec = InstanceSpec(grid_side=args.grid, n_train=args.train,
                        n_test=args.test, n_scenarios=args.scenarios,
                        seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(instance_to_json(generate_instance(spec)) + "\n")
    return EXIT_OK


def _load_instance(path):
    with open(path) as fh:
        return instance_from_json(fh.read())


def _cmd_solve(args):
    inst = _load_instance(args.instance)
    train = inst.train
    space = inst.space
    budget = _budget(args, train, args.depth)
    if args.method == "nominal":
        zero = UncertaintyBudget.local(0.0)
        report = scenario_generation(train, zero, space, args.depth,
                                     time_limit=args.time_limit)
    elif args.method == "SG":
        report = scenario_generation(train, budget, space, args.depth,
                                     time_limit=args.time_limit)
    else:
        cfg = heuristics.HeuristicConfig(depth=args.depth,
                                         time_limit=args.time_limit,
                                         seed=args.seed)
        if args.method == "H1":
            report = heuristics.h1(train, space)
        elif args.method == "Htree":
            report = heuristics.h_tree(train, budget, space, cfg)
        elif args.method == "Hsol":
            report = heuristics.h_sol(train, budget, space, cfg)
        else:
            report = heuristics.h_alt(train, budget, space, cfg)
    tree = report.tree
    if args.post_process:
        tree = post_process(tree, train, budget,
                            input_objective=report.objective)
    payload = {"tree": json.loads(tree_to_json(tree)),
               "budget": {"kind": budget.kind, "gamma": budget.gamma},
               "report": report.to_json_dict()}
    if tree is not report.tree:
        payload["post_processed_objective"] = robust_value(tree, train,
                                                           budget)
    _emit(payload, args.out)
    if args.method in ("nominal", "SG") and not report.optimal:
        return EXIT_INCUMBENT
    return EXIT_OK


def _cmd_evaluate(args):
    inst = _load_instance(args.instance)
    with open(args.tree) as fh:
        tree = tree_from_json(fh.read())
    budget = _budget(args, inst.train, tree.depth)
    payload = {
        "budget": {"kind": budget.kind, "gamma": budget.gamma},
        "nominal_train": nominal_objective(tree, inst.train),
        "robust_train": robust_value(tree, inst.train, budget,
                                     space=inst.space),
        "nominal_test": nominal_objective(tree, inst.test),
    }
    _emit(payload, args.out)
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "exp-corr":
            experiments.exp_correlation(
                out_dir=args.out, n_instances=args.instances,
                grid_side=args.grid, n_train=args.train,
                n_trees=args.trees, depth=args.depth, seed=args.seed,
                workers=args.workers)
            return EXIT_OK
        if args.command == "exp-sweep":
            experiments.exp_lambda_sweep(
                out_dir=args.out, n_instances=args.instances,
                grid_side=args.grid, n_train=args.train, depth=args.depth,
                seed=args.seed, time_limit=args.time_limit,
                workers=args.workers)
            return EXIT_OK
        experiments.exp_relative_tables(
            out_dir=args.out, n_instances=args.instances,
            depth=args.depth, seed=args.seed,
            heuristic_time_limit=args.time_limit, workers=args.workers)
        return EXIT_OK
    except Exception as exc:  # CLI boundary: report, do not traceback
        print(f"robust-trees: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
