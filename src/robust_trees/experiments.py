"""Experiment drivers: budget correlation, lambda sweep, method tables.

Each driver returns plain dicts/lists (easy to assert on) and, given an
output directory, writes CSV files with floats at six decimals.  Top
level work units are plain-argument functions so the optional process
pool (``workers`` argument or ``ROBUST_TREES_WORKERS``) can dispatch
them; instances are regenerated inside the worker from their seed
instead of being shipped across processes.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import adversary
from .errors import DegenerateVariance
from .exact import robust_value, scenario_generation
from .heuristics import (HeuristicConfig, h1, h_tree, optimize_leaves_local,
                         sample_random_structure)
from .instances import InstanceSpec, compute_budget, generate_instance
from .model import (DecisionTree, UncertaintyBudget,
                    build_threshold_catalog, leaf_values, nominal_objective)


def pearson_r(x, y):
    """Pearson correlation; rejects constant inputs rather than
    returning NaN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two equal-length 1-d arrays")
    if x.var() == 0.0 or y.var() == 0.0:
        raise DegenerateVariance("an input has zero variance")
    return float(np.corrcoef(x, y)[0, 1])


def _pearson_or_nan(x, y):
    """Summary tables mark a flat cell as NaN instead of aborting the
    whole experiment over it."""
    try:
        return pearson_r(x, y)
    except DegenerateVariance:
        return float("nan")


def _workers(workers):
    if workers is None:
        env = os.environ.get("ROBUST_TREES_WORKERS")
        workers = int(env) if env else 1
    return max(1, int(workers))


def _map(fn, tasks, workers):
    n = _workers(workers)
    if n <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, tasks))


def _instance_seeds(seed, count):
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in fieldnames})


def _corr_instance(args):
    iseed, grid_side, n_train, n_trees, depth, lambdas, couplings = args
    inst = generate_instance(InstanceSpec(grid_side=grid_side,
                                          n_train=n_train, n_test=1,
                                          seed=iseed))
    train = inst.train
    space = inst.space
    catalog = build_threshold_catalog(train)
    pool = space.enumerate()
    rng = np.random.default_rng(iseed)
    stub = np.repeat(pool[:1], 2 ** depth, axis=0)
    # one effort pass and one leaf-value matrix per tree, for every budget
    passes = []
    for _ in range(n_trees):
        items, thetas = sample_random_structure(catalog, depth, rng)
        base = DecisionTree(depth, items, thetas, stub)
        tree, _ = optimize_leaves_local(base, train, 0.0, pool)
        passes.append((adversary.efforts(tree, train),
                      leaf_values(train, tree)))

    def worst(kind, gamma):
        return [adversary.worst_case_against(eff, train, values, kind,
                                             gamma).objective
                for eff, values in passes]

    rows = []
    for lam in lambdas:
        local_vals = worst("local",
                           compute_budget(train, lam, depth, "local").gamma)
        for coupling in couplings:
            global_vals = worst("global", compute_budget(
                train, lam, depth, "global", coupling).gamma)
            for k, (lv, gv) in enumerate(zip(local_vals, global_vals)):
                rows.append({"instance_seed": iseed, "tree": k,
                             "lam": lam, "coupling": coupling,
                             "local_value": lv, "global_value": gv})
    return rows


def exp_correlation(out_dir=None, n_instances=20, grid_side=4, n_train=5,
                    n_trees=200, depth=2,
                    lambdas=(0.05, 0.1, 0.15, 0.2), couplings=("N", "1"),
                    seed=0, workers=None):
    """Correlate per-sample and shared worst cases over random trees.

    Leaves of each random structure are filled optimally at a zero
    budget, so tree quality varies only through the splits.  Pearson r
    is reported per (lambda, coupling) within each instance and pooled
    over all instances (``instance_seed`` -1).
    """
    seeds = _instance_seeds(seed, n_instances)
    tasks = [(s, grid_side, n_train, n_trees, depth, tuple(lambdas),
              tuple(couplings)) for s in seeds]
    pairs = [row for rows in _map(_corr_instance, tasks, workers)
             for row in rows]
    summary = []
    for lam in lambdas:
        for coupling in couplings:
            cell = [r for r in pairs
                    if r["lam"] == lam and r["coupling"] == coupling]
            for iseed in seeds:
                sub = [r for r in cell if r["instance_seed"] == iseed]
                summary.append({
                    "lam": lam, "coupling": coupling,
                    "instance_seed": iseed,
                    "pearson_r": _pearson_or_nan(
                        [r["local_value"] for r in sub],
                        [r["global_value"] for r in sub])})
            summary.append({
                "lam": lam, "coupling": coupling, "instance_seed": -1,
                "pearson_r": _pearson_or_nan(
                    [r["local_value"] for r in cell],
                    [r["global_value"] for r in cell])})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "correlation_pairs.csv"),
                  ["instance_seed", "tree", "lam", "coupling",
                   "local_value", "global_value"], pairs)
        write_csv(os.path.join(out_dir, "correlation_summary.csv"),
                  ["lam", "coupling", "instance_seed", "pearson_r"],
                  summary)
    return {"pairs": pairs, "summary": summary}


def default_sweep_lambdas():
    fine = [round(0.01 * k, 2) for k in range(0, 11)]
    coarse = [round(0.12 + 0.02 * k, 2) for k in range(0, 5)]
    return fine + coarse


def _sweep_instance(args):
    iseed, grid_side, n_train, depth, lambdas, coupling, time_limit = args
    inst = generate_instance(InstanceSpec(grid_side=grid_side,
                                          n_train=n_train, n_test=1,
                                          seed=iseed))
    train = inst.train
    space = inst.space
    catalog = build_threshold_catalog(train)
    rows = []
    for lam in lambdas:
        b_loc = compute_budget(train, lam, depth, "local")
        b_glo = compute_budget(train, lam, depth, "global", coupling)
        rep_loc = scenario_generation(train, b_loc, space, depth,
                                      catalog=catalog, time_limit=time_limit)
        rep_glo = scenario_generation(train, b_glo, space, depth,
                                      catalog=catalog, time_limit=time_limit)
        v_ll = rep_loc.objective
        v_gg = rep_glo.objective
        v_lg = robust_value(rep_loc.tree, train, b_glo)
        v_gl = robust_value(rep_glo.tree, train, b_loc)
        rows.append({
            "instance_seed": iseed, "lam": lam,
            "local_opt": v_ll, "local_tree_under_global": v_lg,
            "global_tree_under_local": v_gl, "global_opt": v_gg,
            "local_tree_globally_optimal": int(v_lg <= v_gg + 1e-6),
            "global_tree_locally_optimal": int(v_gl <= v_ll + 1e-6),
            "both_converged": int(rep_loc.converged and rep_glo.converged),
        })
    return rows


def exp_lambda_sweep(out_dir=None, n_instances=5, grid_side=3, n_train=4,
                     depth=1, lambdas=None, coupling="N", seed=0,
                     time_limit=60.0, workers=None):
    """Exact trees across a budget-scale grid, cross-evaluated.

    For each lambda the per-sample and shared optimal trees are computed
    and each is scored under the other budget, counting how often one
    kind's optimum is already optimal for the other.
    """
    if lambdas is None:
        lambdas = default_sweep_lambdas()
    seeds = _instance_seeds(seed, n_instances)
    tasks = [(s, grid_side, n_train, depth, tuple(lambdas), coupling,
              time_limit) for s in seeds]
    rows = [row for rows in _map(_sweep_instance, tasks, workers)
            for row in rows]
    summary = []
    for lam in lambdas:
        cell = [r for r in rows if r["lam"] == lam]
        summary.append({
            "lam": lam, "n_instances": len(cell),
            "local_tree_globally_optimal":
                sum(r["local_tree_globally_optimal"] for r in cell),
            "global_tree_locally_optimal":
                sum(r["global_tree_locally_optimal"] for r in cell),
        })
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "sweep.csv"),
                  ["instance_seed", "lam", "local_opt",
                   "local_tree_under_global", "global_tree_under_local",
                   "global_opt", "local_tree_globally_optimal",
                   "global_tree_locally_optimal", "both_converged"], rows)
        write_csv(os.path.join(out_dir, "sweep_summary.csv"),
                  ["lam", "n_instances", "local_tree_globally_optimal",
                   "global_tree_locally_optimal"], summary)
    return {"rows": rows, "summary": summary}


def _tables_run(args):
    (iseed, grid_side, n_train, n_test, depth, lam, coupling, kinds,
     time_limit, heur_seed) = args
    inst = generate_instance(InstanceSpec(grid_side=grid_side,
                                          n_train=n_train, n_test=n_test,
                                          seed=iseed))
    train = inst.train
    test = inst.test
    space = inst.space
    base = scenario_generation(train, UncertaintyBudget.local(0.0), space,
                               depth).tree
    h1_tree = h1(train, space).tree
    rows = []
    for kind in kinds:
        budget = compute_budget(train, lam, depth, kind, coupling)
        cfg = HeuristicConfig(depth=depth, time_limit=time_limit,
                              seed=heur_seed)
        ht_tree = h_tree(train, budget, space, cfg).tree
        for method, tree in (("nominal", base), ("H1", h1_tree),
                             ("Htree", ht_tree)):
            rows.append({
                "grid_side": grid_side, "n_train": n_train,
                "instance_seed": iseed, "kind": kind, "method": method,
                "nominal_train": nominal_objective(tree, train),
                "robust_train": robust_value(tree, train, budget),
                "nominal_test": nominal_objective(tree, test),
            })
    return rows


_TABLE_METRICS = ("nominal_train", "robust_train", "nominal_test")


def exp_relative_tables(out_dir=None, grid_sides=(3, 4), train_sizes=(3, 5),
                        n_instances=2, n_test=1000, depth=2, lam=0.05,
                        coupling="N", kinds=("local", "global"), seed=0,
                        heuristic_time_limit=60.0, heuristic_seed=0,
                        workers=None):
    """Method comparison scaled against the best nominal tree.

    For each cell (grid side, training size) and instance, the nominal
    optimal tree is the baseline; H1 and the random-structure heuristic
    are scored on nominal and worst-case training objectives plus the
    nominal test objective, each as percent change over the baseline's
    same metric.
    """
    tasks = []
    cell_seeds = _instance_seeds(seed, len(grid_sides) * len(train_sizes)
                                 * n_instances)
    k = 0
    for g in grid_sides:
        for n_train in train_sizes:
            for _ in range(n_instances):
                tasks.append((cell_seeds[k], g, n_train, n_test, depth,
                              lam, coupling, tuple(kinds),
                              heuristic_time_limit, heuristic_seed))
                k += 1
    raw = [row for rows in _map(_tables_run, tasks, workers)
           for row in rows]
    scaled = []
    for row in raw:
        if row["method"] == "nominal":
            continue
        base = next(r for r in raw
                    if r["method"] == "nominal"
                    and r["grid_side"] == row["grid_side"]
                    and r["n_train"] == row["n_train"]
                    and r["instance_seed"] == row["instance_seed"]
                    and r["kind"] == row["kind"])
        for metric in _TABLE_METRICS:
            scaled.append({
                "grid_side": row["grid_side"], "n_train": row["n_train"],
                "instance_seed": row["instance_seed"], "kind": row["kind"],
                "method": row["method"], "metric": metric,
                "scaled_pct": 100.0 * (row[metric] - base[metric])
                              / base[metric]})
    summary = []
    for g in grid_sides:
        for n_train in train_sizes:
            for kind in kinds:
                for method in ("H1", "Htree"):
                    for metric in _TABLE_METRICS:
                        vals = [r["scaled_pct"] for r in scaled
                                if r["grid_side"] == g
                                and r["n_train"] == n_train
                                and r["kind"] == kind
                                and r["method"] == method
                                and r["metric"] == metric]
                        summary.append({
                            "grid_side": g, "n_train": n_train,
                            "kind": kind, "method": method,
                            "metric": metric,
                            "mean_scaled_pct": float(np.mean(vals))})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "tables_raw.csv"),
                  ["grid_side", "n_train", "instance_seed", "kind",
                   "method", "nominal_train", "robust_train",
                   "nominal_test"], raw)
        write_csv(os.path.join(out_dir, "tables_scaled.csv"),
                  ["grid_side", "n_train", "instance_seed", "kind",
                   "method", "metric", "scaled_pct"], scaled)
        write_csv(os.path.join(out_dir, "tables_summary.csv"),
                  ["grid_side", "n_train", "kind", "method", "metric",
                   "mean_scaled_pct"], summary)
    return {"raw": raw, "scaled": scaled, "summary": summary}
