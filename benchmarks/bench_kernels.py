#!/usr/bin/env python3
"""Time the hot kernels:

    python3 benchmarks/bench_kernels.py

The three ``structure_scan`` cases also print how many depth-2 split
structures their master has and how many of them are canonical, the
ones the scan visits.  ``--case NAME`` (repeatable) runs only the named
cases; the peak resident memory of the process is printed after the
timings, so one case per process gives that case's peak:

    python3 benchmarks/bench_kernels.py --case leaf_assignment_shared_grid4
"""

import argparse
import itertools
import resource
import time

import numpy as np

from robust_trees import (
    Dataset,
    DecisionTree,
    InstanceSpec,
    PI_GRID,
    ScenarioSet,
    build_threshold_catalog,
    compute_budget,
    generate_instance,
    optimize_leaves_global,
    optimize_leaves_local,
    per_sample_optima,
    perturbation_cost,
    post_process,
    sample_random_structure,
    solve_global,
    solve_master,
)
from robust_trees.adversary import worst_cases
from robust_trees.exact import _split_patterns
from robust_trees.heuristics import _optimize_leaves
from robust_trees.kernels import canonical_structures


def _tree_for(dataset, depth, seed):
    catalog = build_threshold_catalog(dataset)
    rng = np.random.default_rng(seed)
    items, thetas = sample_random_structure(catalog, depth, rng)
    leaves = rng.integers(0, 2,
                          size=(2 ** depth, dataset.n_items)).astype(np.int8)
    return DecisionTree(depth, items, thetas, leaves)


def bench_grid_min_path():
    from robust_trees import GridGraph

    space = GridGraph(40)
    rng = np.random.default_rng(0)
    costs = rng.uniform(0, 10, size=(200, space.n_items))
    for row in costs:
        space.min_linear(row)


def bench_perturbation_cost():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.uniform(0, 10, size=(2000, 24)))
    tree = _tree_for(ds, 2, 1)
    for _ in range(30):
        perturbation_cost(tree, ds)


def bench_solve_global():
    rng = np.random.default_rng(2)
    ds = Dataset(np.round(rng.uniform(0, 10, size=(40, 8)), 3))
    tree = _tree_for(ds, 2, 2)
    for gamma in np.linspace(0.5, 6.0, 12):
        solve_global(tree, ds, float(gamma))


def bench_leaf_assignment():
    inst = generate_instance(InstanceSpec(grid_side=3, n_train=30, n_test=1,
                                          seed=3))
    ds, space = inst.train, inst.space
    pool = space.enumerate()
    tree = _tree_for(ds, 2, 3)
    for gamma in np.linspace(0.0, 3.0, 30):
        optimize_leaves_local(tree, ds, float(gamma), pool)


def bench_leaf_fill_global():
    # the shared-budget leaf fill: one effort pass per call, then cut
    # generation over leaf tuples; 8 depth-2 structures of one 5-sample
    # instance, 12 budgets each
    inst = generate_instance(InstanceSpec(grid_side=3, n_train=5, n_test=1,
                                          seed=8))
    ds, space = inst.train, inst.space
    pool = space.enumerate()
    for seed in range(8):
        tree = _tree_for(ds, 2, seed)
        for lam in np.linspace(0.0, 0.2, 12):
            gamma = compute_budget(ds, float(lam), 2, "global").gamma
            optimize_leaves_global(tree, ds, gamma, pool)


def _fills(grid, kind, lam):
    # the leaf fill of h_tree and h_alt: 20 random depth-2 structures on
    # each of three 5-sample instances
    for seed in range(3):
        inst = generate_instance(InstanceSpec(grid_side=grid, n_train=5,
                                              n_test=1, seed=seed))
        ds, space = inst.train, inst.space
        pool = space.enumerate()
        catalog = build_threshold_catalog(ds)
        budget = compute_budget(ds, lam, 2, kind)
        rng = np.random.default_rng(seed)
        empty = np.zeros((4, ds.n_items), dtype=np.int8)
        for _ in range(20):
            items, thetas = sample_random_structure(catalog, 2, rng)
            _optimize_leaves(DecisionTree(2, items, thetas, empty), ds,
                             budget, pool, None)


def bench_leaf_assignment_local_grid3():
    # per-sample budget at lambda 0.02: kernels.assign_reach over a 6**4
    # leaf-tuple grid of 5 samples, which fits in one block
    _fills(3, "local", 0.02)


def bench_leaf_assignment_shared():
    # shared budget at lambda 0.05: cut generation over leaf tuples,
    # kernels.assign_minmax its master
    _fills(3, "global", 0.05)


def bench_leaf_assignment_shared_grid4():
    _fills(4, "global", 0.05)  # pool of 20 paths


def _scan_free_inputs():
    inst = generate_instance(InstanceSpec(grid_side=4, n_train=5, n_test=1,
                                          seed=4))
    ds, space = inst.train, inst.space
    return ds, ScenarioSet.zero(ds.n_samples, ds.n_items), space, {}


def _scan_fixed_inputs():
    inst = generate_instance(InstanceSpec(grid_side=4, n_train=5, n_test=1,
                                          seed=5))
    ds, space = inst.train, inst.space
    rng = np.random.default_rng(5)
    scen = ScenarioSet.zero(ds.n_samples, ds.n_items)
    for _ in range(2):
        scen = scen.append(np.round(
            rng.uniform(-0.5, 0.5, size=(ds.n_samples, ds.n_items)), 3))
    optima = per_sample_optima(ds, space)
    leaves = optima[rng.integers(len(optima), size=4)]
    return ds, scen, space, {"fixed_leaves": leaves}


def _scan_multi_inputs():
    inst = generate_instance(InstanceSpec(grid_side=3, n_train=4, n_test=1,
                                          seed=7))
    ds, space = inst.train, inst.space
    rng = np.random.default_rng(7)
    scen = ScenarioSet.zero(ds.n_samples, ds.n_items)
    for _ in range(2):
        scen = scen.append(np.round(
            rng.uniform(-2.0, 2.0, size=(ds.n_samples, ds.n_items)), 3))
    return ds, scen, space, {}


def bench_structure_scan():
    ds, scen, space, kw = _scan_free_inputs()
    solve_master(ds, scen, space, depth=2, **kw)


def bench_structure_scan_fixed():
    ds, scen, space, kw = _scan_fixed_inputs()
    solve_master(ds, scen, space, depth=2, **kw)


def bench_structure_scan_multi():
    ds, scen, space, kw = _scan_multi_inputs()
    solve_master(ds, scen, space, depth=2, **kw)


def structure_counts():
    """Depth-2 structures of each scan case: the full odometer and the
    canonical ones the scan visits."""
    counts = {}
    for name, inputs in (("structure_scan", _scan_free_inputs),
                         ("structure_scan_fixed", _scan_fixed_inputs),
                         ("structure_scan_multi", _scan_multi_inputs)):
        ds, scen, _, _ = inputs()
        bits = _split_patterns(ds.costs, scen,
                               build_threshold_catalog(ds))[1]
        counts[name] = (bits.shape[0] ** 3, sum(
            codes.shape[0]
            for codes in canonical_structures(bits, 2, 2 ** 20)))
    return counts


def _count_note(counts, name):
    if name not in counts:
        return ""
    full, canonical = counts[name]
    return f"  ({full:,} structures, {canonical:,} canonical)"


def bench_post_process_depth2():
    inst = generate_instance(InstanceSpec(grid_side=4, n_train=5, n_test=1,
                                          seed=6))
    ds, space = inst.train, inst.space
    rng = np.random.default_rng(6)
    items, thetas = sample_random_structure(build_threshold_catalog(ds), 2,
                                            rng)
    optima = per_sample_optima(ds, space)
    tree = DecisionTree(2, items, thetas,
                        optima[rng.integers(len(optima), size=4)])
    for kind in ("local", "global"):
        post_process(tree, ds, compute_budget(ds, 0.1, 2, kind))


def bench_worst_cases_shared():
    inst = generate_instance(InstanceSpec(grid_side=4, n_train=5, n_test=1,
                                          seed=5))
    ds, space = inst.train, inst.space
    rng = np.random.default_rng(5)
    items, thetas = sample_random_structure(build_threshold_catalog(ds), 2,
                                            rng)
    optima = per_sample_optima(ds, space)
    tree = DecisionTree(2, items, thetas,
                        optima[rng.integers(len(optima), size=4)])
    # the 9**3 threshold grid post_process evaluates for this tree; 71 of
    # its rows need the knapsack search
    options = []
    for item, theta in zip(items, thetas):
        vals = np.unique(ds.costs[:, item])
        pos = np.searchsorted(vals, theta)
        options.append([pi * vals[pos - 1] + (1.0 - pi) * vals[pos]
                        for pi in PI_GRID])
    rows = np.array(list(itertools.product(*options)))
    worst_cases(tree, rows, ds, compute_budget(ds, 0.1, 2, "global"))


BENCHMARKS = [
    ("grid_min_path", bench_grid_min_path),
    ("perturbation_cost", bench_perturbation_cost),
    ("solve_global", bench_solve_global),
    ("leaf_assignment", bench_leaf_assignment),
    ("leaf_fill_global", bench_leaf_fill_global),
    ("leaf_assignment_local_grid3", bench_leaf_assignment_local_grid3),
    ("leaf_assignment_shared", bench_leaf_assignment_shared),
    ("leaf_assignment_shared_grid4", bench_leaf_assignment_shared_grid4),
    ("structure_scan", bench_structure_scan),
    ("structure_scan_fixed", bench_structure_scan_fixed),
    ("structure_scan_multi", bench_structure_scan_multi),
    ("post_process_depth2", bench_post_process_depth2),
    ("worst_cases_shared", bench_worst_cases_shared),
]


def run_suite(repeat, cases):
    results = {}
    for name, fn in BENCHMARKS:
        if cases and name not in cases:
            continue
        fn()  # warm-up
        best = min(_timed(fn) for _ in range(repeat))
        results[name] = best
    return results


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per benchmark (best wins)")
    parser.add_argument("--case", action="append",
                        choices=[name for name, _ in BENCHMARKS],
                        help="run only this case (repeatable)")
    args = parser.parse_args()

    results = run_suite(args.repeat, args.case)
    # read before the structure counts, which take memory of their own
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = structure_counts()
    for name, seconds in results.items():
        print(f"  {name}: {seconds:.3f}s" + _count_note(counts, name))
    print(f"peak resident memory: {peak:.2f} MB")


if __name__ == "__main__":
    main()
