"""Heuristic tree construction.

All heuristics report the exact worst-case objective of the tree they
return (computed by the adversary), so their values are directly
comparable with the exact method.  What makes them heuristic is the
search over trees, not the evaluation.

The building blocks: pick a random split structure, then fill the leaves
optimally for that structure (``h_tree``); or pick leaf solutions from
the per-sample optima, then fit the best structure for those leaves via
cut generation (``h_sol``); or alternate the two improvement passes from
a random start until the objective stops decreasing (``h_alt``).  Each
pass searches a space containing the incumbent, so within one restart the
pass objectives never increase.  ``h1`` is the no-tree baseline: the
single solution minimizing the summed training costs.  A constant policy
routes every observation to the same leaf, so its worst-case objective
equals its nominal objective under any budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import adversary, kernels
from .errors import ConvergenceStall, NoSplitAvailable
from .exact import SolveReport, robust_value, scenario_generation
from .model import (EPSILON, OBJECTIVE_TOL, DecisionTree,
                    assignment_objective, build_threshold_catalog,
                    leaf_values)

_INNER_PASS_CAP = 1000


@dataclass(frozen=True)
class HeuristicConfig:
    """Knobs shared by the randomized heuristics.

    ``pool`` selects the candidate solutions leaves are filled from:
    ``"enumerate"`` uses every feasible solution (exact leaf subproblem,
    so h_tree and h_alt can never end above h1), ``"per-sample"`` uses
    the deduplicated per-sample optima plus the aggregate optimum.
    ``max_rounds`` caps restarts regardless of time, mainly for
    deterministic tests; ``None`` means run until ``time_limit``.
    """

    depth: int = 2
    time_limit: float = 60.0
    seed: int = 0
    pool: str = "enumerate"
    max_rounds: int | None = None

    def __post_init__(self):
        if self.pool not in ("enumerate", "per-sample"):
            raise ValueError(f"unknown pool policy {self.pool!r}")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 when given")


def _dedup_rows(rows):
    seen = set()
    keep = []
    for row in rows:
        arr = np.asarray(row, dtype=np.int8)
        key = arr.tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(arr)
    return np.asarray(keep, dtype=np.int8)


def per_sample_optima(dataset, space):
    """Deduplicated optimal solutions of the individual samples, in
    first-occurrence order."""
    return _dedup_rows(space.min_linear(c)[0] for c in dataset.costs)


def _candidate_pool(dataset, space, config):
    if config.pool == "enumerate":
        return space.enumerate()
    sols = [space.min_linear(c)[0] for c in dataset.costs]
    sols.append(space.min_linear(dataset.costs.sum(axis=0))[0])
    return _dedup_rows(sols)


def h1(dataset, space):
    """Best single solution for the summed training costs, as a tree."""
    start = time.perf_counter()
    x, _ = space.min_linear(dataset.costs.sum(axis=0))
    tree = DecisionTree(0, [], [], x[None, :])
    values = leaf_values(dataset, tree)
    obj = assignment_objective(
        values, np.zeros(dataset.n_samples, dtype=np.int64))
    return SolveReport("H1", tree, obj, obj, 1,
                       time.perf_counter() - start, True, False)


def sample_random_structure(catalog, depth, rng):
    """Uniform random split per node: item uniform over items with at
    least one threshold, then threshold uniform over that item's set."""
    n_nodes = 2 ** depth - 1
    if n_nodes == 0:
        return [], []
    candidates = catalog.items_with_splits()
    if not candidates:
        raise NoSplitAvailable("no item has two distinct observed values")
    items = []
    thetas = []
    for _ in range(n_nodes):
        i = candidates[int(rng.integers(len(candidates)))]
        ts = catalog.thresholds[i]
        items.append(i)
        thetas.append(float(ts[int(rng.integers(ts.size))]))
    return items, thetas


def optimize_leaves_local(tree, dataset, gamma, pool, eps=EPSILON):
    """Exact best leaf assignment from ``pool`` for a fixed structure
    under a per-sample budget.  Returns the tree and its worst case."""
    pool = np.asarray(pool, dtype=np.int8)
    eff = adversary.perturbation_cost(tree, dataset, eps)
    reach = np.ascontiguousarray(eff.rho <= gamma)
    values = np.ascontiguousarray(
        dataset.costs @ pool.astype(np.float64).T)
    minval = values.min(axis=1)
    last_reach = reach.shape[1] - 1 - np.argmax(reach[:, ::-1], axis=1)
    _, pick = kernels.assign_reach(values, reach, minval,
                                   last_reach.astype(np.int64))
    refined = tree.with_leaves(pool[pick])
    obj = adversary.solve_local(refined, dataset, gamma, eps).objective
    return refined, obj


def optimize_leaves_global(tree, dataset, gamma, pool, eps=EPSILON,
                           tol=OBJECTIVE_TOL, time_limit=None,
                           dup_tol=1e-9):
    """Exact best leaf assignment for a fixed structure under a shared
    budget, via cut generation over leaf assignments.

    On timeout the incumbent and its exact worst case are returned
    without the optimality guarantee.
    """
    start = time.perf_counter()
    pool = np.asarray(pool, dtype=np.int8)
    costs = dataset.costs
    n_leaves = tree.n_leaves
    values = np.ascontiguousarray(costs @ pool.astype(np.float64).T)
    xis = [np.zeros_like(costs)]
    while True:
        routings = np.stack([tree.traverse_batch(costs + xi) for xi in xis])
        if bool((routings == routings[0]).all()):
            pick = np.zeros(n_leaves, dtype=np.int64)
            master = 0.0
            for k in range(n_leaves):
                colsum = values[routings[0] == k].sum(axis=0)
                pick[k] = int(np.argmin(colsum))
                master += float(colsum[pick[k]])
        else:
            agg = np.zeros((len(xis), n_leaves, values.shape[1]))
            for s in range(len(xis)):
                for k in range(n_leaves):
                    agg[s, k] = values[routings[s] == k].sum(axis=0)
            master, pick = kernels.assign_minmax(agg, agg.min(axis=2))
        refined = tree.with_leaves(pool[pick])
        adv = adversary.solve_global(refined, dataset, gamma, eps)
        if adv.objective - master <= tol:
            return refined, adv.objective
        if (time_limit is not None
                and time.perf_counter() - start > time_limit):
            return refined, adv.objective
        if any(np.all(np.abs(xi - adv.xi) <= dup_tol) for xi in xis):
            raise ConvergenceStall(
                "worst-case scenario repeated without convergence")
        xis.append(adv.xi)


def _optimize_leaves(tree, dataset, budget, pool, eps, time_limit):
    if budget.kind == "local":
        return optimize_leaves_local(tree, dataset, budget.gamma, pool, eps)
    return optimize_leaves_global(tree, dataset, budget.gamma, pool, eps,
                                  time_limit=time_limit)


def h_tree(dataset, budget, space, config=None, catalog=None, pool=None,
           eps=EPSILON):
    """Random structures, exact leaves; keep the best tree found."""
    config = config if config is not None else HeuristicConfig()
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if catalog is None:
        catalog = build_threshold_catalog(dataset)
    if pool is None:
        pool = _candidate_pool(dataset, space, config)
    pool = np.asarray(pool, dtype=np.int8)
    stub = np.repeat(pool[:1], 2 ** config.depth, axis=0)
    best_tree = None
    best = np.inf
    rounds = 0
    while True:
        rounds += 1
        items, thetas = sample_random_structure(catalog, config.depth, rng)
        base = DecisionTree(config.depth, items, thetas, stub)
        remaining = config.time_limit - (time.perf_counter() - start)
        tree, obj = _optimize_leaves(base, dataset, budget, pool, eps,
                                     remaining)
        if obj < best:
            best = obj
            best_tree = tree
        if config.max_rounds is not None and rounds >= config.max_rounds:
            break
        if time.perf_counter() - start >= config.time_limit:
            break
    return SolveReport("Htree", best_tree, best, best, rounds,
                       time.perf_counter() - start, True, False,
                       extras={"rounds": rounds})


def _certified_value(report, dataset, budget, eps):
    if report.converged:
        return report.objective
    return robust_value(report.tree, dataset, budget, eps)


def h_sol(dataset, budget, space, config=None, catalog=None, eps=EPSILON):
    """Random leaf sets from the per-sample optima, exact structures.

    Each round draws one solution per leaf (with replacement) from the
    deduplicated per-sample optima and fits the best split structure for
    that leaf set by cut generation.  A round whose cut generation stalls
    is dropped and the incumbent kept; :class:`ConvergenceStall` is raised
    only when every round stalled.
    """
    config = config if config is not None else HeuristicConfig()
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if catalog is None:
        catalog = build_threshold_catalog(dataset)
    optima = per_sample_optima(dataset, space)
    n_leaves = 2 ** config.depth
    best_tree = None
    best = np.inf
    rounds = 0
    while True:
        rounds += 1
        draw = rng.integers(len(optima), size=n_leaves)
        fixed = optima[draw]
        remaining = config.time_limit - (time.perf_counter() - start)
        try:
            rep = scenario_generation(dataset, budget, space, config.depth,
                                      catalog=catalog, fixed_leaves=fixed,
                                      time_limit=remaining, eps=eps)
        except ConvergenceStall:
            pass
        else:
            obj = _certified_value(rep, dataset, budget, eps)
            if obj < best:
                best = obj
                best_tree = rep.tree
        if config.max_rounds is not None and rounds >= config.max_rounds:
            break
        if time.perf_counter() - start >= config.time_limit:
            break
    if best_tree is None:
        raise ConvergenceStall(f"the cut generation of all {rounds} rounds "
                               "stalled")
    return SolveReport("Hsol", best_tree, best, best, rounds,
                       time.perf_counter() - start, True, False,
                       extras={"rounds": rounds})


def h_alt(dataset, budget, space, config=None, catalog=None, pool=None,
          eps=EPSILON):
    """Alternate structure and leaf improvement from random restarts.

    Within a restart: optimize leaves for a random structure, then
    repeat (best structure for the current leaves, best leaves for the
    new structure) until one full cycle improves the objective by at
    most the convergence tolerance.  The structure pass searches all
    catalog structures (the current one included) and the leaf pass
    searches all pool assignments (the current one included), so the
    recorded pass objectives are nonincreasing unless an inner solve
    hit the time limit.  A structure pass whose cut generation stalls
    ends the restart with its incumbent.
    """
    config = config if config is not None else HeuristicConfig()
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if catalog is None:
        catalog = build_threshold_catalog(dataset)
    if pool is None:
        pool = _candidate_pool(dataset, space, config)
    pool = np.asarray(pool, dtype=np.int8)
    stub = np.repeat(pool[:1], 2 ** config.depth, axis=0)

    def remaining():
        return config.time_limit - (time.perf_counter() - start)

    best_tree = None
    best = np.inf
    rounds = 0
    all_passes = []
    while True:
        rounds += 1
        items, thetas = sample_random_structure(catalog, config.depth, rng)
        base = DecisionTree(config.depth, items, thetas, stub)
        tree, cur = _optimize_leaves(base, dataset, budget, pool, eps,
                                     remaining())
        passes = [cur]
        for _ in range(_INNER_PASS_CAP):
            try:
                rep = scenario_generation(dataset, budget, space,
                                          config.depth, catalog=catalog,
                                          fixed_leaves=tree.leaves,
                                          time_limit=remaining(), eps=eps)
            except ConvergenceStall:
                break
            val_b = _certified_value(rep, dataset, budget, eps)
            passes.append(val_b)
            if val_b > cur + OBJECTIVE_TOL:
                break
            tree_c, val_c = _optimize_leaves(rep.tree, dataset, budget,
                                             pool, eps, remaining())
            passes.append(val_c)
            if val_c <= cur:
                tree, converged_gap = tree_c, cur - val_c
                cur = val_c
                if converged_gap <= OBJECTIVE_TOL:
                    break
            else:
                break
            if remaining() <= 0:
                break
        all_passes.append(passes)
        if cur < best:
            best = cur
            best_tree = tree
        if config.max_rounds is not None and rounds >= config.max_rounds:
            break
        if time.perf_counter() - start >= config.time_limit:
            break
    return SolveReport("Halt", best_tree, best, best, rounds,
                       time.perf_counter() - start, True, False,
                       extras={"rounds": rounds,
                               "pass_objectives": all_passes})
