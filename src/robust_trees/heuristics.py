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
pass objectives never increase.  The three share one restart loop that
keeps the best round.  Leaves are filled from a pool of solutions (by
default the whole feasible set, so ``h_tree`` and ``h_alt`` never end
above ``h1``): per sample for a per-sample budget, and for a shared
budget by the package's one cut-generation loop, run over leaf
assignments instead of split structures.  A fill changes only the
leaves, so it computes the structure's efforts (``adversary.efforts``)
and the pool's values once, and evaluates every leaf tuple it tries
against them (``adversary.worst_case_against``); the shared-budget fill
routes each scenario once, when it joins the cuts.  ``h1`` is the no-tree
baseline: the single solution minimizing the summed training costs.  A
constant policy routes every observation to the same leaf, so its
worst-case objective equals its nominal objective under any budget.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import adversary, kernels
from .errors import ConvergenceStall, NoSplitAvailable
from .exact import (SolveReport, _assign_leaves, _cut_generation,
                    scenario_generation)
from .model import (OBJECTIVE_TOL, DecisionTree, assignment_objective,
                    build_threshold_catalog, check_depth, check_gamma,
                    leaf_values, solution_values)

_INNER_PASS_CAP = 1000


@dataclass(frozen=True)
class HeuristicConfig:
    """Knobs shared by the randomized heuristics.

    ``max_rounds`` (an ``int`` of at least 1) caps restarts regardless of
    time, mainly for deterministic tests; ``None`` means run until
    ``time_limit``.
    """

    depth: int = 2
    time_limit: float = 60.0
    seed: int = 0
    max_rounds: int | None = None

    def __post_init__(self):
        check_depth(self.depth)
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        # type(), not isinstance(): True is an int too
        if self.max_rounds is not None and (
                type(self.max_rounds) is not int or self.max_rounds < 1):
            raise ValueError("max_rounds must be an int >= 1 when given")
        if self.max_rounds is None and not np.isfinite(self.time_limit):
            raise ValueError("time_limit must be finite when max_rounds "
                             "is None")


def per_sample_optima(dataset, space):
    """Deduplicated optimal solutions of the individual samples, in
    first-occurrence order."""
    seen = set()
    keep = []
    for c in dataset.costs:
        x = np.asarray(space.min_linear(c)[0], dtype=np.int8)
        if x.tobytes() not in seen:
            seen.add(x.tobytes())
            keep.append(x)
    return np.asarray(keep, dtype=np.int8)


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


def _pool_values(dataset, pool):
    """Values (samples, pool) for the leaf searches, and for the adversary.

    The searches rank leaf tuples on the BLAS product; the adversary needs
    the bits of ``leaf_values``, which the columns of
    ``model.solution_values`` are for any tree with pool rows as leaves.
    The two can differ in the last bit.
    """
    return (np.ascontiguousarray(dataset.costs @ pool.astype(np.float64).T),
            solution_values(dataset, pool))


def optimize_leaves_local(tree, dataset, gamma, pool):
    """Exact best leaf assignment from ``pool`` for a fixed structure
    under a per-sample budget.  Returns the tree and its worst case.

    The structure's efforts give both the reach of each sample and the
    worst case of the filled tree.
    """
    check_gamma(gamma)
    pool = np.asarray(pool, dtype=np.int8)
    eff = adversary.efforts(tree, dataset)
    values, adv_values = _pool_values(dataset, pool)
    _, pick = kernels.assign_reach(values,
                                   np.ascontiguousarray(eff.rho[0] <= gamma))
    obj = adversary.worst_case_against(eff, dataset, adv_values[:, pick],
                                       "local", gamma).objective
    return tree.with_leaves(pool[pick]), obj


def optimize_leaves_global(tree, dataset, gamma, pool, time_limit=None):
    """Exact best leaf assignment for a fixed structure under a shared
    budget, via cut generation over leaf assignments.

    Only the leaves change from one iteration to the next, so the
    structure's efforts and the pool's values are computed once, and each
    scenario is routed once, when it joins the cuts (the zero scenario by
    the effort pass).  On timeout the incumbent and its exact worst case
    are returned without the optimality guarantee.
    """
    check_gamma(gamma)
    pool = np.asarray(pool, dtype=np.int8)
    eff = adversary.efforts(tree, dataset)
    values, adv_values = _pool_values(dataset, pool)
    routes = eff.nominal
    pick = None

    def master(scenarios, remaining):
        nonlocal routes, pick
        if scenarios.n_scenarios > len(routes):
            obs = dataset.costs + scenarios.xi[len(routes):]
            new = tree.traverse_batch(obs.reshape(-1, dataset.n_items))
            routes = np.concatenate([routes, new.reshape(obs.shape[:2])])
        value, pick = _assign_leaves(values, routes, tree.n_leaves, np.inf)
        return tree.with_leaves(pool[pick]), value, True

    def worst_case(_):  # of the master's last tree, whose leaves are pick
        return adversary.worst_case_against(eff, dataset, adv_values[:, pick],
                                            "global", gamma)

    rep = _cut_generation(master, worst_case, dataset, time_limit)
    return rep.tree, rep.objective


def _optimize_leaves(tree, dataset, budget, pool, time_limit):
    if budget.kind == "local":
        return optimize_leaves_local(tree, dataset, budget.gamma, pool)
    return optimize_leaves_global(tree, dataset, budget.gamma, pool,
                                  time_limit=time_limit)


def _restarts(method, config, start, one_round):
    """Run ``one_round(remaining)`` until ``config.max_rounds`` rounds or
    ``config.time_limit`` seconds since ``start``; keep the best round.

    A round returns ``(tree, objective)``, or ``None`` when it was dropped.
    ``remaining()`` gives the seconds left.  Raises
    :class:`ConvergenceStall` when every round was dropped.
    """
    def remaining():
        return config.time_limit - (time.perf_counter() - start)

    best_tree = None
    best = np.inf
    rounds = 0
    while config.max_rounds is None or rounds < config.max_rounds:
        rounds += 1
        got = one_round(remaining)
        if got is not None and got[1] < best:
            best_tree, best = got
        if remaining() <= 0:
            break
    if best_tree is None:
        raise ConvergenceStall(f"the cut generation of all {rounds} rounds "
                               "stalled")
    return SolveReport(method, best_tree, best, best, rounds,
                       time.perf_counter() - start, True, False,
                       extras={"rounds": rounds})


def _random_fill(dataset, budget, space, config, catalog, pool):
    """Round start of ``h_tree`` and ``h_alt``.

    Returns ``(catalog, pool, fill)``; ``fill(remaining)`` draws a random
    structure and gives it its best leaves from the pool, returning the
    tree and its worst case.
    """
    rng = np.random.default_rng(config.seed)
    if catalog is None:
        catalog = build_threshold_catalog(dataset)
    pool = np.asarray(space.enumerate() if pool is None else pool,
                      dtype=np.int8)
    stub = np.repeat(pool[:1], 2 ** config.depth, axis=0)

    def fill(remaining):
        items, thetas = sample_random_structure(catalog, config.depth, rng)
        base = DecisionTree(config.depth, items, thetas, stub)
        return _optimize_leaves(base, dataset, budget, pool, remaining())

    return catalog, pool, fill


def h_tree(dataset, budget, space, config=None, catalog=None, pool=None):
    """Random structures, exact leaves; keep the best tree found."""
    config = config if config is not None else HeuristicConfig()
    start = time.perf_counter()
    _, _, fill = _random_fill(dataset, budget, space, config, catalog, pool)
    return _restarts("Htree", config, start, fill)


def h_sol(dataset, budget, space, config=None, catalog=None):
    """Random leaf sets from the per-sample optima, exact structures.

    Each round draws one solution per leaf (with replacement) from the
    deduplicated per-sample optima and fits the best split structure for
    that leaf set by cut generation, given the remaining time split evenly
    over the rounds left (all of it when ``max_rounds`` is None).  A round
    whose cut generation stalls is dropped and the incumbent kept;
    :class:`ConvergenceStall` is raised only when every round stalled.
    """
    config = config if config is not None else HeuristicConfig()
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if catalog is None:
        catalog = build_threshold_catalog(dataset)
    optima = per_sample_optima(dataset, space)
    n_leaves = 2 ** config.depth
    rounds_left = (itertools.repeat(1) if config.max_rounds is None
                   else itertools.count(config.max_rounds, -1))

    def one_round(remaining):
        fixed = optima[rng.integers(len(optima), size=n_leaves)]
        try:
            rep = scenario_generation(dataset, budget, space, config.depth,
                                      catalog=catalog, fixed_leaves=fixed,
                                      time_limit=remaining()
                                      / next(rounds_left))
        except ConvergenceStall:
            return None
        return rep.tree, rep.objective

    return _restarts("Hsol", config, start, one_round)


def h_alt(dataset, budget, space, config=None, catalog=None, pool=None):
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
    catalog, pool, fill = _random_fill(dataset, budget, space, config,
                                       catalog, pool)
    all_passes = []

    def one_round(remaining):
        tree, cur = fill(remaining)
        passes = [cur]
        all_passes.append(passes)
        for _ in range(_INNER_PASS_CAP):
            try:
                rep = scenario_generation(dataset, budget, space,
                                          config.depth, catalog=catalog,
                                          fixed_leaves=tree.leaves,
                                          time_limit=remaining())
            except ConvergenceStall:
                break
            passes.append(rep.objective)
            if rep.objective > cur + OBJECTIVE_TOL:
                break
            tree_c, val_c = _optimize_leaves(rep.tree, dataset, budget,
                                             pool, remaining())
            passes.append(val_c)
            if val_c > cur:
                break
            tree, cur, gain = tree_c, val_c, cur - val_c
            if gain <= OBJECTIVE_TOL or remaining() <= 0:
                break
        return tree, cur

    rep = _restarts("Halt", config, start, one_round)
    rep.extras["pass_objectives"] = all_passes
    return rep
