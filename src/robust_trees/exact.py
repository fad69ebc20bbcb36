"""Exact tree optimization by structure enumeration and cut generation.

The master problem picks one (item, threshold) split per internal node
and one feasible solution per leaf, minimizing the worst objective over a
finite set of perturbation scenarios (routing uses perturbed
observations, objectives charge true costs).  Splits with identical
routing behaviour over every (sample, scenario) pair are interchangeable,
so the search enumerates distinct routing *patterns* and maps the winner
back to the first (item, threshold) representative — an exact reduction.
Below the root a node sees only the pairs its ancestors route to it, so
the scan visits only *canonical* structures, whose every node takes the
first pattern that agrees with it on those pairs
(``kernels.canonical_structures``): each routing of the pairs has exactly
one, the first structure that routes that way, so the first strict
improvement, and the tree, stay those of the full odometer.
Leaf assignment (``_assign_leaves``) decomposes per leaf whenever all
scenarios route alike (then each leaf takes the pool solution minimizing
its samples' summed costs); otherwise ``kernels.assign_minmax``, an exact
blocked NumPy search over leaf tuples, picks the first minimal tuple.
All three structure searches run through the block scan
``kernels.scan_structures``.  Over two or more scenarios it makes its
running best, also inside a block, each leaf search's cutoff: a routing
with nothing strictly below it yields a ``(cutoff, None)`` certificate,
which the per-routing memo keeps beside exact results and, as that best
only falls, never recomputes.

``_cut_generation`` is the package's one cut-generation loop: it
alternates a master with an exact adversary, both passed in, appending
each worst-case shift as a new scenario until the two values meet within
``OBJECTIVE_TOL``.  ``scenario_generation`` runs it with ``solve_master``,
which certifies optimality over the catalog-split family, and
``adversary.worst_case``; the shared-budget leaf optimizer of the
heuristics runs it with a leaf-assignment master and the same adversary
split in its two steps, the structure's efforts computed once for every
leaf tuple it tries.  ``robust_value`` is the worst-case objective of
one tree, its leaves first checked against a space when one is given.
``post_process`` slides thresholds inside their enclosing observed-value
intervals and keeps the best tree found; it evaluates the whole grid of
threshold combinations in one batched adversary pass
(``adversary.worst_cases``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import adversary, kernels
from .errors import CapExceeded, ConvergenceStall, NoSplitAvailable
from .model import (OBJECTIVE_TOL, DecisionTree, assignment_objective,
                    build_threshold_catalog, check_depth, leaf_values)

PI_GRID = tuple(round(0.1 * t, 1) for t in range(1, 10))
"""Interpolation weights used when refining thresholds."""

_CHUNK = 100_000
_TIME_CHECK = 2048
_MAX_STRUCTURES = 2 ** 62
_GRID_ELEMS = 2 ** 18
"""Cap on a threshold-grid block: rows times per-row sample work."""
_DUP_TOL = 1e-9  # entrywise tolerance at which two scenarios are the same


@dataclass(frozen=True)
class ScenarioSet:
    """Perturbation scenarios the master hedges against; index 0 is zero."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.float64)
        if xi.ndim != 3:
            raise ValueError("xi must be (scenarios, samples, items)")
        if np.any(xi[0] != 0.0):
            raise ValueError("the first scenario must be all zeros")
        object.__setattr__(self, "xi", xi)

    @classmethod
    def zero(cls, n_samples, n_items):
        return cls(np.zeros((1, n_samples, n_items)))

    @property
    def n_scenarios(self):
        return self.xi.shape[0]

    def contains(self, xi_new):
        return bool(np.all(np.abs(self.xi - xi_new) <= _DUP_TOL,
                           axis=(1, 2)).any())

    def append(self, xi_new):
        return ScenarioSet(np.concatenate([self.xi, xi_new[None]], axis=0))


@dataclass
class SolveReport:
    """Outcome of a solve: the tree plus bookkeeping.

    ``objective`` is the value the method stands behind: for cut
    generation the exact worst case of the returned tree, also after a
    master or overall timeout (certified optimal only when converged);
    for heuristics the incumbent's worst case; for a bare master solve the
    scenario-set value.  ``master_objective`` is the last master value.
    ``optimal`` marks a certified optimum; heuristics never set it.
    """

    method: str
    tree: DecisionTree
    objective: float
    master_objective: float
    iterations: int
    wall_time: float
    converged: bool
    optimal: bool
    extras: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "method": self.method,
            "objective": self.objective,
            "master_objective": self.master_objective,
            "iterations": self.iterations,
            "wall_time_s": self.wall_time,
            "converged": self.converged,
            "optimal": self.optimal,
            "extras": self.extras,
        }


def _split_patterns(costs, scenarios, catalog):
    """Distinct routing patterns over catalog splits.

    Returns (splits, pattern_bits, reps): pattern_bits[m, s, j] is 1 when
    sample j under scenario s branches left at pattern m; reps[m] indexes
    the first split (item-then-threshold order) realizing the pattern.
    """
    splits = catalog.all_splits()
    if not splits:
        raise NoSplitAvailable("no item has two distinct observed values")
    obs = costs[None, :, :] + scenarios.xi
    bits = np.empty((len(splits), scenarios.n_scenarios, costs.shape[0]),
                    dtype=np.uint8)
    for m, (i, theta) in enumerate(splits):
        bits[m] = obs[:, :, i] <= theta
    flat = bits.reshape(len(splits), -1)
    _, first = np.unique(flat, axis=0, return_index=True)
    reps = np.sort(first)
    return splits, np.ascontiguousarray(bits[reps]), reps


def _master_objective(tree, dataset, scenarios):
    obs = dataset.costs + scenarios.xi
    leafm = tree.traverse_batch(obs.reshape(-1, dataset.n_items))
    return float(assignment_objective(leaf_values(dataset, tree),
                                      leafm.reshape(obs.shape[:2])).max())


def _assign_leaves(values, leafm, n_leaves, cutoff):
    """Pool index per leaf minimizing the worst routing, and its value.

    ``values[j, p]`` is sample j's cost under pool solution p and
    ``leafm[s, j]`` the leaf sample j reaches under scenario s.  The
    per-(scenario, leaf) sums add the samples in order from 0.0, as the
    structure scans do: a running sum (``np.add.accumulate``) over the
    samples' masked values, whose 0.0 where a sample is elsewhere leaves
    every sum bitwise as it is.  When every scenario routes alike
    the problem splits per leaf (each leaf takes the argmin of its summed
    values); otherwise ``kernels.assign_minmax``, a blocked NumPy search,
    finds the first minimal leaf tuple.  Only values strictly below
    ``cutoff`` count: with none, the result is the certificate
    ``(cutoff, None)``.
    """
    alike = (leafm == leafm[0]).all()
    routes = leafm[:1] if alike else leafm
    hit = (routes.T[:, :, None] == np.arange(n_leaves))[..., None]
    masked = np.where(hit, values[:, None, None, :], 0.0)
    masked[0] += 0.0  # the sums start from 0.0, which turns -0.0 into 0.0
    agg = np.add.accumulate(masked, axis=0)[-1]
    if alike:
        tup = agg[0].argmin(axis=1)
        obj = 0.0
        for k in range(n_leaves):
            obj += float(agg[0, k, tup[k]])
    else:
        obj, tup = kernels.assign_minmax(agg, cutoff)
    return (obj, tup) if obj < cutoff else (cutoff, None)


def _assign_memo(memo, values, leafm, n_leaves, cutoff):
    """``_assign_leaves`` through ``memo`` (keyed by the routing), which
    holds exact results and ``(cutoff, None)`` certificates; a certificate
    answers only calls whose cutoff is no higher than its own."""
    key = leafm.tobytes()
    hit = memo.get(key)
    if hit is None or (hit[1] is None and hit[0] < cutoff):
        hit = memo[key] = _assign_leaves(values, leafm, n_leaves, cutoff)
    return hit


def solve_master(dataset, scenarios, space, depth, catalog=None, pool=None,
                 fixed_leaves=None, time_limit=None):
    """Best tree against a fixed scenario set; exact unless it times out.

    With ``fixed_leaves`` only the split structure is searched (the leaf
    solutions are given).  ``pool`` overrides the candidate solutions for
    free leaves (default: the space's full enumeration).  Only canonical
    structures are scanned (module docstring); a converged result is
    bitwise that of a scan over every structure.  The time limit is
    checked between windows of at most ``_CHUNK`` canonical structures
    (``_TIME_CHECK`` with a leaf search per structure), so on timeout,
    returned with ``optimal=False``, the incumbent may differ from the
    one a scan over every structure would have reached by then.
    """
    check_depth(depth)
    start = time.perf_counter()
    costs = dataset.costs

    if depth == 0:
        if fixed_leaves is not None:
            leaves = np.asarray(fixed_leaves, dtype=np.int8).reshape(1, -1)
        else:
            x, _ = space.min_linear(costs.sum(axis=0))
            leaves = x[None, :]
        tree = DecisionTree(0, [], [], leaves)
        obj = _master_objective(tree, dataset, scenarios)
        return SolveReport("master", tree, obj, obj, 1,
                           time.perf_counter() - start, True, True)

    if catalog is None:
        catalog = build_threshold_catalog(dataset)
    splits, pattern_bits, reps = _split_patterns(costs, scenarios, catalog)
    total = pattern_bits.shape[0] ** (2 ** depth - 1)
    if total > _MAX_STRUCTURES:
        raise CapExceeded(f"{total} split structures is beyond any search")

    if fixed_leaves is not None:
        leaves = np.asarray(fixed_leaves, dtype=np.int8)
    else:
        leaves = np.asarray(space.enumerate() if pool is None else pool,
                            dtype=np.int8)
    values = np.ascontiguousarray(costs @ leaves.astype(np.float64).T)
    lb = float(values.min(axis=1).sum())
    lb_stop = lb + 1e-12 * (1.0 + abs(lb))

    # Each scan(codes, best, lb) covers one window of canonical structures
    # and returns (best, improved, choice) and, with free leaves, the leaf
    # tuple: the first strict improvement on ``best`` that reaches
    # ``lb_stop``, else the first minimum of the window.
    step = _CHUNK
    if fixed_leaves is not None:
        scan = partial(kernels.scan_structures_fixed, pattern_bits, values,
                       depth)
    elif scenarios.n_scenarios == 1:
        scan = partial(kernels.scan_structures_free,
                       np.ascontiguousarray(pattern_bits[:, 0, :]), values,
                       depth)
    else:
        # One leaf search per structure: check the time more often.  The
        # cutoff is the running best (module docstring); a certificate
        # ties with it, so it never counts as an improvement.
        step = _TIME_CHECK
        memo = {}

        def objective(leaf, best):
            obj = np.full(leaf.shape[0], np.inf)
            tuples = [None] * leaf.shape[0]
            for r in range(leaf.shape[0]):
                obj[r], tuples[r] = _assign_memo(memo, values, leaf[r],
                                                 2 ** depth, best)
                if obj[r] < best:
                    best = obj[r]
                    if best <= lb_stop:
                        break
            return obj, tuples

        scan = partial(kernels.scan_structures, pattern_bits, depth,
                       obj_elems=0, objective=objective)

    timed_out = False
    best_obj, best_found = np.inf, None
    windows = kernels.canonical_structures(pattern_bits, depth, step)
    for k, codes in enumerate(windows):
        if (k and time_limit is not None
                and time.perf_counter() - start > time_limit):
            timed_out = True
            break
        obj, improved, *found = scan(codes, best_obj, lb)
        if improved:
            best_obj, best_found = obj, found
        if best_obj <= lb_stop:
            break
    if fixed_leaves is None:
        leaves = leaves[np.asarray(best_found[1], dtype=np.int64)]

    rep_items = []
    rep_thetas = []
    for c in best_found[0]:
        i, theta = splits[int(reps[int(c)])]
        rep_items.append(i)
        rep_thetas.append(theta)
    tree = DecisionTree(depth, rep_items, rep_thetas, leaves)
    obj = _master_objective(tree, dataset, scenarios)
    return SolveReport("master", tree, obj, obj, 1,
                       time.perf_counter() - start, not timed_out,
                       not timed_out)


def robust_value(tree, dataset, budget, space=None):
    """Worst-case objective of a tree under the budget's kind.

    When ``space`` is given, the tree's leaves are checked against it
    first (``ValueError`` at the first infeasible leaf).
    """
    adversary.check_leaves(tree, space)
    return adversary.worst_case(tree, dataset, budget).objective


def _cut_generation(master, worst_case, dataset, time_limit):
    """Alternate ``master`` with the exact adversary until they meet.

    ``master(scenarios, remaining)`` returns ``(tree, value, optimal)``:
    its best tree against the :class:`ScenarioSet` so far, the tree's value
    there, and whether that value is exact (``remaining`` is the time left,
    or None).  ``worst_case(tree)`` is the exact adversary of the budget,
    returning an ``adversary.AdversaryResult`` with its witness.  Every
    master tree is handed to it, so the report's ``objective`` is always
    the exact worst case of its tree.  The loop
    stops when the values meet within ``OBJECTIVE_TOL`` (certified), when
    the master was not exact, or past ``time_limit``; a worst case already
    among the scenarios (within ``_DUP_TOL`` entrywise) raises
    :class:`ConvergenceStall`.
    """
    start = time.perf_counter()
    scen = ScenarioSet.zero(dataset.n_samples, dataset.n_items)
    masters = []
    while True:
        remaining = (None if time_limit is None
                     else time_limit - (time.perf_counter() - start))
        tree, value, optimal = master(scen, remaining)
        masters.append(value)
        adv = worst_case(tree)
        done = optimal and adv.objective - value <= OBJECTIVE_TOL
        late = (time_limit is not None
                and time.perf_counter() - start > time_limit)
        if done or not optimal or late:
            return SolveReport(
                "SG", tree, adv.objective, value, len(masters),
                time.perf_counter() - start, done, done,
                extras={"master_objectives": masters})
        if scen.contains(adv.xi):
            raise ConvergenceStall(
                "worst-case scenario repeated without convergence")
        scen = scen.append(adv.xi)


def scenario_generation(dataset, budget, space, depth, catalog=None,
                        pool=None, fixed_leaves=None, time_limit=3600.0):
    """Alternate master and adversary until their values meet.

    Master values are nondecreasing in the iteration count.  Convergence
    (|master - adversary| <= ``OBJECTIVE_TOL``) certifies the tree optimal
    over the catalog-split family (with ``fixed_leaves``: optimal structure
    for those leaves).  A worst case identical (within ``_DUP_TOL``
    entrywise) to a stored scenario cannot cut anything off and raises
    :class:`ConvergenceStall`.  Hitting ``time_limit`` returns the current
    incumbent with ``converged=False``, its exact worst case as
    ``objective`` and the last master value as ``master_objective``; a
    running master or adversary solve is never interrupted between the
    checks.
    """
    def master(scenarios, remaining):
        m = solve_master(dataset, scenarios, space, depth, catalog=catalog,
                         pool=pool, fixed_leaves=fixed_leaves,
                         time_limit=remaining)
        return m.tree, m.master_objective, m.optimal

    return _cut_generation(
        master, partial(adversary.worst_case, dataset=dataset, budget=budget),
        dataset, time_limit)


def post_process(tree, dataset, budget, space=None, pis=PI_GRID,
                 input_objective=None):
    """Refine thresholds inside their enclosing observed-value intervals.

    Each internal node's threshold is replaced by candidates interpolating
    the two observed values bracketing it (weights ``pis``, each strictly
    between 0 and 1, else ``ValueError``); a threshold that does not lie
    strictly between two observations is kept.  Every combination in the
    product of those options (node 0 slowest, as ``itertools.product``)
    is evaluated exactly: prod(|options|) rows,
    |pis|^nodes when all thresholds sit strictly between observations.
    The rows go to ``adversary.worst_cases`` in blocks of at most
    ``_GRID_ELEMS`` elements of per-row work, one block for the trees the
    package fits.  Returns the tree of the first strictly smallest worst
    case if it beats the input's by more than 1e-9, else the input tree
    itself; a depth-0 tree is evaluated once and returned.  When the input's
    thresholds are catalog midpoints the input combination is part of the
    grid, so no extra evaluation is needed; otherwise ``input_objective``
    is used as the reference (one extra row when omitted).
    """
    if not all(0.0 < pi < 1.0 for pi in pis):
        raise ValueError("interpolation weights must lie strictly between "
                         "0 and 1")
    adversary.check_leaves(tree, space)
    if tree.depth == 0:
        adversary.worst_cases(tree, tree.thresholds[None], dataset, budget)
        return tree

    options = []
    for q in range(tree.n_internal):
        theta = float(tree.thresholds[q])
        vals = np.unique(dataset.costs[:, tree.items[q]])
        pos = int(np.searchsorted(vals, theta))
        if 0 < pos < vals.size and vals[pos - 1] < theta < vals[pos]:
            lo, hi = float(vals[pos - 1]), float(vals[pos])
            options.append([pi * lo + (1.0 - pi) * hi for pi in pis])
        else:
            options.append([theta])

    sizes = [len(opt) for opt in options]
    total = math.prod(sizes)
    original = None
    if all(float(t) in opt for t, opt in zip(tree.thresholds, options)):
        original = int(np.ravel_multi_index(
            [opt.index(float(t)) for t, opt in zip(tree.thresholds, options)],
            sizes))

    per_row = dataset.n_samples * max(dataset.n_items,
                                      tree.n_leaves * tree.depth)
    block = max(1, _GRID_ELEMS // per_row)
    best_val = np.inf
    best_row = None
    original_val = None
    for start in range(0, total, block):
        rows = _grid_rows(options, sizes, start, min(start + block, total))
        vals = adversary.worst_cases(tree, rows, dataset, budget)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = vals[i]
            best_row = rows[i].copy()
        if original is not None and start <= original < start + len(rows):
            original_val = vals[original - start]
    ref = input_objective
    if ref is None:
        ref = original_val
    if ref is None:
        ref = adversary.worst_cases(tree, tree.thresholds[None], dataset,
                                    budget)[0]
    if best_val < ref - 1e-9:
        return tree.with_thresholds(best_row)
    return tree


def _grid_rows(options, sizes, start, stop):
    """Rows [start, stop) of the product of per-node threshold options."""
    picks = np.unravel_index(np.arange(start, stop), sizes)
    return np.column_stack([np.asarray(opt, dtype=np.float64)[pick]
                            for opt, pick in zip(options, picks)])
