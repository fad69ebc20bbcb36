"""Independent reference implementations used to check the solvers.

Everything here is written for clarity over speed and reimplements the
math from scratch: leaf constraint boxes are rebuilt by walking leaf
index bits, efforts are plain interval distances, and all optimization
is exhaustive enumeration.  Only trivial accessors of the package
(array fields, ``traverse_batch``) are reused.

``scan_structures_free`` and ``scan_structures_fixed`` are the
one-structure-at-a-time loops that ``robust_trees.kernels`` evaluates in
NumPy blocks, ``effort_matrix_loop`` the per-row loop behind
``kernels.effort_matrix``, and ``assign_minmax_loop`` the one-node-at-a-
time branch and bound behind the blocked ``kernels.assign_minmax``, and
``assign_reach_brute`` the enumeration of leaf tuples behind
``kernels.assign_reach``; the kernels must return bitwise the same
results.  ``post_process_loop`` is
threshold refinement evaluated one tree at a time, the reference for the
batched ``post_process``.
``canonical_structures`` keeps the first structure of each routing
class, the reference for ``kernels.canonical_structures``, and
``solve_master_full`` is ``solve_master`` over the whole odometer.
``solve_rows_search`` is the batched adversary with the shared-budget
knapsack search run on every row, the reference for the rows on which
``adversary._solve`` skips it.  ``solve_master_loop`` is the
multi-scenario structure scan with an uncut leaf search per routing, the
reference for the cutoff ``exact.solve_master`` hands each search, and
``shifts_add_at`` the witness scatter by ``np.add.at`` that
``adversary._shifts`` replaces with a plain assignment.
``optimize_leaves_global_loop`` is the shared-budget leaf fill that
routes every scenario again and runs ``adversary.worst_case`` on each
master tree, the reference for ``heuristics.optimize_leaves_global``,
which computes the structure's efforts once and routes each scenario
once.
``brute_force_global`` checks the shared-budget knapsack search alone: it
walks every assignment over the package's own effort matrix and breaks
ties the way the search does, so the two objectives must agree exactly.
"""

import itertools
import math

import numpy as np


def leaf_bounds(tree, leaf, eps):
    """Per-item (lo, hi) interval an observation must satisfy to reach
    ``leaf``; None when the constraints contradict."""
    node = 0
    bounds = {}
    for level in range(tree.depth):
        bit = (leaf >> (tree.depth - 1 - level)) & 1
        item = int(tree.items[node])
        theta = float(tree.thresholds[node])
        lo, hi = bounds.get(item, (-math.inf, math.inf))
        if bit == 0:
            hi = min(hi, theta)
        else:
            lo = max(lo, theta + eps)
        if lo > hi:
            return None
        bounds[item] = (lo, hi)
        node = 2 * node + 1 + bit
    return bounds


def effort(tree, costs_row, leaf, eps):
    """Minimum L1 change moving one observation into a leaf's box."""
    bounds = leaf_bounds(tree, leaf, eps)
    if bounds is None:
        return math.inf
    total = 0.0
    for item, (lo, hi) in sorted(bounds.items()):
        c = float(costs_row[item])
        if c < lo:
            total += lo - c
        elif c > hi:
            total += c - hi
    return total


def effort_matrix(tree, dataset, eps):
    """Efforts of every (sample, leaf); a sample's nominal leaf is free,
    as the zero shift reaches it even inside the ``eps`` margin."""
    n_leaves = 2 ** tree.depth
    nominal = tree.traverse_batch(dataset.costs)
    rho = np.empty((dataset.n_samples, n_leaves))
    for j in range(dataset.n_samples):
        for k in range(n_leaves):
            rho[j, k] = (0.0 if k == nominal[j]
                         else effort(tree, dataset.costs[j], k, eps))
    return rho


def effort_matrix_loop(costs, item, lo, hi, nominal):
    """The loop ``kernels.effort_matrix`` evaluates in NumPy.

    Per row r, leaf k and slot p, sample j pays its distance to
    [lo[r, k, p], hi[r, k, p]] on item[k, p], added in slot order from
    0.0; a leaf with an empty slot costs +inf; the nominal leaf
    nominal[r, j] costs 0.
    """
    n_rows, n_leaves, n_slots = lo.shape
    n_samples = costs.shape[0]
    rho = np.zeros((n_rows, n_samples, n_leaves))
    for r in range(n_rows):
        for k in range(n_leaves):
            if (lo[r, k] > hi[r, k]).any():
                rho[r, :, k] = np.inf
                continue
            for p in range(n_slots):
                i = item[k, p]
                for j in range(n_samples):
                    cji = costs[j, i]
                    if cji < lo[r, k, p]:
                        rho[r, j, k] += lo[r, k, p] - cji
                    elif cji > hi[r, k, p]:
                        rho[r, j, k] += cji - hi[r, k, p]
        for j in range(n_samples):
            rho[r, j, nominal[r, j]] = 0.0
    return rho


def values_matrix(tree, dataset):
    vals = np.empty((dataset.n_samples, 2 ** tree.depth))
    for k in range(2 ** tree.depth):
        vals[:, k] = dataset.costs @ tree.leaves[k].astype(np.float64)
    return vals


def adversary_local(tree, dataset, gamma, eps):
    """Per-sample worst case: best reachable leaf, independently."""
    rho = effort_matrix(tree, dataset, eps)
    vals = values_matrix(tree, dataset)
    total = 0.0
    for j in range(dataset.n_samples):
        total += max(vals[j, k] for k in range(vals.shape[1])
                     if rho[j, k] <= gamma)
    return total


def adversary_global(tree, dataset, gamma, eps):
    """Shared-budget worst case by enumerating all leaf assignments."""
    rho = effort_matrix(tree, dataset, eps)
    vals = values_matrix(tree, dataset)
    n, k = vals.shape
    best = -math.inf
    for assign in itertools.product(range(k), repeat=n):
        spent = sum(rho[j, assign[j]] for j in range(n))
        if spent <= gamma:
            best = max(best, sum(vals[j, assign[j]] for j in range(n)))
    return best


BRUTE_FORCE_CAP = 10 ** 7


def brute_force_global(tree, dataset, gamma, cap=BRUTE_FORCE_CAP):
    """Exhaustive reference for ``robust_trees.solve_global``.

    Walks every feasible assignment (each sample to any leaf with effort
    <= gamma), pruning only on budget infeasibility, keeping the first
    strict maximum.  Candidate order per sample is the nominal leaf first,
    then leaves by index, so ties resolve the same way as the search.
    """
    from robust_trees import (AdversaryResult, CapExceeded, leaf_values,
                              perturbation_cost, reconstruct_perturbation)

    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    eff = perturbation_cost(tree, dataset)
    values = leaf_values(dataset, tree)
    options = []
    total = 1
    for j in range(dataset.n_samples):
        opts = [int(eff.nominal_leaf[j])]
        opts += [k for k in range(tree.n_leaves)
                 if k != eff.nominal_leaf[j] and eff.rho[j, k] <= gamma]
        options.append(opts)
        total *= len(opts)
        if total > cap:
            raise CapExceeded(
                f"assignment count exceeds the brute-force cap of {cap}")

    n = dataset.n_samples
    best_val = -math.inf
    best = None
    chosen = np.zeros(n, dtype=np.int64)

    def recurse(j, spent, value):
        nonlocal best_val, best
        if j == n:
            if value > best_val:
                best_val = value
                best = chosen.copy()
            return
        for k in options[j]:
            extra = eff.rho[j, k]
            if spent + extra <= gamma:
                chosen[j] = k
                recurse(j + 1, spent + extra, value + values[j, k])

    recurse(0, 0.0, 0.0)
    rows = np.arange(n)
    return AdversaryResult(
        objective=float(values[rows, best].sum()),
        assignment=best,
        xi=reconstruct_perturbation(tree, dataset, best),
        effort=float(eff.rho[rows, best].sum()),
    )


def adversary_value(tree, dataset, budget, eps):
    if budget.kind == "local":
        return adversary_local(tree, dataset, budget.gamma, eps)
    return adversary_global(tree, dataset, budget.gamma, eps)


def best_tree_value(dataset, space, budget, depth, eps):
    """Exhaustive optimum over every split structure and leaf tuple."""
    from robust_trees import DecisionTree, build_threshold_catalog

    splits = build_threshold_catalog(dataset).all_splits()
    pool = space.enumerate()
    n_nodes = 2 ** depth - 1
    n_leaves = 2 ** depth
    best = math.inf
    for combo in itertools.product(splits, repeat=n_nodes):
        items = [c[0] for c in combo]
        thetas = [c[1] for c in combo]
        for pick in itertools.product(range(len(pool)), repeat=n_leaves):
            tree = DecisionTree(depth, items, thetas, pool[list(pick)])
            best = min(best, adversary_value(tree, dataset, budget, eps))
    return best


def best_leaf_fill_value(tree, dataset, budget, pool, eps):
    """Exhaustive optimum over leaf tuples for a fixed structure."""
    n_leaves = 2 ** tree.depth
    best = math.inf
    for pick in itertools.product(range(len(pool)), repeat=n_leaves):
        cand = tree.with_leaves(pool[list(pick)])
        best = min(best, adversary_value(cand, dataset, budget, eps))
    return best


def assign_minmax_loop(agg, minagg, cutoff):
    """Depth-first branch and bound over leaf tuples, one node at a time:
    the reference for ``kernels.assign_minmax``.

    Children are visited in candidate order (leaf 0 slowest), a subtree
    is pruned once max_s(partial sum + suffix of ``minagg``) reaches the
    incumbent plus the kernels' prune margin, and the incumbent, starting
    at ``cutoff``, moves only on strict improvement.  Returns (value,
    tuple), or (cutoff, all -1) when no tuple is strictly below it.
    """
    from robust_trees.kernels import _PRUNE_MARGIN

    n_scen, n_leaves, n_pool = agg.shape
    suf = np.zeros((n_scen, n_leaves + 1), np.float64)
    for s in range(n_scen):
        for k in range(n_leaves - 1, -1, -1):
            suf[s, k] = suf[s, k + 1] + minagg[s, k]
    best = cutoff
    best_t = np.full(n_leaves, -1, np.int64)
    cur_t = np.zeros(n_leaves, np.int64)
    part = np.zeros((n_leaves + 1, n_scen), np.float64)
    ci = np.zeros(n_leaves + 1, np.int64)
    t = 0
    while t >= 0:
        if t == n_leaves:
            v = part[t, 0]
            for s in range(1, n_scen):
                if part[t, s] > v:
                    v = part[t, s]
            if v < best:
                best = v
                for q in range(n_leaves):
                    best_t[q] = cur_t[q]
            t -= 1
            continue
        if ci[t] == 0:
            bnd = -np.inf
            for s in range(n_scen):
                w = part[t, s] + suf[s, t]
                if w > bnd:
                    bnd = w
            if bnd >= best + _PRUNE_MARGIN:
                ci[t] = n_pool
        if ci[t] >= n_pool:
            ci[t] = 0
            t -= 1
            continue
        p = ci[t]
        ci[t] += 1
        cur_t[t] = p
        for s in range(n_scen):
            part[t + 1, s] = part[t, s] + agg[s, t, p]
        t += 1
        ci[t] = 0
    return best, best_t


def assign_reach_brute(values, reach):
    """Every leaf tuple in lexicographic order (leaf 0 slowest): each
    sample takes its largest value over the leaves it reaches, summed in
    sample order from 0.0.  Returns the first minimal (value, tuple), the
    reference for ``kernels.assign_reach``."""
    n_samples, n_pool = values.shape
    best, best_t = math.inf, np.zeros(reach.shape[1], np.int64)
    for pick in itertools.product(range(n_pool), repeat=reach.shape[1]):
        v = 0.0
        for j in range(n_samples):
            v += max((values[j, p] for k, p in enumerate(pick)
                      if reach[j, k]), default=-math.inf)
        if v < best:
            best, best_t = v, np.array(pick, np.int64)
    return best, best_t


def scan_structures_free(bits, values, depth, start, stop, best_in, lb):
    """Scan structures [start, stop) with free leaves, single routing.

    bits[m, j]: 1 when sample j satisfies split pattern m (branches left).
    values[j, p]: candidate p's value for sample j.  With one routing the
    leaves decouple, so each leaf takes the candidate minimizing its summed
    value.  Structures are visited in odometer order (node 0 slowest), the
    incumbent moves only on strict improvement, and the scan stops early
    once it touches the relaxation bound lb.
    """
    n_pat = bits.shape[0]
    n_samples = bits.shape[1]
    n_pool = values.shape[1]
    n_nodes = 2 ** depth - 1
    n_leaves = 2 ** depth
    choice = np.zeros(n_nodes, np.int64)
    best_choice = np.full(n_nodes, -1, np.int64)
    best_leaf = np.zeros(n_leaves, np.int64)
    leafsum = np.zeros((n_leaves, n_pool), np.float64)
    best = best_in
    improved = False
    lb_stop = lb + 1e-12 * (1.0 + abs(lb))
    for it in range(start, stop):
        rem = it
        for q in range(n_nodes - 1, -1, -1):
            choice[q] = rem % n_pat
            rem //= n_pat
        for k in range(n_leaves):
            for p in range(n_pool):
                leafsum[k, p] = 0.0
        for j in range(n_samples):
            node = 0
            for _ in range(depth):
                if bits[choice[node], j]:
                    node = 2 * node + 1
                else:
                    node = 2 * node + 2
            k = node - n_nodes
            for p in range(n_pool):
                leafsum[k, p] += values[j, p]
        obj = 0.0
        for k in range(n_leaves):
            m0 = leafsum[k, 0]
            for p in range(1, n_pool):
                if leafsum[k, p] < m0:
                    m0 = leafsum[k, p]
            obj += m0
        if obj < best:
            best = obj
            improved = True
            for q in range(n_nodes):
                best_choice[q] = choice[q]
            for k in range(n_leaves):
                arg = 0
                m0 = leafsum[k, 0]
                for p in range(1, n_pool):
                    if leafsum[k, p] < m0:
                        m0 = leafsum[k, p]
                        arg = p
                best_leaf[k] = arg
            if best <= lb_stop:
                break
    return best, improved, best_choice, best_leaf


def scan_structures_fixed(bits, leaf_vals, depth, start, stop, best_in, lb):
    """Scan structures [start, stop) with fixed leaf values, any scenarios.

    bits[m, s, j]: 1 when sample j under scenario s satisfies pattern m.
    leaf_vals[j, k]: value of sample j if routed to leaf k.  Objective is
    the max over scenarios of the routed sums.
    """
    n_pat = bits.shape[0]
    n_scen = bits.shape[1]
    n_samples = bits.shape[2]
    n_nodes = 2 ** depth - 1
    choice = np.zeros(n_nodes, np.int64)
    best_choice = np.full(n_nodes, -1, np.int64)
    best = best_in
    improved = False
    lb_stop = lb + 1e-12 * (1.0 + abs(lb))
    for it in range(start, stop):
        rem = it
        for q in range(n_nodes - 1, -1, -1):
            choice[q] = rem % n_pat
            rem //= n_pat
        obj = -np.inf
        for s in range(n_scen):
            tot = 0.0
            for j in range(n_samples):
                node = 0
                for _ in range(depth):
                    if bits[choice[node], s, j]:
                        node = 2 * node + 1
                    else:
                        node = 2 * node + 2
                tot += leaf_vals[j, node - n_nodes]
            if tot > obj:
                obj = tot
        if obj < best:
            best = obj
            improved = True
            for q in range(n_nodes):
                best_choice[q] = choice[q]
            if best <= lb_stop:
                break
    return best, improved, best_choice


def post_process_loop(tree, dataset, budget, pis, input_objective=None):
    """Threshold refinement one tree at a time, the reference for the
    batched ``post_process``: every combination through ``robust_value``,
    first strict minimum, input tree on ties."""
    from robust_trees import robust_value

    if tree.depth == 0:
        robust_value(tree, dataset, budget)
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
    original = tuple(float(t) for t in tree.thresholds)
    best_val = math.inf
    best_combo = None
    original_val = None
    for combo in itertools.product(*options):
        candidate = tree.with_thresholds(np.asarray(combo))
        val = robust_value(candidate, dataset, budget)
        if combo == original:
            original_val = val
        if val < best_val:
            best_val = val
            best_combo = combo
    ref = input_objective
    if ref is None:
        ref = original_val
    if ref is None:
        ref = robust_value(tree, dataset, budget)
    if best_val < ref - 1e-9:
        return tree.with_thresholds(np.asarray(best_combo))
    return tree


def solve_rows_search(tree, thresholds, dataset, kind, gamma):
    """``adversary._solve`` with the shared-budget search run on every row
    that has an affordable upgrade (``_upgrade_lists`` then
    ``_shared_upgrades``).  Returns (objective, assignment, xi, effort)
    with a leading row axis."""
    from robust_trees import adversary, assignment_objective, leaf_values

    boxes, nominal, rho = adversary._efforts(tree, thresholds, dataset)
    values = leaf_values(dataset, tree)
    cols = np.arange(dataset.n_samples)
    base = values[cols, nominal]
    if kind == "local":
        masked = np.where(rho <= gamma, values, -np.inf)
        best = masked.max(axis=2)
        assignment = np.where(base == best, nominal, masked.argmax(axis=2))
    else:
        assignment = nominal.copy()
        gain = values - base[:, :, None]
        afford = (rho <= gamma) & np.isfinite(rho) & (gain > 0)
        for r in np.flatnonzero(afford.any(axis=(1, 2))):
            adversary._shared_upgrades(
                adversary._upgrade_lists(afford[r], rho[r], gain[r]), gamma,
                assignment[r])
    xi = adversary._witnesses(dataset.costs, boxes, nominal, assignment)
    objective = assignment_objective(values, assignment)
    effort = rho[np.arange(len(rho))[:, None], cols, assignment].sum(axis=1)
    return objective, assignment, xi, effort


def solve_master_loop(dataset, scenarios, pool, depth):
    """``solve_master`` with free leaves over two or more scenarios: every
    structure in odometer order (node 0 slowest), routed by a tree of its
    representative splits under each scenario's observations, an uncut
    leaf search per distinct routing, the first strict improvement kept
    and an early stop at the relaxation bound.

    Returns (tree, master objective, searches).  ``searches`` lists, as
    (routing ``tobytes()``, cutoff), the leaf searches a memo of exact
    results and ``(cutoff, None)`` certificates runs when every
    structure's cutoff is the running best before it: a routing is
    searched on its first visit and again when its certificate lies
    below the cutoff, and the search certifies when the optimum is not
    strictly below its cutoff."""
    from robust_trees import DecisionTree, build_threshold_catalog, exact

    splits, _, reps = exact._split_patterns(
        dataset.costs, scenarios, build_threshold_catalog(dataset))
    pool = np.asarray(pool, dtype=np.int8)
    values = np.ascontiguousarray(dataset.costs @ pool.astype(np.float64).T)
    lb = float(values.min(axis=1).sum())
    lb_stop = lb + 1e-12 * (1.0 + abs(lb))
    unused = np.zeros((2 ** depth, dataset.n_items), np.int8)
    uncut = {}
    held = {}
    searches = []
    best, best_split, best_tup = math.inf, None, None
    for choice in itertools.product(range(len(reps)), repeat=2 ** depth - 1):
        split = [splits[int(reps[c])] for c in choice]
        tree = DecisionTree(depth, [i for i, _ in split],
                            [t for _, t in split], unused)
        leafm = np.stack([tree.traverse_batch(dataset.costs + xi)
                          for xi in scenarios.xi])
        key = leafm.tobytes()
        if key not in uncut:
            uncut[key] = exact._assign_leaves(values, leafm, 2 ** depth,
                                              math.inf)
        obj, tup = uncut[key]
        # held: the certificate's cutoff; an exact result answers every
        # later cutoff
        if key not in held or held[key] < best:
            searches.append((key, float(best)))
            held[key] = best if obj >= best else math.inf
        if obj < best:
            best, best_split, best_tup = obj, split, tup
            if best <= lb_stop:
                break
    tree = DecisionTree(depth, [i for i, _ in best_split],
                        [t for _, t in best_split],
                        pool[np.asarray(best_tup, dtype=np.int64)])
    return tree, exact._master_objective(tree, dataset, scenarios), searches


def canonical_structures(bits, depth):
    """Odometer indices of the first structure of each routing class.

    Two structures are in one class exactly when they send every
    (scenario, sample) pair of ``bits[m, ...]`` to the same leaf; every
    structure is walked in odometer order (node 0 slowest) and kept when
    its routing is new.
    """
    flat = bits.reshape(bits.shape[0], -1)
    seen = set()
    firsts = []
    for code, choice in enumerate(itertools.product(
            range(bits.shape[0]), repeat=2 ** depth - 1)):
        routing = []
        for pair in range(flat.shape[1]):
            node = 0
            for _ in range(depth):
                node = 2 * node + (1 if flat[choice[node], pair] else 2)
            routing.append(node)
        if tuple(routing) not in seen:
            seen.add(tuple(routing))
            firsts.append(code)
    return firsts


def solve_master_full(dataset, scenarios, pool, depth, fixed_leaves=None):
    """``solve_master`` over every structure of the odometer: the loops
    ``scan_structures_fixed`` (with ``fixed_leaves``) and
    ``scan_structures_free`` (one scenario) over the whole range, or
    ``solve_master_loop``.  Returns (tree, master objective)."""
    from robust_trees import DecisionTree, build_threshold_catalog, exact

    if fixed_leaves is None and scenarios.n_scenarios > 1:
        return solve_master_loop(dataset, scenarios, pool, depth)[:2]
    splits, bits, reps = exact._split_patterns(
        dataset.costs, scenarios, build_threshold_catalog(dataset))
    leaves = np.asarray(pool if fixed_leaves is None else fixed_leaves,
                        dtype=np.int8)
    values = np.ascontiguousarray(
        dataset.costs @ leaves.astype(np.float64).T)
    lb = float(values.min(axis=1).sum())
    total = bits.shape[0] ** (2 ** depth - 1)
    if fixed_leaves is None:
        *_, choice, tup = scan_structures_free(bits[:, 0], values, depth, 0,
                                               total, math.inf, lb)
        leaves = leaves[tup]
    else:
        *_, choice = scan_structures_fixed(bits, values, depth, 0, total,
                                           math.inf, lb)
    split = [splits[int(reps[c])] for c in choice]
    tree = DecisionTree(depth, [i for i, _ in split], [t for _, t in split],
                        leaves)
    return tree, exact._master_objective(tree, dataset, scenarios)


def shifts_add_at(costs, boxes, empty, assignment):
    """``adversary._shifts`` scattering every slot's shift with
    ``np.add.at``; an open slot adds its +0.0 to its item's shift."""
    from robust_trees.errors import InfeasibleTarget

    rows = np.arange(assignment.shape[0])[:, None]
    cols = np.arange(costs.shape[0])
    lo = boxes.lo[rows, assignment]
    hi = boxes.hi[rows, assignment]
    item = boxes.layout.item[assignment]
    cost = costs[cols[:, None], item]
    fits = ~empty[rows, assignment][:, :, None]
    above = (cost > hi) & fits
    shift = np.where((cost < lo) & fits, lo - cost,
                     np.where(above, hi - cost, 0.0))
    for _ in range(64):
        over = above & (cost + shift > hi)
        if not over.any():
            break
        shift = np.where(over, np.nextafter(shift, -np.inf), shift)
    else:
        raise InfeasibleTarget("cannot place an item under its upper edge")
    xi = np.zeros((assignment.shape[0],) + costs.shape)
    np.add.at(xi, (rows[:, :, None], cols[:, None], item), shift)
    return xi


def optimize_leaves_global_loop(tree, dataset, gamma, pool, time_limit=None):
    """``optimize_leaves_global`` with a leaf master that routes every
    scenario on every call and the full ``adversary.worst_case`` of each
    master tree.  Returns the tree and its worst case."""
    from robust_trees import UncertaintyBudget, adversary
    from robust_trees.exact import _assign_leaves, _cut_generation

    pool = np.asarray(pool, dtype=np.int8)
    values = np.ascontiguousarray(dataset.costs @ pool.astype(np.float64).T)
    budget = UncertaintyBudget.global_(gamma)

    def master(scenarios, remaining):
        obs = dataset.costs + scenarios.xi
        leafm = tree.traverse_batch(obs.reshape(-1, dataset.n_items))
        value, pick = _assign_leaves(values, leafm.reshape(obs.shape[:2]),
                                     tree.n_leaves, np.inf)
        return tree.with_leaves(pool[pick]), value, True

    rep = _cut_generation(
        master, lambda t: adversary.worst_case(t, dataset, budget), dataset,
        time_limit)
    return rep.tree, rep.objective
