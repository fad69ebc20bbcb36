"""Hot numerical kernels.

Three kernels are loops over numpy arrays: ``grid_min_path`` (a dynamic
program), ``mckp_search`` and ``_assign_reach`` (branch-and-bound
searches).  ``assign_reach`` evaluates a leaf-tuple grid that fits in
one block in one NumPy broadcast and runs the branch and bound on larger
grids.  ``benchmarks/bench_kernels.py`` times the kernels.

The rest is NumPy code.  ``canonical_structures`` lists the split
structures worth scanning, one per routing of the samples, as odometer
codes built level by level from per-node class tables.
``scan_structures``, the one split-structure scan, decodes, routes and
settles blocks of those codes; its caller supplies each block's
objectives (``scan_structures_free``, ``scan_structures_fixed``
and the multi-scenario search of ``exact.solve_master``).  ``effort_matrix``
evaluates a batch of threshold rows of one tree structure, and
``assign_minmax`` blocks of leaf-tuple prefixes.  Each returns bitwise
what the matching one-at-a-time loop returns (``tests/oracles.py`` keeps
those loops as their reference), as the one-block ``assign_reach``
returns bitwise what ``_assign_reach`` returns.  The two leaf searches
work out their bound inputs themselves, only on grids above one block.

Branch-and-bound kernels use small safety margins (1e-9 absolute) so that
float rounding in bound arithmetic can never prune a strictly better
solution; this costs a handful of extra nodes and keeps the searches exact.
"""

from __future__ import annotations

import numpy as np

_PRUNE_MARGIN = 1e-9
_BLOCK_ELEMS = 2 ** 13
"""Cap on the elements of any temporary array a scan or leaf-search block
allocates."""

# The one backend; perfbench/worker.py checks it and reports it.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Shortest monotone path on a directed grid
# ---------------------------------------------------------------------------

def grid_min_path(g, costs):
    """Cheapest southwest-to-northeast path on a g x g grid.

    Edge indexing: west-to-east edge (r, c) at r*(g-1)+c, then
    south-to-north edge (r, c) at g*(g-1) + r*g + c, rows counted from the
    south.  Works for negative costs (the graph is acyclic).  Ties are
    resolved toward the lexicographically smallest indicator vector, which
    for this indexing means preferring the northward move.
    """
    nh = g * (g - 1)
    best = np.empty((g, g), np.float64)
    best[g - 1, g - 1] = 0.0
    for r in range(g - 1, -1, -1):
        for c in range(g - 1, -1, -1):
            if r == g - 1 and c == g - 1:
                continue
            v = np.inf
            if r < g - 1:
                v = costs[nh + r * g + c] + best[r + 1, c]
            if c < g - 1:
                e = costs[r * (g - 1) + c] + best[r, c + 1]
                if e < v:
                    v = e
            best[r, c] = v
    x = np.zeros(costs.shape[0], np.int8)
    r = 0
    c = 0
    while r < g - 1 or c < g - 1:
        if r < g - 1 and costs[nh + r * g + c] + best[r + 1, c] == best[r, c]:
            x[nh + r * g + c] = 1
            r += 1
        else:
            x[r * (g - 1) + c] = 1
            c += 1
    return x, best[0, 0]


# ---------------------------------------------------------------------------
# Per-leaf perturbation efforts
# ---------------------------------------------------------------------------

def effort_matrix(costs, item, lo, hi, nominal):
    """L1 effort to route each sample into each leaf, per row of bounds.

    Slot p of leaf k requires observation ``item[k, p]`` to land in
    ``[lo[r, k, p], hi[r, k, p]]`` under row r (an open slot is
    (-inf, inf)).  ``rho[r, j, k]`` adds the distances of ``costs[j]`` to
    leaf k's slots in slot order, starting from 0.0, as a loop over slots
    would.  A leaf with lo > hi in some slot has an empty box and costs
    +inf for every sample, except where the zero shift already reaches it:
    ``nominal[r, j]`` is sample j's leaf under row r, at effort 0.
    Returns a (rows, samples, leaves) array.
    """
    c = costs[:, item]
    lo = lo[:, None]
    hi = hi[:, None]
    # At most one of the two gaps is positive where lo <= hi; an empty
    # box is overwritten below.
    dist = np.maximum(lo - c, 0.0)
    dist += np.maximum(c - hi, 0.0)
    rho = np.zeros(dist.shape[:3])
    for p in range(dist.shape[3]):
        rho += dist[:, :, :, p]
    rho = np.where((lo > hi).any(axis=3), np.inf, rho)
    rho[np.arange(rho.shape[0])[:, None], np.arange(rho.shape[1]),
        nominal] = 0.0
    return rho


# ---------------------------------------------------------------------------
# Exact shared-budget upgrade search (multiple-choice knapsack)
# ---------------------------------------------------------------------------

def _mckp_lp_bound(t0, budget, hull_level, hull_de, hull_dv):
    """Fractional greedy over hull increments of levels >= t0.

    Items arrive in globally non-increasing dv/de ratio; the scan stops at
    the first item that no longer fits, taking it fractionally, which keeps
    every class at a prefix of its hull chain.  Upper-bounds any integral
    completion.
    """
    b = budget
    v = 0.0
    for h in range(hull_de.shape[0]):
        if hull_level[h] < t0:
            continue
        if hull_de[h] <= b:
            b -= hull_de[h]
            v += hull_dv[h]
        else:
            v += hull_dv[h] * (b / hull_de[h])
            break
    return v


def mckp_search(cand_ptr, cand_de, cand_dv, suffix_max,
                hull_level, hull_pos, hull_de, hull_dv, hull_cand, gamma):
    """Depth-first exact search over one upgrade (or none) per level.

    Levels are samples that own at least one affordable upgrade; candidates
    per level are dominance-filtered and stored by increasing effort.
    Children are explored by decreasing gain, staying put last, and an
    incumbent is replaced only on strict improvement, so the result is
    deterministic.  Bounds: min(suffix-maxima bound, hull LP bound).

    Returns (value, choice) where choice[t] is a global candidate index or
    -1 for "keep the nominal leaf".
    """
    n_levels = cand_ptr.shape[0] - 1
    best_choice = np.full(n_levels, -1, np.int64)
    cur_choice = np.full(n_levels, -1, np.int64)

    # Greedy integral start: walk hull items in ratio order, take whole
    # increments while they fit and stay on each level's chain prefix.
    next_pos = np.zeros(n_levels, np.int64)
    b = gamma
    best_val = 0.0
    for h in range(hull_de.shape[0]):
        lv = hull_level[h]
        if hull_pos[h] == next_pos[lv] and hull_de[h] <= b:
            b -= hull_de[h]
            best_val += hull_dv[h]
            next_pos[lv] += 1
            best_choice[lv] = hull_cand[h]

    ci = np.zeros(n_levels + 1, np.int64)
    bud = np.empty(n_levels + 1, np.float64)
    val = np.empty(n_levels + 1, np.float64)
    bud[0] = gamma
    val[0] = 0.0
    t = 0
    while t >= 0:
        if t == n_levels:
            if val[t] > best_val:
                best_val = val[t]
                for q in range(n_levels):
                    best_choice[q] = cur_choice[q]
            t -= 1
            continue
        n_c = cand_ptr[t + 1] - cand_ptr[t]
        if ci[t] == 0:
            ub = val[t] + suffix_max[t]
            if ub > best_val - _PRUNE_MARGIN:
                ub2 = val[t] + _mckp_lp_bound(
                    t, bud[t], hull_level, hull_de, hull_dv)
                if ub2 < ub:
                    ub = ub2
            if ub <= best_val - _PRUNE_MARGIN:
                ci[t] = n_c + 1
        if ci[t] > n_c:
            ci[t] = 0
            t -= 1
            continue
        k = ci[t]
        ci[t] += 1
        if k < n_c:
            g_idx = cand_ptr[t + 1] - 1 - k
            de = cand_de[g_idx]
            if de > bud[t]:
                continue
            cur_choice[t] = g_idx
            bud[t + 1] = bud[t] - de
            val[t + 1] = val[t] + cand_dv[g_idx]
        else:
            cur_choice[t] = -1
            bud[t + 1] = bud[t]
            val[t + 1] = val[t]
        t += 1
        ci[t] = 0
    return best_val, best_choice


# ---------------------------------------------------------------------------
# Leaf-tuple assignment, scenario-coupled (minimize the max scenario sum)
# ---------------------------------------------------------------------------

def assign_minmax(agg, cutoff):
    """Pick one candidate per leaf minimizing max_s of the summed values.

    agg[s, k, p]: total value of candidate p at leaf k under scenario s
    (summed over the samples the scenario routes to k).  Returns
    the first minimal tuple in lexicographic order (leaf 0 slowest) and
    its value when that value is strictly below ``cutoff``, else
    (cutoff, all -1).  A tuple's value sums its leaves in leaf order from
    0.0 under each scenario, as a loop over the tuple would.

    A grid of tuples that fits in one block (``_BLOCK_ELEMS``) is
    evaluated in one broadcast.  Otherwise prefixes are expanded level by
    level in lexicographic chunks, depth first, and a prefix is pruned
    once its completion bound (partial sums plus the suffix of the
    per-(scenario, leaf) minima over candidates, maximized over
    scenarios) reaches the running best plus ``_PRUNE_MARGIN``; the best
    moves only on strict improvement.  The bound is also held against the
    value of the tuple taking, per leaf, the candidate with the smallest
    worst scenario value: that prunes from the first chunk on and keeps
    every tuple at or below the optimum, so the first minimal tuple is
    still found.
    """
    n_scen, n_leaves, n_pool = agg.shape
    no_tuple = np.full(n_leaves, -1, np.int64)
    if n_pool ** n_leaves * n_scen <= _BLOCK_ELEMS:
        part = np.zeros((n_scen, 1))
        for k in range(n_leaves):
            part = (part[:, :, None] + agg[:, k, None]).reshape(n_scen, -1)
        val = part.max(axis=0)
        i = int(np.argmin(val))
        if not val[i] < cutoff:
            return cutoff, no_tuple
        return val[i], np.array(np.unravel_index(i, (n_pool,) * n_leaves),
                                dtype=np.int64)

    minagg = agg.min(axis=2)
    suf = np.zeros((n_leaves + 1, n_scen, 1))
    for k in range(n_leaves - 1, -1, -1):
        suf[k, :, 0] = suf[k + 1, :, 0] + minagg[:, k]
    ceiling = np.zeros(n_scen)
    for k, p in enumerate(agg.max(axis=0).argmin(axis=1)):
        ceiling += agg[:, k, p]
    ceiling = ceiling.max()
    # A chunk's children, their bounds and their pruned copy are alive
    # together: a quarter block each.
    rows = max(1, _BLOCK_ELEMS // (4 * n_pool * n_scen))
    cands = np.arange(n_pool)
    best = cutoff
    best_code = -1

    def expand(level, code, part, bound):
        # code: prefixes as base-n_pool integers, part[s]: their partial
        # sums under scenario s, bound: their completion bounds
        nonlocal best, best_code
        for lo in range(0, code.shape[0], rows):
            keep = bound[lo:lo + rows] < min(best, ceiling) + _PRUNE_MARGIN
            if not keep.any():
                continue
            child = (part[:, lo:lo + rows][:, keep, None]
                     + agg[:, level, None]).reshape(n_scen, -1)
            child_code = (code[lo:lo + rows][keep, None] * n_pool
                          + cands).ravel()
            if level + 1 == n_leaves:
                val = child.max(axis=0)
                i = int(np.argmin(val))
                if val[i] < best:
                    best, best_code = val[i], child_code[i]
                continue
            bnd = (child + suf[level + 1]).max(axis=0)
            live = bnd < min(best, ceiling) + _PRUNE_MARGIN
            child = child[:, live]
            expand(level + 1, child_code[live], child, bnd[live])

    expand(0, np.zeros(1, np.int64), np.zeros((n_scen, 1)),
           suf[0].max(axis=0))
    if best_code < 0:
        return cutoff, no_tuple
    return best, np.array(np.unravel_index(best_code, (n_pool,) * n_leaves),
                          dtype=np.int64)


# ---------------------------------------------------------------------------
# Leaf-tuple assignment under per-sample reach sets (minimize sum of maxima)
# ---------------------------------------------------------------------------

def _assign_reach(values, reach, minval, last_reach):
    """Pick one candidate per leaf minimizing sum_j max over reachable leaves.

    values[j, p]: candidate p's value for sample j; reach[j, k] marks leaves
    sample j can be pushed into; minval[j] = min_p values[j, p];
    last_reach[j] = highest reachable leaf index (every sample reaches at
    least its nominal leaf).  Returns (value, tuple) of the first minimal
    tuple in lexicographic order (leaf 0 slowest), each sample's maximum
    summed in sample order from 0.0.

    A depth-first branch and bound, one node at a time;
    :func:`assign_reach` runs it on grids larger than one block.  A node
    is pruned once its completion bound (each sample's running maximum,
    raised to ``minval`` where a later leaf can still reach it) reaches
    the best plus ``_PRUNE_MARGIN``, and the best moves only on strict
    improvement.
    """
    n_samples, n_pool = values.shape
    n_leaves = reach.shape[1]
    cur = np.full((n_leaves + 1, n_samples), -np.inf, np.float64)
    best = np.inf
    best_t = np.zeros(n_leaves, np.int64)
    cur_t = np.zeros(n_leaves, np.int64)
    ci = np.zeros(n_leaves + 1, np.int64)
    t = 0
    while t >= 0:
        if t == n_leaves:
            v = 0.0
            for j in range(n_samples):
                v += cur[t, j]
            if v < best:
                best = v
                for q in range(n_leaves):
                    best_t[q] = cur_t[q]
            t -= 1
            continue
        if ci[t] == 0:
            bnd = 0.0
            for j in range(n_samples):
                w = cur[t, j]
                if last_reach[j] >= t and minval[j] > w:
                    w = minval[j]
                bnd += w
            if bnd >= best + _PRUNE_MARGIN:
                ci[t] = n_pool
        if ci[t] >= n_pool:
            ci[t] = 0
            t -= 1
            continue
        p = ci[t]
        ci[t] += 1
        cur_t[t] = p
        for j in range(n_samples):
            if reach[j, t] and values[j, p] > cur[t, j]:
                cur[t + 1, j] = values[j, p]
            else:
                cur[t + 1, j] = cur[t, j]
        t += 1
        ci[t] = 0
    return best, best_t


# ---------------------------------------------------------------------------
# Split-structure scans
# ---------------------------------------------------------------------------

def _first_of_class(packed, masks):
    """flags[r, m]: no pattern before m agrees with m on mask r.

    packed[m] and masks[r] are bit rows packed into uint64 words.  Each
    row's masked patterns are sorted stably, word by word from the last
    (a radix sort), so every class lies together in index order and its
    head is its first pattern.
    """
    keys = masks[:, None] & packed
    rows = np.arange(keys.shape[0])[:, None]
    order = np.argsort(keys[:, :, -1], axis=1, kind="stable")
    for i in range(keys.shape[2] - 2, -1, -1):
        order = order[rows, np.argsort(keys[rows, order, i], axis=1,
                                       kind="stable")]
    keys = keys[rows, order]
    head = np.ones(order.shape, bool)
    head[:, 1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=2)
    flags = np.empty(order.shape, bool)
    flags[rows, order] = head
    return flags


def _flagged_tuples(flags):
    """Every tuple of flagged patterns, one per node, of each row.

    flags[b, q, m] marks the patterns node q may take under row b.
    Yields (row, offset) arrays in ascending order, offset being the
    tuple's index in the (patterns,) * nodes grid (node 0 slowest), from
    AND grids of at most ``_BLOCK_ELEMS`` cells: as many rows as fit in
    one, or, where one row's grid does not fit, the grids of the other
    nodes under each of its first node's patterns.
    """
    n_rows, n_level, n_pat = flags.shape
    span = n_pat ** n_level
    if span > _BLOCK_ELEMS and n_level > 1:
        tail = span // n_pat
        for b in range(n_rows):
            head = np.flatnonzero(flags[b, 0])
            rest = np.broadcast_to(flags[b, 1:],
                                   (head.shape[0], n_level - 1, n_pat))
            for row, off in _flagged_tuples(rest):
                yield np.full(row.shape[0], b), head[row] * tail + off
        return
    rows = max(1, _BLOCK_ELEMS // span)
    for lo in range(0, n_rows, rows):
        grid = flags[lo:lo + rows, 0]
        for q in range(1, n_level):
            grid = (grid[:, :, None] & flags[lo:lo + rows, q, None]).reshape(
                grid.shape[0], -1)
        i = np.flatnonzero(grid)
        b = i // span
        yield lo + b, i - b * span


def canonical_structures(bits, depth, size):
    """Codes of the canonical split structures, ascending, ``size`` at most
    at a time.

    bits[m, ...]: 1 where a (scenario, sample) pair satisfies split
    pattern m; the rows are distinct patterns, as ``exact._split_patterns``
    makes them.  A structure's code is its odometer index (node 0
    slowest).  A node sees only the pairs its ancestors route to it, so
    two patterns that agree on those pairs route alike there; a structure
    is canonical when every node's pattern is the first that agrees with
    it on its pairs.  Each routing of the pairs then has exactly one
    canonical structure, the first structure that routes that way, so a
    scan that keeps the first strict improvement returns the same
    structure over these codes as over all of them.  At depth 1 every
    pattern is canonical.

    Deeper levels are filled one at a time, a batch of prefixes (the
    choices above the level) at once: one ``_first_of_class`` pass flags
    each node's first patterns under every prefix of the batch, and
    ``_flagged_tuples`` lists their products in order, a grid of at most
    ``_BLOCK_ELEMS`` cells at a time.  Memory grows with that cap (times
    the nodes of a level and the words of a mask), not with the number
    of structures.
    """
    n_pat = bits.shape[0]
    if depth == 1:
        for lo in range(0, n_pat, size):
            yield np.arange(lo, min(lo + size, n_pat), dtype=np.int64)
        return
    n_nodes = 2 ** depth - 1
    place = n_pat ** np.arange(n_nodes - 1, -1, -1, dtype=np.int64)
    flat = np.packbits(bits.reshape(n_pat, -1), axis=1)
    w = -(-flat.shape[1] // 8)
    packed = np.zeros((n_pat, 8 * w), np.uint8)
    packed[:, :flat.shape[1]] = flat
    packed = packed.view(np.uint64)

    def expand(level, base, masks):
        # base[b]: code of prefix b; masks[b, q]: the pairs that reach
        # node q of this level under it
        n_level = 2 ** level
        batch = max(1, _BLOCK_ELEMS // (n_level * n_pat * w))
        for lo in range(0, base.shape[0], batch):
            part = masks[lo:lo + batch]
            flags = _first_of_class(packed, part.reshape(-1, w)).reshape(
                part.shape[0], n_level, n_pat)
            for b, off in _flagged_tuples(flags):
                code = base[lo + b]
                if level == depth - 1:
                    code = code + off
                    for i in range(0, code.shape[0], size):
                        yield code[i:i + size]
                    continue
                choice = off[:, None] // place[-n_level:] % n_pat
                code = code + choice @ place[n_level - 1:2 * n_level - 1]
                pat = packed[choice]
                yield from expand(level + 1, code, np.stack(
                    [part[b] & pat, part[b] & ~pat], axis=2).reshape(
                        b.shape[0], 2 * n_level, w))

    yield from expand(1, np.arange(n_pat, dtype=np.int64) * place[0],
                      np.stack([packed, ~packed], axis=1))


def _decode(codes, n_pat, n_nodes):
    """Split choice per node of the structures ``codes``, node 0 slowest."""
    place = n_pat ** np.arange(n_nodes - 1, -1, -1, dtype=np.int64)
    return codes[:, None] // place % n_pat


def _route(bits, choice, depth):
    """Leaf reached by every sample of ``bits[m, ...]`` under each structure.

    Returns an int64 array of shape (structures,) + bits.shape[1:].
    """
    at_node = bits[choice]
    node = np.zeros((choice.shape[0], 1) + bits.shape[1:], np.int64)
    for _ in range(depth):
        left = np.take_along_axis(at_node, node, axis=1)
        node = np.where(left, 2 * node + 1, 2 * node + 2)
    return node[:, 0] - choice.shape[1]


def scan_structures(bits, depth, codes, best_in, lb, obj_elems, objective):
    """Scan the structures ``codes`` in their order, a block at a time.

    bits[m, ...]: 1 where a sample (under a scenario, for 3-d bits)
    satisfies split pattern m.  ``codes`` are odometer indices, ascending
    (all of a range, or the canonical ones of
    :func:`canonical_structures`).  Each block of them is decoded (node 0
    slowest) and routed; ``objective(leaf, best)`` gets
    the routed leaves and the incumbent before the block and returns the
    block's objectives and a per-structure detail (a sequence, or None).
    The odometer rule is replayed on each block: the incumbent moves only
    on strict improvement (to the block's first minimum), and the scan
    stops at the first improvement reaching the relaxation bound lb.  A
    block holds at most ``_BLOCK_ELEMS`` elements of routing and of the
    objective's ``obj_elems`` per structure.  Returns (best, improved, the
    incumbent's choice per node or all -1, its detail or None).
    """
    n_nodes = 2 ** depth - 1
    best_choice = np.full(n_nodes, -1, np.int64)
    best_detail = None
    best = best_in
    improved = False
    lb_stop = lb + 1e-12 * (1.0 + abs(lb))
    block = max(1, _BLOCK_ELEMS // max(n_nodes * bits[0].size, obj_elems))
    for lo in range(0, codes.shape[0], block):
        choice = _decode(codes[lo:lo + block], bits.shape[0], n_nodes)
        obj, detail = objective(_route(bits, choice, depth), best)
        i = int(np.argmin(obj))
        if not obj[i] < best:
            continue
        done = obj[i] <= lb_stop
        if done:
            # The first objective below best that reaches lb_stop is also
            # below all before it: one of those at or under it would
            # have been first.
            i = int(np.argmax((obj <= lb_stop) & (obj < best)))
        best = obj[i]
        improved = True
        best_choice = choice[i]
        best_detail = None if detail is None else detail[i]
        if done:
            break
    return best, improved, best_choice, best_detail


def scan_structures_free(bits, values, depth, codes, best_in, lb):
    """Scan the structures ``codes`` with free leaves, single routing.

    bits[m, j]: 1 when sample j satisfies split pattern m (branches left).
    values[j, p]: candidate p's value for sample j.  With one routing the
    leaves decouple, so each leaf takes the candidate minimizing its summed
    value.  Sums run in sample, then leaf order from 0.0, as a loop over
    structures would add them.  Visiting order, tie-break and early stop
    are those of :func:`scan_structures`.  Returns (best, improved,
    choice, leaf tuple).
    """
    n_samples, n_pool = values.shape
    n_leaves = 2 ** depth

    def objective(leaf, best):
        rows = np.arange(leaf.shape[0])
        leafsum = np.zeros((leaf.shape[0], n_leaves, n_pool))
        for j in range(n_samples):
            leafsum[rows, leaf[:, j]] += values[j]
        leafmin = leafsum.min(axis=2)
        obj = np.zeros(leaf.shape[0])
        for k in range(n_leaves):
            obj += leafmin[:, k]
        return obj, leafsum

    best, improved, best_choice, leafsum = scan_structures(
        bits, depth, codes, best_in, lb, n_leaves * n_pool, objective)
    best_leaf = (np.zeros(n_leaves, np.int64) if leafsum is None
                 else leafsum.argmin(axis=1))
    return best, improved, best_choice, best_leaf


def scan_structures_fixed(bits, leaf_vals, depth, codes, best_in, lb):
    """Scan the structures ``codes`` with fixed leaf values, any scenarios.

    bits[m, s, j]: 1 when sample j under scenario s satisfies pattern m.
    leaf_vals[j, k]: value of sample j if routed to leaf k.  Objective is
    the max over scenarios of the routed sums.  Visiting order, tie-break
    and early stop are those of :func:`scan_structures`.  Returns (best,
    improved, choice).
    """
    n_samples = bits.shape[2]
    cols = np.arange(n_samples)

    def objective(leaf, best):
        routed = leaf_vals[cols, leaf]
        tot = np.zeros(routed.shape[:2])
        for j in range(n_samples):
            tot += routed[:, :, j]
        return tot.max(axis=1), None

    return scan_structures(bits, depth, codes, best_in, lb, 0, objective)[:3]


def assign_reach(values, reach):
    """The leaf tuple and value of :func:`_assign_reach`, bitwise.

    ``values`` and ``reach`` are those of :func:`_assign_reach`.  A grid
    of tuples that fits in one block (``_BLOCK_ELEMS``) is evaluated in
    one NumPy broadcast: each sample's running maximum over the leaves it
    reaches is extended leaf by leaf, the maxima are summed in sample
    order from 0.0, and the first argmin is decoded with leaf 0 slowest.
    Larger grids run the branch and bound on the bound inputs it needs.
    """
    n_samples, n_pool = values.shape
    n_leaves = reach.shape[1]
    if n_pool ** n_leaves * n_samples > _BLOCK_ELEMS:
        last_reach = n_leaves - 1 - np.argmax(reach[:, ::-1], axis=1)
        return _assign_reach(values, reach, values.min(axis=1),
                             last_reach.astype(np.int64))
    cur = np.full((n_samples, 1), -np.inf)
    for k in range(n_leaves):
        hit = np.where(reach[:, k, None], values, -np.inf)
        cur = np.maximum(cur[:, :, None], hit[:, None]).reshape(n_samples, -1)
    val = np.zeros(cur.shape[1])
    for j in range(n_samples):
        val += cur[j]
    i = int(np.argmin(val))
    return val[i], np.array(np.unravel_index(i, (n_pool,) * n_leaves),
                            dtype=np.int64)
