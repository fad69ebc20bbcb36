"""Reference computations the benchmark checks the package against.

Written from the model's definitions with plain NumPy and exhaustive
enumeration; nothing here calls into ``robust_trees``.  Trees are passed
as their raw arrays (items, thresholds, leaves) so a wrong field in the
package's tree type cannot leak into the reference.

- Nominal routing sends ``obs_i > theta`` right.
- A shift moves a sample into the leaf whose root-to-leaf box holds its
  shifted observation: a left branch on item i demands ``obs_i <= theta``,
  a right branch ``obs_i >= theta + eps``.  Its effort for a leaf is the
  L1 distance from its cost row to that box (+inf for an empty box),
  except at its nominal leaf, which the zero shift reaches for free even
  when the observation lies less than eps above a threshold.
- Objectives charge true costs: ``costs[j] . leaves[k]``.
"""

import itertools
import math

import numpy as np


def grid_paths(side):
    """All south-west to north-east paths on a ``side`` x ``side`` grid.

    Indicator layout: horizontal edges row-major (row 0 south), then
    vertical edges row-major; ``2 * side * (side - 1)`` items.
    """
    n_h = side * (side - 1)
    steps = 2 * (side - 1)
    paths = []
    for north in itertools.combinations(range(steps), side - 1):
        x = np.zeros(2 * n_h, dtype=np.int8)
        r = c = 0
        for t in range(steps):
            if t in north:
                x[n_h + r * side + c] = 1
                r += 1
            else:
                x[r * (side - 1) + c] = 1
                c += 1
        paths.append(x)
    return np.asarray(paths)


def catalog_splits(costs):
    """(item, theta) for every midpoint of consecutive distinct values."""
    out = []
    for i in range(costs.shape[1]):
        vals = np.unique(costs[:, i])
        out.extend((i, float(t)) for t in (vals[:-1] + vals[1:]) / 2.0)
    return out


def _effort_matrix(costs, items, thresholds, depth, eps):
    n_leaves = 2 ** depth
    nominal = nominal_leaves(costs, items, thresholds, depth)
    rho = np.empty((costs.shape[0], n_leaves))
    for leaf in range(n_leaves):
        lo = np.full(costs.shape[1], -math.inf)
        hi = np.full(costs.shape[1], math.inf)
        node = 0
        for level in range(depth):
            right = (leaf >> (depth - 1 - level)) & 1
            i, theta = int(items[node]), float(thresholds[node])
            if right:
                lo[i] = max(lo[i], theta + eps)
            else:
                hi[i] = min(hi[i], theta)
            node = 2 * node + 1 + right
        if np.any(lo > hi):
            rho[:, leaf] = math.inf
            continue
        below = np.where(costs < lo, lo - costs, 0.0)
        above = np.where(costs > hi, costs - hi, 0.0)
        rho[:, leaf] = (below + above).sum(axis=1)
    rho[np.arange(costs.shape[0]), nominal] = 0.0
    return rho


def nominal_leaves(costs, items, thresholds, depth):
    node = np.zeros(costs.shape[0], dtype=np.int64)
    rows = np.arange(costs.shape[0])
    for _ in range(depth):
        right = costs[rows, np.asarray(items)[node]] > np.asarray(thresholds)[node]
        node = 2 * node + 1 + right.astype(np.int64)
    return node - (2 ** depth - 1)


def nominal_objective(costs, items, thresholds, leaves, depth):
    values = costs @ np.asarray(leaves, dtype=np.float64).T
    leaf = nominal_leaves(costs, items, thresholds, depth)
    return float(values[np.arange(costs.shape[0]), leaf].sum())


def _worst(values, rho, kind, gamma):
    """Worst case over every assignment the budget affords."""
    if kind == "local":
        return float(np.where(rho <= gamma, values, -math.inf).max(axis=1).sum())
    n, n_leaves = values.shape
    grid = np.indices((n_leaves,) * n).reshape(n, -1).T
    rows = np.arange(n)
    spent = rho[rows, grid].sum(axis=1)
    gain = values[rows, grid].sum(axis=1)
    return float(gain[spent <= gamma].max())


def worst_case(costs, items, thresholds, leaves, depth, kind, gamma, eps):
    """Exact worst-case objective of one tree by enumeration."""
    values = costs @ np.asarray(leaves, dtype=np.float64).T
    rho = _effort_matrix(costs, items, thresholds, depth, eps)
    return _worst(values, rho, kind, gamma)


def best_depth1_value(costs, paths, kind, gamma, eps):
    """Exhaustive optimum over every catalog split and leaf pair."""
    values = costs @ paths.astype(np.float64).T
    n = costs.shape[0]
    rows = np.arange(n)
    # pair[j, a, b, leaf]: sample j's cost at the leaf of the tree (a, b)
    pair = np.stack(np.broadcast_arrays(values[:, :, None],
                                        values[:, None, :]), axis=-1)
    grid = np.indices((2,) * n).reshape(n, -1).T
    best = math.inf
    for i, theta in catalog_splits(costs):
        rho = _effort_matrix(costs, [i], [theta], 1, eps)
        if kind == "local":
            reach = rho[:, None, None, :] <= gamma
            worst = np.where(reach, pair, -math.inf).max(axis=-1).sum(axis=0)
        else:
            ok = grid[rho[rows, grid].sum(axis=1) <= gamma]
            worst = pair[rows, :, :, ok].sum(axis=1).max(axis=0)
        best = min(best, float(worst.min()))
    return best


def h1_value(costs, paths):
    """Best single path for the summed training costs."""
    return float((costs.sum(axis=0) @ paths.astype(np.float64).T).min())
