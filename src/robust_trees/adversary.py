"""Worst-case evaluation of a fixed tree under budgeted observation shifts.

The adversary perturbs *observations only*: objectives always charge the
true costs, a perturbation merely reroutes samples to other leaves.  The
cheapest L1 shift that pushes sample j into leaf k is the distance from
c_j to the box the root-to-k path carves out: each left branch on item i
demands obs_i <= theta, each right branch obs_i >= theta + EPSILON
(the fixed margin ``model.EPSILON`` stands in for strict inequality).
When one item appears on the path several times the constraints
intersect; an empty intersection makes the leaf unreachable (effort
+inf) for every sample.

A per-sample budget (``solve_local``) decomposes into per-sample
argmaxes.  A shared budget (``solve_global``) is a multiple-choice
knapsack solved exactly by branch and bound (see ``kernels.mckp_search``).

Every worst case runs one adversary path in two steps.  The first,
:func:`efforts`, depends only on the tree structure (items, depth) and a
batch of threshold rows: it builds the boxes, the nominal routing and the
effort matrix (``kernels.effort_matrix``) for the whole batch.  The
second, :func:`worst_case_against`, runs the per-sample or shared-budget
worst case against those efforts and a leaf-value matrix, so a caller
that varies only the leaves (the heuristics' leaf fills, the budgets of
``experiments.exp_correlation``) computes the efforts once.  The
per-sample adversary is vectorized over rows.  A shared budget needs no
search on a row where all samples' best affordable upgrades fit in gamma
together: each sample reaches its own bound, which no assignment beats.
The other rows run the search on their slice.  Every row's witness shift
is rebuilt and replayed through its tree in one pass.  ``worst_cases``
evaluates a batch of threshold rows; ``worst_case`` (cut generation and
``exact.robust_value`` go through it), ``solve_local``, ``solve_global``,
``perturbation_cost`` and ``reconstruct_perturbation`` are the one-row
case of the same code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import InfeasibleTarget
from .model import EPSILON, assignment_objective, check_gamma, leaf_values

_FIT_MARGIN = 1e-9  # relative to 1 + gamma; absorbs rounding in effort sums


@dataclass(frozen=True)
class PerturbationEffort:
    """Cheapest L1 shift per (sample, leaf), +inf where unreachable."""

    rho: np.ndarray
    nominal_leaf: np.ndarray


@dataclass(frozen=True)
class AdversaryResult:
    """A worst-case routing: objective, target leaves, witness shift."""

    objective: float
    assignment: np.ndarray
    xi: np.ndarray
    effort: float


class _Layout(NamedTuple):
    """Paths and box slots of the leaves of one tree structure.

    ``node[k, s]`` is the node at step s of leaf k's root path,
    ``right[k, s]`` whether the path turns right there and
    ``step_item[k, s]`` the item that node tests.  Slot p of leaf k bounds
    ``item[k, p]``: a leaf's slots hold its path items in increasing order,
    and ``lo_on[k, p, s]`` / ``hi_on[k, p, s]`` mark the right / left
    turns on the slot's item.  Only the first slot of an item is bound; a
    repeat of the item is an open slot.
    """

    node: np.ndarray
    right: np.ndarray
    step_item: np.ndarray
    item: np.ndarray
    lo_on: np.ndarray
    hi_on: np.ndarray


@functools.lru_cache(maxsize=None)
def _paths(depth):
    """Per leaf of a depth-``depth`` tree: the node at each step of its
    root path and whether the path turns right there."""
    leaf = np.arange(2 ** depth)[:, None]
    right = (leaf >> np.arange(depth - 1, -1, -1)) & 1 == 1
    node = np.zeros(right.shape, np.int64)
    for s in range(1, depth):
        node[:, s] = 2 * node[:, s - 1] + 1 + right[:, s - 1]
    paths = node, right, right[:, None, :], ~right[:, None, :]
    for arr in paths:
        arr.setflags(write=False)
    return paths


def _layout(depth, items):
    """The :class:`_Layout` of the structure with these level-order items."""
    node, right, turns_right, turns_left = _paths(depth)
    step_item = items[node]
    item = np.sort(step_item, axis=1)
    first = np.ones(item.shape, bool)
    first[:, 1:] = item[:, 1:] != item[:, :-1]
    on = (step_item[:, None, :] == item[:, :, None]) & first[:, :, None]
    return _Layout(node, right, step_item, item, on & turns_right,
                   on & turns_left)


class _Boxes(NamedTuple):
    """Leaf boxes of one tree structure under a batch of threshold rows.

    ``theta[r, k, s]`` is row r's threshold at step s of leaf k's path.
    Slot p of leaf k bounds observation ``layout.item[k, p]`` to
    ``[lo[r, k, p], hi[r, k, p]]``; an open slot is (-inf, inf).  A leaf
    whose box is empty has lo > hi in some slot.
    """

    layout: _Layout
    theta: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _boxes(tree, thresholds):
    """Boxes of every leaf of ``tree``'s structure under each threshold row.

    Each bound slot intersects every branch of the path on its item: right
    branches demand obs >= theta + EPSILON, left ones obs <= theta.
    """
    layout = _layout(tree.depth, tree.items)
    theta = thresholds[:, layout.node]
    steps = theta[:, :, None, :]
    lo = np.where(layout.lo_on, steps + EPSILON, -np.inf).max(
        axis=3, initial=-np.inf)
    hi = np.where(layout.hi_on, steps, np.inf).min(axis=3, initial=np.inf)
    return _Boxes(layout, theta, lo, hi)


def _follows(obs, theta, right):
    """Whether observations take the turns ``right`` along a path.

    ``obs``, ``theta`` and ``right`` hold, along their last axis, the
    observed value of each step's item, its threshold and its turn; an
    observation goes right exactly where it is > theta, as in
    ``DecisionTree.traverse_batch``.  A traversal reaches a leaf exactly
    when it follows that leaf's path.
    """
    return ((obs > theta) == right).all(axis=-1)


def _nominal(costs, boxes):
    """Leaf each unshifted sample reaches under each row (rows, samples)."""
    layout = boxes.layout
    return _follows(costs[:, layout.step_item], boxes.theta[:, None],
                    layout.right).argmax(axis=2)


class Efforts(NamedTuple):
    """The effort pass of one tree structure under a batch of threshold rows.

    ``nominal[r, j]`` is the leaf sample j reaches unshifted under row r and
    ``rho[r, j, k]`` the cheapest shift that moves it into leaf k (+inf
    where unreachable).  None of it depends on the leaves.
    """

    boxes: _Boxes
    nominal: np.ndarray
    rho: np.ndarray


def _efforts(tree, thresholds, dataset):
    """:class:`Efforts` of ``tree``'s structure under each threshold row."""
    if dataset.n_items != tree.n_items:
        raise ValueError("dataset and tree disagree on the number of items")
    boxes = _boxes(tree, thresholds)
    nominal = _nominal(dataset.costs, boxes)
    rho = kernels.effort_matrix(dataset.costs, boxes.layout.item, boxes.lo,
                                boxes.hi, nominal)
    return Efforts(boxes, nominal, rho)


def efforts(tree, dataset):
    """:class:`Efforts` of ``tree`` under its own thresholds (one row): the
    first step of every worst case, shared by all leaves of the structure."""
    return _efforts(tree, tree.thresholds[None], dataset)


def perturbation_cost(tree, dataset):
    """Effort matrix rho[j, k]; zero exactly at each sample's nominal leaf.

    The zero shift reaches the nominal leaf even when an observation lies
    less than ``EPSILON`` above a threshold, outside that leaf's box.
    """
    eff = efforts(tree, dataset)
    return PerturbationEffort(eff.rho[0], eff.nominal[0])


def _shifts(costs, boxes, empty, assignment):
    """Shifts (rows, samples, items) clamping each sample into its target box.

    Per sample and constrained item the observation moves to the nearest
    edge of the box, so the L1 norm equals the effort (up to rounding in
    the final addition).  ``cost + (edge - cost)`` can land an ulp above
    an upper edge, which would flip the branch; the shift is then stepped
    down until the sum respects the edge.  An ulp below a lower edge is
    harmless because lower edges carry the ``EPSILON`` routing margin.  An
    empty box (``empty[r, k]``) has no edge: its samples are not shifted.
    """
    rows = np.arange(assignment.shape[0])[:, None]
    cols = np.arange(costs.shape[0])
    lo = boxes.lo[rows, assignment]
    hi = boxes.hi[rows, assignment]
    item = boxes.layout.item[assignment]
    cost = costs[cols[:, None], item]
    fits = ~empty[rows, assignment][:, :, None]
    above = (cost > hi) & fits
    shift = np.where(fits, np.minimum(np.maximum(cost, lo), hi) - cost, 0.0)
    for _ in range(64):
        over = above & (cost + shift > hi)
        if not over.any():
            break
        shift = np.where(over, np.nextafter(shift, -np.inf), shift)
    else:
        r, j, p = np.argwhere(over)[0]
        raise InfeasibleTarget(
            f"cannot place item {item[r, j, p]} under {hi[r, j, p]}")
    xi = np.zeros((assignment.shape[0],) + costs.shape)
    # An open slot repeats the item of an earlier slot with a +0.0 shift:
    # writing slots last to first leaves each item its bound slot's shift.
    for p in range(item.shape[2] - 1, -1, -1):
        xi[rows, cols, item[:, :, p]] = shift[:, :, p]
    return xi


def _witnesses(costs, boxes, nominal, assignment):
    """Minimal witness shifts (rows, samples, items), replayed.

    Samples assigned to their nominal leaf keep a zero shift, matching
    their zero effort, also when they lie inside the ``EPSILON`` margin; the
    others are clamped into their target box (:func:`_shifts`).  Every
    shifted observation is replayed along its target leaf's path; a target
    the shift does not reach raises :class:`InfeasibleTarget`.
    """
    empty = (boxes.lo > boxes.hi).any(axis=2)
    xi = _shifts(costs, boxes, empty, assignment)
    xi[assignment == nominal] = 0.0
    rows = np.arange(len(xi))[:, None, None]
    cols = np.arange(costs.shape[0])[:, None]
    step_item = boxes.layout.step_item[assignment]
    obs = costs[cols, step_item] + xi[rows, cols, step_item]
    missed = ~_follows(obs, boxes.theta[rows[:, :, 0], assignment],
                       boxes.layout.right[assignment])
    if missed.any():
        r = int(np.argmax(missed.any(axis=1)))
        for k in assignment[r][missed[r]]:
            if empty[r, k]:
                raise InfeasibleTarget(
                    f"leaf {int(k)} has contradictory bounds")
        raise InfeasibleTarget("witness does not reach the assigned leaves")
    return xi


def reconstruct_perturbation(tree, dataset, assignment):
    """Minimal witness shift routing each sample to its assigned leaf.

    Each constrained observation is clamped to the nearest edge of the
    target leaf's box, so the L1 norm equals the effort; samples assigned
    to their nominal leaf keep a zero shift.  Raises
    :class:`InfeasibleTarget` for contradictory targets.
    """
    assignment = np.asarray(assignment, dtype=np.int64)[None]
    boxes = _boxes(tree, tree.thresholds[None])
    return _witnesses(dataset.costs, boxes, _nominal(dataset.costs, boxes),
                      assignment)[0]


def _upgrade_lists(afford, rho, gain):
    """Per sample: dominance-filtered affordable upgrades off the nominal leaf.

    An upgrade is (extra value dv > 0, effort de <= gamma); ``afford``
    marks them among one row's (sample, leaf) pairs.  Sorting by
    (de, -dv, leaf) and keeping strict dv-improvers removes everything a
    cheaper-or-equal, better-or-equal upgrade covers; equal-value upgrades
    keep the lowest leaf index, preserving the tie preference.  Returns
    {sample: upgrades} for the samples with at least one.
    """
    js, ks = np.nonzero(afford)
    cands = {}
    for j, k, de, dv in zip(js.tolist(), ks.tolist(), rho[js, ks].tolist(),
                            gain[js, ks].tolist()):
        cands.setdefault(j, []).append((de, dv, k))
    per_sample = {}
    for j, cs in cands.items():
        cs.sort(key=lambda c: (c[0], -c[1], c[2]))
        kept = []
        best_dv = 0.0
        for de, dv, k in cs:
            if dv > best_dv:
                kept.append((de, dv, k))
                best_dv = dv
        per_sample[j] = kept
    return per_sample


def _hull(cands):
    """Increments of the concave chain over candidates from (0, 0).

    Candidate efforts are strictly increasing after dominance filtering,
    so the chain is well defined.  Each increment remembers which
    candidate position it lands on.
    """
    pts = [(0.0, 0.0, -1)]
    for pos, (de, dv, _) in enumerate(cands):
        pts.append((de, dv, pos))
        while len(pts) >= 3:
            a, b, c = pts[-3:]
            # drop b when the b->c slope is not below the a->b slope
            if (c[1] - b[1]) * (b[0] - a[0]) >= (b[1] - a[1]) * (c[0] - b[0]):
                del pts[-2]
            else:
                break
    return [(pts[t + 1][0] - pts[t][0], pts[t + 1][1] - pts[t][1],
             pts[t + 1][2])
            for t in range(len(pts) - 1)]


def _shared_upgrades(per_sample, gamma, assignment):
    """Move samples off their nominal leaf as the best shared-budget
    knapsack over ``per_sample`` upgrades says, in place."""
    # visit big potential gains first; ties by sample index
    levels = sorted(per_sample, key=lambda j: (-per_sample[j][-1][1], j))
    cand_de, cand_dv, cand_leaf, cand_ptr = [], [], [], [0]
    hull_rows = []
    max_dv = []
    for t, j in enumerate(levels):
        base = len(cand_de)
        for de, dv, k in per_sample[j]:
            cand_de.append(de)
            cand_dv.append(dv)
            cand_leaf.append(k)
        cand_ptr.append(len(cand_de))
        max_dv.append(per_sample[j][-1][1])
        for chain_pos, (h_de, h_dv, cpos) in enumerate(_hull(per_sample[j])):
            hull_rows.append((h_dv / h_de, t, chain_pos, h_de, h_dv,
                              base + cpos))
    hull_rows.sort(key=lambda r: (-r[0], r[1], r[2]))

    hull_level = np.asarray([r[1] for r in hull_rows], dtype=np.int64)
    hull_pos = np.asarray([r[2] for r in hull_rows], dtype=np.int64)
    hull_de = np.asarray([r[3] for r in hull_rows], dtype=np.float64)
    hull_dv = np.asarray([r[4] for r in hull_rows], dtype=np.float64)
    hull_cand = np.asarray([r[5] for r in hull_rows], dtype=np.int64)

    suffix = np.zeros(len(levels) + 1, dtype=np.float64)
    for t in range(len(levels) - 1, -1, -1):
        suffix[t] = suffix[t + 1] + max_dv[t]

    _, choice = kernels.mckp_search(
        np.asarray(cand_ptr, dtype=np.int64),
        np.asarray(cand_de, dtype=np.float64),
        np.asarray(cand_dv, dtype=np.float64),
        suffix,
        hull_level, hull_pos, hull_de, hull_dv, hull_cand,
        float(gamma),
    )
    for t, j in enumerate(levels):
        if choice[t] >= 0:
            assignment[j] = cand_leaf[choice[t]]


def _worst(eff, dataset, values, kind, gamma):
    """Worst cases against the efforts ``eff`` and leaf values ``values``.

    ``values[j, k]`` is sample j's true cost at leaf k.  Returns
    (objective, assignment, xi, effort) with the leading row axis of
    ``eff``.  ``kind`` "local" is the per-sample adversary of
    :func:`solve_local`, vectorized over rows; "global" the shared budget
    of :func:`solve_global`, searched only on the rows whose top upgrades
    do not all fit.  Objectives are recomputed canonically from the chosen
    assignment.
    """
    check_gamma(gamma)
    boxes, nominal, rho = eff
    if values.shape != rho.shape[1:]:
        raise ValueError("leaf values must be (samples, leaves) of the "
                         "efforts")
    cols = np.arange(dataset.n_samples)
    base = values[cols, nominal]
    if kind == "local":
        masked = np.where(rho <= gamma, values, -np.inf)
        best = masked.max(axis=2)
        assignment = np.where(base == best, nominal, masked.argmax(axis=2))
    else:
        gain = values - base[:, :, None]
        # gamma is finite, so rho <= gamma leaves out the unreachable leaves
        afford = (rho <= gamma) & (gain > 0)
        # Top upgrades (largest gain, least effort, lowest leaf: the last
        # entry of _upgrade_lists) that all fit in gamma are the optimum.
        top_dv = np.where(afford, gain, -np.inf).max(axis=2, keepdims=True)
        top_de = np.where(afford & (gain == top_dv), rho, np.inf)
        top = top_de.argmin(axis=2)
        has = afford.any(axis=2)
        spent = np.where(has, top_de.min(axis=2), 0.0).sum(axis=1)
        fits = spent <= gamma - _FIT_MARGIN * (1.0 + gamma)
        assignment = np.where(fits[:, None] & has, top, nominal)
        for r in np.flatnonzero(has.any(axis=1) & ~fits):
            _shared_upgrades(_upgrade_lists(afford[r], rho[r], gain[r]),
                             gamma, assignment[r])
    xi = _witnesses(dataset.costs, boxes, nominal, assignment)
    objective = assignment_objective(values, assignment)
    effort = rho[np.arange(len(rho))[:, None], cols, assignment].sum(axis=1)
    return objective, assignment, xi, effort


def _solve(tree, thresholds, dataset, kind, gamma):
    """Worst cases of ``tree`` under each row of ``thresholds``: the effort
    pass, then :func:`_worst` with the tree's leaf values."""
    return _worst(_efforts(tree, thresholds, dataset), dataset,
                  leaf_values(dataset, tree), kind, gamma)


def worst_case_against(eff, dataset, values, kind, gamma):
    """Worst case of a one-row :func:`efforts` pass with the leaf values
    ``values`` (samples, leaves), under a budget ``gamma`` of ``kind``
    "local" or "global": the second step of every worst case.  Equal,
    bitwise, to :func:`worst_case` of the tree whose leaves give
    ``values``."""
    objective, assignment, xi, effort = _worst(eff, dataset, values, kind,
                                               gamma)
    return AdversaryResult(float(objective[0]), assignment[0], xi[0],
                           float(effort[0]))


def _one(tree, dataset, kind, gamma):
    return worst_case_against(efforts(tree, dataset), dataset,
                              leaf_values(dataset, tree), kind, gamma)


def solve_local(tree, dataset, gamma):
    """Worst case when every sample gets its own budget gamma.

    Per sample: the most expensive leaf among those with effort <= gamma.
    Ties keep the nominal leaf if it attains the maximum, otherwise the
    lowest leaf index.
    """
    return _one(tree, dataset, "local", gamma)


def solve_global(tree, dataset, gamma):
    """Worst case when one budget gamma is shared across all samples.

    Exact: when every sample's best affordable upgrade fits in gamma
    together with the others, each sample takes it, which is optimal as no
    sample can gain more.  Otherwise per-sample upgrades are
    dominance-filtered, their convex hulls feed an LP-style greedy bound,
    and a depth-first branch and bound over samples closes the search
    (``kernels.mckp_search``).  The reported objective is recomputed
    canonically from the chosen assignment.
    """
    return _one(tree, dataset, "global", gamma)


def worst_case(tree, dataset, budget):
    """Exact worst case of a tree under ``budget``, by the budget's kind."""
    if budget.kind == "local":
        return solve_local(tree, dataset, budget.gamma)
    return solve_global(tree, dataset, budget.gamma)


def worst_cases(tree, thresholds, dataset, budget):
    """Worst-case objective of ``tree.with_thresholds(row)`` for each row.

    ``thresholds`` is (rows, internal nodes).  Every value is bitwise the
    ``worst_case(...).objective`` of that row's tree, and every row's
    witness is rebuilt and replayed, but the boxes, efforts and leaf
    values come from one pass over the batch.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    return _solve(tree, thresholds, dataset, budget.kind, budget.gamma)[0]


def check_leaves(tree, space):
    """Raise ValueError at the first leaf of ``tree`` that ``space`` does
    not hold; no check when ``space`` is None."""
    if space is not None:
        for k in range(tree.n_leaves):
            if not space.is_feasible(tree.leaves[k]):
                raise ValueError(f"leaf {k} is not feasible in the given space")
