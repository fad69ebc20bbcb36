"""Worst-case evaluation of a fixed tree under budgeted observation shifts.

The adversary perturbs *observations only*: objectives always charge the
true costs, a perturbation merely reroutes samples to other leaves.  The
cheapest L1 shift that pushes sample j into leaf k is the distance from
c_j to the box the root-to-k path carves out: each left branch on item i
demands obs_i <= theta, each right branch obs_i >= theta + eps (eps stands
in for strict inequality).  When one item appears on the path several
times the constraints intersect; an empty intersection makes the leaf
unreachable (effort +inf) for every sample.

``solve_local`` gives every sample its own budget and decomposes into
per-sample argmaxes.  ``solve_global`` shares one budget across samples —
a multiple-choice knapsack solved exactly by branch and bound (see
``kernels.mckp_search``).  ``worst_case`` is the package's one entry
point for a budget: the only place that picks between the two by the
budget's kind (cut generation, ``robust_value`` and ``evaluate_robust``
go through it).  Each solve also builds the witness shift and replays it
through the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InfeasibleTarget
from .model import EPSILON, assignment_objective, leaf_values


@dataclass(frozen=True)
class PerturbationEffort:
    """Cheapest L1 shift per (sample, leaf), +inf where unreachable."""

    rho: np.ndarray
    nominal_leaf: np.ndarray
    eps: float


@dataclass(frozen=True)
class AdversaryResult:
    """A worst-case routing: objective, target leaves, witness shift."""

    objective: float
    assignment: np.ndarray
    xi: np.ndarray
    effort: float


def _leaf_boxes(tree, eps):
    """Per leaf: item bounds implied by its path, or None if contradictory.

    Returns a list over leaves of dicts item -> (lo, hi); a leaf whose
    bounds are empty (lo > hi) maps to None.
    """
    boxes = []
    for k in range(tree.n_leaves):
        bounds = {}
        ok = True
        for node, go_right in tree.path(k):
            i = int(tree.items[node])
            theta = float(tree.thresholds[node])
            lo, hi = bounds.get(i, (-np.inf, np.inf))
            if go_right:
                lo = max(lo, theta + eps)
            else:
                hi = min(hi, theta)
            bounds[i] = (lo, hi)
            if lo > hi:
                ok = False
        boxes.append(bounds if ok else None)
    return boxes


def perturbation_cost(tree, dataset, eps=EPSILON):
    """Effort matrix rho[j, k]; zero exactly at each sample's nominal leaf.

    The zero shift reaches the nominal leaf even when an observation lies
    less than ``eps`` above a threshold, outside that leaf's box.
    """
    if dataset.n_items != tree.n_items:
        raise ValueError("dataset and tree disagree on the number of items")
    boxes = _leaf_boxes(tree, eps)
    items = []
    los = []
    his = []
    ptr = [0]
    ok = []
    for bounds in boxes:
        if bounds is None:
            ok.append(False)
        else:
            ok.append(True)
            for i, (lo, hi) in sorted(bounds.items()):
                items.append(i)
                los.append(lo)
                his.append(hi)
        ptr.append(len(items))
    rho = kernels.effort_matrix(
        dataset.costs,
        np.asarray(items, dtype=np.int64),
        np.asarray(los, dtype=np.float64),
        np.asarray(his, dtype=np.float64),
        np.asarray(ptr, dtype=np.int64),
        np.asarray(ok, dtype=np.uint8),
    )
    nominal = tree.traverse_batch(dataset.costs)
    rho[np.arange(dataset.n_samples), nominal] = 0.0
    return PerturbationEffort(rho, nominal, eps)


def reconstruct_perturbation(tree, dataset, assignment, eps=EPSILON):
    """Minimal witness shift routing each sample to its assigned leaf.

    Per sample and constrained item the observation is clamped to the
    nearest edge of the target leaf's box, so the L1 norm equals the
    effort (up to rounding in the final addition) and the shifted
    observation traverses to the assigned leaf.  ``cost + (edge - cost)``
    can land an ulp above an upper edge, which would flip the branch;
    the shift is then stepped down until the sum respects the edge.  An
    ulp below a lower edge is harmless because lower edges carry the
    ``eps`` routing margin.  Samples assigned to their nominal leaf keep
    a zero shift, matching their zero effort, also when they lie inside
    that margin.  Raises :class:`InfeasibleTarget` for contradictory
    targets.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    boxes = _leaf_boxes(tree, eps)
    xi = np.zeros_like(dataset.costs)
    # Samples the zero shift may already route to their leaf: each clamp
    # is onto a lower edge and within the eps margin, or the box is empty.
    # The screen allows 2 * eps against rounding; a traversal decides.
    maybe_nominal = []
    for j, k in enumerate(assignment):
        bounds = boxes[int(k)]
        if bounds is None:
            maybe_nominal.append(j)
            continue
        in_margin = True
        shifted = False
        for i, (lo, hi) in bounds.items():
            cji = dataset.costs[j, i]
            if cji < lo:
                xi[j, i] = lo - cji
                shifted = True
                in_margin = in_margin and lo - cji < 2.0 * eps
            elif cji > hi:
                shift = hi - cji
                for _ in range(64):
                    if cji + shift <= hi:
                        break
                    shift = np.nextafter(shift, -np.inf)
                else:
                    raise InfeasibleTarget(
                        f"cannot place item {i} under {hi}")
                xi[j, i] = shift
                shifted = True
                in_margin = False
        if shifted and in_margin:
            maybe_nominal.append(j)
    if maybe_nominal:
        rows = np.asarray(maybe_nominal)
        nominal = tree.traverse_batch(dataset.costs[rows])
        xi[rows[nominal == assignment[rows]]] = 0.0
    routed = tree.traverse_batch(dataset.costs + xi)
    if not np.array_equal(routed, assignment):
        for k in assignment[routed != assignment]:
            if boxes[int(k)] is None:
                raise InfeasibleTarget(
                    f"leaf {int(k)} has contradictory bounds")
        raise InfeasibleTarget("witness does not reach the assigned leaves")
    return xi


def _result(tree, dataset, values, rho, assignment, eps):
    rows = np.arange(dataset.n_samples)
    xi = reconstruct_perturbation(tree, dataset, assignment, eps)
    return AdversaryResult(
        objective=assignment_objective(values, assignment),
        assignment=assignment,
        xi=xi,
        effort=float(rho[rows, assignment].sum()),
    )


def solve_local(tree, dataset, gamma, eps=EPSILON):
    """Worst case when every sample gets its own budget gamma.

    Per sample: the most expensive leaf among those with effort <= gamma.
    Ties keep the nominal leaf if it attains the maximum, otherwise the
    lowest leaf index.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    eff = perturbation_cost(tree, dataset, eps)
    values = leaf_values(dataset, tree)
    rows = np.arange(dataset.n_samples)
    masked = np.where(eff.rho <= gamma, values, -np.inf)
    best = masked.max(axis=1)
    first = masked.argmax(axis=1)
    at_nominal = values[rows, eff.nominal_leaf] == best
    assignment = np.where(at_nominal, eff.nominal_leaf, first)
    return _result(tree, dataset, values, eff.rho, assignment, eps)


def _upgrade_lists(values, rho, nominal, gamma):
    """Per sample: dominance-filtered affordable upgrades off the nominal leaf.

    An upgrade is (extra value dv > 0, effort de <= gamma).  Sorting by
    (de, -dv, leaf) and keeping strict dv-improvers removes everything a
    cheaper-or-equal, better-or-equal upgrade covers; equal-value upgrades
    keep the lowest leaf index, preserving the tie preference.
    """
    per_sample = []
    n_samples, n_leaves = values.shape
    for j in range(n_samples):
        base = values[j, nominal[j]]
        cands = []
        for k in range(n_leaves):
            if k == nominal[j]:
                continue
            de = rho[j, k]
            dv = values[j, k] - base
            if de <= gamma and np.isfinite(de) and dv > 0:
                cands.append((float(de), float(dv), k))
        cands.sort(key=lambda c: (c[0], -c[1], c[2]))
        kept = []
        best_dv = 0.0
        for de, dv, k in cands:
            if dv > best_dv:
                kept.append((de, dv, k))
                best_dv = dv
        per_sample.append(kept)
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


def solve_global(tree, dataset, gamma, eps=EPSILON):
    """Worst case when one budget gamma is shared across all samples.

    Exact: per-sample upgrades are dominance-filtered, their convex hulls
    feed an LP-style greedy bound, and a depth-first branch and bound over
    samples closes the search (``kernels.mckp_search``).  The reported
    objective is recomputed canonically from the chosen assignment.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    eff = perturbation_cost(tree, dataset, eps)
    values = leaf_values(dataset, tree)
    assignment = eff.nominal_leaf.copy()
    per_sample = _upgrade_lists(values, eff.rho, eff.nominal_leaf, gamma)

    levels = [j for j, cands in enumerate(per_sample) if cands]
    # visit big potential gains first; ties by sample index
    levels.sort(key=lambda j: (-per_sample[j][-1][1], j))
    if levels:
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
    return _result(tree, dataset, values, eff.rho, assignment, eps)


def worst_case(tree, dataset, budget, eps=EPSILON):
    """Exact worst case of a tree under ``budget``, by the budget's kind."""
    if budget.kind == "local":
        return solve_local(tree, dataset, budget.gamma, eps)
    return solve_global(tree, dataset, budget.gamma, eps)


def evaluate_robust(tree, dataset, budget, space=None, eps=EPSILON):
    """Worst-case objective under the given budget kind.

    When ``space`` is passed, the tree's leaves are checked against it
    first.
    """
    if space is not None:
        for k in range(tree.n_leaves):
            if not space.is_feasible(tree.leaves[k]):
                raise ValueError(f"leaf {k} is not feasible in the given space")
    return worst_case(tree, dataset, budget, eps).objective
