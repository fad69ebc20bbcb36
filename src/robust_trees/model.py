"""Core data model: cost datasets, threshold catalogs, policy trees.

A policy tree maps an observed cost vector to one precomputed feasible
solution per leaf.  Branching is axis-aligned: at an internal node the
observation goes left iff its queried entry is <= the node's threshold
(values exactly at the threshold go left).  Trees are complete binary
trees; internal nodes are stored in level order, leaves left to right.

All objective values are plain sums of true costs against leaf solutions.
Every reported objective in the package is recomputed through
:func:`leaf_values` / :func:`assignment_objective` so that mathematically
equal results are also bit-for-bit equal floats.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

EPSILON = 1e-3
"""Margin standing in for strict inequality on right branches."""

OBJECTIVE_TOL = 1e-6
"""Absolute tolerance when comparing objective values."""


def _readonly(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """A matrix of observed cost samples, one row per sample.

    ``labels`` optionally tags each sample (the instance generator stores
    the index of the interval scenario a sample was drawn from).
    """

    costs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.ndim != 2 or costs.shape[0] < 1 or costs.shape[1] < 1:
            raise ValueError("costs must be a non-empty (samples, items) matrix")
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite")
        object.__setattr__(self, "costs", _readonly(costs))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (costs.shape[0],):
                raise ValueError("labels must have one entry per sample")
            object.__setattr__(self, "labels", _readonly(labels))

    @property
    def n_samples(self):
        return self.costs.shape[0]

    @property
    def n_items(self):
        return self.costs.shape[1]


def dataset_to_json(dataset):
    return json.dumps(_dataset_dict(dataset))


def dataset_from_json(text):
    return _dataset_from_dict(json.loads(text))


def _dataset_dict(dataset):
    out = {"n_items": dataset.n_items, "samples": dataset.costs.tolist()}
    if dataset.labels is not None:
        out["labels"] = dataset.labels.tolist()
    return out


def _dataset_from_dict(raw):
    costs = np.asarray(raw["samples"], dtype=np.float64)
    if costs.ndim != 2 or costs.shape[1] != raw["n_items"]:
        raise ValueError("sample rows do not match n_items")
    return Dataset(costs, labels=raw.get("labels"))


# ---------------------------------------------------------------------------
# Threshold catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdCatalog:
    """Candidate split thresholds per item.

    For each item: midpoints of consecutive *distinct* sorted observed
    values.  Items whose observations are all equal get an empty catalog.
    Every threshold therefore lies strictly between two observed values,
    and there are at most (distinct values - 1) of them.
    """

    thresholds: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "thresholds",
            tuple(_readonly(np.asarray(t, dtype=np.float64))
                  for t in self.thresholds))

    @property
    def n_items(self):
        return len(self.thresholds)

    def __getitem__(self, item):
        return self.thresholds[item]

    def items_with_splits(self):
        return [i for i, t in enumerate(self.thresholds) if t.size > 0]

    def all_splits(self):
        """All (item, threshold) pairs, ordered by item then threshold."""
        return [(i, float(t)) for i, ts in enumerate(self.thresholds)
                for t in ts]


def build_threshold_catalog(dataset):
    cols = []
    for i in range(dataset.n_items):
        vals = np.unique(dataset.costs[:, i])
        cols.append((vals[:-1] + vals[1:]) / 2.0)
    return ThresholdCatalog(tuple(cols))


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------

def check_depth(depth):
    """Raise ValueError unless ``depth`` is a nonnegative integer (a bool
    is not a depth)."""
    if (isinstance(depth, (bool, np.bool_))
            or not isinstance(depth, numbers.Integral)):
        raise ValueError(f"depth must be an int, not {depth!r}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")


@dataclass(frozen=True)
class DecisionTree:
    """Complete binary policy tree of a fixed depth.

    ``items``/``thresholds`` hold the internal nodes in level order
    (2^depth - 1 of them, root first), ``leaves`` the per-leaf solution
    indicators left to right (2^depth rows).  The leaf rows are stored as
    given; feasibility against a solution space is the caller's concern.
    """

    depth: int
    items: np.ndarray
    thresholds: np.ndarray
    leaves: np.ndarray

    def __post_init__(self):
        check_depth(self.depth)
        object.__setattr__(self, "depth", int(self.depth))
        q = 2 ** self.depth - 1
        items = np.asarray(self.items, dtype=np.int64).reshape(q)
        thresholds = np.asarray(self.thresholds, dtype=np.float64).reshape(q)
        leaves = np.asarray(self.leaves, dtype=np.int8)
        if leaves.ndim != 2 or leaves.shape[0] != 2 ** self.depth:
            raise ValueError("leaves must be a (2^depth, n_items) matrix")
        if q and not np.all(np.isfinite(thresholds)):
            raise ValueError("thresholds must be finite")
        object.__setattr__(self, "items", _readonly(items))
        object.__setattr__(self, "thresholds", _readonly(thresholds))
        object.__setattr__(self, "leaves", _readonly(leaves))

    @property
    def n_internal(self):
        return 2 ** self.depth - 1

    @property
    def n_leaves(self):
        return 2 ** self.depth

    @property
    def n_items(self):
        return self.leaves.shape[1]

    def traverse(self, obs):
        """Leaf index reached by one observation (<= goes left)."""
        obs = np.asarray(obs, dtype=np.float64)
        node = 0
        for _ in range(self.depth):
            right = obs[self.items[node]] > self.thresholds[node]
            node = 2 * node + 1 + int(right)
        return node - self.n_internal

    def traverse_batch(self, costs):
        costs = np.asarray(costs, dtype=np.float64)
        node = np.zeros(costs.shape[0], dtype=np.int64)
        rows = np.arange(costs.shape[0])
        for _ in range(self.depth):
            right = costs[rows, self.items[node]] > self.thresholds[node]
            node = 2 * node + 1 + right
        return node - self.n_internal

    def path(self, leaf):
        """Internal nodes on the root-to-leaf walk as (node, go_right)."""
        steps = []
        node = 0
        for level in range(self.depth - 1, -1, -1):
            go_right = bool((leaf >> level) & 1)
            steps.append((node, go_right))
            node = 2 * node + 1 + int(go_right)
        return steps

    def with_leaves(self, leaves):
        return DecisionTree(self.depth, self.items, self.thresholds, leaves)

    def with_thresholds(self, thresholds):
        return DecisionTree(self.depth, self.items, thresholds, self.leaves)


def tree_to_json(tree):
    return json.dumps({
        "depth": tree.depth,
        "nodes": [{"item": int(i), "threshold": float(t)}
                  for i, t in zip(tree.items, tree.thresholds)],
        "leaves": tree.leaves.astype(int).tolist(),
    })


def tree_from_json(text):
    raw = json.loads(text)
    depth = raw["depth"]
    items = [n["item"] for n in raw["nodes"]]
    thresholds = [n["threshold"] for n in raw["nodes"]]
    return DecisionTree(depth, items, thresholds,
                        np.asarray(raw["leaves"], dtype=np.int8))


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

def check_gamma(gamma):
    """Raise ValueError unless the budget ``gamma`` is finite and >= 0."""
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError("gamma must be finite and >= 0")


@dataclass(frozen=True)
class UncertaintyBudget:
    """An L1 budget on observation shifts, shared or per sample.

    kind "global": one budget pooled over all samples and items.
    kind "local": the same budget available to every sample separately.
    A local budget always allows at least what the global budget of the
    same size allows, and a global budget of N*gamma covers everything N
    samples could each do with gamma.
    """

    kind: str
    gamma: float

    def __post_init__(self):
        if self.kind not in ("local", "global"):
            raise ValueError("kind must be 'local' or 'global'")
        check_gamma(self.gamma)
        object.__setattr__(self, "gamma", float(self.gamma))

    @classmethod
    def local(cls, gamma):
        return cls("local", gamma)

    @classmethod
    def global_(cls, gamma):
        return cls("global", gamma)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def solution_values(dataset, solutions):
    """(samples, solutions) matrix of true costs against each solution row.

    Every objective this package reports is a sum over entries of this
    matrix, and methods are compared for exact float equality in the
    large-budget regime.  einsum contracts each (sample, solution) pair in
    a fixed index order, so an entry depends only on the cost row and the
    solution vector, never on how many other solutions there are: the
    columns of a pool's matrix are bitwise the :func:`leaf_values` of a
    tree whose leaves are those pool rows.  A BLAS matmul does not give
    that shape independence.
    """
    return np.einsum("ji,ki->jk", dataset.costs,
                     np.asarray(solutions).astype(np.float64))


def leaf_values(dataset, tree):
    """(samples, leaves) matrix of true costs against each leaf solution
    (:func:`solution_values` of the leaves)."""
    return solution_values(dataset, tree.leaves)


def assignment_objective(values, assignment):
    """Canonical objective: sum of each sample's value at its leaf.

    An ``assignment`` with a leading row axis, one assignment per row,
    gives an array of the row objectives, each the same float as that
    row's assignment passed alone.
    """
    rows = np.arange(values.shape[0])
    total = values[rows, assignment].sum(axis=-1)
    return float(total) if np.ndim(assignment) == 1 else total


def nominal_objective(tree, dataset):
    """Objective when every observation is routed undisturbed."""
    values = leaf_values(dataset, tree)
    return assignment_objective(values, tree.traverse_batch(dataset.costs))

