import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DEMO_COSTS, SOLUTION_A, SOLUTION_B
from robust_trees import (
    Dataset,
    DecisionTree,
    UncertaintyBudget,
    assignment_objective,
    build_threshold_catalog,
    dataset_from_json,
    dataset_to_json,
    leaf_values,
    nominal_objective,
    robust_value,
    tree_from_json,
    tree_to_json,
)


class TestDataset:
    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            Dataset(np.arange(4.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(DEMO_COSTS, labels=np.array([0, 1]))

    def test_arrays_are_readonly(self, demo_dataset):
        with pytest.raises(ValueError):
            demo_dataset.costs[0, 0] = 1.0

    def test_json_round_trip(self):
        ds = Dataset(np.array([[0.1 + 0.2, 1 / 3], [1e-9, 7.0]]))
        back = dataset_from_json(dataset_to_json(ds))
        assert np.array_equal(back.costs, ds.costs)

    def test_json_shape_mismatch(self):
        with pytest.raises(ValueError):
            dataset_from_json('{"n_items": 3, "samples": [[1.0, 2.0]]}')


class TestThresholdCatalog:
    def test_demo_catalog_values(self, demo_dataset):
        cat = build_threshold_catalog(demo_dataset)
        assert cat[0].tolist() == [0.5, 5.0, 9.5]
        assert cat[1].tolist() == [2.5, 4.5, 6.5, 9.0]
        assert cat[2].tolist() == [2.5, 3.5, 4.5, 6.0]
        assert cat[3].tolist() == [4.5, 8.0, 9.5]

    def test_constant_column_has_no_splits(self):
        ds = Dataset(np.array([[1.0, 2.0], [1.0, 3.0]]))
        cat = build_threshold_catalog(ds)
        assert cat[0].size == 0
        assert cat.items_with_splits() == [1]

    def test_all_splits_ordering(self, demo_dataset):
        splits = build_threshold_catalog(demo_dataset).all_splits()
        assert splits == sorted(splits)
        assert len(splits) == 3 + 4 + 4 + 3

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3),
                    min_size=2, max_size=8))
    def test_midpoints_lie_between_observations(self, rows):
        ds = Dataset(np.asarray(rows, dtype=np.float64))
        cat = build_threshold_catalog(ds)
        for i in range(ds.n_items):
            vals = np.unique(ds.costs[:, i])
            assert cat[i].size == vals.size - 1
            for lo, hi, theta in zip(vals[:-1], vals[1:], cat[i]):
                assert lo < theta < hi


class TestDecisionTree:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DecisionTree(1, [0], [1.0], SOLUTION_A)
        with pytest.raises(ValueError):
            DecisionTree(1, [0], [np.inf], np.stack([SOLUTION_A, SOLUTION_B]))

    def test_threshold_value_goes_left(self, depth1_tree):
        assert depth1_tree.traverse([5.0, 0, 0, 0]) == 0
        assert depth1_tree.traverse([np.nextafter(5.0, 6.0), 0, 0, 0]) == 1

    def test_traverse_batch_matches_single(self, depth2_tree):
        rng = np.random.default_rng(0)
        costs = rng.uniform(0, 12, size=(40, 4))
        batch = depth2_tree.traverse_batch(costs)
        singles = [depth2_tree.traverse(row) for row in costs]
        assert batch.tolist() == singles

    def test_path_agrees_with_traverse(self, depth2_tree):
        for leaf in range(depth2_tree.n_leaves):
            bounds = oracles.leaf_bounds(depth2_tree, leaf, eps=1e-3)
            obs = np.full(4, 1.0)
            for item, (lo, hi) in bounds.items():
                if np.isinf(lo):
                    obs[item] = hi - 1.0
                elif np.isinf(hi):
                    obs[item] = lo + 1.0
                else:
                    obs[item] = (lo + hi) / 2.0
            assert depth2_tree.traverse(obs) == leaf
            steps = depth2_tree.path(leaf)
            assert len(steps) == depth2_tree.depth

    def test_with_leaves_leaves_original_untouched(self, depth1_tree):
        swapped = depth1_tree.with_leaves(depth1_tree.leaves[::-1])
        assert np.array_equal(depth1_tree.leaves[0], SOLUTION_A)
        assert np.array_equal(swapped.leaves[0], SOLUTION_B)

    def test_json_round_trip_is_exact(self, depth2_tree):
        tree = depth2_tree.with_thresholds([1 / 3, 0.1 + 0.2, 6.5])
        back = tree_from_json(tree_to_json(tree))
        assert back.depth == tree.depth
        assert np.array_equal(back.items, tree.items)
        assert np.array_equal(back.thresholds, tree.thresholds)
        assert np.array_equal(back.leaves, tree.leaves)


class TestUncertaintyBudget:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            UncertaintyBudget("per-item", 1.0)

    @pytest.mark.parametrize("gamma", [-1.0, np.inf, np.nan])
    def test_gamma_validation(self, gamma):
        with pytest.raises(ValueError):
            UncertaintyBudget.local(gamma)

    def test_constructors(self):
        assert UncertaintyBudget.local(2).kind == "local"
        assert UncertaintyBudget.global_(2).kind == "global"
        assert UncertaintyBudget.local(2).gamma == 2.0


class TestObjectives:
    def test_leaf_values_column_is_shape_independent(self):
        rng = np.random.default_rng(3)
        costs = rng.uniform(0, 10, size=(7, 5))
        ds = Dataset(costs)
        for _ in range(20):
            leaves = rng.integers(0, 2, size=(4, 5)).astype(np.int8)
            wide = DecisionTree(2, [0, 1, 2], [1.0, 2.0, 3.0], leaves)
            vals = leaf_values(ds, wide)
            for k in range(4):
                single = DecisionTree(0, [], [], leaves[k:k + 1])
                assert np.array_equal(vals[:, k],
                                      leaf_values(ds, single)[:, 0])

    def test_assignment_objective_value(self, demo_dataset, depth1_tree):
        vals = leaf_values(demo_dataset, depth1_tree)
        assign = np.array([0, 0, 1, 1, 1])
        expected = sum(float(vals[j, assign[j]]) for j in range(5))
        assert assignment_objective(vals, assign) == pytest.approx(expected,
                                                                   abs=1e-12)

    def test_nominal_objective_demo(self, demo_dataset, depth1_tree,
                                    depth2_tree):
        assert nominal_objective(depth1_tree, demo_dataset) == 36.0
        assert nominal_objective(depth2_tree, demo_dataset) == 36.0

    def test_evaluate_robust_zero_budget_is_nominal(self, demo_dataset,
                                                    depth2_tree):
        value = robust_value(depth2_tree, demo_dataset,
                             UncertaintyBudget.local(0.0))
        assert value == nominal_objective(depth2_tree, demo_dataset)

    def test_evaluate_robust_checks_feasibility(self, demo_dataset,
                                                depth1_tree, demo_space):
        bad = depth1_tree.with_leaves(np.array([[1, 0, 1, 0], [0, 0, 1, 1]],
                                               dtype=np.int8))
        with pytest.raises(ValueError, match="feasible"):
            robust_value(bad, demo_dataset, UncertaintyBudget.local(1.0),
                         space=demo_space)
