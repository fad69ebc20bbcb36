import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import selection_fixture
from robust_trees import (
    ConvergenceStall,
    Dataset,
    DecisionTree,
    HeuristicConfig,
    InstanceSpec,
    NoSplitAvailable,
    UncertaintyBudget,
    build_threshold_catalog,
    compute_budget,
    generate_instance,
    h1,
    h_alt,
    h_sol,
    h_tree,
    leaf_values,
    max_item_range,
    optimize_leaves_global,
    optimize_leaves_local,
    per_sample_optima,
    robust_value,
    sample_random_structure,
    scenario_generation,
)
from robust_trees import heuristics


def small_instance(seed, grid_side=3, n_train=4):
    inst = generate_instance(
        InstanceSpec(grid_side=grid_side, n_train=n_train, n_test=1,
                     seed=seed))
    return inst.train, inst.space


class TestHeuristicConfig:
    def test_defaults(self):
        cfg = HeuristicConfig()
        assert (cfg.depth, cfg.time_limit, cfg.seed) == (2, 60.0, 0)
        assert cfg.max_rounds is None

    @pytest.mark.parametrize("kwargs", [
        {"depth": -1},
        {"time_limit": 0.0},
        {"max_rounds": 0},
        {"max_rounds": 1.5},
        {"max_rounds": True},
        {"time_limit": float("inf")},
        {"depth": 1.5},
        {"depth": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HeuristicConfig(**kwargs)

    def test_infinite_time_limit_with_round_cap(self):
        cfg = HeuristicConfig(time_limit=float("inf"), max_rounds=1)
        assert cfg.time_limit == float("inf")


class TestPerSampleOptima:
    def test_demo(self, demo_dataset, demo_space):
        opts = per_sample_optima(demo_dataset, demo_space)
        # Samples 1-2 prefer A, samples 3-5 prefer B; duplicates dropped.
        assert opts.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]

    def test_subset_of_space(self):
        ds, space = small_instance(3)
        opts = per_sample_optima(ds, space)
        assert opts.shape[0] <= ds.n_samples
        for row in opts:
            assert space.is_feasible(row)


class TestSampleRandomStructure:
    def test_depth_zero(self, demo_dataset):
        catalog = build_threshold_catalog(demo_dataset)
        items, thetas = sample_random_structure(catalog, 0,
                                                np.random.default_rng(0))
        assert items == [] and thetas == []

    def test_no_splits_raises(self):
        catalog = build_threshold_catalog(Dataset(np.ones((3, 2))))
        with pytest.raises(NoSplitAvailable):
            sample_random_structure(catalog, 1, np.random.default_rng(0))

    def test_uniform_over_items_then_thresholds(self, demo_dataset):
        # Item first, then a threshold of that item: pair probability is
        # 1 / (4 items) * 1 / (thresholds of the item).
        catalog = build_threshold_catalog(demo_dataset)
        rng = np.random.default_rng(123)
        counts = {}
        draws = 40000
        for _ in range(draws):
            items, thetas = sample_random_structure(catalog, 1, rng)
            counts[(items[0], thetas[0])] = counts.get(
                (items[0], thetas[0]), 0) + 1
        for (item, theta), seen in counts.items():
            expected = draws / 4 / len(catalog[item])
            assert abs(seen - expected) / expected < 0.15
        assert len(counts) == len(catalog.all_splits())


class TestOptimizeLeaves:
    def test_local_matches_enumeration(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            ds, space = small_instance(int(rng.integers(100)))
            pool = per_sample_optima(ds, space)
            catalog = build_threshold_catalog(ds)
            items, thetas = sample_random_structure(catalog, 2, rng)
            base = np.zeros((4, ds.n_items), dtype=np.int8)
            from robust_trees import DecisionTree

            tree = DecisionTree(2, items, thetas, base)
            gamma = float(rng.uniform(0, 2))
            fitted, value = optimize_leaves_local(tree, ds, gamma, pool)
            best = oracles.best_leaf_fill_value(
                tree, ds, UncertaintyBudget.local(gamma), pool, eps=1e-3)
            assert value == pytest.approx(best, abs=1e-9)
            assert value == robust_value(fitted, ds,
                                         UncertaintyBudget.local(gamma))

    def test_global_matches_enumeration(self):
        rng = np.random.default_rng(72)
        for depth in (1,) * 6 + (2,) * 3:
            ds, space = small_instance(int(rng.integers(100)))
            pool = per_sample_optima(ds, space)
            catalog = build_threshold_catalog(ds)
            items, thetas = sample_random_structure(catalog, depth, rng)
            base = np.zeros((2 ** depth, ds.n_items), dtype=np.int8)
            from robust_trees import DecisionTree

            tree = DecisionTree(depth, items, thetas, base)
            gamma = float(rng.uniform(0, 3))
            fitted, value = optimize_leaves_global(tree, ds, gamma, pool)
            best = oracles.best_leaf_fill_value(
                tree, ds, UncertaintyBudget.global_(gamma), pool, eps=1e-3)
            assert value == pytest.approx(best, abs=1e-9)
            assert value == robust_value(fitted, ds,
                                         UncertaintyBudget.global_(gamma))

    def test_pool_values_are_leaf_values(self):
        """The adversary's pool values, column-picked, are bitwise the
        ``leaf_values`` of the filled tree, for any number of leaves."""
        rng = np.random.default_rng(73)
        for seed, grid, n_train in ((0, 3, 5), (1, 4, 5), (2, 3, 23)):
            ds, space = small_instance(seed, grid, n_train)
            pool = space.enumerate()
            values = heuristics._pool_values(ds, pool)[1]
            catalog = build_threshold_catalog(ds)
            for depth in (0, 1, 2, 3):
                items, thetas = sample_random_structure(catalog, depth, rng)
                pick = rng.integers(len(pool), size=2 ** depth)
                tree = DecisionTree(depth, items, thetas, pool[pick])
                assert (values[:, pick].tobytes()
                        == leaf_values(ds, tree).tobytes())

    @pytest.mark.parametrize("depth", [1, 2])
    def test_global_matches_reference_loop(self, depth):
        """Efforts computed once and scenarios routed once give bitwise
        the trees and objectives of routing every scenario again and
        running the full adversary on every master tree."""
        rng = np.random.default_rng(74 + depth)
        for _ in range(8):
            ds, space = small_instance(int(rng.integers(1000)),
                                       n_train=int(rng.integers(3, 6)))
            pool = space.enumerate()
            catalog = build_threshold_catalog(ds)
            items, thetas = sample_random_structure(catalog, depth, rng)
            tree = DecisionTree(depth, items, thetas,
                                np.zeros((2 ** depth, ds.n_items), np.int8))
            for lam in (0.0, 0.02, 0.05, 0.2):
                gamma = compute_budget(ds, lam, depth, "global").gamma
                try:
                    ref = oracles.optimize_leaves_global_loop(tree, ds,
                                                              gamma, pool)
                except ConvergenceStall:
                    with pytest.raises(ConvergenceStall):
                        optimize_leaves_global(tree, ds, gamma, pool)
                    continue
                got = optimize_leaves_global(tree, ds, gamma, pool)
                assert (np.float64(got[1]).tobytes()
                        == np.float64(ref[1]).tobytes())
                for field in ("items", "thresholds", "leaves"):
                    a, b = getattr(got[0], field), getattr(ref[0], field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_selection_fixture_value(self):
        ds, space, tree = selection_fixture()
        pool = space.enumerate()
        fitted, value = optimize_leaves_local(tree, ds, 1.0, pool)
        assert value == 25.0
        best = oracles.best_leaf_fill_value(
            tree, ds, UncertaintyBudget.local(1.0), pool, eps=1e-3)
        assert best == 25.0


class TestH1:
    def test_demo_value(self, demo_dataset, demo_space):
        rep = h1(demo_dataset, demo_space)
        assert rep.objective == 57.0
        assert rep.tree.depth == 0
        assert rep.tree.leaves[0].tolist() == [1, 1, 0, 0]
        assert rep.converged and not rep.optimal

    def test_constant_policy_is_immune(self):
        ds, space = small_instance(5)
        rep = h1(ds, space)
        for budget in (UncertaintyBudget.local(3.0),
                       UncertaintyBudget.global_(9.0)):
            assert robust_value(rep.tree, ds, budget) == rep.objective


class TestHTree:
    def test_never_worse_than_h1(self):
        for seed in (0, 1, 2, 3):
            ds, space = small_instance(seed)
            base = h1(ds, space).objective
            for kind in ("local", "global"):
                budget = compute_budget(ds, 0.1, 2, kind)
                cfg = HeuristicConfig(depth=2, time_limit=20.0, seed=seed,
                                      max_rounds=2)
                rep = h_tree(ds, budget, space, cfg)
                assert rep.objective <= base + 1e-9
                assert rep.extras["rounds"] >= 1

    def test_seed_reproducible(self):
        ds, space = small_instance(9)
        budget = compute_budget(ds, 0.1, 2, "local")
        cfg = HeuristicConfig(depth=2, time_limit=20.0, seed=4,
                              max_rounds=3)
        a = h_tree(ds, budget, space, cfg)
        b = h_tree(ds, budget, space, cfg)
        assert a.objective == b.objective
        assert np.array_equal(a.tree.thresholds, b.tree.thresholds)

    def test_objective_is_certified(self):
        ds, space = small_instance(11)
        budget = compute_budget(ds, 0.1, 1, "global")
        cfg = HeuristicConfig(depth=1, time_limit=20.0, seed=0,
                              max_rounds=2)
        rep = h_tree(ds, budget, space, cfg)
        assert rep.objective == robust_value(rep.tree, ds, budget)


class TestHSol:
    def test_leaves_come_from_sample_optima(self):
        ds, space = small_instance(13)
        budget = compute_budget(ds, 0.1, 1, "local")
        cfg = HeuristicConfig(depth=1, time_limit=20.0, seed=2,
                              max_rounds=2)
        rep = h_sol(ds, budget, space, cfg)
        opts = {tuple(r) for r in per_sample_optima(ds, space)}
        for leaf in rep.tree.leaves:
            assert tuple(leaf) in opts
        assert rep.objective == robust_value(rep.tree, ds, budget)

    def test_seed_reproducible(self):
        ds, space = small_instance(13)
        budget = compute_budget(ds, 0.1, 1, "local")
        cfg = HeuristicConfig(depth=1, time_limit=20.0, seed=2,
                              max_rounds=2)
        a = h_sol(ds, budget, space, cfg)
        b = h_sol(ds, budget, space, cfg)
        assert a.objective == b.objective


    def test_stalled_round_keeps_incumbent(self, monkeypatch):
        ds, space = small_instance(13)
        budget = compute_budget(ds, 0.1, 1, "local")
        cfg = HeuristicConfig(depth=1, time_limit=20.0, seed=2,
                              max_rounds=3)
        real = heuristics.scenario_generation
        per_round = []

        def record(*args, **kwargs):
            rep = real(*args, **kwargs)
            per_round.append(rep.objective)
            return rep

        monkeypatch.setattr(heuristics, "scenario_generation", record)
        h_sol(ds, budget, space, cfg)
        calls = []

        def stall_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ConvergenceStall("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(heuristics, "scenario_generation", stall_first)
        rep = h_sol(ds, budget, space, cfg)
        assert rep.extras["rounds"] == 3
        assert rep.objective == min(per_round[1:])
        assert rep.objective == robust_value(rep.tree, ds, budget)

    @pytest.mark.parametrize("max_rounds", [3, None])
    def test_rounds_share_the_time(self, monkeypatch, max_rounds):
        ds, space = small_instance(13)
        budget = compute_budget(ds, 0.1, 1, "local")
        total = 30.0 if max_rounds else 1.0
        cfg = HeuristicConfig(depth=1, time_limit=total, seed=2,
                              max_rounds=max_rounds)
        limits = []

        def record(*args, time_limit, **kwargs):
            limits.append(time_limit)
            if len(limits) == 3 and max_rounds is None:
                time.sleep(time_limit)
            return SimpleNamespace(tree=object(), objective=1.0)

        monkeypatch.setattr(heuristics, "scenario_generation", record)
        h_sol(ds, budget, space, cfg)
        # what is left over the rounds left, unspent time carried over;
        # without max_rounds, all that is left
        share = [10.0, 15.0, 30.0] if max_rounds else [1.0, 1.0, 1.0]
        assert limits == pytest.approx(share, abs=0.1)

    def test_all_rounds_stalled_raises(self, monkeypatch):
        ds, space = small_instance(13)
        budget = compute_budget(ds, 0.1, 1, "local")
        cfg = HeuristicConfig(depth=1, time_limit=20.0, seed=2,
                              max_rounds=2)

        def stall(*args, **kwargs):
            raise ConvergenceStall("forced")

        monkeypatch.setattr(heuristics, "scenario_generation", stall)
        with pytest.raises(ConvergenceStall):
            h_sol(ds, budget, space, cfg)


class TestHAlt:
    def test_stalled_structure_pass_keeps_incumbent(self, monkeypatch):
        # With every structure pass stalled, each restart keeps its first
        # leaf fill: the same random structures and leaves as h_tree.
        ds, space = small_instance(5)
        budget = compute_budget(ds, 0.1, 1, "local")
        cfg = HeuristicConfig(depth=1, time_limit=30.0, seed=5,
                              max_rounds=3)

        def stall(*args, **kwargs):
            raise ConvergenceStall("forced")

        monkeypatch.setattr(heuristics, "scenario_generation", stall)
        rep = h_alt(ds, budget, space, cfg)
        assert rep.extras["rounds"] == 3
        assert all(len(p) == 1 for p in rep.extras["pass_objectives"])
        assert rep.objective == h_tree(ds, budget, space, cfg).objective
        assert rep.objective == robust_value(rep.tree, ds, budget)

    def test_passes_never_increase(self):
        for seed in (0, 5):
            ds, space = small_instance(seed)
            for kind in ("local", "global"):
                budget = compute_budget(ds, 0.1, 1, kind)
                cfg = HeuristicConfig(depth=1, time_limit=30.0, seed=seed,
                                      max_rounds=2)
                rep = h_alt(ds, budget, space, cfg)
                assert len(rep.extras["pass_objectives"]) == rep.iterations
                for passes in rep.extras["pass_objectives"]:
                    assert all(b <= a + 1e-6 + 1e-9
                               for a, b in zip(passes, passes[1:]))
                assert rep.objective == robust_value(rep.tree, ds, budget)

    def test_never_worse_than_h1(self):
        ds, space = small_instance(2)
        base = h1(ds, space).objective
        budget = compute_budget(ds, 0.1, 2, "local")
        cfg = HeuristicConfig(depth=2, time_limit=30.0, seed=1,
                              max_rounds=1)
        rep = h_alt(ds, budget, space, cfg)
        assert rep.objective <= base + 1e-9


class TestLargeBudgetRegime:
    def test_all_methods_coincide(self):
        # Budgets beyond depth * max item range make every leaf reachable
        # for every sample, so the tree structure stops mattering and all
        # methods must return the depth-0 optimum bit for bit.
        for seed in (0, 1, 2):
            ds, space = small_instance(seed)
            depth = 1
            gamma = 1.01 * depth * max_item_range(ds)
            base = h1(ds, space).objective
            for budget in (UncertaintyBudget.local(gamma),
                           UncertaintyBudget.global_(
                               gamma * ds.n_samples)):
                cfg = HeuristicConfig(depth=depth, time_limit=30.0,
                                      seed=seed, max_rounds=1)
                assert h_tree(ds, budget, space, cfg).objective == base
                assert h_alt(ds, budget, space, cfg).objective == base
                sg = scenario_generation(ds, budget, space, depth=depth,
                                         time_limit=120.0)
                assert sg.objective == base
