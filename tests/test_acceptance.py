"""End-to-end acceptance checks.

Each test covers one numbered criterion and reports a one-line verdict
through the terminal summary (see conftest).  Heavy shared computations
live in module-scoped fixtures so a criterion's results can be reused by
later ones.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
import oracles
from robust_trees import (
    Dataset,
    DecisionTree,
    HeuristicConfig,
    InstanceSpec,
    PI_GRID,
    UncertaintyBudget,
    build_threshold_catalog,
    compute_budget,
    exp_correlation,
    exp_relative_tables,
    generate_instance,
    h1,
    h_alt,
    h_tree,
    leaf_values,
    max_item_range,
    nominal_objective,
    post_process,
    robust_value,
    sample_random_structure,
    scenario_generation,
    solve_global,
    solve_local,
)
from robust_trees import adversary, exact
from conftest import selection_fixture


@contextmanager
def criterion(num, desc):
    ok = False
    try:
        yield
        ok = True
    finally:
        conftest.ACCEPTANCE_RESULTS.append((num, desc, ok))


def random_adversary_case(rng):
    n_samples = int(rng.integers(3, 7))
    n_items = int(rng.integers(3, 6))
    depth = int(rng.integers(1, 3))
    costs = np.round(rng.uniform(0, 10, size=(n_samples, n_items)), 3)
    ds = Dataset(costs)
    catalog = build_threshold_catalog(ds)
    items, thetas = sample_random_structure(catalog, depth, rng)
    leaves = rng.integers(0, 2, size=(2 ** depth, n_items)).astype(np.int8)
    tree = DecisionTree(depth, items, thetas, leaves)
    gamma = float(rng.uniform(0, 8))
    return ds, tree, gamma


@pytest.fixture(scope="module")
def adversary_pool():
    """200 random (tree, instance, budget) triples solved both ways."""
    rng = np.random.default_rng(2024)
    results = []
    for _ in range(200):
        ds, tree, gamma = random_adversary_case(rng)
        results.append((ds, tree, gamma,
                        solve_local(tree, ds, gamma),
                        solve_global(tree, ds, gamma)))
    return results


@pytest.fixture(scope="module")
def sg_pool():
    """Criterion 4 instances with converged cut-generation runs."""
    runs = []
    for seed in range(20):
        inst = generate_instance(
            InstanceSpec(grid_side=3, n_train=4, n_test=1, seed=seed))
        for kind in ("local", "global"):
            budget = compute_budget(inst.train, 0.05, 1, kind)
            rep = scenario_generation(inst.train, budget, inst.space,
                                      depth=1, time_limit=300.0)
            runs.append((inst, budget, rep))
    return runs


def test_criterion_1_worked_example_goldens(demo_dataset, demo_space,
                                            depth1_tree, depth2_tree):
    with criterion(1, "worked-example goldens (36 / 50 / 43)"):
        for depth in (1, 2):
            rep = scenario_generation(demo_dataset,
                                      UncertaintyBudget.local(0.0),
                                      demo_space, depth=depth)
            assert rep.objective == 36.0
        assert nominal_objective(depth2_tree, demo_dataset) == 36.0
        assert solve_global(depth1_tree, demo_dataset, 5.0).objective == 50.0
        deep = solve_global(depth2_tree, demo_dataset, 5.0).objective
        assert deep == oracles.brute_force_global(depth2_tree, demo_dataset,
                                                  5.0).objective
        assert deep == oracles.adversary_global(depth2_tree, demo_dataset,
                                                5.0, eps=1e-3)
        assert deep == 43.0


def test_criterion_2_adversary_matches_oracles(adversary_pool):
    with criterion(2, "200 random adversary solves match brute force"):
        for ds, tree, gamma, loc, glo in adversary_pool:
            brute = oracles.brute_force_global(tree, ds, gamma)
            assert glo.objective == brute.objective
            vals = leaf_values(ds, tree)
            eff = exact.adversary.perturbation_cost(tree, ds)
            masked = np.where(eff.rho <= gamma, vals, -np.inf)
            rows = np.arange(ds.n_samples)
            best = float(vals[rows, masked.argmax(axis=1)].sum())
            assert loc.objective == best


def test_criterion_3_witnesses_replay_within_budget(adversary_pool):
    with criterion(3, "witness shifts replay and respect budgets"):
        for ds, tree, gamma, loc, glo in adversary_pool:
            for res, is_local in ((loc, True), (glo, False)):
                routed = tree.traverse_batch(ds.costs + res.xi)
                assert np.array_equal(routed, res.assignment)
                spent = np.abs(res.xi).sum(axis=1)
                if is_local:
                    assert (spent <= gamma + 1e-9).all()
                else:
                    assert spent.sum() <= gamma + 1e-9


def test_criterion_4_cut_generation_is_exact(sg_pool):
    with criterion(4, "cut generation converges to enumerated optimum"):
        for inst, budget, rep in sg_pool:
            assert rep.converged and rep.optimal
            masters = rep.extras["master_objectives"]
            assert masters == sorted(masters)
            assert rep.objective - rep.master_objective <= 1e-6
            ref = oracles.best_tree_value(inst.train, inst.space, budget,
                                          depth=1, eps=1e-3)
            assert rep.objective == pytest.approx(ref, abs=1e-9)


def test_criterion_5_large_budget_regime_collapses():
    with criterion(5, "all methods coincide beyond the reach budget"):
        cases = [(3, seed) for seed in range(10)] + \
                [(4, seed) for seed in range(10)]
        for n_train, seed in cases:
            inst = generate_instance(
                InstanceSpec(grid_side=3, n_train=n_train, n_test=1,
                             seed=seed))
            ds, space = inst.train, inst.space
            gamma = 1.01 * 1 * max_item_range(ds)
            base = h1(ds, space).objective
            for budget in (UncertaintyBudget.local(gamma),
                           UncertaintyBudget.global_(gamma * n_train)):
                cfg = HeuristicConfig(depth=1, time_limit=60.0, seed=seed,
                                      max_rounds=1)
                assert h_tree(ds, budget, space, cfg).objective == base
                assert h_alt(ds, budget, space, cfg).objective == base
                sg = scenario_generation(ds, budget, space, depth=1,
                                         time_limit=300.0)
                assert sg.objective == base


def test_criterion_6_heuristic_dominance_and_monotonicity(sg_pool):
    with criterion(6, "heuristics never lose to the constant policy; "
                      "worst case grows with the budget"):
        seen = set()
        for inst, budget, rep in sg_pool:
            ds, space = inst.train, inst.space
            base = h1(ds, space).objective
            cfg = HeuristicConfig(depth=1, time_limit=30.0, seed=0,
                                  max_rounds=2)
            assert h_tree(ds, budget, space, cfg).objective <= base + 1e-9
            assert h_alt(ds, budget, space, cfg).objective <= base + 1e-9
            if inst.seed in seen:
                continue
            seen.add(inst.seed)
            grid = [0.0, 0.5, 1.0, 2.0, 4.0]
            for kind in ("local", "global"):
                values = [robust_value(rep.tree, ds,
                                       UncertaintyBudget(kind, g))
                          for g in grid]
                assert values == sorted(values)
                assert values[0] == nominal_objective(rep.tree, ds)


def test_criterion_7_budget_kinds_correlate():
    with criterion(7, "per-sample and shared worst cases correlate "
                      "(pooled r >= 0.8 in every cell)"):
        out = exp_correlation(n_instances=20, grid_side=4, n_train=5,
                              n_trees=200, depth=2,
                              lambdas=(0.05, 0.1, 0.15, 0.2),
                              couplings=("N", "1"), seed=0)
        pooled = [r for r in out["summary"] if r["instance_seed"] == -1]
        assert len(pooled) == 8
        for row in pooled:
            assert row["pearson_r"] >= 0.8, (row["lam"], row["coupling"],
                                             row["pearson_r"])


def test_criterion_8_price_of_robustness_tables():
    with criterion(8, "robust trees pay on nominal cost and win on "
                      "worst case in every table cell"):
        out = exp_relative_tables(grid_sides=(3, 4), train_sizes=(3, 5),
                                  n_instances=2, n_test=1000, depth=2,
                                  lam=0.05, coupling="N", seed=0,
                                  heuristic_time_limit=60.0, workers=4)
        cells = {}
        for row in out["summary"]:
            key = (row["grid_side"], row["n_train"], row["kind"])
            cells.setdefault(key, {})[(row["method"], row["metric"])] = \
                row["mean_scaled_pct"]
        assert len(cells) == 8
        for key, cell in cells.items():
            assert cell[("H1", "nominal_train")] > 0.0, (key, cell)
            assert cell[("Htree", "robust_train")] < 0.0, (key, cell)


def test_criterion_9_post_processing_is_safe(monkeypatch):
    with criterion(9, "threshold refinement never hurts and uses the "
                      "exact evaluation count"):
        calls = []
        real = adversary.worst_cases

        def wrapper(tree, thresholds, dataset, budget):
            calls.append(len(thresholds))
            return real(tree, thresholds, dataset, budget)

        monkeypatch.setattr(adversary, "worst_cases", wrapper)
        for i in range(50):
            depth = 2 if i % 5 == 0 else 1
            inst = generate_instance(
                InstanceSpec(grid_side=3, n_train=4, n_test=1, seed=100 + i))
            ds, space = inst.train, inst.space
            kind = "local" if i % 2 == 0 else "global"
            budget = compute_budget(ds, 0.1, depth, kind)
            cfg = HeuristicConfig(depth=depth, time_limit=30.0, seed=i,
                                  max_rounds=1)
            rep = h_tree(ds, budget, space, cfg)
            calls.clear()
            out = post_process(rep.tree, ds, budget)
            assert sum(calls) == len(PI_GRID) ** rep.tree.n_internal
            assert (robust_value(out, ds, budget)
                    <= robust_value(rep.tree, ds, budget))


def test_criterion_10_selection_reduction_value():
    with criterion(10, "pick-2-of-6 reduction fixture evaluates to 25"):
        ds, space, tree = selection_fixture()
        pool = space.enumerate()
        from robust_trees import optimize_leaves_local

        _, value = optimize_leaves_local(tree, ds, 1.0, pool)
        assert value == 25.0
        ref = oracles.best_leaf_fill_value(
            tree, ds, UncertaintyBudget.local(1.0), pool, eps=1e-3)
        assert ref == 25.0
