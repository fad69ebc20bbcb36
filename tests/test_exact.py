import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import SOLUTION_A, SOLUTION_B
from robust_trees import (
    ConvergenceStall,
    Dataset,
    DecisionTree,
    HeuristicConfig,
    InstanceSpec,
    NoSplitAvailable,
    PI_GRID,
    ScenarioSet,
    UncertaintyBudget,
    build_threshold_catalog,
    compute_budget,
    generate_instance,
    h1,
    h_tree,
    leaf_values,
    post_process,
    robust_value,
    scenario_generation,
    solve_master,
    tree_to_json,
)
from robust_trees import adversary, exact, kernels
from robust_trees.adversary import AdversaryResult


class TestScenarioSet:
    def test_zero_and_append(self):
        scen = ScenarioSet.zero(3, 2)
        assert scen.n_scenarios == 1
        assert (scen.xi == 0).all()
        xi = np.full((3, 2), 0.5)
        grown = scen.append(xi)
        assert grown.n_scenarios == 2
        assert scen.n_scenarios == 1
        assert grown.contains(xi)
        assert grown.contains(xi + 5e-10)
        assert not grown.contains(xi + 1.0)

    def test_first_scenario_must_be_zero(self):
        with pytest.raises(ValueError):
            ScenarioSet(np.ones((1, 3, 2)))


def master_enumeration_value(dataset, scen, pool, depth):
    """Reference master optimum by trying every structure and fill."""
    splits = build_threshold_catalog(dataset).all_splits()
    best = np.inf
    for combo in itertools.product(splits, repeat=2 ** depth - 1):
        items = [c[0] for c in combo]
        thetas = [c[1] for c in combo]
        for pick in itertools.product(range(len(pool)), repeat=2 ** depth):
            tree = DecisionTree(depth, items, thetas, pool[list(pick)])
            vals = leaf_values(dataset, tree)
            rows = np.arange(dataset.n_samples)
            worst = max(
                float(vals[rows,
                           tree.traverse_batch(dataset.costs + xi)].sum())
                for xi in scen.xi)
            best = min(best, worst)
    return best


class TestSolveMaster:
    def test_depth_zero_picks_best_single_solution(self, demo_dataset,
                                                   demo_space):
        scen = ScenarioSet.zero(5, 4)
        rep = solve_master(demo_dataset, scen, demo_space, depth=0)
        assert rep.objective == 57.0
        assert rep.optimal and rep.converged
        assert rep.objective == h1(demo_dataset, demo_space).objective

    def test_fixed_leaves_best_structure(self, demo_dataset, demo_space):
        scen = ScenarioSet.zero(5, 4)
        rep = solve_master(demo_dataset, scen, demo_space, depth=1,
                           fixed_leaves=np.stack([SOLUTION_A, SOLUTION_B]))
        assert rep.objective == 36.0
        assert rep.tree.items.tolist() == [0]

    def test_single_scenario_matches_enumeration(self, demo_dataset,
                                                 demo_space):
        scen = ScenarioSet.zero(5, 4)
        pool = demo_space.enumerate()
        rep = solve_master(demo_dataset, scen, demo_space, depth=1)
        ref = master_enumeration_value(demo_dataset, scen, pool, 1)
        assert rep.objective == ref == 36.0

    def test_multi_scenario_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            costs = np.round(rng.uniform(0, 10, size=(4, 4)), 2)
            ds = Dataset(costs)
            pool = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]],
                            dtype=np.int8)
            space_pool = pool
            xi = np.round(rng.uniform(-2, 2, size=(2, 4, 4)), 2)
            scen = (ScenarioSet.zero(4, 4).append(xi[0]).append(xi[1]))
            rep = solve_master(ds, scen, None, depth=1, pool=space_pool)
            ref = master_enumeration_value(ds, scen, pool, 1)
            assert rep.objective == pytest.approx(ref, abs=1e-9)

    def test_timeout_returns_incumbent(self, demo_dataset, demo_space,
                                       monkeypatch):
        # A nonzero scenario keeps the lower bound out of reach, so the
        # per-iteration time check is what stops the search.
        monkeypatch.setattr(exact, "_TIME_CHECK", 1)
        scen = ScenarioSet.zero(5, 4).append(np.full((5, 4), 2.0))
        rep = solve_master(demo_dataset, scen, demo_space, depth=2,
                           time_limit=-1.0)
        assert not rep.optimal and not rep.converged
        assert np.isfinite(rep.objective)

    def test_no_split_raises(self, demo_space):
        flat = Dataset(np.ones((3, 4)))
        scen = ScenarioSet.zero(3, 4)
        with pytest.raises(NoSplitAvailable):
            solve_master(flat, scen, demo_space, depth=1)


def _draw_leaf_case(data, n_pool, n_leaves, n_scen, n_samples, uniform):
    """Values (samples, pool) and a routing (scenarios, samples); a
    uniform routing sends every scenario's samples alike."""
    values = np.array(data.draw(st.lists(
        st.lists(st.floats(0.0, 10.0), min_size=n_pool, max_size=n_pool),
        min_size=n_samples, max_size=n_samples)))
    routes = data.draw(st.lists(
        st.lists(st.integers(0, n_leaves - 1), min_size=n_samples,
                 max_size=n_samples),
        min_size=1 if uniform else n_scen, max_size=1 if uniform else n_scen))
    leafm = np.array(routes * n_scen if uniform else routes, dtype=np.int64)
    return values, leafm


def _cutoff(obj, how):
    """A cutoff placed relative to the uncut optimum ``obj``."""
    return {"below": obj - 1.0, "just below": np.nextafter(obj, -np.inf),
            "equal": obj, "just above": np.nextafter(obj, np.inf),
            "above": obj + 1.0, "inf": np.inf}[how]


_CUTS = st.sampled_from(["below", "just below", "equal", "just above",
                         "above", "inf"])


def _assert_same_assignment(got, ref):
    """Bitwise the same value, and the same tuple or both certificates."""
    assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
    assert (got[1] is None) == (ref[1] is None)
    if ref[1] is not None:
        assert got[1].dtype == ref[1].dtype
        assert got[1].tobytes() == ref[1].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n_pool=st.integers(1, 4), n_leaves=st.integers(2, 4),
       n_scen=st.integers(1, 3), n_samples=st.integers(1, 6),
       uniform=st.booleans(), cut=_CUTS)
def test_assign_leaves_matches_exhaustive(data, n_pool, n_leaves, n_scen,
                                          n_samples, uniform, cut):
    """The uncut search reaches the exhaustive optimum.  With a cutoff, an
    optimum strictly below it comes back bitwise as without one; else the
    result is the certificate (cutoff, None)."""
    values, leafm = _draw_leaf_case(data, n_pool, n_leaves, n_scen,
                                    n_samples, uniform)

    def worst(tup):
        return max(sum(values[j, tup[leafm[s, j]]] for j in range(n_samples))
                   for s in range(n_scen))

    ref = min(worst(tup)
              for tup in itertools.product(range(n_pool), repeat=n_leaves))
    obj, tup = exact._assign_leaves(values, leafm, n_leaves, np.inf)
    assert obj == pytest.approx(ref, abs=1e-9)
    assert worst(tup) == pytest.approx(obj, abs=1e-9)
    cutoff = _cutoff(obj, cut)
    got = exact._assign_leaves(values, leafm, n_leaves, cutoff)
    if obj < cutoff:
        _assert_same_assignment(got, (obj, tup))
    else:
        _assert_same_assignment(got, (cutoff, None))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_pool=st.integers(1, 3),
       n_leaves=st.integers(2, 4), n_scen=st.integers(1, 3),
       n_samples=st.integers(1, 5), cut=_CUTS)
def test_assign_leaves_keeps_the_first_minimal_tuple(seed, n_pool, n_leaves,
                                                     n_scen, n_samples, cut):
    """Quarter-integer values sum exactly and tie often; the search returns
    the first minimal tuple in ``itertools.product`` order, with a cutoff
    above the optimum as without one.  One scenario takes the per-leaf
    path, more take the branch and bound."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 9, size=(n_samples, n_pool)) / 4
    leafm = rng.integers(0, n_leaves, size=(n_scen, n_samples))
    rows = np.arange(n_samples)
    worst = [values[rows, np.asarray(tup)[leafm]].sum(axis=1).max()
             for tup in itertools.product(range(n_pool), repeat=n_leaves)]
    first = next(itertools.islice(
        itertools.product(range(n_pool), repeat=n_leaves),
        int(np.argmin(worst)), None))
    cutoff = _cutoff(min(worst), cut)
    obj, tup = exact._assign_leaves(values, leafm, n_leaves, cutoff)
    if min(worst) < cutoff:
        assert obj == min(worst) and tup.tolist() == list(first)
    else:
        assert obj == cutoff and tup is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n_pool=st.integers(1, 3), n_leaves=st.integers(2, 4),
       n_samples=st.integers(1, 5),
       calls=st.lists(st.tuples(st.integers(0, 2), _CUTS), min_size=1,
                      max_size=8))
def test_assign_memo_answers_as_a_fresh_search(data, n_pool, n_leaves,
                                               n_samples, calls):
    """Whatever the order of cutoffs, the memo answers with the exact
    result, which it must when the optimum is below the cutoff, or with a
    certificate (c, None), c between the cutoff and the optimum.  A
    certificate stored under a low cutoff does not answer a higher one,
    and a certificate is never taken as exact."""
    values, _ = _draw_leaf_case(data, n_pool, n_leaves, 1, n_samples, True)
    leafms = [_draw_leaf_case(data, 1, n_leaves, 2, n_samples, False)[1]
              for _ in range(3)]
    memo = {}
    for r, cut in calls:
        uncut = exact._assign_leaves(values, leafms[r], n_leaves, np.inf)
        cutoff = _cutoff(uncut[0], cut)
        got = exact._assign_memo(memo, values, leafms[r], n_leaves, cutoff)
        if uncut[0] < cutoff or got[1] is not None:
            _assert_same_assignment(got, uncut)
        else:
            assert cutoff <= got[0] <= uncut[0]


def _master_case(rng, n_samples, n_random, zero_shifts, far):
    """A small master problem: dataset, two to four scenarios and a pool.

    ``far`` puts the relaxation bound out of reach: costs without zeros,
    a pool of single items in which samples 0 and 1 have different unique
    best rows, and a first extra scenario under which the two samples
    observe the same costs, so no tree gives both their best row there.
    Otherwise zero costs and pool rows that are best for every sample
    are common, and all-zero extra scenarios (``zero_shifts``) let every
    tree meet the bound."""
    if far:
        costs = rng.choice([2.5, 4.0, 7.5], size=(n_samples, 3))
        pool = np.eye(3, dtype=np.int64)[rng.permutation(3)[
            :int(rng.integers(2, 4))]]
        costs[0, np.flatnonzero(pool[0])] = 1.0
        costs[1, np.flatnonzero(pool[1])] = 1.0
    else:
        costs = rng.choice([0.0, 1.0, 2.5, 4.0, 7.5], size=(n_samples, 3))
        pool = rng.integers(0, 2, size=(int(rng.integers(2, 5)), 3))
    ds = Dataset(costs)
    scen = ScenarioSet.zero(n_samples, 3)
    for r in range(n_random):
        xi = (rng.choice([-2.0, -1.0, 0.0, 0.5, 3.0], size=(n_samples, 3))
              * (not zero_shifts))
        if far and r == 0:
            xi[1] = xi[0] + costs[0] - costs[1]
        scen = scen.append(xi)
    return ds, scen, pool


def _meets_bound(ds, pool, obj):
    lb = float((ds.costs @ np.asarray(pool, dtype=np.float64).T)
               .min(axis=1).sum())
    return obj <= lb + 1e-12 * (1.0 + abs(lb))


def test_multi_scenario_master_matches_loop():
    """With 2-4 scenarios, ``solve_master`` (each leaf search cut off at
    the scan's running best) returns bitwise the tree and objective of the
    uncut per-structure loop, and runs the leaf searches, routings and
    cutoffs, that the loop's running best calls for, so it stops where
    the loop stops.  Blocks from the default down to one structure
    and scan windows down to one structure put improvements, certificates
    and window ends inside and across blocks; all-zero extra scenarios
    let the scan reach the relaxation bound and stop inside a block, and
    draws with the bound out of reach scan to the end: at least half of
    all draws do."""
    no_stop = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 2),
           n_random=st.integers(1, 3), zero_shifts=st.booleans(),
           # two draws in three put the bound out of reach
           far=st.sampled_from([False, True, True]),
           block=st.sampled_from([None, 256, 64, 1]),
           time_check=st.sampled_from([None, 5, 1]))
    def check(seed, depth, n_random, zero_shifts, far, block, time_check):
        rng = np.random.default_rng(seed)
        ds, scen, pool = _master_case(rng, int(rng.integers(2, 5)), n_random,
                                      zero_shifts, far)
        searched = []
        assign = exact._assign_leaves

        def recording(values, leafm, n_leaves, cutoff):
            searched.append((leafm.tobytes(), float(cutoff)))
            return assign(values, leafm, n_leaves, cutoff)

        with mock.patch.object(exact, "_assign_leaves", recording), \
                mock.patch.object(kernels, "_BLOCK_ELEMS",
                                  block or kernels._BLOCK_ELEMS), \
                mock.patch.object(exact, "_TIME_CHECK",
                                  time_check or exact._TIME_CHECK):
            rep = solve_master(ds, scen, None, depth=depth, pool=pool)
        tree, obj, searches = oracles.solve_master_loop(ds, scen, pool,
                                                        depth)
        assert rep.tree.items.tobytes() == tree.items.tobytes()
        assert rep.tree.thresholds.tobytes() == tree.thresholds.tobytes()
        assert rep.tree.leaves.tobytes() == tree.leaves.tobytes()
        assert (np.float64(rep.objective).tobytes()
                == np.float64(obj).tobytes())
        assert searched == searches
        assert not (far and _meets_bound(ds, pool, obj))
        no_stop.append(not _meets_bound(ds, pool, obj))

    check()
    assert 2 * sum(no_stop) >= len(no_stop)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 3),
       kind=st.sampled_from(["free", "fixed", "multi"]),
       n_random=st.integers(1, 2), zero_shifts=st.booleans(),
       far=st.booleans(), block=st.sampled_from([None, 64, 1]),
       chunk=st.sampled_from([None, 7, 1]),
       time_check=st.sampled_from([None, 5, 1]))
def test_master_matches_full_odometer(seed, depth, kind, n_random,
                                      zero_shifts, far, block, chunk,
                                      time_check):
    """``solve_master`` scans only canonical structures, yet returns
    bitwise the tree and objective of the loops over every structure:
    free leaves under one scenario, fixed leaves and free leaves under
    two or three scenarios, at depths 1-3, with the relaxation bound met
    or out of reach, and blocks and scan windows down to one structure.
    A depth is lowered until its odometer has at most 3,000 structures,
    which the loops walk fast."""
    rng = np.random.default_rng(seed)
    ds, scen, pool = _master_case(rng, int(rng.integers(2, 4)),
                                  0 if kind == "free" else n_random,
                                  zero_shifts, far)
    n_pat = exact._split_patterns(ds.costs, scen,
                                  build_threshold_catalog(ds))[1].shape[0]
    while depth > 1 and n_pat ** (2 ** depth - 1) > 3000:
        depth -= 1
    fixed = (pool[rng.integers(0, len(pool), size=2 ** depth)]
             if kind == "fixed" else None)
    with mock.patch.object(kernels, "_BLOCK_ELEMS",
                           block or kernels._BLOCK_ELEMS), \
            mock.patch.object(exact, "_CHUNK", chunk or exact._CHUNK), \
            mock.patch.object(exact, "_TIME_CHECK",
                              time_check or exact._TIME_CHECK):
        rep = solve_master(ds, scen, None, depth=depth, pool=pool,
                           fixed_leaves=fixed)
    tree, obj = oracles.solve_master_full(ds, scen, pool, depth, fixed)
    assert rep.tree.items.tobytes() == tree.items.tobytes()
    assert rep.tree.thresholds.tobytes() == tree.thresholds.tobytes()
    assert rep.tree.leaves.tobytes() == tree.leaves.tobytes()
    assert np.float64(rep.objective).tobytes() == np.float64(obj).tobytes()


@pytest.mark.parametrize("solve", [
    lambda ds, space: scenario_generation(ds, UncertaintyBudget.local(1.0),
                                          space, -1),
    lambda ds, space: solve_master(
        ds, ScenarioSet.zero(ds.n_samples, ds.n_items), space, -1),
    lambda ds, space: compute_budget(ds, 0.05, -1, "local"),
], ids=["scenario_generation", "solve_master", "compute_budget"])
def test_negative_depth_is_rejected(demo_dataset, demo_space, solve):
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        solve(demo_dataset, demo_space)


@pytest.mark.parametrize("depth", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("solve", [
    lambda ds, space, d: scenario_generation(ds, UncertaintyBudget.local(1.0),
                                             space, d),
    lambda ds, space, d: solve_master(
        ds, ScenarioSet.zero(ds.n_samples, ds.n_items), space, d),
    lambda ds, space, d: compute_budget(ds, 0.05, d, "local"),
    lambda ds, space, d: DecisionTree(d, [0], [5.0],
                                      space.enumerate()[[0, 1]]),
    lambda ds, space, d: HeuristicConfig(depth=d, max_rounds=1),
], ids=["scenario_generation", "solve_master", "compute_budget",
        "DecisionTree", "HeuristicConfig"])
def test_non_int_depth_is_rejected(demo_dataset, demo_space, solve, depth):
    with pytest.raises(ValueError, match="^depth must be an int"):
        solve(demo_dataset, demo_space, depth)


class TestScenarioGeneration:
    def test_demo_global_budget(self, demo_dataset, demo_space):
        rep = scenario_generation(demo_dataset,
                                  UncertaintyBudget.global_(5.0),
                                  demo_space, depth=2)
        assert rep.objective == 43.0
        assert rep.optimal and rep.converged
        masters = rep.extras["master_objectives"]
        assert len(masters) == rep.iterations
        assert masters == sorted(masters)
        assert rep.master_objective == masters[-1]
        assert rep.objective - rep.master_objective <= 1e-6

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_matches_full_enumeration(self, kind):
        for seed in (0, 1, 2):
            inst = generate_instance(
                InstanceSpec(grid_side=3, n_train=4, n_test=1, seed=seed))
            ds, space = inst.train, inst.space
            budget = compute_budget(ds, 0.1, 1, kind)
            rep = scenario_generation(ds, budget, space, depth=1)
            assert rep.optimal
            ref = oracles.best_tree_value(ds, space, budget, depth=1,
                                          eps=1e-3)
            assert rep.objective == pytest.approx(ref, abs=1e-9)

    def test_repeated_scenario_stalls(self, demo_dataset, demo_space,
                                      monkeypatch):
        xi = np.full((5, 4), 0.25)

        def stuck_adversary(tree, dataset, budget):
            return AdversaryResult(objective=1e9,
                                   assignment=np.zeros(5, dtype=np.int64),
                                   xi=xi, effort=5.0)

        monkeypatch.setattr(adversary, "worst_case", stuck_adversary)
        with pytest.raises(ConvergenceStall):
            scenario_generation(demo_dataset, UncertaintyBudget.local(1.0),
                                demo_space, depth=1)

    def test_master_timeout_reports_exact_worst_case(self, demo_dataset,
                                                     demo_space,
                                                     monkeypatch):
        real = exact.solve_master

        def timed_out_master(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.optimal = rep.converged = False
            return rep

        monkeypatch.setattr(exact, "solve_master", timed_out_master)
        budget = UncertaintyBudget.global_(5.0)
        rep = scenario_generation(demo_dataset, budget, demo_space, depth=2)
        assert not rep.converged and not rep.optimal
        assert rep.iterations == 1
        assert rep.master_objective == rep.extras["master_objectives"][0]
        assert rep.objective == robust_value(rep.tree, demo_dataset, budget)

    def test_time_limit_returns_incumbent(self, demo_dataset, demo_space):
        rep = scenario_generation(demo_dataset,
                                  UncertaintyBudget.global_(5.0),
                                  demo_space, depth=2, time_limit=1e-9)
        assert not rep.converged and not rep.optimal
        assert np.isfinite(rep.objective)


class TestRobustValue:
    def test_dispatches_by_kind(self, demo_dataset, depth1_tree):
        from robust_trees import solve_global, solve_local

        loc = robust_value(depth1_tree, demo_dataset,
                           UncertaintyBudget.local(5.0))
        glo = robust_value(depth1_tree, demo_dataset,
                           UncertaintyBudget.global_(5.0))
        assert loc == solve_local(depth1_tree, demo_dataset, 5.0).objective
        assert glo == solve_global(depth1_tree, demo_dataset, 5.0).objective


class TestPostProcess:
    def _counting(self, monkeypatch):
        """Record the number of threshold rows of each batched evaluation."""
        rows = []
        real = adversary.worst_cases

        def wrapper(tree, thresholds, dataset, budget):
            rows.append(len(thresholds))
            return real(tree, thresholds, dataset, budget)

        monkeypatch.setattr(adversary, "worst_cases", wrapper)
        return rows

    def test_evaluation_count_full_grid(self, demo_dataset, depth1_tree,
                                        monkeypatch):
        calls = self._counting(monkeypatch)
        budget = UncertaintyBudget.global_(5.0)
        post_process(depth1_tree, demo_dataset, budget)
        assert sum(calls) == len(PI_GRID)

    def test_evaluation_count_depth2(self, demo_dataset, depth2_tree,
                                     monkeypatch):
        calls = self._counting(monkeypatch)
        budget = UncertaintyBudget.global_(5.0)
        post_process(depth2_tree, demo_dataset, budget)
        assert sum(calls) == len(PI_GRID) ** 3

    def test_degenerate_threshold_kept_fixed(self, demo_dataset,
                                             monkeypatch):
        # Threshold 5.0 equals an observed value of item 2, so only the
        # other node contributes options.
        leaves = np.stack([SOLUTION_A, SOLUTION_B, SOLUTION_B, SOLUTION_B])
        tree = DecisionTree(2, [0, 2, 2], [5.0, 5.0, 5.0], leaves)
        calls = self._counting(monkeypatch)
        post_process(tree, demo_dataset, UncertaintyBudget.local(1.0))
        assert sum(calls) == len(PI_GRID)

    def test_off_grid_threshold_costs_one_extra(self, demo_dataset,
                                                depth1_tree, monkeypatch):
        shifted = depth1_tree.with_thresholds([4.9])
        calls = self._counting(monkeypatch)
        post_process(shifted, demo_dataset, UncertaintyBudget.global_(5.0))
        assert sum(calls) == len(PI_GRID) + 1
        calls.clear()
        post_process(shifted, demo_dataset, UncertaintyBudget.global_(5.0),
                     input_objective=50.0)
        assert sum(calls) == len(PI_GRID)

    def test_on_grid_input_is_its_own_reference(self, demo_dataset,
                                                depth1_tree):
        # 5.0 is the pi = 0.5 point between the observations 1 and 9 and
        # the only best row at this budget; the first row (8.2) is worse.
        budget = UncertaintyBudget.local(3.5)
        assert post_process(depth1_tree, demo_dataset, budget) is depth1_tree

    @pytest.mark.parametrize("pi", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_weights_outside_unit_interval(self, demo_dataset,
                                                   depth1_tree, pi):
        # A weight of 0 or 1 puts a threshold on an observed value, which
        # can change the nominal routing; the grid must stay inside.
        budget = UncertaintyBudget.local(1.0)
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            post_process(depth1_tree, demo_dataset, budget, pis=(0.5, pi))
        post_process(depth1_tree, demo_dataset, budget, pis=PI_GRID)

    def test_depth_zero_single_evaluation(self, demo_dataset, monkeypatch):
        tree = DecisionTree(0, [], [], SOLUTION_A[None, :])
        calls = self._counting(monkeypatch)
        out = post_process(tree, demo_dataset, UncertaintyBudget.local(1.0))
        assert out is tree
        assert sum(calls) == 1

    def test_returns_input_object_on_tie(self, demo_dataset, demo_space,
                                         depth2_tree):
        budget = UncertaintyBudget.global_(5.0)
        rep = scenario_generation(demo_dataset, budget, demo_space, depth=2)
        out = post_process(rep.tree, demo_dataset, budget, space=demo_space,
                           input_objective=rep.objective)
        assert robust_value(out, demo_dataset, budget) <= rep.objective

    def test_strict_improvement_case(self):
        inst = generate_instance(
            InstanceSpec(grid_side=3, n_train=4, n_test=1, seed=17))
        ds, space = inst.train, inst.space
        budget = compute_budget(ds, 0.1, 1, "local")
        cfg = HeuristicConfig(depth=1, time_limit=30.0, seed=17,
                              max_rounds=1)
        rep = h_tree(ds, budget, space, cfg)
        out = post_process(rep.tree, ds, budget,
                           input_objective=rep.objective)
        assert out is not rep.tree
        before = robust_value(rep.tree, ds, budget)
        after = robust_value(out, ds, budget)
        assert after < before - 1e-9
        assert np.array_equal(out.items, rep.tree.items)
        assert np.array_equal(out.leaves, rep.tree.leaves)

    def test_infeasible_leaf_rejected(self, demo_dataset, depth1_tree,
                                      demo_space):
        bad = depth1_tree.with_leaves(np.array([[1, 0, 1, 0], [0, 0, 1, 1]],
                                               dtype=np.int8))
        with pytest.raises(ValueError, match="feasible"):
            post_process(bad, demo_dataset, UncertaintyBudget.local(1.0),
                         space=demo_space)


# Observations with ties and gaps below EPSILON.
_OBSERVED = st.sampled_from([0.0, 0.5, 1.0, 1.0004, 1.0009, 2.0, 3.25, 7.5])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), depth=st.integers(1, 3), n_items=st.integers(1, 3),
       n_samples=st.integers(2, 6), kind=st.sampled_from(["local", "global"]),
       gamma=st.sampled_from([0.0, 0.3, 1.0, 1e6]),
       reference=st.sampled_from([None, "exact", "above", "below"]),
       one_row_blocks=st.booleans())
def test_post_process_matches_loop(data, depth, n_items, n_samples, kind,
                                   gamma, reference, one_row_blocks):
    """The batched refinement returns the tree the one-tree-at-a-time loop
    returns: thresholds on, between (grid points, catalog midpoints and
    others) and below observations, repeated items, both kinds, any
    reference, with
    the grid in one block or one row per block.  An infinite reference
    returns the first strictly best grid row."""
    costs = data.draw(hnp.arrays(np.float64, (n_samples, n_items),
                                 elements=_OBSERVED))
    ds = Dataset(costs)
    n_nodes = 2 ** depth - 1
    items = data.draw(st.lists(st.integers(0, n_items - 1),
                               min_size=n_nodes, max_size=n_nodes))
    pis = tuple(data.draw(st.lists(st.sampled_from(PI_GRID), min_size=1,
                                   max_size=3 if depth < 3 else 2,
                                   unique=True)))
    thetas = []
    for i in items:
        vals = np.unique(costs[:, i])
        k = data.draw(st.integers(0, vals.size - 1))
        pi = data.draw(st.sampled_from(pis))
        thetas.append(data.draw(st.sampled_from([
            vals[k], vals[k] - 2e-4, vals[k] - 0.3,
            (vals[k - 1] + vals[k]) / 2.0,
            pi * float(vals[k - 1]) + (1.0 - pi) * float(vals[k])])))
    leaves = data.draw(hnp.arrays(np.int8, (2 ** depth, n_items),
                                  elements=st.integers(0, 1)))
    tree = DecisionTree(depth, items, thetas, leaves)
    budget = UncertaintyBudget(kind, gamma)
    ref_obj = None
    if reference is not None:
        ref_obj = robust_value(tree, ds, budget)
        ref_obj += {"exact": 0.0, "above": 0.5, "below": -0.5}[reference]
    grid_elems = exact._GRID_ELEMS
    if one_row_blocks:
        exact._GRID_ELEMS = 1
    try:
        for given_ref in (ref_obj, np.inf):
            out = post_process(tree, ds, budget, pis=pis,
                               input_objective=given_ref)
            ref = oracles.post_process_loop(tree, ds, budget, pis,
                                            input_objective=given_ref)
            assert tree_to_json(out) == tree_to_json(ref)
            assert (out is tree) == (ref is tree)
    finally:
        exact._GRID_ELEMS = grid_elems
