from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from robust_trees import (
    EPSILON,
    CapExceeded,
    Dataset,
    DecisionTree,
    InfeasibleTarget,
    InstanceSpec,
    UncertaintyBudget,
    assignment_objective,
    build_threshold_catalog,
    compute_budget,
    generate_instance,
    leaf_values,
    nominal_objective,
    optimize_leaves_local,
    per_sample_optima,
    perturbation_cost,
    reconstruct_perturbation,
    sample_random_structure,
    scenario_generation,
    solve_global,
    solve_local,
)
from robust_trees import adversary
from robust_trees.adversary import worst_case, worst_cases

GAMMA_GRID = (0.0, 0.3, 1.0, 3.0, 10.0)


def random_case(rng, n_samples=5, n_items=4, depth=2):
    costs = np.round(rng.uniform(0, 10, size=(n_samples, n_items)), 3)
    ds = Dataset(costs)
    catalog = build_threshold_catalog(ds)
    items, thetas = sample_random_structure(catalog, depth, rng)
    leaves = rng.integers(0, 2, size=(2 ** depth, n_items)).astype(np.int8)
    return ds, DecisionTree(depth, items, thetas, leaves)


class TestPerturbationCost:
    def test_matches_reference_on_demo(self, demo_dataset, depth1_tree,
                                       depth2_tree):
        for tree in (depth1_tree, depth2_tree):
            rho = perturbation_cost(tree, demo_dataset).rho
            ref = oracles.effort_matrix(tree, demo_dataset, eps=1e-3)
            assert np.array_equal(rho, ref)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_reference_random(self, depth):
        rng = np.random.default_rng(21 + depth)
        for _ in range(25):
            ds, tree = random_case(rng, depth=depth)
            rho = perturbation_cost(tree, ds).rho
            ref = oracles.effort_matrix(tree, ds, eps=1e-3)
            assert np.array_equal(rho, ref)

    def test_nominal_leaf_costs_nothing(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            ds, tree = random_case(rng)
            eff = perturbation_cost(tree, ds)
            rows = np.arange(ds.n_samples)
            assert (eff.rho[rows, eff.nominal_leaf] == 0.0).all()
            assert (eff.rho >= 0.0).all()

    def test_contradictory_leaf_is_unreachable(self, demo_dataset):
        # Left-then-right on the same item demands <= 2.5 and >= 7.501.
        leaves = np.zeros((4, 4), dtype=np.int8)
        tree = DecisionTree(2, [0, 0, 1], [2.5, 7.5, 5.0], leaves)
        rho = perturbation_cost(tree, demo_dataset).rho
        assert np.isinf(rho[:, 1]).all()
        assert np.isfinite(rho[:, [0, 2, 3]]).all()
        with pytest.raises(InfeasibleTarget):
            reconstruct_perturbation(tree, demo_dataset,
                                     np.ones(5, dtype=np.int64))

    def test_item_count_mismatch(self, depth1_tree):
        with pytest.raises(ValueError):
            perturbation_cost(depth1_tree, Dataset(np.ones((2, 3))))


class TestNominalLeafInsideMargin:
    """Sample 2 of this instance lies less than eps above a threshold of
    the certified depth-2 tree at a zero per-sample budget: its nominal
    leaf is outside that leaf's box, but the zero shift reaches it."""

    @pytest.fixture(scope="class")
    def case(self):
        inst = generate_instance(InstanceSpec(grid_side=3, n_train=4,
                                              n_test=1, seed=1189995888))
        ds = inst.train
        rep = scenario_generation(ds, UncertaintyBudget.local(0.0),
                                  inst.space, depth=2)
        assert rep.optimal
        return ds, rep.tree

    def test_nominal_effort_is_zero(self, case):
        ds, tree = case
        eff = perturbation_cost(tree, ds)
        rows = np.arange(ds.n_samples)
        assert oracles.effort(tree, ds.costs[2], eff.nominal_leaf[2],
                              eps=1e-3) > 0.0
        assert (eff.rho[rows, eff.nominal_leaf] == 0.0).all()

    def test_nominal_leaf_with_empty_box(self):
        # Right at item 0 > 1.0, then left at item 0 <= 1.0005: the box of
        # leaf 2 demands obs >= 1.001 and <= 1.0005, yet 1.0003 lands there.
        ds = Dataset(np.array([[1.0003, 0.0], [5.0, 0.0]]))
        leaves = np.eye(4, 2, dtype=np.int8)
        tree = DecisionTree(2, [0, 1, 0], [1.0, 0.5, 1.0005], leaves)
        eff = perturbation_cost(tree, ds)
        assert eff.nominal_leaf.tolist() == [2, 3]
        assert eff.rho[0, 2] == 0.0 and np.isinf(eff.rho[1, 2])
        res = solve_local(tree, ds, 0.0)
        assert res.assignment.tolist() == [2, 3]
        assert (res.xi == 0.0).all()
        with pytest.raises(InfeasibleTarget):
            reconstruct_perturbation(tree, ds, np.array([2, 2]))

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_batch_matches_one_tree_at_a_time(self, case, kind):
        ds, tree = case
        shifts = (0.0, -2e-4, 0.05)
        rows = np.array([tree.thresholds + d for d in shifts]
                        + [tree.thresholds + (d, 0.0, -d) for d in shifts])
        for gamma in (0.0, 0.05, 1e6):
            _assert_batch_matches(tree, rows, ds, UncertaintyBudget(kind,
                                                                    gamma))

    @pytest.mark.parametrize("solve", [solve_local, solve_global])
    def test_zero_budget_witness_replays(self, case, solve):
        ds, tree = case
        res = solve(tree, ds, 0.0)
        nominal = tree.traverse_batch(ds.costs)
        assert np.array_equal(res.assignment, nominal)
        assert np.array_equal(tree.traverse_batch(ds.costs + res.xi),
                              res.assignment)
        assert np.abs(res.xi).sum() <= 0.0
        assert res.effort == 0.0
        assert res.objective == nominal_objective(tree, ds)


class TestWitness:
    def test_witness_routes_and_spends_the_effort(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            ds, tree = random_case(rng)
            eff = perturbation_cost(tree, ds)
            for leaf in range(tree.n_leaves):
                if not np.isfinite(eff.rho[:, leaf]).all():
                    continue
                assignment = np.full(ds.n_samples, leaf, dtype=np.int64)
                xi = reconstruct_perturbation(tree, ds, assignment)
                routed = tree.traverse_batch(ds.costs + xi)
                assert np.array_equal(routed, assignment)
                spent = np.abs(xi).sum(axis=1)
                assert np.allclose(spent, eff.rho[:, leaf], atol=1e-9)

    def test_upper_edge_rounding_regression(self):
        # Chosen so that cost + (edge - cost) rounds one ulp above the
        # edge; the witness must still route the sample left.
        theta = 0.8132702392002724
        cost = 9.94082601197749
        assert cost + (theta - cost) > theta
        ds = Dataset(np.array([[cost, 1.0]]))
        tree = DecisionTree(1, [0], [theta],
                            np.array([[1, 0], [0, 1]], dtype=np.int8))
        xi = reconstruct_perturbation(tree, ds, np.array([0]))
        assert ds.costs[0, 0] + xi[0, 0] <= theta
        assert tree.traverse(ds.costs[0] + xi[0]) == 0


class TestSolveLocal:
    def test_demo_goldens(self, demo_dataset, depth1_tree, depth2_tree):
        assert solve_local(depth1_tree, demo_dataset, 1.0).objective == 36.0
        assert solve_local(depth1_tree, demo_dataset, 5.0).objective == 64.0
        assert solve_local(depth2_tree, demo_dataset, 5.0).objective == 43.0

    def test_matches_reference(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            ds, tree = random_case(rng)
            gamma = float(rng.uniform(0, 6))
            got = solve_local(tree, ds, gamma).objective
            ref = oracles.adversary_local(tree, ds, gamma, eps=1e-3)
            assert got == pytest.approx(ref, abs=1e-9)

    def test_assignment_recomputes_to_objective(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            ds, tree = random_case(rng)
            res = solve_local(tree, ds, float(rng.uniform(0, 6)))
            vals = leaf_values(ds, tree)
            rows = np.arange(ds.n_samples)
            assert res.objective == float(vals[rows, res.assignment].sum())

    def test_prefers_nominal_leaf_on_ties(self):
        ds = Dataset(np.array([[2.0, 2.0], [2.0, 2.0]]))
        tree = DecisionTree(1, [0], [3.0],
                            np.array([[1, 0], [0, 1]], dtype=np.int8))
        res = solve_local(tree, ds, gamma=10.0)
        assert res.assignment.tolist() == [0, 0]
        assert (res.xi == 0).all()

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            ds, tree = random_case(rng)
            values = [solve_local(tree, ds, g).objective for g in GAMMA_GRID]
            assert values == sorted(values)
            assert values[0] == nominal_objective(tree, ds)


class TestSolveGlobal:
    def test_demo_goldens(self, demo_dataset, depth1_tree, depth2_tree):
        assert solve_global(depth1_tree, demo_dataset, 5.0).objective == 50.0
        assert solve_global(depth2_tree, demo_dataset, 5.0).objective == 43.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            ds, tree = random_case(rng, n_samples=4,
                                   depth=int(rng.integers(1, 3)))
            gamma = float(rng.uniform(0, 6))
            fast = solve_global(tree, ds, gamma)
            brute = oracles.brute_force_global(tree, ds, gamma)
            assert fast.objective == brute.objective

    def test_matches_reference(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            ds, tree = random_case(rng, n_samples=4)
            gamma = float(rng.uniform(0, 6))
            got = solve_global(tree, ds, gamma).objective
            ref = oracles.adversary_global(tree, ds, gamma, eps=1e-3)
            assert got == pytest.approx(ref, abs=1e-9)

    def test_monotone_and_bounded_by_local(self):
        rng = np.random.default_rng(63)
        for _ in range(15):
            ds, tree = random_case(rng)
            values = [solve_global(tree, ds, g).objective for g in GAMMA_GRID]
            assert values == sorted(values)
            assert values[0] == nominal_objective(tree, ds)
            for g in GAMMA_GRID:
                assert (solve_global(tree, ds, g).objective
                        <= solve_local(tree, ds, g).objective)

    def test_unbounded_budget_matches_local(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            ds, tree = random_case(rng)
            assert (solve_global(tree, ds, 1e9).objective
                    == solve_local(tree, ds, 1e9).objective)

    def test_brute_force_cap(self):
        rng = np.random.default_rng(65)
        ds, tree = random_case(rng, n_samples=13, n_items=4, depth=2)
        with pytest.raises(CapExceeded):
            oracles.brute_force_global(tree, ds, 1e6)


@pytest.mark.parametrize("gamma", [-1.0, np.inf, np.nan])
@pytest.mark.parametrize("call", ["solve_local", "solve_global",
                                  "worst_cases", "optimize_leaves_local"])
def test_rejects_gamma_not_finite_and_nonnegative(call, gamma):
    """A negative, infinite or NaN budget raises.  A NaN budget reaches no
    leaf: unchecked, it put every sample on leaf 0 (the argmax of an
    all -inf row), gave the zero-budget value under a shared budget, and
    ran the leaf search on an all-False reach matrix."""
    ds, tree = random_case(np.random.default_rng(1))
    # UncertaintyBudget rejects these values itself; a plain namespace
    # reaches the adversary's own check
    budget = SimpleNamespace(kind="global", gamma=gamma)
    calls = {
        "solve_local": lambda: solve_local(tree, ds, gamma),
        "solve_global": lambda: solve_global(tree, ds, gamma),
        "worst_cases": lambda: worst_cases(tree, tree.thresholds[None], ds,
                                           budget),
        "optimize_leaves_local": lambda: optimize_leaves_local(
            tree, ds, gamma, tree.leaves),
    }
    with pytest.raises(ValueError, match="finite and >= 0"):
        calls[call]()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 8.0))
def test_local_value_within_structural_bounds(seed, gamma):
    rng = np.random.default_rng(seed)
    ds, tree = random_case(rng)
    value = solve_local(tree, ds, gamma).objective
    vals = leaf_values(ds, tree)
    assert nominal_objective(tree, ds) <= value + 1e-9
    assert value <= float(vals.max(axis=1).sum()) + 1e-9


def _assert_batch_matches(tree, rows, dataset, budget):
    """Each batched value is bitwise the one-tree worst case of its row,
    and each batched effort row bitwise the reference effort matrix."""
    got = worst_cases(tree, rows, dataset, budget)
    _, _, rho = adversary._efforts(tree, rows, dataset)
    assert got.shape == rho.shape[:1] == (len(rows),)
    for r, row in enumerate(rows):
        one = tree.with_thresholds(row)
        ref = worst_case(one, dataset, budget).objective
        assert np.float64(got[r]).tobytes() == np.float64(ref).tobytes()
        ref_rho = oracles.effort_matrix(one, dataset, eps=EPSILON)
        assert rho[r].tobytes() == ref_rho.tobytes()
        if tree.n_leaves ** dataset.n_samples <= 4096:
            assert got[r] == pytest.approx(
                oracles.adversary_value(one, dataset, budget, EPSILON),
                abs=1e-9)
    return got


# Observations with ties and gaps below EPSILON; thresholds sit on an
# observation or up to 0.25 below it, some within EPSILON.
_OBSERVED = st.sampled_from([0.0, 0.5, 1.0, 1.0004, 1.0009, 2.0, 3.25, 7.5])
_BELOW = st.sampled_from([0.0, 2e-4, 5e-4, EPSILON, 0.25])


@st.composite
def _batch_case(draw, max_depth=3, max_rows=5):
    """A tree over few items (so items repeat on a path and some boxes
    are empty), its dataset, and rows of thresholds near observations."""
    depth = draw(st.integers(1, max_depth))
    n_items = draw(st.integers(1, 3))
    n_samples = draw(st.integers(1, 6))
    costs = draw(hnp.arrays(np.float64, (n_samples, n_items),
                            elements=_OBSERVED))
    n_nodes = 2 ** depth - 1
    items = draw(st.lists(st.integers(0, n_items - 1), min_size=n_nodes,
                          max_size=n_nodes))
    leaves = draw(hnp.arrays(np.int8, (2 ** depth, n_items),
                             elements=st.integers(0, 1)))
    rows = [[costs[draw(st.integers(0, n_samples - 1)), i] - draw(_BELOW)
             for i in items]
            for _ in range(draw(st.integers(1, max_rows)))]
    tree = DecisionTree(depth, items, rows[0], leaves)
    return Dataset(costs), tree, np.array(rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_batch_case(), kind=st.sampled_from(["local", "global"]),
       gamma=st.sampled_from([0.0, 3e-4, 0.3, 1.0, 1e6]))
def test_batch_matches_one_tree_at_a_time(case, kind, gamma):
    dataset, tree, rows = case
    _assert_batch_matches(tree, rows, dataset, UncertaintyBudget(kind, gamma))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_batch_case(), data=st.data())
def test_shifts_match_the_add_at_scatter(case, data):
    """The witness scatter assigns slots last to first, so an open slot
    (a repeated item, +0.0 shift) never overwrites its item's bound slot;
    the shifts are bitwise those of adding every slot with ``np.add.at``.
    Few items on depth 1-3 paths make repeated items common."""
    dataset, tree, rows = case
    boxes = adversary._boxes(tree, rows)
    empty = (boxes.lo > boxes.hi).any(axis=2)
    assignment = data.draw(hnp.arrays(
        np.int64, (len(rows), dataset.n_samples),
        elements=st.integers(0, tree.n_leaves - 1)))
    try:
        ref = oracles.shifts_add_at(dataset.costs, boxes, empty, assignment)
    except InfeasibleTarget:
        with pytest.raises(InfeasibleTarget):
            adversary._shifts(dataset.costs, boxes, empty, assignment)
        return
    got = adversary._shifts(dataset.costs, boxes, empty, assignment)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _case(costs, items, thresholds, leaves):
    thresholds = np.array(thresholds, dtype=np.float64)
    tree = DecisionTree(int(np.log2(len(leaves))), items, thresholds,
                        np.array(leaves, dtype=np.int8))
    return Dataset(np.array(costs)), tree, thresholds[None]


# Sample 0 gains 5 at leaves 1 and 2, both at effort 1 + EPSILON.
_EQUAL_TOPS = _case([[0.0, 0.0, 5.0], [4.0, 4.0, 1.0]], [0, 1, 1],
                    [1.0, 1.0, 1.0], [[0, 0, 0], [0, 0, 1], [0, 0, 1],
                                      [1, 1, 0]])
# At gamma equal to the summed top efforts, rounding in the search's
# budget arithmetic leaves one top upgrade out.
_ROUNDING = _case([[1.4, 2.4], [0.7, 0.2], [1.2, 0.6]], [0], [0.3],
                  [[1, 1], [0, 0]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_batch_case(), kind=st.sampled_from(["local", "global"]),
       gamma=st.sampled_from([0.0, 3e-4, 0.3, 1.0, 1e6]),
       edge=st.sampled_from([None, -0.5, 0.0, 0.5, 1.5]),
       row=st.integers(0, 4))
@example(case=_EQUAL_TOPS, kind="global", gamma=3.0, edge=None, row=0)
@example(case=_ROUNDING, kind="global", gamma=0.0, edge=0.0, row=0)
def test_no_search_rows_match_the_search(case, kind, gamma, edge, row):
    """Rows whose top upgrades all fit skip the shared-budget search; every
    row is still bitwise what the search on every row gives.  Few items
    and 0/1 leaves give equal gains at different efforts and leaves.  An
    ``edge`` sets gamma to one row's summed top efforts plus ``edge``
    times the fit margin: short of the sum (-0.5), at it (0), within the
    margin (0.5, searched) and just past it (1.5, not searched)."""
    dataset, tree, rows = case
    if edge is not None:
        # under an ample budget every sample takes its top upgrade
        spent = oracles.solve_rows_search(tree, rows, dataset, "global",
                                          1e6)[3][row % len(rows)]
        gamma = max(0.0, spent + edge * adversary._FIT_MARGIN * (1.0 + spent))
    got = adversary._solve(tree, rows, dataset, kind, gamma)
    ref = oracles.solve_rows_search(tree, rows, dataset, kind, gamma)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["local", "global"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_objectives_are_canonical_sums_over_many_samples(seed, kind):
    """With enough samples that NumPy sums them pairwise (8 or more),
    batched and one-tree objectives are still bitwise the canonical
    ``assignment_objective`` of the chosen assignment."""
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.uniform(0, 10, size=(23, 4)))
    items, thetas = sample_random_structure(build_threshold_catalog(ds), 2,
                                            rng)
    tree = DecisionTree(2, items, thetas,
                        rng.integers(0, 2, size=(4, 4)).astype(np.int8))
    values = leaf_values(ds, tree)
    rows = np.array([tree.thresholds - d for d in (0.0, 0.4, 1.3)])
    for lam in (0.0, 0.05, 0.3):
        budget = compute_budget(ds, lam, tree.depth, kind)
        got = worst_cases(tree, rows, ds, budget)
        for r, row in enumerate(rows):
            res = worst_case(tree.with_thresholds(row), ds, budget)
            ref = assignment_objective(values, res.assignment)
            assert np.float64(res.objective).tobytes() == \
                np.float64(ref).tobytes()
            assert np.float64(got[r]).tobytes() == np.float64(ref).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-4, 1e6]),
       kind=st.sampled_from(["local", "global"]), depth=st.integers(1, 2))
def test_cost_scale_witness_and_monotone(seed, scale, kind, depth):
    """Scaled costs make the absolute EPSILON margin huge (1e-4) or tiny
    (1e6) against the cost spread: witnesses still replay within the
    budget, and the worst case never falls as the budget grows."""
    inst = generate_instance(InstanceSpec(grid_side=3, n_train=5, n_test=1,
                                          seed=seed))
    ds = Dataset(inst.train.costs * scale)
    rng = np.random.default_rng(seed)
    items, thetas = sample_random_structure(build_threshold_catalog(ds),
                                            depth, rng)
    optima = per_sample_optima(ds, inst.space)
    tree = DecisionTree(depth, items, thetas,
                        optima[rng.integers(len(optima), size=2 ** depth)])
    previous = -np.inf
    for lam in (0.0, 0.01, 0.05, 0.1, 0.2, 0.5):
        budget = compute_budget(ds, lam, depth, kind)
        res = worst_case(tree, ds, budget)
        assert np.array_equal(tree.traverse_batch(ds.costs + res.xi),
                              res.assignment)
        spent = np.abs(res.xi).sum(axis=1)
        if kind == "global":
            spent = spent.sum()
        assert np.all(spent <= budget.gamma * (1 + 1e-9))
        assert res.objective >= previous - 1e-12 * abs(previous)
        previous = res.objective


_GAMMAS = st.one_of(st.sampled_from([0.0, 3e-4, EPSILON, 0.3, 1.0, 1e6]),
                    st.floats(0.0, 1e6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_batch_case(max_rows=1), data=st.data(),
       budgets=st.lists(st.tuples(st.sampled_from(["local", "global"]),
                                  _GAMMAS), min_size=1, max_size=4))
def test_one_effort_pass_serves_every_leaf_tuple(case, data, budgets):
    """One ``efforts`` pass of a structure, evaluated by
    ``worst_case_against`` for several leaf tuples and budgets, is bitwise
    ``worst_case`` of each filled tree: objective, assignment, witness and
    effort.  Depth 1-3 over few items gives repeated items, empty boxes
    and thresholds within EPSILON of an observation."""
    dataset, tree, _ = case
    eff = adversary.efforts(tree, dataset)
    for _ in range(data.draw(st.integers(1, 3))):
        leaves = data.draw(hnp.arrays(np.int8, tree.leaves.shape,
                                      elements=st.integers(0, 1)))
        filled = tree.with_leaves(leaves)
        values = leaf_values(dataset, filled)
        for kind, gamma in budgets:
            got = adversary.worst_case_against(eff, dataset, values, kind,
                                               gamma)
            ref = worst_case(filled, dataset, UncertaintyBudget(kind, gamma))
            for a, b in ((got.objective, ref.objective),
                         (got.effort, ref.effort),
                         (got.assignment, ref.assignment), (got.xi, ref.xi)):
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_worst_case_against_rejects_mismatched_values(depth2_tree,
                                                      demo_dataset):
    eff = adversary.efforts(depth2_tree, demo_dataset)
    with pytest.raises(ValueError, match="leaf values"):
        adversary.worst_case_against(eff, demo_dataset, np.zeros((5, 2)),
                                     "local", 1.0)
