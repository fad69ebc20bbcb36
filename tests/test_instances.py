import json

import numpy as np
import pytest

from robust_trees import (
    Dataset,
    InstanceSpec,
    compute_budget,
    generate_instance,
    instance_from_json,
    instance_to_json,
    max_item_range,
)


class TestGenerateInstance:
    def test_deterministic(self):
        spec = InstanceSpec(grid_side=3, n_train=4, n_test=8, seed=42)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert np.array_equal(a.basis_scenarios, b.basis_scenarios)
        assert np.array_equal(a.train.costs, b.train.costs)
        assert np.array_equal(a.test.costs, b.test.costs)

    def test_train_independent_of_test_size(self):
        small = generate_instance(InstanceSpec(grid_side=3, n_train=4,
                                               n_test=2, seed=5))
        large = generate_instance(InstanceSpec(grid_side=3, n_train=4,
                                               n_test=50, seed=5))
        assert np.array_equal(small.train.costs, large.train.costs)
        assert np.array_equal(small.basis_scenarios,
                              large.basis_scenarios)

    def test_samples_lie_in_their_scenario_interval(self):
        inst = generate_instance(InstanceSpec(grid_side=3, n_train=20,
                                              n_test=30, seed=1))
        basis = inst.basis_scenarios
        for ds in (inst.train, inst.test):
            assert ds.labels is not None
            assert ds.labels.min() >= 0
            assert ds.labels.max() < basis.shape[0]
            lo = basis[ds.labels, :, 0]
            hi = basis[ds.labels, :, 1]
            assert (ds.costs >= lo).all()
            assert (ds.costs <= hi).all()

    def test_shapes(self):
        inst = generate_instance(InstanceSpec(grid_side=4, n_train=5,
                                              n_test=7, seed=0))
        assert inst.n_items == 24
        assert inst.space.n_items == 24
        assert inst.basis_scenarios.shape == (3, 24, 2)
        assert inst.train.costs.shape == (5, 24)
        assert inst.test.costs.shape == (7, 24)

    def test_json_round_trip_is_exact(self):
        inst = generate_instance(InstanceSpec(grid_side=3, n_train=4,
                                              n_test=6, seed=11))
        back = instance_from_json(instance_to_json(inst))
        assert back.grid_side == inst.grid_side
        assert back.seed == inst.seed
        assert np.array_equal(back.basis_scenarios, inst.basis_scenarios)
        assert np.array_equal(back.train.costs, inst.train.costs)
        assert np.array_equal(back.train.labels, inst.train.labels)
        assert np.array_equal(back.test.costs, inst.test.costs)

    @pytest.mark.parametrize("part, n_items", [
        ("train", 12), ("test", 12), ("train", 5), ("test", 5),
        ("basis_scenarios", None)])
    def test_rows_of_the_wrong_width_fail_at_load(self, part, n_items):
        """Rows cut to 5 of a 3-grid's 12 items: against the stored
        ``n_items``, or, with ``n_items`` cut too, against the grid."""
        inst = generate_instance(InstanceSpec(grid_side=3, n_train=4,
                                              n_test=6, seed=11))
        raw = json.loads(instance_to_json(inst))
        if part == "basis_scenarios":
            raw[part] = [scen[:5] for scen in raw[part]]
        else:
            raw[part]["n_items"] = n_items
            raw[part]["samples"] = [row[:5] for row in raw[part]["samples"]]
        with pytest.raises(ValueError, match="n_items|grid side 3"):
            instance_from_json(json.dumps(raw))

    @pytest.mark.parametrize("part, label", [("train", 7), ("test", 3),
                                             ("train", -1)])
    def test_labels_naming_no_scenario_fail_at_load(self, part, label):
        inst = generate_instance(InstanceSpec(grid_side=3, n_train=4,
                                              n_test=6, seed=11))
        raw = json.loads(instance_to_json(inst))
        raw[part]["labels"][0] = label
        with pytest.raises(ValueError, match=f"{part} labels .* 3 basis"):
            instance_from_json(json.dumps(raw))


class TestBudgets:
    def test_max_item_range(self):
        ds = Dataset(np.array([[0.0, 5.0, 2.0],
                               [10.0, 6.0, 2.0],
                               [4.0, 9.0, 2.0]]))
        assert max_item_range(ds) == 10.0

    def test_budget_sizes_from_spread(self):
        # Spread 10, lam 0.05, depth 2: one unit per sample; the shared
        # budget is either that once or once per sample.
        costs = np.zeros((5, 3))
        costs[:, 0] = [0.0, 2.0, 5.0, 7.0, 10.0]
        ds = Dataset(costs + 1.0)
        loc = compute_budget(ds, 0.05, 2, "local")
        assert (loc.kind, loc.gamma) == ("local", 1.0)
        glob_n = compute_budget(ds, 0.05, 2, "global", coupling="N")
        assert (glob_n.kind, glob_n.gamma) == ("global", 5.0)
        glob_1 = compute_budget(ds, 0.05, 2, "global", coupling="1")
        assert (glob_1.kind, glob_1.gamma) == ("global", 1.0)

    def test_zero_depth_means_zero_budget(self):
        ds = Dataset(np.array([[1.0], [3.0]]))
        assert compute_budget(ds, 0.2, 0, "local").gamma == 0.0

    def test_validation(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            compute_budget(ds, 0.1, 1, "per-item")
        with pytest.raises(ValueError):
            compute_budget(ds, 0.1, 1, "global", coupling="2N")
