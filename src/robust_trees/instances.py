"""Random shortest-path instances for the experiments.

An instance lives on a square grid; each basis scenario assigns every
edge an interval [lower, lower + width] with lower ~ U[1, 10] and
width ~ U[0, 10].  A sample picks a basis scenario uniformly, then draws
each edge cost uniformly from that scenario's interval, so samples from
the same scenario cluster.  Scenario construction, training draws and
test draws use independent child streams of the instance seed, making
every part reproducible in isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import (Dataset, UncertaintyBudget, _dataset_dict,
                    _dataset_from_dict, check_depth)
from .spaces import GridGraph


@dataclass(frozen=True)
class InstanceSpec:
    grid_side: int = 4
    n_train: int = 5
    n_test: int = 1000
    n_scenarios: int = 3
    seed: int = 0
    lower_range: tuple = (1.0, 10.0)
    width_range: tuple = (0.0, 10.0)


@dataclass(frozen=True)
class Instance:
    """A grid, its cost-generating scenarios, and drawn datasets.

    Every basis scenario and every sample has one entry per grid edge, and
    every sample label names a basis scenario, else ``ValueError``.
    """

    grid_side: int
    seed: int
    basis_scenarios: np.ndarray
    train: Dataset
    test: Dataset

    def __post_init__(self):
        n_items = self.space.n_items
        if self.basis_scenarios.shape[1:] != (n_items, 2):
            raise ValueError(f"basis scenarios must be (scenarios, "
                             f"{n_items}, 2) for grid side {self.grid_side}")
        n_scen = self.basis_scenarios.shape[0]
        for name, ds in (("train", self.train), ("test", self.test)):
            if ds.n_items != n_items:
                raise ValueError(f"{name} rows have {ds.n_items} items, grid "
                                 f"side {self.grid_side} has {n_items}")
            if ds.labels is not None and (
                    (ds.labels < 0) | (ds.labels >= n_scen)).any():
                raise ValueError(f"{name} labels must name one of the "
                                 f"{n_scen} basis scenarios")

    @property
    def space(self):
        return GridGraph(self.grid_side)

    @property
    def n_items(self):
        return self.basis_scenarios.shape[1]


def _draw_samples(rng, basis, count):
    n_scen, n_items, _ = basis.shape
    which = rng.integers(n_scen, size=count)
    lo = basis[which, :, 0]
    hi = basis[which, :, 1]
    costs = rng.uniform(lo, hi, size=(count, n_items))
    return Dataset(costs, labels=which)


def generate_instance(spec):
    space = GridGraph(spec.grid_side)
    n_items = space.n_items
    seq = np.random.SeedSequence(spec.seed)
    scen_rng, train_rng, test_rng = (np.random.default_rng(c)
                                     for c in seq.spawn(3))
    lower = scen_rng.uniform(*spec.lower_range,
                             size=(spec.n_scenarios, n_items))
    width = scen_rng.uniform(*spec.width_range,
                             size=(spec.n_scenarios, n_items))
    basis = np.stack([lower, lower + width], axis=2)
    basis.setflags(write=False)
    return Instance(
        grid_side=spec.grid_side,
        seed=spec.seed,
        basis_scenarios=basis,
        train=_draw_samples(train_rng, basis, spec.n_train),
        test=_draw_samples(test_rng, basis, spec.n_test),
    )


def instance_to_json(instance):
    return json.dumps({
        "grid_side": instance.grid_side,
        "seed": instance.seed,
        "basis_scenarios": [
            [[float(lo), float(hi)] for lo, hi in scen]
            for scen in instance.basis_scenarios
        ],
        "train": _dataset_dict(instance.train),
        "test": _dataset_dict(instance.test),
    })


def instance_from_json(text):
    d = json.loads(text)
    basis = np.asarray(d["basis_scenarios"], dtype=np.float64)
    basis.setflags(write=False)
    return Instance(
        grid_side=int(d["grid_side"]),
        seed=int(d["seed"]),
        basis_scenarios=basis,
        train=_dataset_from_dict(d["train"]),
        test=_dataset_from_dict(d["test"]),
    )


def max_item_range(dataset):
    """Largest spread of any single item's cost over the dataset."""
    costs = dataset.costs
    return float((costs.max(axis=0) - costs.min(axis=0)).max())


def compute_budget(dataset, lam, depth, kind, coupling="N"):
    """Budget scaled to the data: gamma = lam * depth * (largest item
    spread), per sample.  A shared budget covers all samples, so with
    coupling "N" the per-sample amount is multiplied by the sample
    count; coupling "1" keeps the shared budget equal to one sample's
    amount, a much stingier adversary.
    """
    check_depth(depth)
    gamma = lam * depth * max_item_range(dataset)
    if kind == "local":
        return UncertaintyBudget.local(gamma)
    if kind != "global":
        raise ValueError(f"unknown budget kind {kind!r}")
    if coupling == "N":
        return UncertaintyBudget.global_(gamma * dataset.n_samples)
    if coupling == "1":
        return UncertaintyBudget.global_(gamma)
    raise ValueError(f"unknown coupling {coupling!r}")
