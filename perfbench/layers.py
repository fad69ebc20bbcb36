"""Per-layer call counts and self times, gathered from outside the package.

``Tracer`` replaces every binding of each listed public function with a
timing wrapper: the attribute in the defining module and every
``robust_trees`` module that imported it by name (``experiments.robust_value``,
``heuristics.scenario_generation``, the package namespace, ...).  Leaving
the ``with`` block restores the originals.

A wrapped call is a span.  Its self time is its duration minus the time
covered by the wrapped calls made inside it, so the self times of all
layers add up to the time spent inside the outermost wrapped calls.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = {
    "kernels": ("assign_minmax", "assign_reach", "scan_structures_free",
                "scan_structures_fixed", "mckp_search", "effort_matrix",
                "grid_min_path"),
    "adversary": ("perturbation_cost", "reconstruct_perturbation",
                  "solve_local", "solve_global"),
    "exact": ("solve_master", "scenario_generation", "post_process",
              "robust_value"),
    "heuristics": ("optimize_leaves_local", "optimize_leaves_global",
                   "h_tree", "h_sol", "h_alt"),
    "experiments": ("exp_correlation",),
    "model": ("leaf_values",),
    "spaces": ("GridGraph.min_linear", "GridGraph.enumerate"),
    "instances": ("generate_instance",),
}

SPANS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Counters read off the return values of these spans.
_ITERATIONS = ("exact.scenario_generation",)
_ROUNDS = ("heuristics.h_tree", "heuristics.h_sol", "heuristics.h_alt")


class Tracer:
    """Context manager that wraps the ``LAYERS`` functions while active."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.iterations = 0
        self.rounds = 0
        self._child_s = [0.0]
        self._undo = []

    def _wrap(self, span, fn):
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.calls[span] += 1
                self.self_s[span] += took - self._child_s.pop()
                self._child_s[-1] += took
            if span in _ITERATIONS:
                self.iterations += out.iterations
            elif span in _ROUNDS:
                self.rounds += out.extras["rounds"]
            return out

        return functools.update_wrapper(traced, fn)

    def _bind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "robust_trees" or name.startswith("robust_trees.")]
        for mod_name, names in LAYERS.items():
            module = importlib.import_module(f"robust_trees.{mod_name}")
            for name in names:
                span = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    self._bind(cls, attr, self._wrap(span, cls.__dict__[attr]))
                    continue
                original = getattr(module, name)
                traced = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, traced)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
