"""Robust decision-tree policies for linear combinatorial optimization.

A decision tree maps an observed cost vector to a feasible solution of a
combinatorial problem (shortest path, selection, or an explicit list).
This package fits trees that stay good when the observations the tree
routes on are corrupted by a budgeted adversary, while the objective is
always charged at the true costs.
"""

from .adversary import (AdversaryResult, PerturbationEffort,
                        perturbation_cost, reconstruct_perturbation,
                        solve_global, solve_local)
from .errors import (CapExceeded, ConvergenceStall, DegenerateVariance,
                     InfeasibleTarget, NoSplitAvailable, RobustTreesError)
from .exact import (PI_GRID, ScenarioSet, SolveReport, post_process,
                    robust_value, scenario_generation, solve_master)
from .experiments import (default_sweep_lambdas, exp_correlation,
                          exp_lambda_sweep, exp_relative_tables, pearson_r,
                          write_csv)
from .heuristics import (HeuristicConfig, h1, h_alt, h_sol, h_tree,
                         optimize_leaves_global, optimize_leaves_local,
                         per_sample_optima, sample_random_structure)
from .instances import (Instance, InstanceSpec, compute_budget,
                        generate_instance, instance_from_json,
                        instance_to_json, max_item_range)
from .model import (EPSILON, OBJECTIVE_TOL, Dataset, DecisionTree,
                    ThresholdCatalog, UncertaintyBudget,
                    assignment_objective, build_threshold_catalog,
                    dataset_from_json, dataset_to_json, leaf_values,
                    nominal_objective, tree_from_json, tree_to_json)
from .spaces import ENUMERATION_CAP, ExplicitSpace, GridGraph, SelectionSpace

__version__ = "0.1.0"

__all__ = [
    "AdversaryResult", "CapExceeded", "ConvergenceStall", "Dataset",
    "DecisionTree", "DegenerateVariance", "ENUMERATION_CAP", "EPSILON",
    "ExplicitSpace", "GridGraph", "HeuristicConfig", "InfeasibleTarget",
    "Instance", "InstanceSpec", "NoSplitAvailable", "OBJECTIVE_TOL",
    "PI_GRID", "PerturbationEffort", "RobustTreesError", "ScenarioSet",
    "SelectionSpace", "SolveReport", "ThresholdCatalog",
    "UncertaintyBudget", "assignment_objective",
    "build_threshold_catalog", "compute_budget", "dataset_from_json",
    "dataset_to_json", "default_sweep_lambdas", "exp_correlation",
    "exp_lambda_sweep", "exp_relative_tables", "generate_instance", "h1",
    "h_alt", "h_sol", "h_tree", "instance_from_json", "instance_to_json",
    "leaf_values", "max_item_range", "nominal_objective",
    "optimize_leaves_global", "optimize_leaves_local", "pearson_r",
    "per_sample_optima", "perturbation_cost", "post_process",
    "reconstruct_perturbation", "robust_value", "sample_random_structure",
    "scenario_generation", "solve_global", "solve_local", "solve_master",
    "tree_from_json", "tree_to_json", "write_csv",
]
