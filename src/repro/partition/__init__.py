"""Partition data structure, constraints, costs and evaluation (paper §2-§3).

The central objects:

* :class:`~repro.partition.partition.Partition` — a disjoint cover of the
  circuit's gates by modules, with cheap move operations;
* :class:`~repro.partition.evaluator.PartitionEvaluator` — precomputes
  every estimator input for a circuit/library/technology triple and
  evaluates partitions either from scratch or incrementally;
* :class:`~repro.partition.state.EvaluationState` — a partition plus all
  cached per-module quantities, updated in O(module) per gate move (the
  paper's "costs are recomputed just for the modified modules").
"""

from repro.partition.partition import Partition
from repro.partition.costs import CostBreakdown
from repro.partition.constraints import ConstraintReport, check_constraints, check_constraints_arrays
from repro.partition.evaluator import ModuleReport, PartitionEvaluation, PartitionEvaluator
from repro.partition.state import EvaluationState
from repro.partition.metrics import PartitionMetrics, compute_metrics, cut_edges, module_components

__all__ = [
    "Partition",
    "CostBreakdown",
    "ConstraintReport",
    "check_constraints",
    "check_constraints_arrays",
    "ModuleReport",
    "PartitionEvaluation",
    "PartitionEvaluator",
    "EvaluationState",
    "PartitionMetrics",
    "compute_metrics",
    "cut_edges",
    "module_components",
]
