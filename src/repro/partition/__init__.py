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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "partition": ("Partition",),
        "costs": ("CostBreakdown",),
        "constraints": ("ConstraintReport", "check_constraints", "check_constraints_arrays"),
        "evaluator": ("ModuleReport", "PartitionEvaluation", "PartitionEvaluator"),
        "state": ("EvaluationState",),
        "metrics": ("PartitionMetrics", "compute_metrics", "cut_edges", "module_components"),
    },
)
