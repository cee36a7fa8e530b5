"""Experiment harness regenerating the paper's evaluation.

Every table and figure in the paper maps to one module here (see
DESIGN.md §4 for the index):

* :mod:`~repro.experiments.table1` — Table 1, evolution vs standard
  partitioning on the six ISCAS85 circuits;
* :mod:`~repro.experiments.figure1` — BIC sensor PASS/FAIL behaviour;
* :mod:`~repro.experiments.figure2` — partition *shape* vs sensor size
  on a 2-D array CUT;
* :mod:`~repro.experiments.figure45` — the C17 evolution walk-through,
  checked against the paper's optimum by exhaustive enumeration;
* :mod:`~repro.experiments.ablations` — design-choice ablations;
* :mod:`~repro.experiments.catalog` — registry + CLI
  (``python -m repro.experiments``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "catalog": ("EXPERIMENTS", "ExperimentResult", "run_experiment"),
        "table1": ("PAPER_TABLE1", "Table1Row", "run_table1"),
        "figure1": ("run_figure1",),
        "figure2": ("run_figure2",),
        "figure45": ("run_figure45", "c17_demo_technology"),
        "ablations": (
            "run_monte_carlo_ablation",
            "run_incremental_speedup",
            "run_degradation_ablation",
            "run_weight_sensitivity",
            "run_optimizer_comparison",
        ),
        "motivation": ("run_motivation_coverage",),
        "sweeps": ("run_rail_limit_sweep", "run_convergence_curve"),
    },
)
