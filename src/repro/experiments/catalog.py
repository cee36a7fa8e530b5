"""Experiment registry and shared result type."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Sequence

from repro.errors import ExperimentError

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]


@dataclass
class ExperimentResult:
    """Uniform result: a named table plus free-form notes."""

    name: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        from repro.flow.report import format_table

        parts = [f"== {self.name} ==", format_table(self.headers, self.rows)]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


#: Experiment name -> (module under ``repro.experiments``, runner name).
_TABLE: dict[str, tuple[str, str]] = {
    "complement": ("complement", "run_complement"),
    "sweep-corners": ("corners", "run_corner_sweep"),
    "sweep-rail-limit": ("sweeps", "run_rail_limit_sweep"),
    "sweep-convergence": ("sweeps", "run_convergence_curve"),
    "table1": ("table1", "run_table1"),
    "figure1": ("figure1", "run_figure1"),
    "figure2": ("figure2", "run_figure2"),
    "figure45": ("figure45", "run_figure45"),
    "motivation": ("motivation", "run_motivation_coverage"),
    "ablation-monte-carlo": ("ablations", "run_monte_carlo_ablation"),
    "ablation-incremental": ("ablations", "run_incremental_speedup"),
    "ablation-degradation": ("ablations", "run_degradation_ablation"),
    "ablation-weights": ("ablations", "run_weight_sensitivity"),
    "ablation-optimizers": ("ablations", "run_optimizer_comparison"),
}


def _runner(module: str, function: str) -> Callable[[bool], ExperimentResult]:
    """A runner(quick) that imports its experiment's module when called,
    so that listing or running one experiment loads no other."""

    def run(quick: bool) -> ExperimentResult:
        found = import_module(f"repro.experiments.{module}")
        result = getattr(found, function)(quick=quick)
        if isinstance(result, ExperimentResult):
            return result
        return result.as_experiment_result()  # Table 1's rows

    return run


#: Experiment name -> runner(quick) mapping.
EXPERIMENTS: dict[str, Callable[[bool], ExperimentResult]] = {
    name: _runner(*where) for name, where in _TABLE.items()
}


def run_experiment(name: str, quick: bool = True) -> ExperimentResult:
    """Run one registered experiment by name."""
    runner = EXPERIMENTS.get(name)
    if runner is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {name!r}; known: {known}")
    return runner(quick)


def experiment_names() -> tuple[str, ...]:
    return tuple(sorted(EXPERIMENTS))
