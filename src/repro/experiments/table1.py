"""Table 1: evolution-based vs standard partitioning on ISCAS85.

The paper's headline experiment.  For each of the six circuits we run
the evolution strategy to convergence, then build the standard partition
with the *same module count* ("we take the numbers obtained by the
evolution based algorithm") and compare BIC sensor area, delay overhead
and test-application-time overhead.

Paper outcome to reproduce (shape, not absolute numbers — our cell
characterisation and circuit stand-ins differ, see DESIGN.md §6):
standard partitioning needs 14.5 %-30.6 % more sensor hardware while
delay and test time come out essentially equal between the methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import EvolutionParams, SynthesisConfig
from repro.netlist.benchmarks import TABLE1_CIRCUITS, load_iscas85
from repro.optimize.evolution import evolve_partition
from repro.optimize.standard import standard_partition
from repro.partition.evaluator import PartitionEvaluator

if TYPE_CHECKING:  # pragma: no cover - as_experiment_result imports it
    from repro.experiments.catalog import ExperimentResult

__all__ = ["PAPER_TABLE1", "Table1Row", "Table1Result", "run_table1"]

#: The published Table 1 numbers: (#modules, evolution area, standard
#: area, standard-over-evolution overhead in %).
PAPER_TABLE1: dict[str, tuple[int, float, float, float]] = {
    "c1908": (2, 8.27e5, 1.08e6, 30.6),
    "c2670": (3, 4.95e5, 5.67e5, 14.5),
    "c3540": (4, 2.27e6, 2.79e6, 22.9),
    "c5315": (6, 2.29e6, 2.87e6, 25.3),
    "c6288": (5, 7.30e5, 9.19e5, 25.9),
    "c7552": (6, 4.72e6, 5.65e6, 19.7),
}


@dataclass(frozen=True)
class Table1Row:
    """One circuit's evolution-vs-standard comparison."""

    circuit: str
    num_modules: int
    area_evolution: float
    area_standard: float
    area_overhead_pct: float
    delay_evolution: float
    delay_standard: float
    test_time_evolution: float
    test_time_standard: float
    generations: int
    evaluations: int


@dataclass
class Table1Result:
    """All rows plus rendering helpers."""

    rows: list[Table1Row]
    quick: bool

    def render(self) -> str:
        from repro.flow.report import format_table

        headers = [
            "circuit",
            "#modules",
            "area(evolution)",
            "area(standard)",
            "std overhead",
            "delay ovh (evo)",
            "delay ovh (std)",
            "test ovh (evo)",
            "test ovh (std)",
        ]
        body = [
            [
                row.circuit,
                row.num_modules,
                row.area_evolution,
                row.area_standard,
                f"{row.area_overhead_pct:.1f}%",
                f"{100 * row.delay_evolution:.2f}%",
                f"{100 * row.delay_standard:.2f}%",
                f"{100 * row.test_time_evolution:.2f}%",
                f"{100 * row.test_time_standard:.2f}%",
            ]
            for row in self.rows
        ]
        return format_table(headers, body)

    def render_vs_paper(self) -> str:
        from repro.flow.report import format_table

        headers = [
            "circuit",
            "K (paper)",
            "K (ours)",
            "std ovh (paper)",
            "std ovh (ours)",
        ]
        body = []
        for row in self.rows:
            paper = PAPER_TABLE1.get(row.circuit)
            if paper is None:
                continue
            body.append(
                [
                    row.circuit,
                    paper[0],
                    row.num_modules,
                    f"{paper[3]:.1f}%",
                    f"{row.area_overhead_pct:.1f}%",
                ]
            )
        return format_table(headers, body)

    def as_experiment_result(self) -> ExperimentResult:
        from repro.experiments.catalog import ExperimentResult

        headers = [
            "circuit",
            "#modules",
            "area(evo)",
            "area(std)",
            "std overhead",
            "paper overhead",
        ]
        rows = []
        for row in self.rows:
            paper = PAPER_TABLE1.get(row.circuit)
            rows.append(
                [
                    row.circuit,
                    row.num_modules,
                    row.area_evolution,
                    row.area_standard,
                    f"{row.area_overhead_pct:.1f}%",
                    f"{paper[3]:.1f}%" if paper else "-",
                ]
            )
        notes = [
            "paper band: standard needs 14.5%-30.6% more sensor area than evolution",
            "delay and test-time overheads are expected to be ~equal between methods",
        ]
        if self.quick:
            notes.append("quick mode: reduced evolution budget; gaps shrink accordingly")
        return ExperimentResult("Table 1", headers, rows, notes)


def table1_params(quick: bool) -> EvolutionParams:
    """Evolution budgets: convergence-oriented for the full run, bounded
    for quick/CI runs."""
    if quick:
        return EvolutionParams(
            mu=4,
            children_per_parent=3,
            monte_carlo_per_parent=1,
            generations=40,
            convergence_window=20,
        )
    return EvolutionParams(
        mu=8,
        children_per_parent=4,
        monte_carlo_per_parent=2,
        generations=300,
        convergence_window=60,
    )


def run_table1(
    circuits: tuple[str, ...] | None = None,
    config: SynthesisConfig | None = None,
    seed: int = 1995,
    quick: bool = True,
) -> Table1Result:
    """Regenerate Table 1 on ``circuits`` (default: the paper's six)."""
    circuits = circuits or TABLE1_CIRCUITS
    config = config or SynthesisConfig(evolution=table1_params(quick))
    rows: list[Table1Row] = []
    for name in circuits:
        circuit = load_iscas85(name)
        evaluator = PartitionEvaluator(circuit, weights=config.weights)
        result = evolve_partition(evaluator, config.evolution, seed=seed)
        evolution = result.best
        standard = evaluator.evaluate(
            standard_partition(evaluator, evolution.num_modules)
        )
        overhead = 100.0 * (
            standard.sensor_area_total / evolution.sensor_area_total - 1.0
        )
        rows.append(
            Table1Row(
                circuit=name,
                num_modules=evolution.num_modules,
                area_evolution=evolution.sensor_area_total,
                area_standard=standard.sensor_area_total,
                area_overhead_pct=overhead,
                delay_evolution=evolution.delay_overhead,
                delay_standard=standard.delay_overhead,
                test_time_evolution=evolution.test_time_overhead,
                test_time_standard=standard.test_time_overhead,
                generations=result.generations_run,
                evaluations=result.evaluations,
            )
        )
    return Table1Result(rows=rows, quick=quick)
