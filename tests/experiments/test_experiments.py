"""Tests for the experiment harness.

These run the *quick* variants on small circuits — the full paper-scale
runs live in benchmarks/.  What is asserted here is the paper's
qualitative claims, not timing.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.catalog import experiment_names, run_experiment
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure45 import (
    c17_demo_technology,
    enumerate_two_module_partitions,
    run_figure45,
)
from repro.experiments.table1 import PAPER_TABLE1, run_table1


class TestCatalog:
    def test_names_registered(self):
        names = experiment_names()
        assert "table1" in names
        assert "figure2" in names
        assert "figure45" in names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("nope")


class TestAllContinuesOnError:
    """``python -m repro.experiments all`` must survive a failing
    experiment: run the rest, print a pass/fail summary, exit non-zero."""

    @pytest.fixture
    def patched_registry(self, monkeypatch):
        from repro.experiments import catalog
        from repro.experiments.catalog import ExperimentResult

        def ok(quick):
            return ExperimentResult(name="ok", headers=["x"], rows=[[1]])

        def boom(quick):
            raise ExperimentError("synthetic failure")

        monkeypatch.setattr(
            catalog, "EXPERIMENTS", {"aa-boom": boom, "zz-ok": ok}
        )

    def test_failure_does_not_abort_sweep(self, patched_registry, capsys):
        from repro.experiments.__main__ import main

        code = main(["all"])
        out = capsys.readouterr().out
        assert code == 1
        # The failing experiment is reported, the later one still ran.
        assert "aa-boom" in out and "synthetic failure" in out
        assert "== ok ==" in out
        assert "summary: 1/2 passed" in out
        assert "FAIL aa-boom" in out
        assert "ok   zz-ok" in out

    def test_all_green_exits_zero(self, patched_registry, monkeypatch, capsys):
        from repro.experiments import catalog
        from repro.experiments.__main__ import main

        registry = dict(catalog.EXPERIMENTS)
        registry.pop("aa-boom")
        monkeypatch.setattr(catalog, "EXPERIMENTS", registry)
        assert main(["all"]) == 0
        assert "summary: 1/1 passed" in capsys.readouterr().out


class TestOperatorErrors:
    """An :class:`ExperimentError` reaching the CLI is one ``error:``
    line on stderr and exit code 1, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "nope"], "unknown experiment 'nope'"),
            (["campaign", "--stages", "nope"], "unknown campaign stage(s) ['nope']"),
            (["campaign", "--resume", "{missing}"], "cannot read resume manifest"),
        ],
        ids=["unknown-experiment", "unknown-stage", "unreadable-resume"],
    )
    def test_one_error_line(self, argv, message, tmp_path, capsys):
        from repro.experiments.__main__ import main

        missing = str(tmp_path / "missing.json")
        argv = [arg.format(missing=missing) for arg in argv]
        if argv[0] == "campaign":
            argv += ["--circuits", "c17", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line


class TestFigure45:
    def test_demo_technology_forces_two_modules(self, c17_paper):
        from repro.partition.evaluator import PartitionEvaluator

        evaluator = PartitionEvaluator(c17_paper, technology=c17_demo_technology())
        assert evaluator.min_feasible_modules() >= 2

    def test_enumeration_complete(self, c17_paper):
        partitions = enumerate_two_module_partitions(c17_paper)
        assert len(partitions) == 31
        canonical = {p.canonical() for p in partitions}
        assert len(canonical) == 31

    def test_paper_optimum_reproduced(self):
        result = run_figure45(quick=True, seed=11)
        notes = "\n".join(result.notes)
        assert "exhaustive minimum matches the paper's optimum: True" in notes
        assert "evolution strategy found it: True" in notes


class TestFigure2:
    def test_shape_effect(self):
        result = run_figure2(size=5, quick=True)
        rows = {row[0]: row for row in result.rows}
        wave_row = rows["wave array / by row (partition 1)"]
        wave_col = rows["wave array / by column (partition 2)"]
        # Same module count, strictly worse current and area for the
        # parallel-switching grouping.
        assert wave_row[1] == wave_col[1]
        assert wave_col[2] > wave_row[2] * 2
        assert wave_col[3] > wave_row[3]


class TestTable1Shape:
    def test_single_circuit_comparison(self):
        """On one mid-size circuit with a modest budget, the evolution
        partition must beat the standard baseline on sensor area (the
        paper's central claim)."""
        result = run_table1(circuits=("c1908",), seed=7, quick=True)
        row = result.rows[0]
        assert row.area_standard > row.area_evolution
        assert row.num_modules >= 2
        # Delay/test-time overheads of the two methods are of the same
        # order (the paper reports "no improvement" for standard).
        assert row.delay_standard < 3 * max(row.delay_evolution, 0.01)

    def test_renderers(self):
        result = run_table1(circuits=("c880",), seed=1, quick=True)
        assert "c880" in result.render()
        assert result.as_experiment_result().rows
        # c880 is not in the paper's table; vs-paper view skips it.
        assert "c880" not in result.render_vs_paper()

    def test_paper_reference_data(self):
        assert PAPER_TABLE1["c1908"][3] == 30.6
        assert PAPER_TABLE1["c7552"][0] == 6


class TestQuickRunners:
    @pytest.mark.parametrize("name", ["figure1", "ablation-incremental"])
    def test_runner_produces_table(self, name):
        result = run_experiment(name, quick=True)
        assert result.rows
        assert result.render()
