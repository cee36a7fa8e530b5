"""Tests for the evolution strategy."""

import gc
import random
import tracemalloc
import weakref

import pytest

from repro.config import EvolutionParams
from repro.netlist.benchmarks import load_iscas85
from repro.optimize import evolution
from repro.optimize.evolution import EvolutionOptimizer, evolve_partition
from repro.optimize.start import start_population
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.state import EvaluationState


class TestBasicRun:
    def test_produces_feasible_result(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=1)
        assert result.feasible
        assert result.best.partition.num_modules >= 1
        result.best.partition.check_invariants()

    def test_improves_over_start(self, small_evaluator, quick_es_params):
        rng = random.Random(2)
        starts = start_population(small_evaluator, 4, quick_es_params.mu, rng)
        start_costs = [
            small_evaluator.new_state(p).penalized_cost(quick_es_params.penalty)
            for p in starts
        ]
        result = evolve_partition(
            small_evaluator, quick_es_params, seed=2, starts=starts
        )
        assert result.best_cost <= min(start_costs) + 1e-9

    def test_seed_reproducibility(self, small_evaluator, quick_es_params):
        a = evolve_partition(small_evaluator, quick_es_params, seed=7)
        b = evolve_partition(small_evaluator, quick_es_params, seed=7)
        assert a.best_cost == pytest.approx(b.best_cost)
        assert a.best.partition.canonical() == b.best.partition.canonical()

    def test_history_best_monotone(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=3)
        costs = [record.best_cost for record in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_counts_evaluations(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=4)
        per_generation = quick_es_params.mu * (
            quick_es_params.children_per_parent + quick_es_params.monte_carlo_per_parent
        )
        assert result.evaluations >= result.generations_run * per_generation


class TestConvergence:
    def test_early_stop_flag(self, c17_evaluator):
        params = EvolutionParams(
            mu=3,
            children_per_parent=2,
            monte_carlo_per_parent=1,
            generations=200,
            convergence_window=5,
        )
        result = evolve_partition(c17_evaluator, params, seed=5)
        assert result.converged
        assert result.generations_run < 200

    def test_generation_budget_respected(self, small_evaluator):
        params = EvolutionParams(
            mu=2,
            children_per_parent=2,
            monte_carlo_per_parent=0,
            generations=4,
            convergence_window=50,
        )
        result = evolve_partition(small_evaluator, params, seed=6)
        assert result.generations_run == 4
        assert not result.converged


class TestOperators:
    def test_explicit_starts_used(self, c17_evaluator, c17_paper, quick_es_params):
        from repro.partition.partition import Partition

        starts = [
            Partition.from_groups(c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}])
        ]
        result = evolve_partition(
            c17_evaluator, quick_es_params, seed=8, starts=starts
        )
        # With the generic technology, merging into one module is optimal
        # for 6 gates; the ES must discover that via MC children.
        assert result.best.num_modules == 1

    def test_empty_starts_rejected(self, c17_evaluator, quick_es_params):
        from repro.errors import OptimizationError

        optimizer = EvolutionOptimizer(c17_evaluator, quick_es_params, seed=1)
        with pytest.raises(OptimizationError):
            optimizer.run([])

    def test_monte_carlo_disabled_still_works(self, small_evaluator):
        params = EvolutionParams(
            mu=3,
            children_per_parent=2,
            monte_carlo_per_parent=0,
            generations=10,
            convergence_window=10,
        )
        result = evolve_partition(small_evaluator, params, seed=9)
        assert result.feasible


class TestResultObject:
    def test_summary_renders(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=10)
        text = result.summary()
        assert "evolution" in text
        assert "cost=" in text


class TestWorkingSet:
    """Only the μ survivors outlive a generation (paper §4)."""

    def test_each_generation_frees_the_last(self, monkeypatch):
        """Checked when each generation starts drawing: the start
        partitions, the last generation's scores and every parent that
        did not survive are gone."""
        evaluator = PartitionEvaluator(load_iscas85("c880"))
        params = EvolutionParams(
            mu=4, children_per_parent=3, monte_carlo_per_parent=1, generations=4
        )
        starts: list = []
        calls: list = []  # per trial_blocks call: its scores and parents
        live: list = []  # per generation: last parents alive at its first draw

        def recorded_starts(*args):
            partitions = start_population(*args)
            starts.extend(weakref.ref(p) for p in partitions)
            return partitions

        def checked_draw(self, state, step):
            if len(live) == len(calls):
                assert all(ref() is None for ref in starts), "start partitions kept"
                if calls:
                    last_scores, last_parents = calls[-1]
                    assert last_scores() is None, "last generation's scores kept"
                live.append(
                    {id(s) for ref in calls[-1][1] if (s := ref()) is not None}
                    if calls
                    else set()
                )
            return draw_children(self, state, step)

        def checked_trial_blocks(rows, penalty):
            parents = {id(state): state for state, _ in rows}
            assert live[-1] <= parents.keys(), "a parent that did not survive kept"
            scores = trial_blocks(rows, penalty)
            calls.append(
                (weakref.ref(scores), [weakref.ref(s) for s in parents.values()])
            )
            return scores

        draw_children = EvolutionOptimizer.draw_children
        trial_blocks = EvaluationState.trial_blocks
        monkeypatch.setattr(evolution, "start_population", recorded_starts)
        monkeypatch.setattr(EvolutionOptimizer, "draw_children", checked_draw)
        monkeypatch.setattr(
            EvaluationState, "trial_blocks", staticmethod(checked_trial_blocks)
        )
        # Freed by reference counts alone: no collector pass may help.
        gc.disable()
        try:
            result = evolve_partition(evaluator, params, seed=1995)
        finally:
            gc.enable()
        assert len(starts) == params.mu
        assert len(calls) == len(live) == result.generations_run == params.generations

    def test_traced_peak_below_the_matrix_and_a_quarter_c7552(self):
        """One generation's rows, never two, plus the μ parents: the
        campaign-budget ES on c7552 stays near the separation matrix's
        size."""
        evaluator = PartitionEvaluator(load_iscas85("c7552"))
        params = EvolutionParams(generations=6, convergence_window=4)
        warm = evolve_partition(evaluator, params, seed=1995)  # lazy caches
        tracemalloc.start()
        try:
            result = evolve_partition(evaluator, params, seed=1995)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best_cost == warm.best_cost
        assert peak < 1.25 * evaluator.separation.matrix.nbytes
