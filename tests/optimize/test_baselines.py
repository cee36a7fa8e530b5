"""Tests for annealing, random search and greedy refinement."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.optimize import annealing
from repro.optimize.annealing import AnnealingParams, anneal_partition
from repro.optimize.greedy import greedy_refine
from repro.optimize.random_search import random_partition, random_search_partition
from repro.optimize.start import chain_start_partition


class TestAnnealing:
    @pytest.fixture(scope="class")
    def quick_sa(self):
        return AnnealingParams(
            initial_temperature=20.0,
            cooling=0.7,
            steps_per_temperature=10,
            min_temperature=0.1,
        )

    def test_produces_valid_partition(self, small_evaluator, quick_sa):
        result = anneal_partition(small_evaluator, quick_sa, seed=1)
        result.best.partition.check_invariants()
        assert result.optimizer == "annealing"
        assert result.evaluations > 1

    def test_improves_or_holds_from_start(self, small_evaluator, quick_sa, rng):
        start = chain_start_partition(small_evaluator, 4, rng)
        start_cost = small_evaluator.new_state(start).penalized_cost(quick_sa.penalty)
        result = anneal_partition(small_evaluator, quick_sa, seed=2, start=start)
        assert result.best_cost <= start_cost + 1e-9

    def test_param_validation(self):
        with pytest.raises(OptimizationError):
            AnnealingParams(cooling=1.5)
        with pytest.raises(OptimizationError):
            AnnealingParams(initial_temperature=0.0001, min_temperature=1.0)
        with pytest.raises(OptimizationError):
            AnnealingParams(steps_per_temperature=0)
        with pytest.raises(OptimizationError):
            AnnealingParams(proposal_block=0)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        block=st.integers(1, 24),
        steps=st.integers(5, 30),
    )
    def test_batched_decision_stream_bit_identical(
        self, small_evaluator, quick_sa, seed, block, steps
    ):
        """Under a pinned RNG draw order the batched walk reproduces the
        sequential accept/reject decision stream bit-for-bit — every
        consumed proposal, every decision, every scored cost — and the
        two runs end at the exact same best cost.  The sequential run
        walks every block with ``_walk_sequential``."""
        params = dataclasses.replace(
            quick_sa, proposal_block=block, steps_per_temperature=steps
        )
        streams = []
        for walk in (annealing._walk_batched, annealing._walk_sequential):
            decisions = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(annealing, "_walk_batched", walk)
                result = anneal_partition(
                    small_evaluator, params, seed=seed, _decisions=decisions
                )
            streams.append((decisions, result.best_cost, result.evaluations))
        assert streams[0][0] == streams[1][0]
        assert streams[0][1] == streams[1][1]


class TestRandomSearch:
    def test_balanced_random_partition(self, small_evaluator, rng):
        partition = random_partition(small_evaluator, 5, rng)
        assert partition.num_modules == 5
        sizes = [partition.module_size(m) for m in partition.module_ids]
        assert max(sizes) - min(sizes) <= 1
        partition.check_invariants()

    def test_search_keeps_best(self, small_evaluator):
        result = random_search_partition(small_evaluator, samples=20, seed=3)
        assert result.evaluations == 20
        assert result.history
        best_seen = [record.best_cost for record in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(best_seen, best_seen[1:]))

    def test_zero_samples_rejected(self, small_evaluator):
        with pytest.raises(OptimizationError):
            random_search_partition(small_evaluator, samples=0)


class TestGreedy:
    def test_never_worse_than_start(self, small_evaluator, rng):
        start = chain_start_partition(small_evaluator, 3, rng)
        start_cost = small_evaluator.new_state(start).penalized_cost(1e4)
        result = greedy_refine(small_evaluator, start, max_passes=5)
        assert result.best_cost <= start_cost + 1e-9
        result.best.partition.check_invariants()

    def test_terminates_at_local_minimum(self, c17_evaluator, rng):
        start = chain_start_partition(c17_evaluator, 2, rng)
        result = greedy_refine(c17_evaluator, start, max_passes=50)
        # Re-running from the result must find no improving move.
        again = greedy_refine(c17_evaluator, result.best.partition, max_passes=50)
        assert again.generations_run == 0
        assert again.best_cost == pytest.approx(result.best_cost)
