"""Tests for KL-style refinement."""

import random
import statistics

import pytest

from oracles import kl as kl_oracle
from repro.errors import OptimizationError
from repro.optimize import kl as kl_module
from repro.optimize.kl import kl_refine
from repro.optimize.random_search import random_partition
from repro.optimize.start import chain_start_partition, estimate_module_count


class TestKLRefine:
    def test_never_worse(self, small_evaluator, rng):
        start = random_partition(small_evaluator, 4, rng)
        start_cost = small_evaluator.new_state(start).penalized_cost(1e4)
        result = kl_refine(small_evaluator, start, seed=1)
        assert result.best_cost <= start_cost + 1e-9
        result.best.partition.check_invariants()

    def test_preserves_module_sizes(self, small_evaluator, rng):
        start = chain_start_partition(small_evaluator, 4, rng)
        sizes_before = sorted(start.module_size(m) for m in start.module_ids)
        result = kl_refine(small_evaluator, start, seed=2)
        sizes_after = sorted(
            result.best.partition.module_size(m)
            for m in result.best.partition.module_ids
        )
        assert sizes_after == sizes_before

    def test_improves_random_start(self, small_evaluator, rng):
        start = random_partition(small_evaluator, 3, rng)
        start_cost = small_evaluator.new_state(start).penalized_cost(1e4)
        result = kl_refine(small_evaluator, start, seed=3, max_passes=4,
                           candidate_swaps=96)
        assert result.best_cost < start_cost

    def test_params_validated(self, small_evaluator, rng):
        start = chain_start_partition(small_evaluator, 3, rng)
        with pytest.raises(OptimizationError):
            kl_refine(small_evaluator, start, max_passes=0)
        with pytest.raises(OptimizationError):
            kl_refine(small_evaluator, start, candidate_swaps=0)
        with pytest.raises(OptimizationError):
            kl_refine(small_evaluator, start, candidate_rounds=0)

    @pytest.mark.parametrize("mode", ["batched", "sequential"])
    def test_candidate_modes_never_worse(
        self, small_evaluator, rng, mode, monkeypatch
    ):
        """The shipped pass, and the reference pass of ``oracles/kl.py``."""
        if mode == "sequential":
            monkeypatch.setattr(kl_module, "_batched_pass", kl_oracle.as_batched_pass)
        start = random_partition(small_evaluator, 4, rng)
        start_cost = small_evaluator.new_state(start).penalized_cost(1e4)
        result = kl_refine(small_evaluator, start, seed=11)
        assert result.best_cost <= start_cost + 1e-9
        result.best.partition.check_invariants()

    def test_single_module_noop(self, c17_evaluator, c17_paper):
        from repro.partition.partition import Partition

        start = Partition.single_module(c17_paper)
        result = kl_refine(c17_evaluator, start, seed=4)
        assert result.best.partition.num_modules == 1

    def test_deterministic(self, small_evaluator, rng):
        start = chain_start_partition(small_evaluator, 4, rng)
        a = kl_refine(small_evaluator, start, seed=7)
        b = kl_refine(small_evaluator, start, seed=7)
        assert a.best_cost == pytest.approx(b.best_cost)


class TestCandidateModeAblation:
    """Seed-swept ablation on real ISCAS circuits: the shipped batched
    pass against the sequential reference pass of ``oracles/kl.py``.

    The batched pass is a semantic change (fresh pools scored in bulk,
    walked best-first) rather than a re-implementation, so the check is
    statistical: across the sweep the batched pass's final costs must be
    no worse on average, and no single seed may lose by more than 0.5%.
    """

    SEEDS = range(6)

    @pytest.mark.parametrize("name", ["c432", "c880"])
    def test_batched_statistically_no_worse(self, name, monkeypatch):
        from repro.netlist.benchmarks import load_iscas85
        from repro.partition.evaluator import PartitionEvaluator

        evaluator = PartitionEvaluator(load_iscas85(name))
        k = estimate_module_count(evaluator)
        passes = {
            "batched": kl_module._batched_pass,
            "sequential": kl_oracle.as_batched_pass,
        }
        finals = {mode: [] for mode in passes}
        for seed in self.SEEDS:
            start = chain_start_partition(evaluator, k, random.Random(seed))
            for mode, kl_pass in passes.items():
                monkeypatch.setattr(kl_module, "_batched_pass", kl_pass)
                result = kl_refine(evaluator, start, seed=seed)
                finals[mode].append(result.best_cost)
        for batched, sequential in zip(finals["batched"], finals["sequential"]):
            assert batched <= sequential * 1.005
        assert statistics.mean(finals["batched"]) <= statistics.mean(
            finals["sequential"]
        )
