"""Parallel-vs-serial equivalence for the domain drivers.

The contracts pinned here are the runtime's acceptance bar:

* sharded stuck-at detection matrices are **bit-identical** to the
  serial build at any worker count;
* sharded ATPG searches are deterministic under a fixed seed and
  return the reference test set bit for bit at any worker count;
* the multi-seed portfolio picks the same winner at any worker count.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles.faultsim import reference_generate_iddq_tests
from repro.config import EvolutionParams
from repro.faultsim.atpg import defect_stream_seed, generate_iddq_tests
from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.optimize.annealing import AnnealingParams
from repro.optimize.portfolio import portfolio_partition
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.runtime.parallel import sharded_detection_matrix


@pytest.fixture(scope="module")
def partition(small_evaluator):
    return chain_start_partition(
        small_evaluator, estimate_module_count(small_evaluator), random.Random(2)
    )


@pytest.fixture(scope="module")
def defects(small_circuit):
    return sample_bridging_faults(
        small_circuit, 25, seed=3, current_range_ua=(0.5, 5.0)
    ) + sample_gate_oxide_shorts(
        small_circuit, 12, seed=4, current_range_ua=(0.5, 5.0)
    )


# Two random vectors leave eight activation-only searches that find a
# vector and five futile ones to the targeted phase.
ATPG_KWARGS = dict(seed=7, random_vectors=2, restarts=2, flip_budget=8)


class TestShardedDetectionMatrix:
    def test_bit_identical_to_serial(self, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)
        patterns = random_patterns(len(small_circuit.input_names), 96, seed=1)
        serial = StuckAtSimulator(small_circuit).detection_matrix(faults, patterns)
        sharded = sharded_detection_matrix(
            small_circuit, faults, patterns, jobs=2
        )
        assert np.array_equal(serial, sharded)

    def test_jobs_param_on_simulator(self, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)[:40]
        patterns = random_patterns(len(small_circuit.input_names), 32, seed=2)
        sim = StuckAtSimulator(small_circuit)
        assert np.array_equal(
            sim.detection_matrix(faults, patterns),
            sim.detection_matrix(faults, patterns, jobs=2),
        )

    def test_invalid_patterns_rejected_before_sharding(self, small_circuit):
        from repro.errors import FaultSimError

        faults = enumerate_stuck_at_faults(small_circuit)[:4]
        bad = np.zeros((4, len(small_circuit.input_names) + 1), dtype=np.uint8)
        with pytest.raises(FaultSimError):
            StuckAtSimulator(small_circuit).detection_matrix(faults, bad, jobs=2)

    def test_jobs_one_is_the_serial_path(self, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)[:10]
        patterns = random_patterns(len(small_circuit.input_names), 16, seed=3)
        serial = StuckAtSimulator(small_circuit).detection_matrix(faults, patterns)
        assert np.array_equal(
            serial, sharded_detection_matrix(small_circuit, faults, patterns, jobs=1)
        )


class TestDefectParallelATPG:
    def test_deterministic_under_fixed_seed(self, small_circuit, partition, defects):
        runs = [
            generate_iddq_tests(
                small_circuit, partition, defects, jobs=2, **ATPG_KWARGS
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].patterns, runs[1].patterns)
        assert runs[0].detected_ids == runs[1].detected_ids
        assert runs[0].undetected_ids == runs[1].undetected_ids

    def test_invariant_to_worker_count(self, small_circuit, partition, defects):
        one = generate_iddq_tests(
            small_circuit, partition, defects, jobs=1, **ATPG_KWARGS
        )
        two = generate_iddq_tests(
            small_circuit, partition, defects, jobs=2, **ATPG_KWARGS
        )
        assert np.array_equal(one.patterns, two.patterns)
        assert one.detected_ids == two.detected_ids

    def test_pool_equals_reference(self, small_circuit, partition, defects):
        reference = reference_generate_iddq_tests(
            small_circuit, partition, defects, **ATPG_KWARGS
        )
        pooled = generate_iddq_tests(
            small_circuit, partition, defects, jobs=2, **ATPG_KWARGS
        )
        assert pooled.targeted_detected > 0
        assert np.array_equal(pooled.patterns, reference.patterns)
        assert pooled.detected_ids == reference.detected_ids
        assert pooled.undetected_ids == reference.undetected_ids
        assert pooled.random_detected == reference.random_detected
        assert pooled.targeted_detected == reference.targeted_detected

    def test_seed_changes_walk(self, small_circuit, partition, defects):
        kwargs = dict(ATPG_KWARGS, random_vectors=4, restarts=1, flip_budget=2)
        a = generate_iddq_tests(small_circuit, partition, defects, **kwargs)
        b = generate_iddq_tests(
            small_circuit, partition, defects, **dict(kwargs, seed=8)
        )
        # Different seeds must not share the per-defect streams.
        assert not (
            a.patterns.shape == b.patterns.shape
            and np.array_equal(a.patterns, b.patterns)
        )

    def test_stream_ids_are_distinct(self):
        ids = {defect_stream_seed(7, d) for d in range(100)}
        ids |= {defect_stream_seed(8, d) for d in range(100)}
        assert len(ids) == 200


class TestMultiSeedPortfolio:
    @pytest.fixture(scope="class")
    def params(self):
        return dict(
            evolution_params=EvolutionParams(generations=4, convergence_window=3),
            annealing_params=AnnealingParams(
                initial_temperature=5.0,
                cooling=0.7,
                steps_per_temperature=6,
                min_temperature=0.1,
            ),
            kl_passes=1,
        )

    def test_jobs_invariant_winner(self, small_evaluator, params):
        serial = portfolio_partition(
            small_evaluator, seeds=[1, 2], jobs=1, **params
        )
        parallel = portfolio_partition(
            small_evaluator, seeds=[1, 2], jobs=2, **params
        )
        assert serial.best_cost == parallel.best_cost
        assert serial.seed == parallel.seed
        assert (
            serial.best.partition.canonical() == parallel.best.partition.canonical()
        )

    def test_seed_and_seeds_mutually_exclusive(self, small_evaluator, params):
        from repro.errors import OptimizationError

        with pytest.raises(OptimizationError, match="not both"):
            portfolio_partition(small_evaluator, seed=1, seeds=[1, 2], **params)
