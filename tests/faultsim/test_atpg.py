"""Tests for IDDQ test generation."""

import random

import pytest

from oracles.faultsim import detection_matrix, evaluate_coverage
from repro.errors import FaultSimError
from repro.faultsim.atpg import generate_iddq_tests
from repro.faultsim.faults import (
    BridgingFault,
    sample_bridging_faults,
    sample_gate_oxide_shorts,
)
from repro.optimize.start import chain_start_partition
from repro.partition.partition import Partition


@pytest.fixture(scope="module")
def setup():
    from repro.netlist.generate import GeneratorConfig, generate_iscas_like
    from repro.partition.evaluator import PartitionEvaluator

    circuit = generate_iscas_like(
        GeneratorConfig(
            name="atpg150",
            num_gates=150,
            num_inputs=14,
            num_outputs=8,
            depth=10,
            seed=31,
        )
    )
    evaluator = PartitionEvaluator(circuit)
    partition = chain_start_partition(evaluator, 3, random.Random(1))
    defects = sample_bridging_faults(
        circuit, 30, seed=2, current_range_ua=(2.0, 20.0)
    ) + sample_gate_oxide_shorts(circuit, 20, seed=3, current_range_ua=(2.0, 20.0))
    return circuit, partition, defects


class TestGeneration:
    def test_covers_every_detectable_defect(self, setup):
        """Some sampled defects are untestable (logically correlated
        nets never take opposite values); ATPG must catch everything a
        big random reference pool can."""
        from repro.faultsim.patterns import random_patterns

        circuit, partition, defects = setup
        tests = generate_iddq_tests(
            circuit, partition, defects, seed=4, random_vectors=64
        )
        reference_pool = random_patterns(len(circuit.input_names), 2048, seed=99)
        reference = detection_matrix(
            circuit, partition, defects, reference_pool
        ).any(axis=1)
        detectable = {d.defect_id for d, hit in zip(defects, reference) if hit}
        assert detectable <= set(tests.detected_ids)
        assert tests.num_vectors >= 1
        assert tests.num_vectors < 64  # compaction must bite

    def test_compaction_preserves_coverage(self, setup):
        circuit, partition, defects = setup
        uncompacted = generate_iddq_tests(
            circuit, partition, defects, seed=4, random_vectors=64, compact=False
        )
        compacted = generate_iddq_tests(
            circuit, partition, defects, seed=4, random_vectors=64, compact=True
        )
        assert compacted.coverage == pytest.approx(uncompacted.coverage)
        assert compacted.num_vectors <= uncompacted.num_vectors

    def test_compacted_set_verifies_independently(self, setup):
        circuit, partition, defects = setup
        tests = generate_iddq_tests(
            circuit, partition, defects, seed=5, random_vectors=64
        )
        report = evaluate_coverage(circuit, partition, defects, tests.patterns)
        assert report.num_detected == len(tests.detected_ids)

    def test_targeted_phase_catches_hard_defect(self, c17_circuit):
        """A bridge activated by exactly one of 32 vectors: random
        vectors may miss it with a tiny pool, the targeted phase must
        recover it."""
        partition = Partition.single_module(c17_circuit)
        # Bridge 1~2 is active when inputs 1 and 2 differ; make it hard
        # by using a tiny random pool (2 vectors could both miss).
        fault = BridgingFault(
            defect_id="hard",
            current_ua=30.0,
            observing_gates=("10",),
            net_a="1",
            net_b="10",
        )
        tests = generate_iddq_tests(
            c17_circuit, partition, [fault], seed=6, random_vectors=1,
            restarts=8, flip_budget=16,
        )
        assert tests.coverage == 1.0

    def test_summary_renders(self, setup):
        circuit, partition, defects = setup
        tests = generate_iddq_tests(
            circuit, partition, defects, seed=7, random_vectors=32
        )
        assert "vectors cover" in tests.summary()

    def test_empty_defect_list_rejected(self, setup):
        circuit, partition, _ = setup
        with pytest.raises(FaultSimError):
            generate_iddq_tests(circuit, partition, [], seed=1)

    def test_deterministic(self, setup):
        circuit, partition, defects = setup
        a = generate_iddq_tests(circuit, partition, defects, seed=9, random_vectors=32)
        b = generate_iddq_tests(circuit, partition, defects, seed=9, random_vectors=32)
        assert (a.patterns == b.patterns).all()
        assert a.detected_ids == b.detected_ids
