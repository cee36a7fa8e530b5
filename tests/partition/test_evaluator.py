"""Tests for the PartitionEvaluator façade."""

import pytest

from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition


class TestEvaluation:
    def test_paper_c17_partition(self, c17_evaluator, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        evaluation = c17_evaluator.evaluate(partition)
        assert evaluation.feasible
        assert evaluation.num_modules == 2
        assert evaluation.sensor_area_total > 0
        assert evaluation.degraded_delay_ns > evaluation.nominal_delay_ns
        assert evaluation.delay_overhead > 0
        assert evaluation.test_time_overhead > evaluation.delay_overhead

    def test_module_reports_complete(self, c17_evaluator, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        evaluation = c17_evaluator.evaluate(partition)
        assert len(evaluation.modules) == 2
        for module in evaluation.modules:
            assert module.num_gates == 3
            assert module.leakage_na > 0
            assert module.discriminability > 1
            assert module.sensor.rs_ohm > 0
            assert module.settle_time_ns > 0
        assert evaluation.module_by_id(evaluation.modules[0].module_id) is evaluation.modules[0]
        with pytest.raises(KeyError):
            evaluation.module_by_id(99)

    def test_cost_matches_breakdown(self, c17_evaluator, c17_paper):
        evaluation = c17_evaluator.evaluate(Partition.single_module(c17_paper))
        assert evaluation.cost == pytest.approx(evaluation.breakdown.total)

    def test_partition_snapshot_is_independent(self, c17_evaluator, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        evaluation = c17_evaluator.evaluate(partition)
        gate = c17_paper.gate_index["g1"]
        partition.move_gate(gate, 1)
        assert evaluation.partition.module_of(gate) == 0

    def test_evaluator_reusable_across_partitions(self, small_evaluator):
        n = len(small_evaluator.circuit.gate_names)
        e2 = small_evaluator.evaluate(
            Partition(small_evaluator.circuit, {g: g % 2 for g in range(n)})
        )
        e3 = small_evaluator.evaluate(
            Partition(small_evaluator.circuit, {g: g % 3 for g in range(n)})
        )
        assert e2.num_modules == 2
        assert e3.num_modules == 3
        # More modules => more fixed detection circuitry (A0 each).
        assert e3.breakdown.c5_modules > e2.breakdown.c5_modules


class TestEstimates:
    def test_min_feasible_modules(self, small_evaluator, technology):
        k_min = small_evaluator.min_feasible_modules()
        total_leak = float(small_evaluator.electricals.leakage_na.sum())
        assert k_min == max(1, -(-int(total_leak) // int(technology.max_module_leakage_na)))

    def test_leakage_by_module(self, small_evaluator):
        n = len(small_evaluator.circuit.gate_names)
        partition = Partition(small_evaluator.circuit, {g: g % 2 for g in range(n)})
        leak = small_evaluator.leakage_by_module(partition)
        assert set(leak) == {0, 1}
        total = float(small_evaluator.electricals.leakage_na.sum())
        assert sum(leak.values()) == pytest.approx(total)

    def test_defaults_applied(self, c17_paper):
        evaluator = PartitionEvaluator(c17_paper)
        assert evaluator.library.name == "generic-0.7um"
        assert evaluator.technology.name == "generic-0.7um"
        assert evaluator.weights.as_tuple()[0] == 9.0
