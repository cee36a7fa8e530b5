"""Tests for the incremental evaluation state — the §4.2 machinery.

The central property: after ANY sequence of gate moves, every cached
quantity equals a from-scratch rebuild (hypothesis drives random move
sequences through consistency_check)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.partition import Partition


def balanced_partition(circuit, k):
    n = len(circuit.gate_names)
    return Partition(circuit, {g: g % k for g in range(n)})


class TestIncrementalMoves:
    def test_single_move_consistent(self, small_evaluator):
        circuit = small_evaluator.circuit
        state = small_evaluator.new_state(balanced_partition(circuit, 3))
        state.move_gate(0, 1)
        state.consistency_check()

    def test_module_deletion_tracked(self, c17_evaluator):
        circuit = c17_evaluator.circuit
        index = circuit.gate_index
        partition = Partition.from_groups(
            circuit, [{"g1"}, {"g2", "g3", "g4", "O2", "O3"}]
        )
        state = c17_evaluator.new_state(partition)
        state.move_gate(index["g1"], 1)
        assert state.partition.num_modules == 1
        assert set(state.stats) == {1}
        state.consistency_check()

    def test_move_into_missing_module_rejected(self, c17_evaluator):
        state = c17_evaluator.new_state(Partition.single_module(c17_evaluator.circuit))
        from repro.errors import PartitionError

        with pytest.raises(PartitionError):
            state.move_gate(0, 99)

    def test_copy_isolation(self, small_evaluator):
        state = small_evaluator.new_state(balanced_partition(small_evaluator.circuit, 3))
        baseline = state.cost_breakdown().total
        clone = state.copy()
        clone.move_gate(0, 1)
        clone.move_gate(1, 2)
        assert state.cost_breakdown().total == pytest.approx(baseline)
        state.consistency_check()
        clone.consistency_check()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), moves=st.integers(1, 40))
    def test_random_move_sequences_stay_consistent(self, small_evaluator, seed, moves):
        rng = random.Random(seed)
        circuit = small_evaluator.circuit
        n = len(circuit.gate_names)
        state = small_evaluator.new_state(balanced_partition(circuit, 4))
        for _ in range(moves):
            gate = rng.randrange(n)
            targets = [
                m
                for m in state.partition.module_ids
                if m != state.partition.module_of(gate)
            ]
            if not targets:
                break
            state.move_gate(gate, rng.choice(targets))
        state.consistency_check()

    def test_incremental_cost_equals_fresh_cost(self, small_evaluator):
        rng = random.Random(3)
        circuit = small_evaluator.circuit
        n = len(circuit.gate_names)
        state = small_evaluator.new_state(balanced_partition(circuit, 4))
        for _ in range(25):
            gate = rng.randrange(n)
            targets = [
                m
                for m in state.partition.module_ids
                if m != state.partition.module_of(gate)
            ]
            if targets:
                state.move_gate(gate, rng.choice(targets))
        incremental = state.cost_breakdown()
        fresh = small_evaluator.new_state(state.partition).cost_breakdown()
        assert incremental.total == pytest.approx(fresh.total)
        for key, value in incremental.terms().items():
            assert value == pytest.approx(fresh.terms()[key]), key


class TestDerivedQuantities:
    def test_sensors_per_module(self, small_evaluator):
        state = small_evaluator.new_state(balanced_partition(small_evaluator.circuit, 3))
        sensors = state.sensors()
        assert set(sensors) == set(state.partition.module_ids)
        for sensor in sensors.values():
            assert sensor.rs_ohm > 0
            assert sensor.area > 0

    def test_penalized_cost_feasible_equals_plain(self, small_evaluator):
        state = small_evaluator.new_state(balanced_partition(small_evaluator.circuit, 2))
        report = state.constraint_report()
        cost = state.cost_breakdown().total
        if report.feasible:
            assert state.penalized_cost(1e4) == pytest.approx(cost)
        else:
            assert state.penalized_cost(1e4) > cost

    def test_infeasible_partition_penalised(self, small_evaluator, technology):
        """A single-module partition of 120 gates is feasible under the
        generic budget; shrink the budget via a custom evaluator to force
        infeasibility and check the penalty applies."""
        import dataclasses

        from repro.partition.evaluator import PartitionEvaluator

        tight = dataclasses.replace(technology, iddq_threshold_ua=0.01)
        evaluator = PartitionEvaluator(small_evaluator.circuit, technology=tight)
        state = evaluator.new_state(Partition.single_module(evaluator.circuit))
        report = state.constraint_report()
        assert not report.feasible
        assert state.penalized_cost(1e4) > state.cost_breakdown().total + 1e3
