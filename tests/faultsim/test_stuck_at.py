"""Tests for the stuck-at logic fault simulators."""

import numpy as np
import pytest

from oracles.faultsim import ReferenceStuckAtSimulator
from repro.errors import FaultSimError
from repro.faultsim.patterns import exhaustive_patterns, random_patterns
from repro.faultsim.stuck_at import (
    StuckAtFault,
    StuckAtSimulator,
    enumerate_stuck_at_faults,
)
from repro.netlist.benchmarks import c17


class TestFaultModel:
    def test_fault_id(self):
        assert StuckAtFault("n5", 1).fault_id == "sa1:n5"

    def test_bad_value_rejected(self):
        with pytest.raises(FaultSimError):
            StuckAtFault("n5", 2)

    def test_enumeration_complete(self, c17_circuit):
        faults = enumerate_stuck_at_faults(c17_circuit)
        # 11 nets (5 inputs + 6 gates) x 2 polarities.
        assert len(faults) == 22
        ids = {f.fault_id for f in faults}
        assert len(ids) == 22


class TestC17Detection:
    @pytest.fixture(scope="class")
    def sim(self, c17_circuit):
        return StuckAtSimulator(c17_circuit)

    def test_full_coverage_exhaustive_c17(self, sim, c17_circuit):
        """C17 is fully single-stuck-at testable with all 32 vectors."""
        faults = enumerate_stuck_at_faults(c17_circuit)
        coverage = sim.coverage(faults, exhaustive_patterns(5))
        assert coverage == pytest.approx(1.0)

    def test_detection_semantics_by_hand(self, sim, c17_circuit):
        """sa0 on output net 22 is detected exactly by vectors where the
        fault-free 22 evaluates to 1."""
        from repro.faultsim.logic_sim import LogicSimulator

        patterns = exhaustive_patterns(5)
        good = LogicSimulator(c17_circuit).simulate(patterns)
        matrix = sim.detection_matrix([StuckAtFault("22", 0)], patterns)
        for p in range(32):
            assert bool(matrix[0, p]) == (good.value("22", p) == 1)

    def test_input_fault_detectable(self, sim):
        matrix = sim.detection_matrix([StuckAtFault("1", 0)], exhaustive_patterns(5))
        assert matrix.any()

    def test_unknown_net_rejected(self, sim):
        with pytest.raises(FaultSimError):
            sim.detection_matrix([StuckAtFault("phantom", 0)], exhaustive_patterns(5))

    def test_empty_fault_list(self, sim):
        assert sim.coverage([], exhaustive_patterns(5)) == 1.0


class TestRandomVectorCoverage:
    def test_more_vectors_more_coverage(self, small_circuit):
        sim = StuckAtSimulator(small_circuit)
        faults = enumerate_stuck_at_faults(small_circuit)[:120]
        few = sim.coverage(faults, random_patterns(len(small_circuit.input_names), 4, seed=1))
        many = sim.coverage(
            faults, random_patterns(len(small_circuit.input_names), 256, seed=1)
        )
        assert many >= few

    def test_matrix_shape(self, small_circuit):
        sim = StuckAtSimulator(small_circuit)
        faults = enumerate_stuck_at_faults(small_circuit)[:10]
        patterns = random_patterns(len(small_circuit.input_names), 70, seed=2)
        matrix = sim.detection_matrix(faults, patterns)
        assert matrix.shape == (10, 70)


class TestCollapsing:
    def test_root_is_fixpoint(self, small_circuit):
        sim = StuckAtSimulator(small_circuit)
        for fault in enumerate_stuck_at_faults(small_circuit):
            root = sim.collapse_root(fault)
            assert sim.collapse_root(root) == root

    def test_class_members_share_detection_rows(self, small_circuit):
        """Every fault's detection row equals its class root's row —
        the property that makes simulating one representative sound."""
        sim = StuckAtSimulator(small_circuit)
        faults = enumerate_stuck_at_faults(small_circuit)
        roots = [sim.collapse_root(f) for f in faults]
        patterns = random_patterns(len(small_circuit.input_names), 96, seed=3)
        fault_matrix = sim.detection_matrix(faults, patterns)
        root_matrix = ReferenceStuckAtSimulator(small_circuit).detection_matrix(
            roots, patterns
        )
        assert np.array_equal(fault_matrix, root_matrix)

    def test_collapsing_shrinks_the_class_count(self, small_circuit):
        sim = StuckAtSimulator(small_circuit)
        faults = enumerate_stuck_at_faults(small_circuit)
        roots = {sim.collapse_root(f) for f in faults}
        assert len(roots) < len(faults)

    def test_unknown_net_rejected(self, c17_circuit):
        with pytest.raises(FaultSimError):
            StuckAtSimulator(c17_circuit).collapse_root(StuckAtFault("ghost", 1))


class TestNoPrimaryOutputs:
    """Regression: ``detection_matrix`` used to crash with an IndexError
    (``good_outputs[0]``) when the circuit exposes no primary outputs."""

    @pytest.fixture()
    def no_output_circuit(self):
        from repro.netlist.circuit import Circuit

        base = c17()  # lru-cached: rebuild before stripping the outputs
        circuit = Circuit("c17_no_outputs", list(base), base.output_names)
        circuit._outputs = ()  # outputs removed post-validation
        return circuit

    @pytest.mark.parametrize("simulator_class", [StuckAtSimulator, ReferenceStuckAtSimulator])
    def test_detection_matrix_all_false(self, no_output_circuit, simulator_class):
        sim = simulator_class(no_output_circuit)
        faults = [StuckAtFault("10", 0), StuckAtFault("22", 1)]
        matrix = sim.detection_matrix(faults, exhaustive_patterns(5))
        assert matrix.shape == (2, 32)
        assert not matrix.any()

    @pytest.mark.parametrize("simulator_class", [StuckAtSimulator, ReferenceStuckAtSimulator])
    def test_coverage_zero(self, no_output_circuit, simulator_class):
        sim = simulator_class(no_output_circuit)
        faults = [StuckAtFault("10", 0)]
        assert sim.coverage(faults, exhaustive_patterns(5)) == 0.0
        assert sim.coverage([], exhaustive_patterns(5)) == 1.0
