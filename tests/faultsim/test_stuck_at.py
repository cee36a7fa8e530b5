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
from repro.netlist.builder import CircuitBuilder
from repro.runtime.parallel import sharded_detection_matrix


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
    def test_unknown_net_rejected(self, small_circuit):
        """An unknown net fails the whole build, wherever it sits in the
        fault list and at any worker count."""
        sim = StuckAtSimulator(small_circuit)
        known = enumerate_stuck_at_faults(small_circuit)[:6]
        patterns = random_patterns(len(small_circuit.input_names), 8, seed=4)
        ghost = StuckAtFault("ghost", 1)
        for faults in ([ghost], [ghost, *known], [*known, ghost], [*known[:3], ghost]):
            for jobs in (None, 2):
                with pytest.raises(FaultSimError, match="ghost"):
                    sim.detection_matrix(faults, patterns, jobs=jobs)


def _built(name, gates, outputs):
    """A hand-built circuit: ``gates`` maps a net to ``(type, fanins)``
    (``None`` for a primary input)."""
    builder = CircuitBuilder(name)
    for net, spec in gates.items():
        if spec is None:
            builder.input(net)
        else:
            builder.gate(net, spec[0], spec[1])
    return builder.outputs(outputs).build()


def _assert_matches_reference(circuit, faults=None):
    faults = enumerate_stuck_at_faults(circuit) if faults is None else faults
    patterns = exhaustive_patterns(len(circuit.input_names))
    matrix = StuckAtSimulator(circuit).detection_matrix(faults, patterns)
    reference = ReferenceStuckAtSimulator(circuit).detection_matrix(faults, patterns)
    assert np.array_equal(matrix, reference)
    return matrix


class TestCriticalPathTracing:
    """Purpose-built fanout-free regions against the serial reference,
    every fault on exhaustive patterns."""

    def test_output_that_also_fans_out(self):
        # "y" is a primary output and feeds "z": a stem twice over.
        circuit = _built(
            "po_fanout",
            {
                "a": None, "b": None, "c": None,
                "y": ("NAND", ["a", "b"]),
                "z": ("AND", ["y", "c"]),
            },
            ["y", "z"],
        )
        sim = StuckAtSimulator(circuit)
        assert sim._stem_of[sim.row_of["y"]] == sim.row_of["y"]
        matrix = _assert_matches_reference(circuit)
        y_sa1 = enumerate_stuck_at_faults(circuit).index(StuckAtFault("y", 1))
        assert matrix[y_sa1].any()

    def test_input_with_fanout_one(self):
        # "a" feeds only "n", so its faults are traced through "n".
        circuit = _built(
            "pi_fanout_one",
            {
                "a": None, "b": None, "c": None,
                "n": ("OR", ["a", "b"]),
                "m": ("NOT", ["n"]),
                "y": ("AND", ["m", "c", "b"]),
            },
            ["y"],
        )
        sim = StuckAtSimulator(circuit)
        assert sim._stem_of[sim.row_of["a"]] == sim.row_of["y"]
        _assert_matches_reference(circuit)

    def test_xor_xnor_tree(self):
        circuit = _built(
            "parity",
            {
                "a": None, "b": None, "c": None, "d": None, "e": None,
                "p": ("XOR", ["a", "b"]),
                "q": ("XNOR", ["c", "d"]),
                "r": ("XOR", ["p", "q", "e"]),
                "y": ("XNOR", ["r", "a"]),
            },
            ["y"],
        )
        matrix = _assert_matches_reference(circuit)
        # A parity tree passes every flip, so a tree net's fault is seen
        # whenever its fault-free value differs from the stuck value;
        # the stem "a" reaches "y" twice and its flips cancel there.
        seen = dict(zip(circuit.all_names, matrix.sum(axis=1).reshape(-1, 2)))
        assert seen.pop("a").tolist() == [0, 0]
        assert all(counts.tolist() == [16, 16] for counts in seen.values())

    def test_dangling_net_rows_all_false(self):
        # "d" is neither an output nor read by any gate; "t" feeds only it.
        circuit = _built(
            "dangling",
            {
                "a": None, "b": None,
                "y": ("AND", ["a", "b"]),
                "t": ("NOT", ["b"]),
                "d": ("NOR", ["t", "a"]),
            },
            ["y"],
        )
        faults = [StuckAtFault(net, v) for net in ("d", "t") for v in (0, 1)]
        assert not _assert_matches_reference(circuit, faults).any()
        _assert_matches_reference(circuit)

    def test_sharded_equals_serial(self, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)
        faults = faults[::3] + faults[5:40]  # duplicates included
        patterns = random_patterns(len(small_circuit.input_names), 100, seed=6)
        serial = StuckAtSimulator(small_circuit).detection_matrix(faults, patterns)
        fast = StuckAtSimulator(small_circuit)
        fast.batch_words = 8  # several passes in each of several shards
        assert np.array_equal(
            sharded_detection_matrix(small_circuit, faults, patterns, jobs=2), serial
        )
        assert np.array_equal(fast.detection_matrix(faults, patterns, jobs=2), serial)


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
