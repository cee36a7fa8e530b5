"""Tests for the bit-parallel logic simulator, including a differential
property test against a naive per-pattern interpreter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultSimError
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import sample_bridging_faults
from repro.faultsim.logic_sim import LogicSimulator
from repro.faultsim.patterns import exhaustive_patterns, random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.netlist.gate import evaluate_gate
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.partition.partition import Partition


def naive_simulate(circuit, patterns):
    """Reference interpreter: one gate at a time, one pattern at a time."""
    results = []
    for pattern in patterns:
        values = dict(zip(circuit.input_names, (int(b) for b in pattern)))
        for name in circuit.topological_order:
            gate = circuit.gate(name)
            if gate.gate_type.is_input:
                continue
            values[name] = evaluate_gate(
                gate.gate_type, [values[f] for f in gate.fanins]
            )
        results.append([values[o] for o in circuit.output_names])
    return np.asarray(results, dtype=np.uint8)


class TestC17Exhaustive:
    def test_all_32_patterns(self, c17_circuit):
        patterns = exhaustive_patterns(5)
        fast = LogicSimulator(c17_circuit).simulate_outputs(patterns)
        slow = naive_simulate(c17_circuit, patterns)
        assert (fast == slow).all()


class TestNodeValues:
    def test_value_accessor(self, c17_circuit):
        patterns = exhaustive_patterns(5)
        values = LogicSimulator(c17_circuit).simulate(patterns)
        # Pattern 0b11111 = all ones: gate 10 = NAND(1,1) = 0.
        last = patterns.shape[0] - 1
        assert values.value("10", last) == 0
        assert values.value("1", last) == 1

    def test_value_bounds_checked(self, c17_circuit):
        values = LogicSimulator(c17_circuit).simulate(exhaustive_patterns(5))
        with pytest.raises(FaultSimError):
            values.value("10", 32)

    def test_node_bits_roundtrip(self, c17_circuit):
        patterns = exhaustive_patterns(5)
        values = LogicSimulator(c17_circuit).simulate(patterns)
        bits = values.node_bits("1")
        assert (bits == patterns[:, 0]).all()

    def test_unpack_shape(self, c17_circuit):
        values = LogicSimulator(c17_circuit).simulate(exhaustive_patterns(5))
        matrix = values.unpack(["22", "23"])
        assert matrix.shape == (32, 2)


class TestInputValidation:
    def test_wrong_width_rejected(self, c17_circuit):
        sim = LogicSimulator(c17_circuit)
        with pytest.raises(FaultSimError, match="expected"):
            sim.simulate(np.zeros((4, 3), dtype=np.uint8))

    def test_empty_patterns_rejected(self, c17_circuit):
        sim = LogicSimulator(c17_circuit)
        with pytest.raises(FaultSimError):
            sim.simulate(np.zeros((0, 5), dtype=np.uint8))

    @pytest.mark.parametrize(
        "bad",
        [
            np.full((4, 5), 2, dtype=np.int64),
            np.full((4, 5), -1, dtype=np.int8),
            np.full((4, 5), 255, dtype=np.uint8),
            np.zeros((4, 5), dtype=np.float64),
            np.full((4, 5), "1"),
        ],
        ids=["two", "minus-one", "uint8-255", "float", "str"],
    )
    def test_non_binary_patterns_rejected(self, c17_circuit, bad):
        """Values other than 0/1, or a dtype other than bool/integer, are
        refused — not read as their low bit, not a raw ``TypeError`` —
        through every consumer of the simulator."""
        patterns = bad.copy()
        patterns[0] = 0  # one valid row does not make the matrix valid
        with pytest.raises(FaultSimError, match="0/1"):
            LogicSimulator(c17_circuit).simulate(patterns)
        faults = enumerate_stuck_at_faults(c17_circuit)[:4]
        with pytest.raises(FaultSimError, match="0/1"):
            StuckAtSimulator(c17_circuit).detection_matrix(faults, patterns)
        defects = sample_bridging_faults(c17_circuit, 2, seed=1)
        single = Partition.single_module(c17_circuit)
        with pytest.raises(FaultSimError, match="0/1"):
            CoverageEngine(c17_circuit).detection_matrix(single, defects, patterns)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int8, np.int64, np.uint64])
    def test_binary_dtypes_accepted_alike(self, c17_circuit, dtype):
        patterns = exhaustive_patterns(5)
        sim = LogicSimulator(c17_circuit)
        expected = sim.simulate(patterns).packed
        assert np.array_equal(sim.simulate(patterns.astype(dtype)).packed, expected)


class TestWordBoundaries:
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 127, 128, 200])
    def test_pattern_counts_across_word_edges(self, c17_circuit, count):
        patterns = random_patterns(5, count, seed=count)
        fast = LogicSimulator(c17_circuit).simulate_outputs(patterns)
        slow = naive_simulate(c17_circuit, patterns)
        assert fast.shape == (count, 2)
        assert (fast == slow).all()


class TestDifferentialProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        num_gates=st.integers(5, 60),
        num_inputs=st.integers(2, 6),
        depth=st.integers(2, 8),
        seed=st.integers(0, 100_000),
        count=st.integers(1, 100),
    )
    def test_bit_parallel_equals_interpreter(
        self, num_gates, num_inputs, depth, seed, count
    ):
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="ls",
                num_gates=num_gates,
                num_inputs=num_inputs,
                num_outputs=2,
                depth=min(depth, num_gates),
                seed=seed,
            )
        )
        patterns = random_patterns(num_inputs, count, seed=seed)
        fast = LogicSimulator(circuit).simulate_outputs(patterns)
        slow = naive_simulate(circuit, patterns)
        assert (fast == slow).all()
