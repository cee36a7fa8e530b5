"""Tests for the capped BFS separation metric."""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.separation import SeparationMatrix, module_separation


class TestC17Distances:
    @pytest.fixture(scope="class")
    def matrix(self, c17_paper):
        return SeparationMatrix(c17_paper, cap=10)

    def test_self_distance_zero(self, matrix, c17_paper):
        index = c17_paper.gate_index
        for name in c17_paper.gate_names:
            assert matrix.distance(index[name], index[name]) == 0

    def test_adjacent_gates(self, matrix, c17_paper):
        index = c17_paper.gate_index
        # g3 = NAND(I2, g2): g2 and g3 are adjacent.
        assert matrix.distance(index["g2"], index["g3"]) == 1
        # O2 = NAND(g1, g3).
        assert matrix.distance(index["g1"], index["O2"]) == 1

    def test_distance_through_primary_input(self, matrix, c17_paper):
        """g1 = NAND(I1, I3) and g2 = NAND(I3, I4) meet at input I3 —
        the undirected graph routes through it (distance 2)."""
        index = c17_paper.gate_index
        assert matrix.distance(index["g1"], index["g2"]) == 2

    def test_symmetry(self, matrix, c17_paper):
        n = len(c17_paper.gate_names)
        assert (matrix.matrix == matrix.matrix.T).all()

    def test_paper_optimum_modules_tightly_connected(self, matrix, c17_paper):
        index = c17_paper.gate_index
        module_a = np.asarray([index[g] for g in ("g1", "g3", "O2")])
        module_b = np.asarray([index[g] for g in ("g2", "g4", "O3")])
        # Hand-computed: S(A) = 1+1+2 = 4, S(B) = 1+1+2 = 4.
        assert matrix.module_sum(module_a) == 4
        assert matrix.module_sum(module_b) == 4


class TestCap:
    def test_cap_applies(self, c17_paper):
        tight = SeparationMatrix(c17_paper, cap=2)
        index = c17_paper.gate_index
        # g1 to O3 is 3 hops; capped to 2.
        assert tight.distance(index["g1"], index["O3"]) == 2

    def test_cap_bounds(self, c17_paper):
        with pytest.raises(ValueError):
            SeparationMatrix(c17_paper, cap=0)
        with pytest.raises(ValueError):
            SeparationMatrix(c17_paper, cap=300)

    def test_disconnected_pairs_get_cap(self):
        """Two independent chains never meet: distance == cap."""
        from repro.netlist.builder import CircuitBuilder
        from repro.netlist.gate import GateType

        builder = CircuitBuilder("two")
        builder.input("a").input("b")
        builder.gate("ga", GateType.NOT, ["a"]).output("ga")
        builder.gate("gb", GateType.NOT, ["b"]).output("gb")
        circuit = builder.build()
        matrix = SeparationMatrix(circuit, cap=7)
        index = circuit.gate_index
        assert matrix.distance(index["ga"], index["gb"]) == 7


class TestBuildMemory:
    def test_traced_peak_below_twice_the_matrix_c7552(self):
        """The build's temporaries are cache-sized blocks, never a second
        ``n × n`` array."""
        from repro.netlist.benchmarks import load_iscas85

        circuit = load_iscas85("c7552")
        SeparationMatrix(circuit, cap=10)  # warm the compiled graph
        tracemalloc.start()
        try:
            matrix = SeparationMatrix(circuit, cap=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * matrix.matrix.nbytes


class TestSums:
    def test_sum_to_group_matches_matrix(self, c17_paper):
        matrix = SeparationMatrix(c17_paper, cap=10)
        index = c17_paper.gate_index
        group = np.asarray([index["g2"], index["g4"], index["O3"]])
        g1 = index["g1"]
        by_hand = sum(matrix.distance(g1, h) for h in group)
        assert matrix.sum_to_group(g1, group) == by_hand

    def test_module_sum_pairwise(self, c17_paper):
        matrix = SeparationMatrix(c17_paper, cap=10)
        index = c17_paper.gate_index
        group = np.asarray([index[g] for g in ("g1", "g2", "g3", "g4")])
        by_hand = 0
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                by_hand += matrix.distance(group[i], group[j])
        assert matrix.module_sum(group) == by_hand

    def test_small_groups(self, c17_paper):
        matrix = SeparationMatrix(c17_paper, cap=10)
        assert matrix.module_sum(np.asarray([], dtype=np.int64)) == 0.0
        assert matrix.module_sum(np.asarray([0])) == 0.0

    def test_one_shot_helper(self, c17_paper):
        value = module_separation(c17_paper, ("g1", "g3", "O2"), cap=10)
        assert value == 4

