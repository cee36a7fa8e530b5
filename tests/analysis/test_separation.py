"""Tests for the capped BFS separation metric."""

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


class TestSumsByGroup:
    """The float32 matmul behind ``sums_by_group`` is exact: both its
    branches equal an ``int64`` reference on the largest stand-in."""

    @pytest.fixture(scope="class")
    def c7552_matrix(self):
        from repro.netlist.benchmarks import load_iscas85

        return SeparationMatrix(load_iscas85("c7552"), cap=10)

    @staticmethod
    def _reference(matrix, gates, group_of_gate, num_groups):
        rows = matrix.matrix[gates]
        out = np.zeros((len(gates), num_groups), dtype=np.int64)
        for group in range(num_groups):
            out[:, group] = rows[:, group_of_gate == group].sum(axis=1, dtype=np.int64)
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_gates", [40, 3000])  # gathered rows, full matmul
    def test_matches_int64_reference(self, c7552_matrix, seed, num_gates):
        rng = np.random.default_rng(seed)
        n = c7552_matrix.matrix.shape[0]
        num_groups = int(rng.integers(1, 12))
        group_of_gate = rng.integers(-1, num_groups, size=n)
        gates = rng.integers(0, n, size=num_gates)
        got = c7552_matrix.sums_by_group(gates, group_of_gate, num_groups)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, self._reference(c7552_matrix, gates, group_of_gate, num_groups)
        )

    def test_copy_is_float32(self, c7552_matrix):
        n = c7552_matrix.matrix.shape[0]
        c7552_matrix.sums_by_group(np.arange(n), np.zeros(n, dtype=np.int64), 1)
        assert c7552_matrix._matrix_f32.dtype == np.float32

    def test_small_set_builds_no_copy(self, c7552_matrix):
        fresh = SeparationMatrix.from_matrix(c7552_matrix.matrix, c7552_matrix.cap)
        n = fresh.matrix.shape[0]
        fresh.sums_by_group(np.arange(64), np.zeros(n, dtype=np.int64), 1)
        assert fresh._matrix_f32 is None

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_branches_agree(self, c7552_matrix, seed):
        rng = np.random.default_rng(seed)
        n = c7552_matrix.matrix.shape[0]
        num_groups = int(rng.integers(1, 12))
        group_of_gate = rng.integers(-1, num_groups, size=n)
        small = rng.integers(0, n, size=64)  # gathered rows
        large = np.concatenate([small, rng.integers(0, n, size=3000)])  # full matmul
        gathered = c7552_matrix.sums_by_group(small, group_of_gate, num_groups)
        whole = c7552_matrix.sums_by_group(large, group_of_gate, num_groups)
        assert gathered.dtype == whole.dtype == np.int64
        assert np.array_equal(gathered, whole[: small.size])
