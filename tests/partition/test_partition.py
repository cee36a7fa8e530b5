"""Tests for the Partition data structure."""

import random

import numpy as np
import pytest

from repro.config import EvolutionParams
from repro.errors import PartitionError
from repro.optimize.evolution import evolve_partition
from repro.optimize.standard import standard_partition
from repro.optimize.start import chain_start_partition
from repro.partition.partition import Partition


class TestConstruction:
    def test_from_groups(self, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        assert partition.num_modules == 2
        assert partition.module_of_name("g1") == partition.module_of_name("O2")

    def test_single_module(self, c17_paper):
        partition = Partition.single_module(c17_paper)
        assert partition.num_modules == 1
        assert partition.module_size(0) == 6

    def test_incomplete_cover_rejected(self, c17_paper):
        with pytest.raises(PartitionError, match="cover"):
            Partition(c17_paper, {0: 0, 1: 0})

    def test_unknown_gate_rejected(self, c17_paper):
        with pytest.raises(PartitionError, match="unknown"):
            Partition.from_groups(c17_paper, [{"g1", "nope"}])

    def test_overlapping_groups_rejected(self, c17_paper):
        with pytest.raises(PartitionError, match="two groups"):
            Partition.from_groups(
                c17_paper, [{"g1", "g2", "g3", "g4", "O2"}, {"O2", "O3"}]
            )

    def test_copy_independent(self, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        clone = partition.copy()
        gate = c17_paper.gate_index["g1"]
        clone.move_gate(gate, 1)
        assert partition.module_of(gate) == 0
        assert clone.module_of(gate) == 1


def _assert_same_layout(got: Partition, want: Partition) -> None:
    """Equal partitions whose dicts and sets also iterate alike."""
    assert np.array_equal(got.module_of_array(), want.module_of_array())
    assert got.module_of_array().dtype == np.int32
    assert got._modules == want._modules
    assert got._next_id == want._next_id
    assert list(got._modules) == list(want._modules)
    for module, gates in want._modules.items():
        assert list(got._modules[module]) == list(gates)


class TestFromArray:
    @pytest.mark.parametrize("length", [0, 5, 7])
    def test_wrong_length_rejected(self, c17_paper, length):
        with pytest.raises(PartitionError, match="one module id per logic gate"):
            Partition.from_array(c17_paper, np.zeros(length, dtype=np.int64))

    def test_two_dimensional_rejected(self, c17_paper):
        with pytest.raises(PartitionError, match="one module id per logic gate"):
            Partition.from_array(c17_paper, np.zeros((6, 1), dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, 2**31])
    def test_out_of_range_id_rejected(self, c17_paper, bad):
        with pytest.raises(PartitionError, match="module ids must lie"):
            Partition.from_array(c17_paper, [0, 1, bad, 1, 0, 0])

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_dtype_rejected(self, c17_paper, dtype):
        with pytest.raises(PartitionError, match="must be integers"):
            Partition.from_array(c17_paper, np.zeros(6, dtype=dtype))

    def test_matches_the_mapping_constructor(self, small_circuit):
        """Gaps and unordered ids, as ``dict(enumerate(...))`` gives."""
        rng = random.Random(5)
        n = len(small_circuit.gate_names)
        assignment = [rng.choice([9, 2, 40, 7]) for _ in range(n)]
        _assert_same_layout(
            Partition.from_array(small_circuit, np.array(assignment, dtype=np.int16)),
            Partition(small_circuit, dict(enumerate(assignment))),
        )

    def test_round_trips_chain_standard_and_es(self, small_evaluator):
        circuit = small_evaluator.circuit
        params = EvolutionParams(mu=2, generations=3)
        partitions = [
            chain_start_partition(small_evaluator, 5, random.Random(seed))
            for seed in range(3)
        ] + [
            standard_partition(small_evaluator, 4),
            evolve_partition(small_evaluator, params, seed=1).best.partition,
        ]
        for partition in partitions:
            again = Partition.from_array(circuit, partition.module_of_array())
            assert again._modules == partition._modules
            assert again._next_id == max(partition.module_ids) + 1
            _assert_same_layout(
                again,
                Partition(circuit, dict(enumerate(partition.module_of_array()))),
            )


class TestQueries:
    @pytest.fixture
    def paper_partition(self, c17_paper):
        return Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )

    def test_gates_of(self, paper_partition, c17_paper):
        index = c17_paper.gate_index
        assert paper_partition.gates_of(0) == frozenset(
            {index["g1"], index["g3"], index["O2"]}
        )

    def test_gates_of_unknown_module(self, paper_partition):
        with pytest.raises(PartitionError):
            paper_partition.gates_of(42)

    def test_boundary_gates(self, paper_partition, c17_paper):
        index = c17_paper.gate_index
        names = {v: k for k, v in index.items()}
        boundary0 = {names[g] for g in paper_partition.boundary_gates(0)}
        # g3 = NAND(I2, g2) touches module 1; O2 touches only module-0
        # gates (g1, g3); g1 touches only O2.
        assert "g3" in boundary0
        assert "g1" not in boundary0

    def test_neighbor_modules(self, paper_partition, c17_paper):
        index = c17_paper.gate_index
        assert paper_partition.neighbor_modules(index["g3"]) == (1,)
        assert paper_partition.neighbor_modules(index["g1"]) == ()

    def test_as_name_groups(self, paper_partition):
        groups = paper_partition.as_name_groups()
        assert frozenset({"g1", "g3", "O2"}) in groups

    def test_canonical_ignores_ids(self, c17_paper):
        p1 = Partition.from_groups(c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}])
        p2 = Partition.from_groups(c17_paper, [{"g2", "g4", "O3"}, {"g1", "g3", "O2"}])
        assert p1.canonical() == p2.canonical()


class TestMoves:
    def test_move_updates_both_modules(self, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        gate = c17_paper.gate_index["g3"]
        source = partition.move_gate(gate, 1)
        assert source == 0
        assert partition.module_size(0) == 2
        assert partition.module_size(1) == 4
        partition.check_invariants()

    def test_emptied_module_deleted(self, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1"}, {"g2", "g3", "g4", "O2", "O3"}]
        )
        gate = c17_paper.gate_index["g1"]
        partition.move_gate(gate, 1)
        assert partition.num_modules == 1
        assert 0 not in partition.module_ids

    def test_move_to_same_module_rejected(self, c17_paper):
        partition = Partition.single_module(c17_paper)
        with pytest.raises(PartitionError):
            partition.move_gate(0, 0)

    def test_move_to_unknown_module_rejected(self, c17_paper):
        partition = Partition.single_module(c17_paper)
        with pytest.raises(PartitionError):
            partition.move_gate(0, 9)

    def test_split_new_module(self, c17_paper):
        partition = Partition.single_module(c17_paper)
        index = c17_paper.gate_index
        new_id = partition.split_new_module([index["g1"], index["g2"]])
        assert partition.num_modules == 2
        assert partition.module_size(new_id) == 2
        partition.check_invariants()

    def test_split_empty_rejected(self, c17_paper):
        with pytest.raises(PartitionError):
            Partition.single_module(c17_paper).split_new_module([])

    def test_merge_modules(self, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        partition.merge_modules(0, 1)
        assert partition.num_modules == 1
        assert partition.module_size(0) == 6
        partition.check_invariants()

    def test_merge_self_rejected(self, c17_paper):
        partition = Partition.single_module(c17_paper)
        with pytest.raises(PartitionError):
            partition.merge_modules(0, 0)

    def test_module_ids_never_reused(self, c17_paper):
        partition = Partition.from_groups(
            c17_paper, [{"g1"}, {"g2", "g3", "g4", "O2", "O3"}]
        )
        index = c17_paper.gate_index
        partition.move_gate(index["g1"], 1)  # module 0 dies
        new_id = partition.split_new_module([index["g1"]])
        assert new_id not in (0, 1)
