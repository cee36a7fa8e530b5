"""Structural tests for the CompiledGraph CSR kernel."""

from __future__ import annotations

import numpy as np
import pytest

import standins
from repro.netlist.benchmarks import c17, load_iscas85
from repro.netlist.compiled import (
    GATE_TYPE_CODES,
    OP_AND,
    OP_OR,
    OP_XOR,
    compile_circuit,
    csr_gather,
    sorted_unique,
)
from repro.netlist.gate import GateType
from repro.netlist.generate import GeneratorConfig, generate_iscas_like


@pytest.fixture(scope="module", params=["c17", "gen", "c880", "shuffled"])
def circuit(request):
    if request.param == "c17":
        return c17()
    if request.param == "shuffled":
        # Gate lines out of level order: nets are used before defined.
        return standins.shuffled("c880")
    if request.param == "gen":
        return generate_iscas_like(
            GeneratorConfig(
                name="cg-gen", num_gates=150, num_inputs=14, num_outputs=9,
                depth=11, seed=21,
            )
        )
    return load_iscas85("c880")


class TestSpaces:
    def test_counts(self, circuit):
        cg = circuit.compiled
        assert cg.num_nodes == len(circuit.all_names)
        assert cg.num_inputs == len(circuit.input_names)
        assert cg.num_gates == len(circuit.gate_names)
        assert cg.num_sim_rows == cg.num_nodes + 2

    def test_space_maps_roundtrip(self, circuit):
        cg = circuit.compiled
        assert np.array_equal(
            cg.node_gate[cg.gate_node], np.arange(cg.num_gates)
        )
        gate_mask = cg.node_gate >= 0
        assert gate_mask.sum() == cg.num_gates
        names = circuit.all_names
        for g, name in enumerate(circuit.gate_names):
            assert names[cg.gate_node[g]] == name
        for i, name in enumerate(circuit.input_names):
            assert names[cg.input_node[i]] == name

    def test_type_codes(self, circuit):
        cg = circuit.compiled
        names = circuit.all_names
        for node in range(cg.num_nodes):
            assert GATE_TYPE_CODES[cg.type_code[node]] is circuit.gate(names[node]).gate_type


class TestConnectivity:
    def test_fanin_rows_match_declaration_order(self, circuit):
        cg = circuit.compiled
        names = circuit.all_names
        index = {name: i for i, name in enumerate(names)}
        for node, name in enumerate(names):
            row = cg.fanin_indices[cg.fanin_indptr[node] : cg.fanin_indptr[node + 1]]
            assert [names[f] for f in row] == list(circuit.gate(name).fanins)
            assert [index[f] for f in circuit.gate(name).fanins] == row.tolist()

    def test_fanout_rows_match_dict(self, circuit):
        cg = circuit.compiled
        names = circuit.all_names
        for node, name in enumerate(names):
            row = cg.fanout_indices[cg.fanout_indptr[node] : cg.fanout_indptr[node + 1]]
            assert tuple(names[s] for s in row) == circuit.fanouts[name]

    def test_undirected_adjacency_matches_dict(self, circuit):
        cg = circuit.compiled
        names = circuit.all_names
        for node, name in enumerate(names):
            row = cg.adj_indices[cg.adj_indptr[node] : cg.adj_indptr[node + 1]]
            assert {names[n] for n in row} == set(circuit.undirected_adjacency[name])
            assert sorted(row.tolist()) == row.tolist()  # rows are sorted

    def test_gate_adjacency_matches_gate_neighbors(self, circuit):
        cg = circuit.compiled
        for g, expected in enumerate(circuit.gate_neighbors):
            row = cg.gate_adj_indices[
                cg.gate_adj_indptr[g] : cg.gate_adj_indptr[g + 1]
            ]
            assert tuple(row.tolist()) == expected

    def test_gate_edges_list_each_adjacency_once(self, circuit):
        u, v = circuit.compiled.gate_edges()
        assert u.dtype == v.dtype == np.intp
        edges = list(zip(u.tolist(), v.tolist()))
        assert edges == sorted(
            (g, h) for g, row in enumerate(circuit.gate_neighbors) for h in row if g < h
        )
        assert circuit.compiled.gate_edges()[0] is u  # cached


class TestOrder:
    def test_topo_matches_circuit(self, circuit):
        cg = circuit.compiled
        names = circuit.all_names
        assert tuple(names[n] for n in cg.topo) == circuit.topological_order

    def test_levels_match_circuit(self, circuit):
        cg = circuit.compiled
        names = circuit.all_names
        assert {names[i]: int(cg.level[i]) for i in range(cg.num_nodes)} == circuit.levels
        assert cg.depth == circuit.depth
        assert np.array_equal(cg.gate_level, cg.level[cg.gate_node])

    def test_level_groups_cover_gates_in_file_order(self, circuit):
        cg = circuit.compiled
        seen: list[int] = []
        for lvl, group in enumerate(cg.level_groups, start=1):
            assert np.all(cg.level[group.nodes] == lvl)
            seen.extend(group.nodes.tolist())
            # flattened fanins agree with the CSR fanin table
            for pos, node in enumerate(group.nodes):
                start = group.offsets[pos]
                row = group.fanins[start : start + group.counts[pos]]
                expected = cg.fanin_indices[
                    cg.fanin_indptr[node] : cg.fanin_indptr[node + 1]
                ]
                assert np.array_equal(row, expected)
        assert sorted(seen) == cg.gate_node.tolist()  # gate_node ascends in file order


class TestSimGroups:
    def test_each_gate_scheduled_exactly_once(self, circuit):
        cg = circuit.compiled
        dst = np.concatenate([g.dst for g in cg.sim_groups])
        assert sorted(dst.tolist()) == sorted(cg.gate_node.tolist())

    def test_src_rows_are_fanins_plus_identity_padding(self, circuit):
        cg = circuit.compiled
        for group in cg.sim_groups:
            pad = cg.ones_row if group.op == OP_AND else cg.zero_row
            assert group.op in (OP_AND, OP_OR, OP_XOR)
            for i, node in enumerate(group.dst):
                fanins = cg.fanin_indices[
                    cg.fanin_indptr[node] : cg.fanin_indptr[node + 1]
                ]
                row = group.src[i]
                assert np.array_equal(row[: len(fanins)], fanins)
                assert np.all(row[len(fanins) :] == pad)
                gate_type = GATE_TYPE_CODES[cg.type_code[node]]
                expected_invert = np.uint64(0xFFFFFFFFFFFFFFFF) if gate_type.is_inverting else np.uint64(0)
                assert group.invert[i, 0] == expected_invert

    def test_groups_respect_level_order(self, circuit):
        cg = circuit.compiled
        produced = set(cg.input_node.tolist())
        for group in cg.sim_groups:
            for i, node in enumerate(group.dst):
                fanins = cg.fanin_indices[
                    cg.fanin_indptr[node] : cg.fanin_indptr[node + 1]
                ]
                assert all(f in produced for f in fanins.tolist())
            produced.update(group.dst.tolist())


class TestCsrGather:
    def test_matches_row_slices(self, circuit):
        cg = circuit.compiled
        keys = np.arange(0, cg.num_gates, 2, dtype=np.int64)
        values, counts = csr_gather(cg.gate_adj_indptr, cg.gate_adj_indices, keys)
        cursor = 0
        for k, count in zip(keys, counts):
            row = cg.gate_adj_indices[
                cg.gate_adj_indptr[k] : cg.gate_adj_indptr[k + 1]
            ]
            assert np.array_equal(values[cursor : cursor + count], row)
            cursor += count
        assert cursor == len(values)

    def test_empty_keys(self, circuit):
        cg = circuit.compiled
        values, counts = csr_gather(
            cg.gate_adj_indptr, cg.gate_adj_indices, np.empty(0, dtype=np.int64)
        )
        assert values.size == 0 and counts.size == 0

    def test_buf_and_not_fold_into_and_groups(self):
        circuit = c17()
        cg = circuit.compiled
        # C17 is all NAND: every group must be an inverted AND batch.
        assert all(g.op == OP_AND for g in cg.sim_groups)
        assert all((g.invert != 0).all() for g in cg.sim_groups)


class TestSortedUnique:
    """``sorted_unique`` equals a bare ``np.unique`` in values and dtype."""

    @pytest.mark.parametrize(
        "values",
        [
            np.empty(0, dtype=np.int64),
            np.empty((0, 3), dtype=np.int32),
            np.array([5], dtype=np.int8),
            np.array([3, 1, 3, 3, 0, 1, 7, 7], dtype=np.int64),
            np.full(9, 4, dtype=np.int32),
            np.array([[2, 9, 2], [9, 0, 2]], dtype=np.int64),
            np.arange(24, dtype=np.uint64).reshape(2, 3, 4) % 5,
            np.array([-(1 << 62), 1 << 62, -1, 0, -1], dtype=np.int64),
            [4, 2, 4, 1],
            [],
        ],
        ids=["empty", "empty-2d", "one", "repeats", "all-equal", "2d", "3d-uint",
             "extremes", "list", "empty-list"],
    )
    def test_matches_np_unique(self, values):
        expected = np.unique(values)
        got = sorted_unique(values)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_random_integers(self):
        rng = np.random.default_rng(1995)
        for size in (1, 2, 17, 300, 5000):
            values = rng.integers(-50, 50, size=size).astype(np.int32)
            expected = np.unique(values)
            got = sorted_unique(values)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_leaves_input_unchanged(self):
        values = np.array([3, 1, 2, 1])
        sorted_unique(values)
        assert values.tolist() == [3, 1, 2, 1]
