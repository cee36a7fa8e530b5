"""Reference compile: one numpy row per node and per gate.

The :func:`repro.netlist.compiled.compile_circuit` that built every
CSR row with its own ``np.asarray`` / ``np.unique`` call, each level
group by concatenating per-node rows, and the simulation schedule with
a per-gate loop.  The whole-graph compile must reproduce it field for
field: the same values, dtypes and shapes in every array of the
:class:`~repro.netlist.compiled.CompiledGraph`, its level groups and
its simulation groups.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.compiled import (
    _ALL_ONES,
    _BASE_OP,
    _CODE_OF,
    GATE_TYPE_CODES,
    OP_AND,
    CompiledGraph,
    LevelGroup,
    SimGroup,
)


def _csr_from_lists(rows: list[np.ndarray], dtype=np.int32) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = (
        np.concatenate(rows).astype(dtype)
        if indptr[-1]
        else np.empty(0, dtype=dtype)
    )
    return indptr.astype(np.int32), indices


def compile_circuit(circuit) -> CompiledGraph:
    """Compile ``circuit`` row by row."""
    names = circuit.all_names
    node_index = {name: i for i, name in enumerate(names)}
    num_nodes = len(names)

    gates = [circuit.gate(name) for name in names]
    type_code = np.asarray([_CODE_OF[g.gate_type] for g in gates], dtype=np.int8)

    gate_names = circuit.gate_names
    num_gates = len(gate_names)
    gate_node = np.asarray([node_index[n] for n in gate_names], dtype=np.int32)
    node_gate = np.full(num_nodes, -1, dtype=np.int32)
    node_gate[gate_node] = np.arange(num_gates, dtype=np.int32)
    input_node = np.asarray(
        [node_index[n] for n in circuit.input_names], dtype=np.int32
    )

    # Directed CSR tables (declaration order for fanins, file order for
    # fanouts — both match the dict-based structure they replace).
    fanin_rows = [
        np.asarray([node_index[f] for f in g.fanins], dtype=np.int32) for g in gates
    ]
    fanin_indptr, fanin_indices = _csr_from_lists(fanin_rows)
    fanouts = circuit.fanouts
    fanout_rows = [
        np.asarray([node_index[s] for s in fanouts[name]], dtype=np.int32)
        for name in names
    ]
    fanout_indptr, fanout_indices = _csr_from_lists(fanout_rows)

    # Undirected adjacency: union of fanins and fanouts, sorted by id.
    adj_rows = [
        np.unique(np.concatenate((fanin_rows[i], fanout_rows[i])))
        if len(fanin_rows[i]) or len(fanout_rows[i])
        else np.empty(0, dtype=np.int32)
        for i in range(num_nodes)
    ]
    adj_indptr, adj_indices = _csr_from_lists(adj_rows)

    # Gate-space undirected adjacency (primary inputs dropped), sorted —
    # identical rows to the legacy ``Circuit.gate_neighbors`` tuples.
    gate_adj_rows = []
    for g in range(num_gates):
        nbrs = node_gate[adj_rows[gate_node[g]]]
        gate_adj_rows.append(np.unique(nbrs[nbrs >= 0]).astype(np.int32))
    gate_adj_indptr, gate_adj_indices = _csr_from_lists(gate_adj_rows)

    topo = np.asarray(
        [node_index[n] for n in circuit.topological_order], dtype=np.int32
    )
    levels = circuit.levels
    level = np.asarray([levels[n] for n in names], dtype=np.int32)
    gate_level = level[gate_node]
    depth = int(circuit.depth)

    # Per-level gate groups in gate file order, with flattened fanins.
    level_groups: list[LevelGroup] = []
    for lvl in range(1, depth + 1):
        sel = np.nonzero(gate_level == lvl)[0]
        nodes = gate_node[sel]
        rows = [fanin_rows[n] for n in nodes]
        counts = np.asarray([len(r) for r in rows], dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        fanins = (
            np.concatenate(rows) if len(rows) else np.empty(0, dtype=np.int32)
        )
        level_groups.append(LevelGroup(nodes=nodes, fanins=fanins, offsets=offsets))

    zero_row = num_nodes
    ones_row = num_nodes + 1
    sim_groups = _build_sim_groups(
        level_groups, type_code, zero_row, ones_row
    )

    # Flatten the schedule into global slots (see the field comments).
    sim_group_offsets = np.zeros(len(sim_groups) + 1, dtype=np.int64)
    np.cumsum([len(g.dst) for g in sim_groups], out=sim_group_offsets[1:])
    node_of_slot = (
        np.concatenate([g.dst for g in sim_groups]).astype(np.int32)
        if sim_groups
        else np.empty(0, dtype=np.int32)
    )
    slot_of_node = np.full(num_nodes, -1, dtype=np.int32)
    slot_of_node[node_of_slot] = np.arange(len(node_of_slot), dtype=np.int32)

    return CompiledGraph(
        num_nodes=num_nodes,
        num_inputs=len(input_node),
        num_gates=num_gates,
        type_code=type_code,
        node_gate=node_gate,
        gate_node=gate_node,
        input_node=input_node,
        fanin_indptr=fanin_indptr,
        fanin_indices=fanin_indices,
        fanout_indptr=fanout_indptr,
        fanout_indices=fanout_indices,
        adj_indptr=adj_indptr,
        adj_indices=adj_indices,
        gate_adj_indptr=gate_adj_indptr,
        gate_adj_indices=gate_adj_indices,
        topo=topo,
        level=level,
        gate_level=gate_level,
        depth=depth,
        level_groups=tuple(level_groups),
        sim_groups=tuple(sim_groups),
        zero_row=zero_row,
        ones_row=ones_row,
        sim_group_offsets=sim_group_offsets,
        slot_of_node=slot_of_node,
        node_of_slot=node_of_slot,
    )


def _build_sim_groups(
    level_groups: list[LevelGroup],
    type_code: np.ndarray,
    zero_row: int,
    ones_row: int,
) -> list[SimGroup]:
    """Batch each level's gates by base op into rectangular fanin matrices.

    Within a batch all gates share one bitwise reduction; shorter fanin
    lists are padded with the op's identity row (all-ones for AND,
    all-zeros for OR/XOR), and inverting types (NOT/NAND/NOR/XNOR) get an
    all-ones inversion word applied after the reduction.
    """
    groups: list[SimGroup] = []
    for lg in level_groups:
        counts = lg.counts
        buckets: dict[int, list[int]] = {}
        for pos, node in enumerate(lg.nodes):
            gt = GATE_TYPE_CODES[type_code[node]]
            buckets.setdefault(_BASE_OP[gt], []).append(pos)
        for op in sorted(buckets):
            positions = buckets[op]
            width = max(int(counts[p]) for p in positions)
            pad = ones_row if op == OP_AND else zero_row
            src = np.full((len(positions), width), pad, dtype=np.int32)
            dst = np.empty(len(positions), dtype=np.int32)
            invert = np.zeros((len(positions), 1), dtype=np.uint64)
            for i, p in enumerate(positions):
                node = lg.nodes[p]
                dst[i] = node
                start = lg.offsets[p]
                src[i, : counts[p]] = lg.fanins[start : start + counts[p]]
                if GATE_TYPE_CODES[type_code[node]].is_inverting:
                    invert[i, 0] = _ALL_ONES
            groups.append(SimGroup(op=op, dst=dst, src=src, invert=invert))
    return groups
