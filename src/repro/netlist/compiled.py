"""The :class:`CompiledGraph` kernel — the circuit DAG as dense arrays.

Every downstream layer (bit-parallel simulation, the capped separation
matrix, transition-time sets, levelised timing, partition evaluation)
traverses the same gate graph.  Instead of each layer re-walking
name-keyed dicts, a :class:`Circuit` compiles itself once into dense
``int32`` indices plus CSR (compressed sparse row) connectivity tables,
and every layer consumes those shared arrays:

* **node space** — all nodes (primary inputs first-class), indexed by
  position in :attr:`Circuit.all_names`;
* **gate space** — logic gates only, indexed by
  :attr:`Circuit.gate_index` (the space partition/evaluation works in);
* **CSR tables** — directed fanin (declaration order preserved, which
  matters for tie-breaking in path extraction), directed fanout,
  undirected node adjacency, and undirected gate-gate adjacency
  (sorted rows, matching :attr:`Circuit.gate_neighbors`);
* **order** — topological order, unit-delay levels, and per-level gate
  groups with ready-made ``reduceat`` offsets over the fanin table;
* **simulation schedule** — per (level, base-op) batches with
  rectangular fanin matrices (padded with identity rows) and per-gate
  inversion words, so one gate evaluation step is a single vectorised
  numpy reduction over a whole batch.

Access it through :attr:`Circuit.compiled`; construction is cached and
safe because circuits are immutable.  :func:`compile_circuit` builds it
in whole-graph numpy passes (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.netlist.gate import GateType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netlist.circuit import Circuit

__all__ = [
    "CompiledGraph",
    "FusedGroup",
    "FusedSchedule",
    "LevelGroup",
    "SimGroup",
    "compile_circuit",
    "csr_gather",
    "level_blocks",
    "GATE_TYPE_CODES",
    "OP_AND",
    "OP_OR",
    "OP_XOR",
]

#: Stable small-int code per gate type (index into this tuple).
GATE_TYPE_CODES: tuple[GateType, ...] = (
    GateType.INPUT,
    GateType.BUF,
    GateType.NOT,
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)

_CODE_OF: dict[GateType, int] = {t: i for i, t in enumerate(GATE_TYPE_CODES)}

#: Base bitwise operation codes for simulation groups.  BUF/NOT compile
#: to one-input AND groups (padding with the all-ones identity row), so
#: three ops cover every gate type; inversion is a per-gate XOR word.
OP_AND = 0
OP_OR = 1
OP_XOR = 2

_BASE_OP: dict[GateType, int] = {
    GateType.BUF: OP_AND,
    GateType.NOT: OP_AND,
    GateType.AND: OP_AND,
    GateType.NAND: OP_AND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_OR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XOR,
}

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Base op and inversion word per type code (INPUT's entries unused).
_OP_OF_CODE = np.asarray([_BASE_OP.get(t, OP_AND) for t in GATE_TYPE_CODES], dtype=np.int64)
_INVERT_OF_CODE = np.asarray(
    [_ALL_ONES if t.is_inverting else 0 for t in GATE_TYPE_CODES], dtype=np.uint64
)


def csr_gather(
    indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows: ``indices[indptr[k]:indptr[k+1]]`` for each
    ``k`` in ``keys``, plus the per-key entry counts.

    The workhorse of batched neighbourhood expansion: one call replaces a
    Python loop over per-node adjacency lists.
    """
    keys = np.asarray(keys, dtype=np.int64)
    starts = indptr[keys].astype(np.int64)
    counts = (indptr[keys + 1] - indptr[keys]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    cum0 = np.cumsum(counts) - counts
    pos = np.arange(total, dtype=np.int64) - np.repeat(cum0, counts)
    return indices[np.repeat(starts, counts) + pos], counts


def level_blocks(level_sizes, max_gates: int) -> np.ndarray:
    """Greedy contiguous partition of a level sequence into blocks.

    Returns the block index per level: levels are packed left to right,
    a new block starting whenever adding the next level would push the
    running gate count past ``max_gates`` (a level larger than the
    budget gets a block of its own).  Every block is a contiguous,
    non-empty run of levels — the invariant the block-structured timing
    maintenance (:class:`~repro.analysis.timing.IncrementalTiming`)
    relies on: a block's fanins come only from the same or earlier
    blocks, so blocks can be recomputed in ascending order.
    """
    sizes = np.asarray(level_sizes, dtype=np.int64)
    block_of = np.zeros(len(sizes), dtype=np.int64)
    block = 0
    acc = 0
    for i, size in enumerate(sizes.tolist()):
        if acc and acc + size > max_gates:
            block += 1
            acc = 0
        acc += size
        block_of[i] = block
    return block_of


@dataclass(frozen=True)
class LevelGroup:
    """All gates of one unit-delay level, with their fanins flattened.

    ``offsets`` are ``reduceat`` segment starts into ``fanins`` (every
    logic gate has at least one fanin, so segments are non-empty).
    """

    nodes: np.ndarray  # (g,) int32 node ids, gate file order
    fanins: np.ndarray  # (e,) int32 fanin node ids, declaration order
    offsets: np.ndarray  # (g,) int64 segment starts into ``fanins``

    @property
    def counts(self) -> np.ndarray:
        return np.diff(np.append(self.offsets, len(self.fanins)))


@dataclass(frozen=True)
class SimGroup:
    """One vectorised simulation step: a batch of same-level gates that
    evaluate as ``invert ^ op.reduce(packed[src], axis=1)``."""

    op: int  # OP_AND / OP_OR / OP_XOR
    dst: np.ndarray  # (g,) int32 destination rows (node ids)
    src: np.ndarray  # (g, width) int32 source rows; padded with identity rows
    invert: np.ndarray  # (g, 1) uint64 — 0 or all-ones per gate


@dataclass(frozen=True)
class FusedGroup:
    """One fused dispatch step: same-op gates, possibly from many levels,
    evaluated as one unpadded gather + ``op.reduceat`` over flattened
    fanin segments (every logic gate has >= 1 fanin, so segments are
    non-empty and ``reduceat`` is safe)."""

    op: int  # OP_AND / OP_OR / OP_XOR
    dst: np.ndarray  # (g,) int32 destination rows (node ids)
    fanins: np.ndarray  # (e,) int64 flattened fanin rows, no padding
    offsets: np.ndarray  # (g,) int64 reduceat segment starts into ``fanins``
    invert: np.ndarray  # (g, 1) uint64 — 0 or all-ones per gate
    has_invert: bool  # skip the XOR entirely for non-inverting batches


@dataclass(frozen=True)
class FusedSchedule:
    """The simulation schedule re-batched across levels (see
    :meth:`CompiledGraph.fused_schedule`).

    Two differences from ``sim_groups``: batches fuse same-op gates
    across levels wherever dependences allow (fewer Python-level
    dispatches), and fanins stay flattened instead of being padded to a
    rectangle (no identity-row gather traffic).  ``batch_of_node``
    records each gate's fused batch index — the legality tests assert
    every gate lands strictly after all of its producers.
    """

    groups: tuple[FusedGroup, ...]
    group_offsets: np.ndarray  # (len(groups) + 1,) int64
    batch_of_node: np.ndarray  # (num_nodes,) int32, -1 for inputs


@dataclass(frozen=True)
class CompiledGraph:
    """Dense-array view of one :class:`Circuit` (see module docstring)."""

    # --- spaces
    num_nodes: int
    num_inputs: int
    num_gates: int
    type_code: np.ndarray  # (num_nodes,) int8, index into GATE_TYPE_CODES
    node_gate: np.ndarray  # (num_nodes,) int32, dense gate id or -1
    gate_node: np.ndarray  # (num_gates,) int32 node id per gate
    input_node: np.ndarray  # (num_inputs,) int32 node id per primary input
    # --- connectivity (node space)
    fanin_indptr: np.ndarray  # (num_nodes + 1,) int32
    fanin_indices: np.ndarray  # int32, declaration order within a row
    fanout_indptr: np.ndarray
    fanout_indices: np.ndarray
    adj_indptr: np.ndarray  # undirected; rows sorted ascending
    adj_indices: np.ndarray
    # --- connectivity (gate space, undirected, rows sorted ascending)
    gate_adj_indptr: np.ndarray
    gate_adj_indices: np.ndarray
    # --- order
    topo: np.ndarray  # (num_nodes,) int32 node ids, inputs-first topological order
    level: np.ndarray  # (num_nodes,) int32 unit-delay level (inputs 0)
    gate_level: np.ndarray  # (num_gates,) int32
    depth: int
    level_groups: tuple[LevelGroup, ...]  # levels 1..depth
    # --- simulation schedule
    sim_groups: tuple[SimGroup, ...]
    # Extra packed rows appended after the node rows: an all-zeros row
    # (OR/XOR identity) and an all-ones row (AND identity).
    zero_row: int
    ones_row: int
    # --- simulation slots: the schedule flattened into one global order.
    # Concatenating every group's ``dst`` assigns each logic gate exactly
    # one *slot*; ascending slot order IS evaluation order, which lets a
    # consumer re-run an arbitrary gate subset (e.g. one fault's output
    # cone) by bucketing its slots into contiguous group segments.
    sim_group_offsets: np.ndarray  # (len(sim_groups) + 1,) int64 slot starts
    slot_of_node: np.ndarray  # (num_nodes,) int32 slot id, -1 for inputs
    node_of_slot: np.ndarray  # (num_gates,) int32 node id per slot

    # ------------------------------------------------------------- conveniences
    @property
    def num_sim_rows(self) -> int:
        """Row count of a simulation state matrix (nodes + identity rows)."""
        return self.num_nodes + 2

    def fused_schedule(self) -> FusedSchedule:
        """The simulation schedule fused across levels (cached).

        ``sim_groups`` batches strictly per (level, base op): a deep
        circuit dispatches ~3 batches per level from Python even when
        consecutive levels' batches are independent.  The fused plan
        re-batches greedily: gates are visited in slot (evaluation)
        order and each is appended to the earliest same-op batch that
        executes after all of its fanin producers' batches.  **Fusion
        legality rule:** a gate may join batch ``b`` iff
        ``b > batch(p)`` for every fanin producer ``p`` — a batch reads
        state as of its start, so no member may read another member's
        output.  Topological construction makes the greedy choice safe:
        consumers are placed after their producers by definition.

        The result evaluates bit-identically to ``sim_groups`` (bitwise
        reductions are exact and segment order preserves each gate's
        fanin order) with fewer, larger, unpadded dispatches.
        """
        cached = self.__dict__.get("_fused_schedule")
        if cached is None:
            cached = _build_fused_schedule(self)
            object.__setattr__(self, "_fused_schedule", cached)
        return cached

    def group_of_slot(self) -> np.ndarray:
        """Sim-group id per simulation slot (cached).

        The inverse of :attr:`sim_group_offsets` as a direct int32
        lookup — event-driven consumers map a slot to its schedule
        batch without a ``searchsorted`` per event.
        """
        cached = self.__dict__.get("_group_of_slot")
        if cached is None:
            cached = np.repeat(
                np.arange(len(self.sim_groups), dtype=np.int32),
                np.diff(self.sim_group_offsets),
            )
            object.__setattr__(self, "_group_of_slot", cached)
        return cached

    def gate_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every undirected gate-gate edge once, as index arrays ``(u,
        v)`` with ``u < v`` (cached).

        Read off the symmetric ``gate_adj_*`` CSR, so a pass over a
        whole partition tests each edge once instead of expanding every
        gate's row.  Held as ``intp``, which numpy gathers with no cast.
        """
        cached = self.__dict__.get("_gate_edges")
        if cached is None:
            rows = np.repeat(
                np.arange(self.num_gates, dtype=np.intp),
                np.diff(self.gate_adj_indptr),
            )
            cols = self.gate_adj_indices.astype(np.intp)
            keep = rows < cols
            cached = (rows[keep], cols[keep])
            object.__setattr__(self, "_gate_edges", cached)
        return cached

    def slot_closure(self) -> np.ndarray:
        """Per-node reachable-slot bitsets (cached).

        ``slot_closure()[n]`` ORs the simulation-slot bits of every gate
        reachable from node ``n`` through the fanout CSR (including
        ``n`` itself when it is a gate) — the fault cone structure the
        stuck-at engine introduced, shared here so the incremental
        event-driven backend can reuse it for flip-neighbourhood
        propagation.  Built by one reverse-topological sweep.
        """
        cached = self.__dict__.get("_slot_closure")
        if cached is None:
            slot_words = (self.num_gates + 63) // 64
            closure = np.zeros((self.num_nodes, slot_words), dtype=np.uint64)
            slots = np.arange(self.num_gates, dtype=np.uint64)
            closure[self.node_of_slot, (slots // np.uint64(64)).astype(np.int64)] = (
                np.uint64(1) << (slots % np.uint64(64))
            )
            indptr, indices = self.fanout_indptr, self.fanout_indices
            for node in self.topo[::-1]:
                row = indices[indptr[node] : indptr[node + 1]]
                if len(row):
                    closure[node] |= np.bitwise_or.reduce(closure[row], axis=0)
            object.__setattr__(self, "_slot_closure", closure)
            cached = closure
        return cached

    def gate_fanins(self, gate: int) -> np.ndarray:
        """Fanin node ids of one gate (declaration order)."""
        node = self.gate_node[gate]
        return self.fanin_indices[self.fanin_indptr[node] : self.fanin_indptr[node + 1]]

    def gate_neighbor_rows(self) -> Iterator[np.ndarray]:
        """Per-gate undirected gate-space neighbour rows, gate order."""
        for g in range(self.num_gates):
            yield self.gate_adj_indices[
                self.gate_adj_indptr[g] : self.gate_adj_indptr[g + 1]
            ]


def _indptr(counts: np.ndarray) -> np.ndarray:
    """``int32`` CSR row pointers for rows of ``counts`` entries."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _gate_runs(key, gate_node, fanin_indptr, fanin_indices):
    """The gates stably sorted by ``key``, in runs of equal keys: per run
    ``(positions, nodes, fanins, counts)`` (file positions, node ids,
    flattened fanin rows, row lengths), from one gather of all fanins."""
    order = np.argsort(key, kind="stable")
    nodes = gate_node[order]
    fanins, counts = csr_gather(fanin_indptr, fanin_indices, nodes)
    edges = np.concatenate(([0], np.cumsum(counts)))
    bounds = np.append(np.flatnonzero(np.diff(key[order], prepend=-1)), len(order))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield order[lo:hi], nodes[lo:hi], fanins[edges[lo] : edges[hi]], counts[lo:hi]


def compile_circuit(circuit: "Circuit") -> CompiledGraph:
    """Compile ``circuit`` into its dense-array form (see module docstring).

    Whole-graph numpy passes over one flat fanin array: Python loops
    over names, levels and batches, never per gate.  Every row order is
    a sorted key's: a *stable* sort keeps file order among equal keys
    (fanout rows, level groups, simulation batches), and ``np.unique``
    over ``row * N + col`` keys lists undirected rows ascending.
    """
    gates = list(circuit)
    node_index = {gate.name: i for i, gate in enumerate(gates)}
    num_nodes = len(gates)
    type_code = np.fromiter((_CODE_OF[g.gate_type] for g in gates), np.int8, num_nodes)
    is_gate = type_code != _CODE_OF[GateType.INPUT]
    gate_node = np.flatnonzero(is_gate).astype(np.int32)
    num_gates = len(gate_node)
    node_gate = np.full(num_nodes, -1, dtype=np.int32)
    node_gate[gate_node] = np.arange(num_gates, dtype=np.int32)

    # Fanins in declaration order as one flat array; its edge list has
    # sinks ascending, because nodes are listed in file order.
    fanin_counts = np.fromiter((len(g.fanins) for g in gates), np.int64, num_nodes)
    fanin_indptr = _indptr(fanin_counts)
    fanin_indices = np.fromiter(
        map(node_index.__getitem__, chain.from_iterable(g.fanins for g in gates)),
        np.int32,
        fanin_indptr[-1],
    )
    sink = np.repeat(np.arange(num_nodes, dtype=np.int64), fanin_counts)
    source = fanin_indices.astype(np.int64)
    # Fanouts: a stable sort by source keeps each row's sinks in file
    # order, as ``Circuit.fanouts`` lists them.
    fanout_indptr = _indptr(np.bincount(source, minlength=num_nodes))
    fanout_indices = sink[np.argsort(source, kind="stable")].astype(np.int32)
    # Undirected adjacency: every edge keyed in both directions.
    keys = np.unique(np.concatenate((sink * num_nodes + source, source * num_nodes + sink)))
    adj_row, adj_col = np.divmod(keys, num_nodes)
    # Gate-space adjacency: the gate-to-gate pairs mapped through
    # ``node_gate``, which increases over gates, so rows stay sorted.
    between_gates = is_gate[adj_row] & is_gate[adj_col]
    gate_adj_row = node_gate[adj_row[between_gates]]

    topo = np.fromiter(map(node_index.__getitem__, circuit.topological_order), np.int32)
    levels = circuit.levels
    level = np.fromiter((levels[g.name] for g in gates), np.int32, num_nodes)
    gate_level = level[gate_node]

    # Level groups: gates by level, file order within a level.
    level_groups = tuple(
        LevelGroup(nodes=nodes, fanins=fanins, offsets=np.cumsum(counts) - counts)
        for _, nodes, fanins, counts in _gate_runs(
            gate_level, gate_node, fanin_indptr, fanin_indices
        )
    )

    # Simulation batches, one per (level, base op) in that order, gates
    # in file order: rectangular fanin matrices padded with the op's
    # identity row (all-ones for AND, all-zeros for OR/XOR), and an
    # all-ones inversion word for NOT/NAND/NOR/XNOR.
    zero_row, ones_row = num_nodes, num_nodes + 1
    codes = type_code[gate_node]
    ops = _OP_OF_CODE[codes]
    sim_groups: list[SimGroup] = []
    for run, dst, fanins, counts in _gate_runs(
        gate_level * 3 + ops, gate_node, fanin_indptr, fanin_indices
    ):
        op = int(ops[run[0]])
        width = int(counts.max())
        src = np.full((len(dst), width), ones_row if op == OP_AND else zero_row, np.int32)
        src[np.arange(width) < counts[:, None]] = fanins
        invert = _INVERT_OF_CODE[codes[run]].reshape(-1, 1)
        sim_groups.append(SimGroup(op=op, dst=dst, src=src, invert=invert))

    # Flatten the schedule into global slots (see the field comments).
    sim_group_offsets = np.zeros(len(sim_groups) + 1, dtype=np.int64)
    np.cumsum([len(g.dst) for g in sim_groups], out=sim_group_offsets[1:])
    node_of_slot = np.concatenate([g.dst for g in sim_groups] or [np.empty(0, np.int32)])
    slot_of_node = np.full(num_nodes, -1, dtype=np.int32)
    slot_of_node[node_of_slot] = np.arange(len(node_of_slot), dtype=np.int32)

    return CompiledGraph(
        num_nodes=num_nodes,
        num_inputs=num_nodes - num_gates,
        num_gates=num_gates,
        type_code=type_code,
        node_gate=node_gate,
        gate_node=gate_node,
        input_node=np.flatnonzero(~is_gate).astype(np.int32),
        fanin_indptr=fanin_indptr,
        fanin_indices=fanin_indices,
        fanout_indptr=fanout_indptr,
        fanout_indices=fanout_indices,
        adj_indptr=_indptr(np.bincount(adj_row, minlength=num_nodes)),
        adj_indices=adj_col.astype(np.int32),
        gate_adj_indptr=_indptr(np.bincount(gate_adj_row, minlength=num_gates)),
        gate_adj_indices=node_gate[adj_col[between_gates]],
        topo=topo,
        level=level,
        gate_level=gate_level,
        depth=int(circuit.depth),
        level_groups=level_groups,
        sim_groups=tuple(sim_groups),
        zero_row=zero_row,
        ones_row=ones_row,
        sim_group_offsets=sim_group_offsets,
        slot_of_node=slot_of_node,
        node_of_slot=node_of_slot,
    )


def _build_fused_schedule(cg: CompiledGraph) -> FusedSchedule:
    """Greedy cross-level batch fusion (see :meth:`CompiledGraph.fused_schedule`)."""
    from bisect import bisect_left

    batch_ops: list[int] = []
    batch_members: list[list[int]] = []
    op_batches: dict[int, list[int]] = {OP_AND: [], OP_OR: [], OP_XOR: []}
    batch_of = np.full(cg.num_nodes, -1, dtype=np.int32)
    indptr, indices = cg.fanin_indptr, cg.fanin_indices
    type_code = cg.type_code
    for node in cg.node_of_slot:
        node = int(node)
        op = _BASE_OP[GATE_TYPE_CODES[type_code[node]]]
        min_batch = 0
        for f in indices[indptr[node] : indptr[node + 1]]:
            producer = batch_of[f]  # -1 for primary inputs
            if producer >= min_batch:
                min_batch = producer + 1
        candidates = op_batches[op]  # ascending batch ids
        i = bisect_left(candidates, min_batch)
        if i < len(candidates):
            b = candidates[i]
        else:
            b = len(batch_ops)
            batch_ops.append(op)
            batch_members.append([])
            candidates.append(b)
        batch_members[b].append(node)
        batch_of[node] = b

    groups: list[FusedGroup] = []
    for op, members in zip(batch_ops, batch_members):
        dst = np.asarray(members, dtype=np.int32)
        flat: list[np.ndarray] = []
        offsets = np.empty(len(members), dtype=np.int64)
        invert = np.zeros((len(members), 1), dtype=np.uint64)
        total = 0
        for i, node in enumerate(members):
            row = indices[indptr[node] : indptr[node + 1]]
            offsets[i] = total
            total += len(row)
            flat.append(row)
            if GATE_TYPE_CODES[type_code[node]].is_inverting:
                invert[i, 0] = _ALL_ONES
        groups.append(
            FusedGroup(
                op=op,
                dst=dst,
                fanins=np.concatenate(flat).astype(np.int64),
                offsets=offsets,
                invert=invert,
                has_invert=bool(invert.any()),
            )
        )

    group_offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum([len(g.dst) for g in groups], out=group_offsets[1:])
    return FusedSchedule(
        groups=tuple(groups),
        group_offsets=group_offsets,
        batch_of_node=batch_of,
    )
