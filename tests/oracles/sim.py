"""Reference logic simulation: the per-gate schedule and the per-(level,
op) kernel.

:class:`ReferenceLogicSimulator` is the pre-compiled-graph simulator,
one Python step per gate.  :func:`run_level_schedule` is the kernel the
fused schedule replaced: one vectorised reduction per
:class:`~repro.netlist.compiled.SimGroup` over a rectangular,
identity-padded fanin matrix, pinned rows filtered out of each batch's
destinations.  :class:`~repro.faultsim.logic_sim.LogicSimulator` must
reproduce the packed words of both bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultSimError
from repro.faultsim.logic_sim import LogicSimulator, NodeValues, _pack_input_columns
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import OP_AND, OP_OR, CompiledGraph
from repro.netlist.gate import GateType

_WORD = 64
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def run_level_schedule(
    cg: CompiledGraph, state: np.ndarray, pinned_rows: np.ndarray
) -> None:
    """Evaluate every gate row of ``state`` over ``cg.sim_groups``, the
    same contract as :func:`repro.faultsim.logic_sim.run_schedule`."""
    for group in cg.sim_groups:
        dst, src, invert = group.dst, group.src, group.invert
        if pinned_rows.size:
            keep = ~np.isin(dst, pinned_rows)
            if not keep.all():
                dst, src, invert = dst[keep], src[keep], invert[keep]
                if dst.size == 0:
                    continue
        gathered = state[src]  # (g, width, words)
        if group.op == OP_AND:
            acc = np.bitwise_and.reduce(gathered, axis=1)
        elif group.op == OP_OR:
            acc = np.bitwise_or.reduce(gathered, axis=1)
        else:
            acc = np.bitwise_xor.reduce(gathered, axis=1)
        state[dst] = acc ^ invert


def level_simulate(
    circuit: Circuit, input_patterns: np.ndarray, pinned: dict[str, int] | None = None
) -> NodeValues:
    """:meth:`LogicSimulator.simulate` with :func:`run_level_schedule` in
    place of the fused kernel."""
    sim = LogicSimulator(circuit)
    patterns = sim._check_patterns(input_patterns)
    cg = circuit.compiled
    num_words = (patterns.shape[0] + _WORD - 1) // _WORD
    packed = np.zeros((cg.num_sim_rows, num_words), dtype=np.uint64)
    packed[cg.ones_row] = _ONES
    packed[cg.input_node] = _pack_input_columns(patterns, num_words)
    rows = []
    for name, value in (pinned or {}).items():
        row = sim.row_of[name]
        packed[row] = _ONES if value else np.uint64(0)
        rows.append(row)
    run_level_schedule(cg, packed, np.asarray(rows, dtype=np.int32))
    return NodeValues(packed[: cg.num_nodes], sim.row_of, patterns.shape[0])


class ReferenceLogicSimulator:
    """Per-gate schedule simulator — the executable specification.

    This is the pre-compiled-graph implementation, kept verbatim so the
    equivalence tests can assert the batched simulator reproduces its
    packed words bit for bit.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.row_of = {name: i for i, name in enumerate(circuit.all_names)}
        # Compile the evaluation schedule once: (row, type, fanin rows).
        self._schedule: list[tuple[int, GateType, tuple[int, ...]]] = []
        for name in circuit.topological_order:
            gate = circuit.gate(name)
            if gate.gate_type.is_input:
                continue
            rows = tuple(self.row_of[f] for f in gate.fanins)
            self._schedule.append((self.row_of[name], gate.gate_type, rows))

    def simulate(self, input_patterns: np.ndarray) -> NodeValues:
        patterns = np.asarray(input_patterns)
        if patterns.ndim != 2 or patterns.shape[1] != len(self.circuit.input_names):
            raise FaultSimError(
                f"expected (patterns, {len(self.circuit.input_names)}) input matrix, "
                f"got shape {patterns.shape}"
            )
        num_patterns = patterns.shape[0]
        if num_patterns == 0:
            raise FaultSimError("need at least one pattern")
        num_words = (num_patterns + _WORD - 1) // _WORD
        packed = np.zeros((len(self.row_of), num_words), dtype=np.uint64)

        for column, name in enumerate(self.circuit.input_names):
            bits = np.zeros(num_words * _WORD, dtype=np.uint8)
            bits[:num_patterns] = patterns[:, column] & 1
            packed[self.row_of[name]] = np.packbits(bits, bitorder="little").view(np.uint64)

        ones = np.full(num_words, _ONES, dtype=np.uint64)
        for row, gate_type, fanins in self._schedule:
            acc = packed[fanins[0]].copy()
            if gate_type in (GateType.AND, GateType.NAND):
                for f in fanins[1:]:
                    acc &= packed[f]
            elif gate_type in (GateType.OR, GateType.NOR):
                for f in fanins[1:]:
                    acc |= packed[f]
            elif gate_type in (GateType.XOR, GateType.XNOR):
                for f in fanins[1:]:
                    acc ^= packed[f]
            # BUF/NOT fall through with acc = fanin value.
            if gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT):
                acc ^= ones
            packed[row] = acc
        return NodeValues(packed, self.row_of, num_patterns)

    def simulate_outputs(self, input_patterns: np.ndarray) -> np.ndarray:
        values = self.simulate(input_patterns)
        return values.unpack(self.circuit.output_names)
