"""Bit-parallel combinational logic simulation.

Patterns are packed 64 per machine word; each node's value across all
patterns is a small ``uint64`` array.  :func:`run_schedule` evaluates
the whole circuit over :meth:`CompiledGraph.fused_schedule`: same-op
gates from many levels share one unpadded gather plus one
``op.reduceat`` dispatch, so there is no per-gate Python at all.  Even
the 3512-gate C7552 stand-in simulates thousands of patterns per
millisecond this way — fast enough that IDDQ coverage experiments run
inside the test suite.

The executable references (the per-gate schedule and the
per-(level, op) kernel) live in ``tests/oracles/sim.py``; the
equivalence suite asserts this kernel reproduces their packed words bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import FaultSimError
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import OP_AND, OP_OR, CompiledGraph

__all__ = ["NodeValues", "LogicSimulator", "run_schedule"]

_WORD = 64
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class NodeValues:
    """Packed simulation results: one bit per (node, pattern).

    Access patterns:
    * :meth:`value` — single node/pattern bit (tests, debugging);
    * :meth:`unpack` — dense ``uint8`` matrix (patterns x nodes);
    * :attr:`packed` + :attr:`row_of` — raw words for vectorised
      consumers (the IDDQ computation and defect activation).
    """

    def __init__(self, packed: np.ndarray, row_of: dict[str, int], num_patterns: int):
        self.packed = packed
        self.row_of = row_of
        self.num_patterns = num_patterns

    def value(self, node: str, pattern: int) -> int:
        if not 0 <= pattern < self.num_patterns:
            raise FaultSimError(
                f"pattern {pattern} out of range 0..{self.num_patterns - 1}"
            )
        row = self.row_of[node]
        word, bit = divmod(pattern, _WORD)
        return int((self.packed[row, word] >> np.uint64(bit)) & np.uint64(1))

    def node_bits(self, node: str) -> np.ndarray:
        """Unpacked 0/1 vector over patterns for one node."""
        row = self.packed[self.row_of[node]]
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        return bits[: self.num_patterns]

    def unpack(self, nodes) -> np.ndarray:
        """Dense ``(num_patterns, len(nodes))`` matrix of 0/1 values."""
        nodes = list(nodes)
        if not nodes:
            return np.zeros((self.num_patterns, 0), np.uint8)
        rows = np.asarray([self.row_of[node] for node in nodes], dtype=np.int64)
        bits = np.unpackbits(
            np.ascontiguousarray(self.packed[rows]).view(np.uint8),
            axis=1,
            bitorder="little",
        )
        return bits[:, : self.num_patterns].T.copy()


def _pack_input_columns(patterns: np.ndarray, num_words: int) -> np.ndarray:
    """Pack a ``(patterns, inputs)`` 0/1 matrix into per-input word rows."""
    num_patterns = patterns.shape[0]
    bits = np.zeros((patterns.shape[1], num_words * _WORD), dtype=np.uint8)
    bits[:, :num_patterns] = patterns.T
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def run_schedule(cg: CompiledGraph, state: np.ndarray, pinned_rows: np.ndarray) -> None:
    """Evaluate every gate row of ``state`` over the fused schedule.

    ``state`` is a ``(num_sim_rows, words)`` ``uint64`` matrix laid out
    as :class:`~repro.netlist.compiled.CompiledGraph` prescribes (node
    rows, then the all-zeros and all-ones identity rows) with its input
    and identity rows filled.  ``pinned_rows`` lists node rows the
    caller pre-forced to a constant (stuck-at injection); they are
    re-asserted after every batch — within a batch every member reads
    state as of the batch start, so a pinned row a batch overwrites is
    restored before anything can observe the overwrite.  Each pass
    records one ``backend.full_pass`` span and counter (no-ops while
    observability is off).
    """
    obs.METRICS.inc("backend.full_pass")
    with obs.TRACER.span("backend.full_pass", words=int(state.shape[1])):
        pinned_values = state[pinned_rows] if pinned_rows.size else None
        for group in cg.fused_schedule().groups:
            gathered = state[group.fanins]  # (edges, words)
            if group.op == OP_AND:
                acc = np.bitwise_and.reduceat(gathered, group.offsets, axis=0)
            elif group.op == OP_OR:
                acc = np.bitwise_or.reduceat(gathered, group.offsets, axis=0)
            else:
                acc = np.bitwise_xor.reduceat(gathered, group.offsets, axis=0)
            if group.has_invert:
                acc ^= group.invert
            state[group.dst] = acc
            if pinned_values is not None:
                state[pinned_rows] = pinned_values


class LogicSimulator:
    """Compiled bit-parallel simulator for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.compiled = circuit.compiled
        self.row_of = {name: i for i, name in enumerate(circuit.all_names)}

    def _check_patterns(self, input_patterns: np.ndarray) -> np.ndarray:
        """``input_patterns`` as an array; :class:`FaultSimError` unless
        it is a non-empty ``(patterns, inputs)`` matrix of bool or
        integer 0/1 values."""
        patterns = np.asarray(input_patterns)
        if patterns.ndim != 2 or patterns.shape[1] != len(self.circuit.input_names):
            raise FaultSimError(
                f"expected (patterns, {len(self.circuit.input_names)}) input matrix, "
                f"got shape {patterns.shape}"
            )
        if patterns.shape[0] == 0:
            raise FaultSimError("need at least one pattern")
        kind = patterns.dtype.kind
        if kind not in "biu" or (
            kind != "b"
            and patterns.size
            and (patterns.max() > 1 or (kind == "i" and patterns.min() < 0))
        ):
            raise FaultSimError(
                f"input patterns must be bool or integer 0/1 values, "
                f"got a {patterns.dtype} matrix"
            )
        return patterns

    def simulate(
        self, input_patterns: np.ndarray, pinned: dict[str, int] | None = None
    ) -> NodeValues:
        """Simulate a ``(num_patterns, num_inputs)`` 0/1 matrix.

        Input columns follow :attr:`Circuit.input_names` order.  ``pinned``
        optionally forces named nets to a constant 0/1 across all patterns
        (the stuck-at fault simulator's injection mechanism).
        """
        patterns = self._check_patterns(input_patterns)
        num_patterns = patterns.shape[0]
        num_words = (num_patterns + _WORD - 1) // _WORD
        cg = self.compiled

        # Node rows plus the two identity rows.
        packed = np.zeros((cg.num_sim_rows, num_words), dtype=np.uint64)
        packed[cg.ones_row] = _ONES
        packed[cg.input_node] = _pack_input_columns(patterns, num_words)

        pinned_rows = np.empty(0, dtype=np.int32)
        if pinned:
            rows = []
            for name, value in pinned.items():
                row = self.row_of.get(name)
                if row is None:
                    raise FaultSimError(f"unknown net {name!r}")
                packed[row] = _ONES if value else np.uint64(0)
                rows.append(row)
            pinned_rows = np.asarray(rows, dtype=np.int32)

        run_schedule(cg, packed, pinned_rows)
        return NodeValues(packed[: cg.num_nodes], self.row_of, num_patterns)

    def simulate_outputs(self, input_patterns: np.ndarray) -> np.ndarray:
        """Convenience: ``(patterns, outputs)`` 0/1 matrix."""
        values = self.simulate(input_patterns)
        return values.unpack(self.circuit.output_names)
