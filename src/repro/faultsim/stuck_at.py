"""Single-stuck-at logic fault simulation.

The paper's opening sentence: IDDQ testing "complements logic (voltage)
testing in CMOS technologies" — many physical defects (bridges, oxide
shorts, stuck-on transistors) draw quiescent current *without* flipping
any output for most vectors, so logic test misses them, while purely
topological faults are the domain of logic test.  To demonstrate that
complementarity we need the logic-test side: the classic single
stuck-at fault model, simulated bit-parallel.

A stuck-at fault pins one net to 0 or 1; it is detected by a vector iff
some primary output differs from the fault-free response.  Two engines
implement the model:

* :class:`StuckAtSimulator` — the fault-parallel engine.  Faults are
  first *collapsed* into structural equivalence classes (chains through
  single-fanout BUF/NOT/AND/NAND/OR/NOR gates carry a stuck value
  unchanged, so one representative per class is simulated).
  Representatives are then simulated in *batches*: the packed state
  grows a fault axis — ``(rows, batch, words)`` — with each fault's net
  pinned in its own column, so one vectorised sim-group reduction
  advances all faults in the batch at once and the per-step Python
  dispatch amortises across the batch.  Per batch, only the sim-group
  slices inside the union of the members' output cones (precomputed
  bitsets over the fanout CSR) are re-evaluated, and only
  cone-reachable outputs are compared; batches are formed in schedule
  order so neighbouring faults share cones.
  :meth:`StuckAtSimulator.coverage` additionally *drops* faults chunk
  by chunk — once a fault class is detected in an earlier pattern block
  it is never simulated again.
* :class:`ReferenceStuckAtSimulator` — the original serial-fault
  implementation (one full compiled-graph re-simulation per fault),
  kept verbatim as the executable specification.  The equivalence suite
  asserts both produce bit-identical detection matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.backend import SimBackend
from repro.faultsim.logic_sim import LogicSimulator
from repro.errors import FaultSimError
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import GATE_TYPE_CODES, OP_AND, OP_OR
from repro.netlist.gate import GateType

__all__ = [
    "StuckAtFault",
    "StuckAtSimulator",
    "ReferenceStuckAtSimulator",
    "enumerate_stuck_at_faults",
]

_WORD = 64
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class StuckAtFault:
    """Net ``net`` permanently at ``value`` (0 or 1)."""

    net: str
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise FaultSimError(f"stuck-at value must be 0/1, got {self.value}")

    @property
    def fault_id(self) -> str:
        return f"sa{self.value}:{self.net}"


def enumerate_stuck_at_faults(circuit: Circuit) -> list[StuckAtFault]:
    """Both polarities on every net (inputs and gate outputs).

    The classic collapsed fault list would be smaller; the uncollapsed
    list keeps the coverage numbers easy to interpret.  (The simulator
    collapses equivalent faults internally — the reported numbers stay
    uncollapsed, only the work shrinks.)
    """
    faults: list[StuckAtFault] = []
    for name in circuit.all_names:
        faults.append(StuckAtFault(name, 0))
        faults.append(StuckAtFault(name, 1))
    return faults


#: One fault-equivalence step.  For a net whose *only* fanout is a gate
#: of the keyed type (and which is not itself a primary output, so the
#: gate is its only observation path), stuck-at ``value`` on the net
#: produces the exact same faulty output function as the mapped stuck-at
#: on the gate's output net: BUF/NOT propagate both polarities, a
#: controlling value on AND/NAND/OR/NOR forces the output.  XOR/XNOR
#: have no controlling value and break the chain.
_COLLAPSE_STEP: dict[tuple[GateType, int], int] = {
    (GateType.BUF, 0): 0,
    (GateType.BUF, 1): 1,
    (GateType.NOT, 0): 1,
    (GateType.NOT, 1): 0,
    (GateType.AND, 0): 0,
    (GateType.NAND, 0): 1,
    (GateType.OR, 1): 1,
    (GateType.NOR, 1): 0,
}


class StuckAtSimulator:
    """Fault-parallel stuck-at engine: collapsed classes, batched
    cone-limited simulation, fault dropping (see module docstring)."""

    #: Fault-words per batched compiled-graph pass: a batch holds
    #: ``batch_words // words`` faults for ``words`` 64-pattern words
    #: (256 faults at 64 patterns, 64 at 256).
    batch_words = 256

    def __init__(self, circuit: Circuit, backend: str | SimBackend | None = None):
        self.circuit = circuit
        self.simulator = LogicSimulator(circuit, backend)
        self._cg = circuit.compiled
        self.row_of = self.simulator.row_of
        # Output bookkeeping: node row per primary output, in output order.
        self._out_nodes = np.asarray(
            [self.row_of[name] for name in circuit.output_names], dtype=np.int64
        )
        self._fanout_count = np.diff(self._cg.fanout_indptr)
        self._is_output = np.zeros(self._cg.num_nodes, dtype=bool)
        if len(self._out_nodes):
            self._is_output[self._out_nodes] = True
        self._out_closure: np.ndarray | None = None
        # Pooled batched-fault state buffer: one (rows, batch, words)
        # allocation reused across every batch of a detection-matrix or
        # coverage build (allocating ~8 MB per 64-fault batch used to
        # dominate the build).
        self._state_pool: np.ndarray | None = None

    # ------------------------------------------------------------------ public
    def collapse_root(self, fault: StuckAtFault) -> StuckAtFault:
        """Representative of ``fault``'s structural equivalence class.

        Chases single-fanout chains forward; every fault in a class has a
        bit-identical detection row, so only the root is simulated.
        """
        row = self.row_of.get(fault.net)
        if row is None:
            raise FaultSimError(f"unknown net {fault.net!r}")
        row, value = self._chase(row, fault.value)
        return StuckAtFault(self.circuit.all_names[row], value)

    def detection_matrix(
        self,
        faults: Sequence[StuckAtFault],
        patterns: np.ndarray,
        jobs: int | None = None,
    ) -> np.ndarray:
        """Boolean ``(faults, patterns)``: vector p detects fault f.

        Bit-identical to :class:`ReferenceStuckAtSimulator`.  With
        ``jobs`` > 1 the fault list is sharded across the runtime's
        process pool (:func:`repro.runtime.parallel.sharded_detection_matrix`);
        every fault's row is computed independently of its batch-mates,
        so the sharded result is bit-identical at any worker count.
        """
        patterns = self.simulator._check_patterns(patterns)
        if jobs is not None and jobs > 1:
            from repro.runtime.parallel import sharded_detection_matrix

            return sharded_detection_matrix(
                self.circuit,
                faults,
                patterns,
                jobs=jobs,
                backend=self.simulator.backend.name,
            )
        num_patterns = patterns.shape[0]
        with obs.TRACER.span(
            "detection_matrix",
            circuit=self.circuit.name,
            faults=len(faults),
            patterns=num_patterns,
        ):
            out = np.zeros((len(faults), num_patterns), dtype=np.bool_)
            classes = self._collapse_classes(faults)
            if not classes or not len(self._out_nodes):
                # No primary outputs: nothing is observable, every fault
                # escapes (the reference crashed here before the guard).
                return out
            good, valid = self._sim_state(patterns)
            roots = self._schedule_roots(classes)
            size = self._batch_size(good)
            for start in range(0, len(roots), size):
                batch = roots[start : start + size]
                diff = self._batch_diff(good, valid, batch)
                bits = np.unpackbits(
                    diff.view(np.uint8), axis=1, bitorder="little"
                )
                for b, key in enumerate(batch):
                    out[classes[key]] = bits[b, :num_patterns].astype(bool)
            return out

    def coverage(
        self,
        faults: Sequence[StuckAtFault],
        patterns: np.ndarray,
        chunk_patterns: int = 64,
    ) -> float:
        """Fraction of faults detected by the pattern set.

        Identical to ``detection_matrix(...).any(axis=1).mean()`` but
        processes patterns in chunks and drops detected fault classes, so
        most of the fault list is simulated against the first chunk only.
        """
        if not faults:
            return 1.0
        patterns = self.simulator._check_patterns(patterns)
        classes = self._collapse_classes(faults)
        detected = np.zeros(len(faults), dtype=bool)
        if not len(self._out_nodes):
            return 0.0
        remaining = self._schedule_roots(classes)
        for start in range(0, patterns.shape[0], chunk_patterns):
            if not remaining:
                break
            good, valid = self._sim_state(patterns[start : start + chunk_patterns])
            survivors: list[tuple[int, int]] = []
            size = self._batch_size(good)
            for bstart in range(0, len(remaining), size):
                batch = remaining[bstart : bstart + size]
                diff = self._batch_diff(good, valid, batch)
                hit = diff.any(axis=1)
                for b, key in enumerate(batch):
                    if hit[b]:
                        detected[classes[key]] = True
                    else:
                        survivors.append(key)
            remaining = survivors
        return float(detected.mean())

    # ---------------------------------------------------------------- internal
    def _chase(self, row: int, value: int) -> tuple[int, int]:
        cg = self._cg
        while not self._is_output[row] and self._fanout_count[row] == 1:
            sink = int(cg.fanout_indices[cg.fanout_indptr[row]])
            step = _COLLAPSE_STEP.get((GATE_TYPE_CODES[cg.type_code[sink]], value))
            if step is None:
                break
            row, value = sink, step
        return row, value

    def _collapse_classes(
        self, faults: Sequence[StuckAtFault]
    ) -> dict[tuple[int, int], list[int]]:
        """Map class root ``(node row, value)`` -> member fault indices."""
        classes: dict[tuple[int, int], list[int]] = {}
        for i, fault in enumerate(faults):
            row = self.row_of.get(fault.net)
            if row is None:
                raise FaultSimError(f"unknown net {fault.net!r}")
            classes.setdefault(self._chase(row, fault.value), []).append(i)
        return classes

    def _schedule_roots(
        self, classes: dict[tuple[int, int], list[int]]
    ) -> list[tuple[int, int]]:
        """Class roots ordered by simulation slot, so faults sharing a
        batch sit close in the schedule and their cone union stays tight."""
        slot = self._cg.slot_of_node
        return sorted(classes, key=lambda key: (int(slot[key[0]]), key[0], key[1]))

    def _build_out_closure(self) -> None:
        """Per-net reachable-primary-output bitsets, from one
        reverse-topological sweep over the fanout CSR.

        ``out_closure[n]`` ORs the reachable primary-output positions
        (including ``n`` itself when it is an output).  The companion
        reachable-*slot* bitsets live on the compiled graph
        (:meth:`CompiledGraph.slot_closure`) where the incremental
        simulation backend shares them.
        """
        cg = self._cg
        out_words = (len(self._out_nodes) + _WORD - 1) // _WORD
        out_closure = np.zeros((cg.num_nodes, out_words), dtype=np.uint64)
        outs = np.arange(len(self._out_nodes), dtype=np.uint64)
        out_closure[self._out_nodes, (outs // _WORD).astype(np.int64)] |= (
            np.uint64(1) << (outs % _WORD)
        )
        indptr, indices = cg.fanout_indptr, cg.fanout_indices
        for node in cg.topo[::-1]:
            row = indices[indptr[node] : indptr[node + 1]]
            if len(row):
                out_closure[node] |= np.bitwise_or.reduce(out_closure[row], axis=0)
        self._out_closure = out_closure

    def _batch_size(self, good: np.ndarray) -> int:
        """Faults per pass under the :attr:`batch_words` budget."""
        return max(1, self.batch_words // good.shape[1])

    def _sim_state(self, patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(fault-free packed node rows, valid-bit word mask)."""
        good = self.simulator.simulate(patterns).packed
        valid = np.full(good.shape[1], _ONES, dtype=np.uint64)
        tail = patterns.shape[0] % _WORD
        if tail:
            valid[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
        return good, valid

    def _batch_diff(
        self,
        good: np.ndarray,
        valid: np.ndarray,
        batch: Sequence[tuple[int, int]],
    ) -> np.ndarray:
        """Packed detection words, one row per fault in ``batch``.

        One fault-parallel pass: state is ``(rows, batch, words)``, each
        fault pinned in its own column; only sim-group slices inside the
        batch's cone union are re-evaluated, and after every group the
        pinned rows are re-asserted (a pinned net may sit inside another
        batch member's cone and must still be re-computed *there*).
        """
        if self._out_closure is None:
            self._build_out_closure()
        cg = self._cg
        num_words = good.shape[1]
        size = len(batch)
        rows = np.asarray([key[0] for key in batch], dtype=np.int64)
        values = np.asarray([key[1] for key in batch], dtype=np.uint64)
        cols = np.arange(size)

        pool = self._state_pool
        if (
            pool is None
            or pool.shape[1] < size
            or pool.shape[2] != num_words
        ):
            pool = np.empty(
                (cg.num_sim_rows, max(size, self._batch_size(good)), num_words),
                dtype=np.uint64,
            )
            self._state_pool = pool
        state = pool[:, :size, :]
        state[: cg.num_nodes] = good[:, None, :]
        state[cg.zero_row] = np.uint64(0)
        state[cg.ones_row] = _ONES
        pin_words = np.where(values[:, None].astype(bool), _ONES, np.uint64(0))
        state[rows, cols] = pin_words

        union = np.bitwise_or.reduce(cg.slot_closure()[rows], axis=0)
        slots = np.flatnonzero(np.unpackbits(union.view(np.uint8), bitorder="little"))
        if len(slots):
            offsets = cg.sim_group_offsets
            group_ids = np.searchsorted(offsets, slots, side="right") - 1
            starts = np.flatnonzero(np.r_[True, group_ids[1:] != group_ids[:-1]])
            ends = np.r_[starts[1:], len(slots)]
            for s, e in zip(starts, ends):
                group = cg.sim_groups[group_ids[s]]
                pos = slots[s:e] - offsets[group_ids[s]]
                gathered = state[group.src[pos]]  # (k, width, batch, words)
                if group.op == OP_AND:
                    acc = np.bitwise_and.reduce(gathered, axis=1)
                elif group.op == OP_OR:
                    acc = np.bitwise_or.reduce(gathered, axis=1)
                else:
                    acc = np.bitwise_xor.reduce(gathered, axis=1)
                state[group.dst[pos]] = acc ^ group.invert[pos][:, :, None]
                state[rows, cols] = pin_words  # re-assert pinned nets

        out_union = np.bitwise_or.reduce(self._out_closure[rows], axis=0)
        out_positions = np.flatnonzero(
            np.unpackbits(out_union.view(np.uint8), bitorder="little")
        )
        if not len(out_positions):
            return np.zeros((size, num_words), dtype=np.uint64)
        out_rows = self._out_nodes[out_positions]
        xor = state[out_rows] ^ good[out_rows][:, None, :]
        return np.bitwise_or.reduce(xor, axis=0) & valid


class ReferenceStuckAtSimulator:
    """Serial-fault, bit-parallel stuck-at simulator — the executable
    specification.

    One full compiled-graph re-simulation per fault with the fault net
    pinned; :class:`StuckAtSimulator` must reproduce its detection
    matrices bit for bit.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.simulator = LogicSimulator(circuit)

    def detection_matrix(
        self, faults: Sequence[StuckAtFault], patterns: np.ndarray
    ) -> np.ndarray:
        """Boolean ``(faults, patterns)``: vector p detects fault f."""
        good = self.simulator.simulate(patterns)
        good_outputs = self._output_words(good)
        num_words = good.packed.shape[1]
        out = np.zeros((len(faults), patterns.shape[0]), dtype=np.bool_)
        for i, fault in enumerate(faults):
            faulty = self._simulate_with_fault(fault, patterns)
            diff = np.zeros(num_words, dtype=np.uint64)
            for good_row, bad_row in zip(good_outputs, faulty):
                diff |= good_row ^ bad_row
            bits = np.unpackbits(diff.view(np.uint8), bitorder="little")
            out[i] = bits[: patterns.shape[0]].astype(bool)
        return out

    def coverage(
        self, faults: Sequence[StuckAtFault], patterns: np.ndarray
    ) -> float:
        """Fraction of faults detected by the pattern set."""
        if not faults:
            return 1.0
        matrix = self.detection_matrix(faults, patterns)
        return float(matrix.any(axis=1).mean())

    # ------------------------------------------------------------------ internal
    def _output_words(self, values) -> list[np.ndarray]:
        return [
            values.packed[values.row_of[name]].copy()
            for name in self.circuit.output_names
        ]

    def _simulate_with_fault(
        self, fault: StuckAtFault, patterns: np.ndarray
    ) -> list[np.ndarray]:
        """Re-simulate with ``fault.net`` pinned; returns output words."""
        if fault.net not in self.simulator.row_of:
            raise FaultSimError(f"unknown net {fault.net!r}")
        values = self.simulator.simulate(patterns, pinned={fault.net: fault.value})
        return [
            values.packed[values.row_of[name]].copy()
            for name in self.circuit.output_names
        ]
