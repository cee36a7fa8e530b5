"""Single-stuck-at logic fault simulation.

The paper's opening sentence: IDDQ testing "complements logic (voltage)
testing in CMOS technologies" — many physical defects (bridges, oxide
shorts, stuck-on transistors) draw quiescent current *without* flipping
any output for most vectors, so logic test misses them, while purely
topological faults are the domain of logic test.  To demonstrate that
complementarity we need the logic-test side: the classic single
stuck-at fault model, simulated bit-parallel.

A stuck-at fault pins one net to 0 or 1; it is detected by a vector iff
some primary output differs from the fault-free response.
:class:`StuckAtSimulator` decides detection by critical-path tracing
inside fanout-free regions (Abramovici, Menon and Miller, "Critical
Path Tracing: An Alternative to Fault Simulation", 1984):

* **Stems.**  A net that is a primary output or whose fanout is not
  exactly one is a *stem*; every other net has one reader and lies in
  a fanout-free tree whose root is a stem.  No path reconverges inside
  a tree, so flipping a tree net flips its stem exactly when every gate
  on its one path is *sensitised* under the fault-free values: the
  other inputs at 1 for AND/NAND, at 0 for OR/NOR, always for
  BUF/NOT/XOR/XNOR.
* **Flip passes.**  Every stem the fault list needs is replayed once
  with its net pinned to the complement of its fault-free value.  The
  packed state grows a stem axis — ``(rows, batch, words)`` — so one
  vectorised sim-group reduction advances a whole batch; only the
  sim-group slices inside the batch's cone union (bitsets over the
  fanout CSR) are re-evaluated and only cone-reachable outputs are
  compared.  Batches follow schedule order so neighbouring stems share
  cones.  An output stem's flip is always seen and needs no pass.
* **Backward pass.**  A tree net is *critical* under the patterns that
  sensitise its reader and under which the reader's output is critical
  (a stem always is): one vectorised step per distance from the stem
  over the packed fault-free words.
* So fault ``(net, v)`` is detected by exactly the vectors under which
  the net's fault-free value differs from ``v``, the net is critical
  and its stem's flip is detected.

The serial-fault implementation (one full compiled-graph re-simulation
per fault) is the executable specification in
``tests/oracles/faultsim.py``; the equivalence suite asserts both
produce bit-identical detection matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.faultsim.logic_sim import LogicSimulator
from repro.errors import FaultSimError
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import GATE_TYPE_CODES, OP_AND, OP_OR, csr_gather
from repro.netlist.gate import GateType

__all__ = [
    "StuckAtFault",
    "StuckAtSimulator",
    "enumerate_stuck_at_faults",
]

_WORD = 64
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: How a reader passes a flip of one input: ``invert ^ op.reduce`` of
#: its other inputs' fault-free words.  AND/NAND need them all at 1,
#: OR/NOR all at 0; BUF/NOT/XOR/XNOR always pass a flip.
_SENSITISE = (
    (np.bitwise_and, (GateType.AND, GateType.NAND), np.uint64(0)),
    (np.bitwise_or, (GateType.OR, GateType.NOR), _ONES),
)


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
    replays only the stems the list needs and traces every other net to
    its stem — the reported numbers stay uncollapsed, only the work
    shrinks.)
    """
    faults: list[StuckAtFault] = []
    for name in circuit.all_names:
        faults.append(StuckAtFault(name, 0))
        faults.append(StuckAtFault(name, 1))
    return faults


class StuckAtSimulator:
    """Stuck-at engine: batched stem flip passes and critical-path
    tracing inside fanout-free regions (see module docstring)."""

    #: Stem-words per flip pass: a pass replays ``batch_words // words``
    #: stems for ``words`` 64-pattern words (256 stems at 64 patterns,
    #: 64 at 256).
    batch_words = 256

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.simulator = LogicSimulator(circuit)
        self._cg = circuit.compiled
        self.row_of = self.simulator.row_of
        # Output bookkeeping: node row per primary output, in output order.
        self._out_nodes = np.asarray(
            [self.row_of[name] for name in circuit.output_names], dtype=np.int64
        )
        self._is_output = np.zeros(self._cg.num_nodes, dtype=bool)
        self._is_output[self._out_nodes] = True
        # Per-net reachable-output bitsets: bit i of row n is set when n
        # reaches output i (the reachable-slot bitsets live on the
        # compiled graph, :meth:`CompiledGraph.slot_closure`).
        outs = np.arange(len(self._out_nodes), dtype=np.uint64)
        seed = np.zeros((self._cg.num_nodes, -(-len(outs) // _WORD)), dtype=np.uint64)
        seed[self._out_nodes, (outs // _WORD).astype(np.int64)] |= np.uint64(1) << (
            outs % _WORD
        )
        self._out_closure = self._cg.fanout_closure(seed)
        # Pooled batched state buffer: one (rows, batch, words)
        # allocation reused across every flip pass of a build.
        self._state_pool: np.ndarray | None = None
        self._build_trees()

    # ------------------------------------------------------------------ public
    def detection_matrix(
        self,
        faults: Sequence[StuckAtFault],
        patterns: np.ndarray,
        jobs: int | None = None,
    ) -> np.ndarray:
        """Boolean ``(faults, patterns)``: vector p detects fault f.

        Bit-identical to the serial-fault reference.  With ``jobs`` > 1
        the stem flip passes are sharded across the runtime's process
        pool (:func:`repro.runtime.parallel.sharded_stem_flips`); every
        stem's flip words are computed independently of its
        batch-mates, so the matrix is bit-identical at any worker count.
        """
        patterns = self.simulator._check_patterns(patterns)
        rows, values = self._fault_rows(faults)
        num_patterns = patterns.shape[0]
        with obs.TRACER.span(
            "detection_matrix",
            circuit=self.circuit.name,
            faults=len(rows),
            patterns=num_patterns,
        ) as span:
            if not len(rows) or not len(self._out_nodes):
                # No primary outputs: nothing is observable, every fault
                # escapes (the reference crashed here before the guard).
                return np.zeros((len(rows), num_patterns), dtype=np.bool_)
            good = self.simulator.simulate(patterns).packed
            stems = self._replayed_stems(rows)
            span.set(stems=len(stems))
            if jobs is not None and jobs > 1:
                from repro.runtime.parallel import sharded_stem_flips

                passes = sharded_stem_flips(self, good, stems, jobs)
            else:
                passes = self.stem_flips(good, stems)
            flip = np.zeros_like(good)
            flip[self._out_nodes] = _ONES  # an output's own flip is seen
            flip[stems] = passes
            words = good[rows] ^ np.where(values, _ONES, np.uint64(0))[:, None]
            words &= self._criticality(good)[rows] & flip[self._stem_of[rows]]
            bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
            return bits[:, :num_patterns].astype(bool)

    def coverage(self, faults: Sequence[StuckAtFault], patterns: np.ndarray) -> float:
        """Fraction of faults detected by the pattern set."""
        if not faults:
            return 1.0
        return float(self.detection_matrix(faults, patterns).any(axis=1).mean())

    def stem_flips(self, good: np.ndarray, stems: np.ndarray) -> np.ndarray:
        """Packed flip-detection words, one row per stem: the patterns
        under which pinning the stem to the complement of its fault-free
        value ``good`` changes a primary output."""
        size = max(1, self.batch_words // good.shape[1])
        out = np.empty((len(stems), good.shape[1]), dtype=np.uint64)
        for start in range(0, len(stems), size):
            out[start : start + size] = self._flip_pass(good, stems[start : start + size])
        return out

    # ---------------------------------------------------------------- internal
    def _build_trees(self) -> None:
        """Each net's reader and stem, the tree nets in runs by distance
        from their stem, and each tree net's sensitising inputs."""
        cg = self._cg
        nodes = np.arange(cg.num_nodes)
        tree = np.flatnonzero((np.diff(cg.fanout_indptr) == 1) & ~self._is_output)
        reader = nodes.copy()
        reader[tree] = cg.fanout_indices[cg.fanout_indptr[tree]]
        hops = np.zeros(cg.num_nodes, dtype=np.int64)
        while True:
            deeper = hops[reader[tree]] + 1
            if np.array_equal(deeper, hops[tree]):
                break
            hops[tree] = deeper
        order = tree[np.argsort(hops[tree], kind="stable")]
        runs = np.split(order, np.flatnonzero(np.diff(hops[order])) + 1)
        stem_of = nodes.copy()
        for nets in runs:  # nearest the stem first
            stem_of[nets] = stem_of[reader[nets]]
        self._reader, self._stem_of, self._chains = reader, stem_of, runs[1:]
        self._sensitise = []
        for op, types, invert in _SENSITISE:
            codes = [GATE_TYPE_CODES.index(t) for t in types]
            nets = tree[np.isin(cg.type_code[reader[tree]], codes)]
            fanins, counts = csr_gather(cg.fanin_indptr, cg.fanin_indices, reader[nets])
            others = fanins[fanins != np.repeat(nets, counts)]
            keep = counts > 1  # a one-input AND/OR passes every flip
            if keep.any():
                offsets = np.cumsum(counts - 1) - (counts - 1)
                self._sensitise.append((op, nets[keep], others, offsets[keep], invert))

    def _criticality(self, good: np.ndarray) -> np.ndarray:
        """Packed patterns under which each net's flip reaches its stem
        (all ones on a stem)."""
        crit = np.full_like(good, _ONES)
        for op, nets, others, offsets, invert in self._sensitise:
            crit[nets] = op.reduceat(good[others], offsets, axis=0) ^ invert
        for nets in self._chains:
            crit[nets] &= crit[self._reader[nets]]
        return crit

    def _fault_rows(
        self, faults: Sequence[StuckAtFault]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(node row, stuck value) arrays; :class:`FaultSimError` on an
        unknown net."""
        rows = np.fromiter(
            (self.row_of.get(f.net, -1) for f in faults), np.int64, len(faults)
        )
        if len(rows) and rows.min() < 0:
            raise FaultSimError(f"unknown net {faults[int(rows.argmin())].net!r}")
        return rows, np.fromiter((f.value for f in faults), bool, len(faults))

    def _replayed_stems(self, rows: np.ndarray) -> np.ndarray:
        """The non-output stems of ``rows`` in simulation-slot order, so
        stems sharing a pass sit close in the schedule and their cone
        union stays tight."""
        stems = np.unique(self._stem_of[rows])
        stems = stems[~self._is_output[stems]]
        return stems[np.argsort(self._cg.slot_of_node[stems], kind="stable")]

    def _flip_pass(self, good: np.ndarray, stems: np.ndarray) -> np.ndarray:
        """Packed flip-detection words, one row per stem of one pass.

        State is ``(rows, batch, words)``, each stem pinned to the
        complement of its good value in its own column; only sim-group
        slices inside the batch's cone union are re-evaluated, and after
        every group the pinned rows are re-asserted (a pinned stem may
        sit inside another batch member's cone and must still be
        re-computed *there*).
        """
        cg = self._cg
        num_words = good.shape[1]
        size = len(stems)
        cols = np.arange(size)

        pool = self._state_pool
        if pool is None or pool.shape[1] < size or pool.shape[2] != num_words:
            pool = np.empty(
                (cg.num_sim_rows, max(size, self.batch_words // num_words), num_words),
                dtype=np.uint64,
            )
            self._state_pool = pool
        state = pool[:, :size, :]
        state[: cg.num_nodes] = good[:, None, :]
        state[cg.zero_row] = np.uint64(0)
        state[cg.ones_row] = _ONES
        pin_words = ~good[stems]
        state[stems, cols] = pin_words

        union = np.bitwise_or.reduce(cg.slot_closure()[stems], axis=0)
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
                state[stems, cols] = pin_words  # re-assert pinned nets

        out_union = np.bitwise_or.reduce(self._out_closure[stems], axis=0)
        out_positions = np.flatnonzero(
            np.unpackbits(out_union.view(np.uint8), bitorder="little")
        )
        if not len(out_positions):
            return np.zeros((size, num_words), dtype=np.uint64)
        out_rows = self._out_nodes[out_positions]
        xor = state[out_rows] ^ good[out_rows][:, None, :]
        return np.bitwise_or.reduce(xor, axis=0)
