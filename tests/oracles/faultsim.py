"""Reference fault simulation: serial stuck-at faults, per-gate
leakage and the step-by-step IDDQ test generation.

* :class:`ReferenceStuckAtSimulator` re-simulates the whole compiled
  graph once per fault; :class:`~repro.faultsim.stuck_at.StuckAtSimulator`
  must reproduce its detection matrices bit for bit.
* :func:`reference_gate_leakage_na` builds an IDDQ simulator's leakage
  matrix one gate at a time;
  :meth:`~repro.faultsim.iddq.IDDQSimulator.gate_leakage_na` must match
  it exactly.
* :func:`reference_generate_iddq_tests` runs every targeted search step
  by step through the one-shot ``detection_matrix``, which rebuilds the
  IDDQ simulator for each call;
  :func:`~repro.faultsim.atpg.generate_iddq_tests` must return the same
  test set, and the fault-simulation benchmarks time it as a baseline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import FaultSimError
from repro.faultsim.atpg import IDDQTestSet, _generate, _search_activating_vector
from repro.faultsim.coverage import detection_matrix
from repro.faultsim.faults import Defect
from repro.faultsim.iddq import IDDQSimulator
from repro.faultsim.logic_sim import LogicSimulator, NodeValues
from repro.faultsim.stuck_at import StuckAtFault
from repro.library.library import CellLibrary
from repro.library.technology import Technology
from repro.netlist.circuit import Circuit
from repro.partition.partition import Partition


class ReferenceStuckAtSimulator:
    """Serial-fault, bit-parallel stuck-at simulator.

    One full compiled-graph re-simulation per fault with the fault net
    pinned.
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


def reference_gate_leakage_na(sim: IDDQSimulator, values: NodeValues) -> np.ndarray:
    """``(patterns, gates)`` leakage matrix in nA of ``sim``'s circuit,
    one gate's table lookup at a time."""
    num_patterns = values.num_patterns
    out = np.empty((num_patterns, len(sim._gate_rows)), dtype=np.float64)
    unpacked: dict[int, np.ndarray] = {}

    def bits(row: int) -> np.ndarray:
        cached = unpacked.get(row)
        if cached is None:
            cached = np.unpackbits(
                values.packed[row].view(np.uint8), bitorder="little"
            )[:num_patterns].astype(np.int64)
            unpacked[row] = cached
        return cached

    for g, fanins in enumerate(sim._fanin_rows):
        state = np.zeros(num_patterns, dtype=np.int64)
        for position, row in enumerate(fanins):
            state |= bits(row) << position
        out[:, g] = sim._leak_tables[g][state]
    return out


def reference_generate_iddq_tests(
    circuit: Circuit,
    partition: Partition,
    defects: Sequence[Defect],
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    seed: int = 0,
    random_vectors: int = 128,
    restarts: int = 4,
    flip_budget: int = 24,
    compact: bool = True,
) -> IDDQTestSet:
    """:func:`~repro.faultsim.atpg.generate_iddq_tests`'s search through
    the one-shot detector, which rebuilds the IDDQ simulator for every
    detection call."""

    def detect(ds, ps):
        return detection_matrix(circuit, partition, ds, ps, library, technology)

    num_inputs = len(circuit.input_names)
    return _generate(
        detect,
        lambda defect, rng: _search_activating_vector(
            detect, defect, rng, num_inputs, restarts, flip_budget
        ),
        circuit,
        defects,
        seed,
        random_vectors,
        compact,
    )
