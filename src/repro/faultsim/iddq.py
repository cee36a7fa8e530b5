"""Per-vector, per-module quiescent current computation.

The fault-free IDDQ of a module for a given input vector is the sum of
its cells' state-dependent leakages; a defect adds its current to every
module containing one of its observing gates whenever the vector
activates it.  All of it is vectorised over patterns *and* gates: the
leak tables are built once per distinct library cell, gates are grouped
by arity so a batch of patterns turns into one fancy-indexing lookup
per arity group (no per-gate Python), and each module's gates are
the sorted member array the partition caches
(:meth:`Partition.gates_array`).

``tests/oracles/faultsim.py`` keeps the original per-gate loop as the
executable specification; the equivalence suite asserts the grouped
path reproduces it exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultSimError
from repro.faultsim.faults import Defect
from repro.faultsim.logic_sim import LogicSimulator, NodeValues
from repro.library.default_lib import generic_library
from repro.library.library import CellLibrary
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import sorted_unique
from repro.partition.partition import Partition

__all__ = ["IDDQSimulator"]


class IDDQSimulator:
    """Quiescent-current model for one circuit and library.

    Precompiles per-gate leakage lookup tables (leakage as a function of
    the input state index, shared across gates bound to the same library
    cell) plus an arity-grouped index structure, so a batch of patterns
    turns into one table lookup per arity group.
    """

    def __init__(self, circuit: Circuit, library: CellLibrary | None = None):
        self.circuit = circuit
        self.library = library or generic_library()
        self.simulator = LogicSimulator(circuit)
        # Per gate: fanin rows (for state extraction) and a leak table
        # indexed by the packed input state.  Tables are built once per
        # distinct cell and shared between same-cell gates.
        self._gate_rows: list[int] = []
        self._fanin_rows: list[tuple[int, ...]] = []
        self._leak_tables: list[np.ndarray] = []
        # Keyed on (cell, arity): a cell can be bound explicitly to gates
        # of different fanin counts, and the table length is 1 << arity.
        cell_tables: dict[tuple[str, int], np.ndarray] = {}
        by_arity: dict[int, list[int]] = {}
        row_of = self.simulator.row_of
        for g, name in enumerate(circuit.gate_names):
            gate = circuit.gate(name)
            cell = self.library.for_gate(gate)
            table = cell_tables.get((cell.name, gate.arity))
            if table is None:
                table = np.asarray(
                    [cell.leakage_na_for_state(s) for s in range(1 << gate.arity)],
                    dtype=np.float64,
                )
                cell_tables[(cell.name, gate.arity)] = table
            self._gate_rows.append(row_of[name])
            self._fanin_rows.append(tuple(row_of[f] for f in gate.fanins))
            self._leak_tables.append(table)
            by_arity.setdefault(gate.arity, []).append(g)
        # Arity groups: (arity, gate columns, (g, arity) fanin row matrix,
        # flattened per-gate leak tables plus (g, 1) offsets into them) —
        # one shifted-bit state build and one ``np.take`` each.
        self._arity_groups: list[
            tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        num_gates = len(self._gate_rows)
        self._gate_group_id = np.zeros(num_gates, dtype=np.int32)
        self._gate_group_pos = np.zeros(num_gates, dtype=np.int32)
        # Per gate, the least and most its leak table gives over all
        # input states (nA): summed over a module, exact bounds of the
        # module's fault-free current under any vector.
        self._leak_min_na = np.zeros(num_gates)
        self._leak_max_na = np.zeros(num_gates)
        for group_id, arity in enumerate(sorted(by_arity)):
            cols = np.asarray(by_arity[arity], dtype=np.int64)
            fanins = np.asarray(
                [self._fanin_rows[g] for g in cols], dtype=np.int64
            ).reshape(len(cols), arity)
            flat = np.concatenate([self._leak_tables[g] for g in cols])
            offsets = (
                np.arange(len(cols), dtype=np.int32)[:, None] << arity
            )
            self._arity_groups.append((arity, cols, fanins, flat, offsets))
            self._gate_group_id[cols] = group_id
            self._gate_group_pos[cols] = np.arange(len(cols), dtype=np.int32)
            tables = flat.reshape(len(cols), 1 << arity)
            self._leak_min_na[cols] = tables.min(axis=1)
            self._leak_max_na[cols] = tables.max(axis=1)

    # ------------------------------------------------------------- fault-free
    def simulate_values(self, patterns: np.ndarray) -> NodeValues:
        return self.simulator.simulate(patterns)

    def gate_leakage_na(self, values: NodeValues) -> np.ndarray:
        """``(patterns, gates)`` state-dependent leakage matrix in nA.

        Arity-grouped and fully vectorised; exactly reproduces the
        per-gate reference loop.
        """
        bits = self.unpack_bits(values)
        out = np.empty((len(self._gate_rows), values.num_patterns), dtype=np.float64)
        for arity, cols, fanins, flat, offsets in self._arity_groups:
            state = bits[fanins[:, 0]]
            for position in range(1, arity):
                state = state | (bits[fanins[:, position]] << position)
            out[cols] = np.take(flat, state + offsets)
        # C-contiguous (patterns, gates), like the reference loop builds:
        # column gathers off it stay C-contiguous, so downstream pairwise
        # summations (module IDDQ) are bit-identical to the loop path.
        return np.ascontiguousarray(out.T)

    def unpack_bits(self, values: NodeValues) -> np.ndarray:
        """Dense ``(nodes, patterns)`` int32 0/1 matrix of all node values."""
        return np.unpackbits(
            np.ascontiguousarray(values.packed).view(np.uint8),
            axis=1,
            bitorder="little",
        )[:, : values.num_patterns].astype(np.int32)

    def leakage_rows(self, bits: np.ndarray, gates: np.ndarray) -> np.ndarray:
        """``(len(gates), patterns)`` leakage rows for a gate subset.

        Each row is the same table lookup :meth:`gate_leakage_na` would
        produce for that gate — exact down to the float, which is what
        lets the engine restrict work to a defect's observing modules.
        """
        out = np.empty((len(gates), bits.shape[1]), dtype=np.float64)
        group_ids = self._gate_group_id[gates]
        for group_id in sorted_unique(group_ids):
            arity, _, fanins, flat, _ = self._arity_groups[group_id]
            sel = np.flatnonzero(group_ids == group_id)
            pos = self._gate_group_pos[gates[sel]].astype(np.int64)
            state = bits[fanins[pos, 0]]
            for position in range(1, arity):
                state = state | (bits[fanins[pos, position]] << position)
            out[sel] = np.take(flat, state + (pos[:, None].astype(np.int32) << arity))
        return out

    def module_indices(self, partition: Partition) -> dict[int, np.ndarray]:
        """Per-module sorted gate index arrays: the partition's own
        member arrays, which it keeps valid across moves."""
        return {
            module: partition.gates_array(module) for module in partition.module_ids
        }

    def module_iddq_ua(
        self, partition: Partition, values: NodeValues
    ) -> dict[int, np.ndarray]:
        """Fault-free per-module IDDQ in uA, per pattern."""
        return self.module_iddq_from_leak(partition, self.gate_leakage_na(values))

    def module_iddq_from_leak(
        self, partition: Partition, leak: np.ndarray
    ) -> dict[int, np.ndarray]:
        """Per-module IDDQ from an already-computed leakage matrix.

        Split out so :class:`~repro.faultsim.engine.CoverageEngine` can
        reuse one leakage matrix across partitions and defect batches.
        """
        return {
            module: leak[:, idx].sum(axis=1) * 1e-3  # nA -> uA
            for module, idx in self.module_indices(partition).items()
        }

    def module_leak_bounds_ua(
        self, partition: Partition, module: int
    ) -> tuple[float, float]:
        """Least and greatest fault-free IDDQ of ``module`` in uA over
        every possible vector (each gate at its table's min / max)."""
        idx = partition.gates_array(module)
        return (
            float(self._leak_min_na[idx].sum()) * 1e-3,
            float(self._leak_max_na[idx].sum()) * 1e-3,
        )

    def module_background_ua(
        self, partition: Partition, bits: np.ndarray, modules
    ) -> dict[int, np.ndarray]:
        """Fault-free IDDQ for a *subset* of modules, per pattern.

        Computes leakage only for the gates of the requested modules —
        exactly what a single-defect detection needs — while reproducing
        :meth:`module_iddq_ua` bit for bit: the column gather
        ``leak[:, idx]`` materialises transposed-of-C (gate-major), so
        the transposed row block here has the identical stride pattern
        and the axis-1 summation reduces in the identical order.
        """
        result: dict[int, np.ndarray] = {}
        for module in modules:
            rows = self.leakage_rows(bits, partition.gates_array(module))
            result[module] = rows.T.sum(axis=1) * 1e-3
        return result

    # ---------------------------------------------------------------- defects
    def observing_modules(self, defect: Defect, partition: Partition) -> tuple[int, ...]:
        index = self.circuit.gate_index
        modules = set()
        for gate_name in defect.observing_gates:
            gate_idx = index.get(gate_name)
            if gate_idx is None:
                raise FaultSimError(
                    f"{defect.defect_id}: observing gate {gate_name!r} is not a logic gate"
                )
            modules.add(partition.module_of(gate_idx))
        return tuple(sorted(modules))
