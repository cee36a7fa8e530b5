"""The :class:`Partition` data structure (paper §2).

A partition ``Π = {M1, ..., MK}`` is a collection of disjoint, non-empty
gate groups covering all logic gates; "each gate is completely included
in one group, hence no transistor group is split among groups".  Primary
inputs belong to no module (pads draw no quiescent current).

Gates are handled as dense indices (:attr:`Circuit.gate_index`) so the
hot operations — move a gate, query a module, find boundary gates — are
integer/array work, and the numpy-based evaluators can index per-gate
arrays directly.  Membership lives in a dense ``int32`` array and the
boundary/neighbour scans expand the compiled graph's gate-space CSR
adjacency in one vectorised gather instead of walking per-gate tuples.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import PartitionError
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import csr_gather

__all__ = ["Partition"]


def _check_circuit(circuit: Circuit) -> int:
    """The circuit's logic-gate count; a partition needs at least one."""
    n = len(circuit.gate_names)
    if n == 0:
        raise PartitionError(
            f"circuit {circuit.name!r} has no logic gates to partition"
        )
    return n


def _check_module_ids(module_of) -> np.ndarray:
    """``module_of`` as an array, which must hold integer module ids in
    ``[0, 2**31)`` (the assignment array is ``int32``)."""
    module_of = np.asarray(module_of)
    if not np.issubdtype(module_of.dtype, np.integer):
        raise PartitionError(
            f"module ids must be integers, got dtype {module_of.dtype}"
        )
    if module_of.size and (
        module_of.min() < 0 or module_of.max() > np.iinfo(np.int32).max
    ):
        raise PartitionError("module ids must lie in [0, 2**31)")
    return module_of


def check_gate_ids(gates, num_gates: int) -> np.ndarray:
    """``gates`` as an int64 array of dense gate indices, each of which
    must be an integer value in ``[0, num_gates)``.  Every move entry
    point runs this before it writes anything."""
    values = np.asarray(gates)
    if values.dtype.kind not in "iu":
        try:
            values = values.astype(np.float64)
        except (TypeError, ValueError):
            values = None
        if values is None or (np.trunc(values) != values).any():
            raise PartitionError(f"gate ids must be integers, got {gates!r}")
    if values.size and (values.min() < 0 or values.max() >= num_gates):
        raise PartitionError(f"gate ids must lie in [0, {num_gates}), got {gates!r}")
    return values.astype(np.int64)


class Partition:
    """Mutable disjoint cover of a circuit's logic gates by modules.

    Module ids are small ints, unique within one partition's lifetime
    (ids of deleted modules are never reused, so optimiser bookkeeping
    can key on them safely).
    """

    def __init__(self, circuit: Circuit, assignment: Mapping[int, int]):
        """``assignment`` maps dense gate index -> module id and must
        cover every logic gate."""
        self.circuit = circuit
        n = _check_circuit(circuit)
        if set(assignment.keys()) != set(range(n)):
            missing = sorted(set(range(n)) - set(assignment.keys()))[:5]
            extra = sorted(set(assignment.keys()) - set(range(n)))[:5]
            raise PartitionError(
                f"assignment must cover exactly the {n} logic gates; "
                f"missing={missing} extra={extra}"
            )
        _check_module_ids(list(assignment.values()))
        self._module_of: np.ndarray = np.zeros(n, dtype=np.int32)
        self._modules: dict[int, set[int]] = {}
        for gate, module in assignment.items():
            self._module_of[gate] = module
            self._modules.setdefault(module, set()).add(gate)
        self._next_id = max(self._modules) + 1
        self._version = 0
        self._clear_caches()

    def _clear_caches(self) -> None:
        # Version-keyed membership cache: sorted per-module gate index
        # arrays, filled lazily and dropped wholesale on any mutation.
        self._members_version = -1
        self._members: dict[int, np.ndarray] = {}
        # Version-keyed boundary cache: repeated boundary queries at one
        # version (optimiser candidate sampling retries) hit this.
        self._boundary_version = -1
        self._boundary: dict[tuple[int, int], list[int]] = {}
        # Version-keyed result of the whole-graph boundary pass.
        self._boundary_sets_version = -1
        self._boundary_sets: dict[int, list[int]] = {}

    # ------------------------------------------------------------ constructors
    @classmethod
    def single_module(cls, circuit: Circuit) -> "Partition":
        """All gates in one module — the trivial (sensorised-whole-chip)
        partition."""
        n = len(circuit.gate_names)
        return cls(circuit, {g: 0 for g in range(n)})

    @classmethod
    def from_array(cls, circuit: Circuit, module_of) -> "Partition":
        """The partition that puts gate ``g`` in module ``module_of[g]``.

        The inverse of :meth:`module_of_array` (same grouping, same
        module ids), and equal to ``Partition(circuit,
        dict(enumerate(module_of)))`` down to the order its dict and
        sets iterate in: one stable argsort and one set per module
        instead of a per-gate loop.
        """
        module_of = np.asarray(module_of)
        n = _check_circuit(circuit)
        if module_of.shape != (n,):
            raise PartitionError(
                f"module_of must hold one module id per logic gate ({n}), "
                f"got shape {module_of.shape}"
            )
        module_of = _check_module_ids(module_of)
        order = np.argsort(module_of, kind="stable")
        ids, first = np.unique(module_of[order], return_index=True)
        groups = np.split(order, first[1:])
        # The mapping constructor meets the modules in order of their
        # first (lowest) gate.
        return cls._from_groups(
            circuit,
            module_of,
            {
                int(ids[i]): groups[i].tolist()
                for i in np.argsort(order[first], kind="stable").tolist()
            },
        )

    @classmethod
    def _from_groups(
        cls, circuit: Circuit, module_of: np.ndarray, groups: dict[int, list[int]]
    ) -> "Partition":
        """Unchecked construction from the assignment array and every
        module's gates.  Dict and set iteration orders follow insertion
        order, so ``groups`` and each gate list are inserted as given;
        the IDDQ simulator sums leakage in set order."""
        partition = object.__new__(cls)
        partition.circuit = circuit
        partition._module_of = module_of.astype(np.int32)
        partition._modules = {module: set(gates) for module, gates in groups.items()}
        partition._next_id = max(partition._modules, default=-1) + 1
        partition._version = 0
        partition._clear_caches()
        return partition

    @classmethod
    def from_groups(cls, circuit: Circuit, groups: Iterable[Iterable[str]]) -> "Partition":
        """Build from groups of gate *names*; groups must cover exactly."""
        index = circuit.gate_index
        assignment: dict[int, int] = {}
        for module, names in enumerate(groups):
            for name in names:
                if name not in index:
                    raise PartitionError(f"unknown logic gate {name!r}")
                gate = index[name]
                if gate in assignment:
                    raise PartitionError(f"gate {name!r} appears in two groups")
                assignment[gate] = module
        return cls(circuit, assignment)

    def copy(self) -> "Partition":
        clone = object.__new__(Partition)
        clone.circuit = self.circuit
        clone._module_of = self._module_of.copy()
        clone._modules = {mid: set(gates) for mid, gates in self._modules.items()}
        clone._next_id = self._next_id
        clone._version = self._version
        clone._clear_caches()
        return clone

    # ----------------------------------------------------------------- queries
    @property
    def version(self) -> int:
        """Mutation counter: bumped by every move/split/merge.

        Consumers that precompute per-module structures (e.g. the IDDQ
        module-index grouping) key their caches on ``(id(partition),
        version)`` so a mutated partition can never serve stale data.
        """
        return self._version

    @property
    def num_modules(self) -> int:
        return len(self._modules)

    @property
    def module_ids(self) -> tuple[int, ...]:
        """Module ids in ascending order.

        The canonical ordering matters: optimisers sample from this
        tuple, and both evaluation-state implementations (dense and
        reference) must observe the same module order for seeded runs to
        produce identical move sequences.
        """
        return tuple(sorted(self._modules))

    def module_of(self, gate: int) -> int:
        return int(self._module_of[gate])

    def gate_id(self, gate) -> int:
        """``gate`` as a dense gate index: the scalar form of
        :func:`check_gate_ids`, cheap enough for every single move."""
        num_gates = len(self._module_of)
        try:
            index = int(gate)
        except (TypeError, ValueError, OverflowError):
            index = None
        if index is None or index != gate or not 0 <= index < num_gates:
            raise PartitionError(
                f"gate ids must be integers in [0, {num_gates}), got {gate!r}"
            )
        return index

    def modules_of(self, gates: np.ndarray) -> np.ndarray:
        """Module ids of a batch of dense gate indices (vectorised)."""
        return self._module_of[gates]

    def module_of_name(self, name: str) -> int:
        return int(self._module_of[self.circuit.gate_index[name]])

    def module_of_array(self) -> np.ndarray:
        """The dense gate -> module-id assignment, as an int32 copy.

        The canonical serialisable form: :meth:`from_array`
        reconstructs an equal partition (same grouping *and* same module
        ids).  The runtime layer fingerprints and caches partitions
        through it.
        """
        return self._module_of.copy()

    def gates_of(self, module: int) -> frozenset[int]:
        try:
            return frozenset(self._modules[module])
        except KeyError:
            raise PartitionError(f"no module {module}") from None

    def gates_array(self, module: int) -> np.ndarray:
        """Sorted dense gate indices of ``module`` as an int64 array.

        Served from the version-keyed membership cache: every mutation
        bumps :attr:`version` and invalidates the whole cache, after
        which modules re-materialise lazily on first access.  Callers
        must treat the returned array as immutable.
        """
        if self._members_version != self._version:
            self._members = {}
            self._members_version = self._version
        cached = self._members.get(module)
        if cached is None:
            gates = self._modules.get(module)
            if gates is None:
                raise PartitionError(f"no module {module}")
            cached = np.fromiter(gates, dtype=np.int64, count=len(gates))
            cached.sort()
            self._members[module] = cached
        return cached

    def module_size(self, module: int) -> int:
        try:
            return len(self._modules[module])
        except KeyError:
            raise PartitionError(f"no module {module}") from None

    def boundary_gates(self, module: int) -> list[int]:
        """Gates of ``module`` directly connected to a gate outside it.

        One batched CSR expansion over the module's (cached) gate array;
        returned in ascending gate order — canonical, so rng-driven
        sampling over the boundary is identical across evaluation-state
        implementations.  Cached per version (callers must not mutate
        the returned list).
        """
        cached = self._boundary_lookup(module, -1)
        if cached is not None:
            return cached
        gs = self.gates_array(module)
        if gs.size == 0:
            result: list[int] = []
        else:
            cg = self.circuit.compiled
            neighbours, counts = csr_gather(
                cg.gate_adj_indptr, cg.gate_adj_indices, gs
            )
            external = self._module_of[neighbours] != module
            per_gate = np.repeat(np.arange(len(gs)), counts)
            has_external = np.bincount(per_gate[external], minlength=len(gs)) > 0
            result = gs[has_external].tolist()
        self._boundary[(module, -1)] = result
        return result

    def boundary_sets(self) -> dict[int, list[int]]:
        """Every module's :meth:`boundary_gates` list, from one pass over
        the circuit's gate edges (each module's list is its member array
        masked by the cut edges' endpoints).

        Cached per version (callers must not mutate the result), and
        fills the per-module boundary cache.
        The evolution strategy draws all of a parent's mutations at one
        version, so one pass serves them all; a walker that moves gates
        every step would pay the whole graph at every version, and keeps
        the module-local scan of :meth:`boundary_gates`.
        """
        if self._boundary_sets_version == self._version:
            return self._boundary_sets
        u, v = self.circuit.compiled.gate_edges()
        module_of = self._module_of
        cut = np.flatnonzero(module_of[u] != module_of[v])
        on_boundary = np.zeros(module_of.size, dtype=bool)
        on_boundary[u[cut]] = True
        on_boundary[v[cut]] = True
        sets = {}
        for module in self._modules:
            gates = self.gates_array(module)
            sets[module] = gates[on_boundary[gates]].tolist()
        if self._boundary_version != self._version:
            self._boundary = {}
            self._boundary_version = self._version
        self._boundary.update(((module, -1), gates) for module, gates in sets.items())
        self._boundary_sets = sets
        self._boundary_sets_version = self._version
        return sets

    def _boundary_lookup(self, module: int, other: int) -> list[int] | None:
        if self._boundary_version != self._version:
            self._boundary = {}
            self._boundary_version = self._version
            return None
        if module not in self._modules:
            raise PartitionError(f"no module {module}")
        return self._boundary.get((module, other))

    def neighbor_modules(
        self, gate: int, overlay: Mapping[int, int] | None = None
    ) -> tuple[int, ...]:
        """Distinct modules (other than the gate's own) adjacent to
        ``gate``, ascending.  Adjacency rows are a handful of entries, so
        a Python set beats ``np.unique`` by an order of magnitude here —
        this runs once per candidate in every optimiser's inner loop.

        ``overlay`` maps gates to the modules they would occupy after
        moves that were drawn but not applied; the answer is the one the
        partition would give with those moves made."""
        cg = self.circuit.compiled
        row = cg.gate_adj_indices[
            cg.gate_adj_indptr[gate] : cg.gate_adj_indptr[gate + 1]
        ]
        own = int(self._module_of[gate])
        if overlay:
            modules = {
                overlay.get(neighbour, module)
                for neighbour, module in zip(
                    row.tolist(), self._module_of[row].tolist()
                )
            }
            own = overlay.get(gate, own)
        else:
            modules = set(self._module_of[row].tolist())
        modules.discard(own)
        return tuple(sorted(modules))

    def gates_adjacent_to(self, module: int, other: int) -> list[int]:
        """Gates of ``module`` with at least one neighbour in ``other``,
        ascending — the batched form of filtering :meth:`boundary_gates`
        through :meth:`neighbor_modules` one gate at a time.  Cached per
        version alongside the boundary sets."""
        cached = self._boundary_lookup(module, other)
        if cached is not None:
            return cached
        gs = self.gates_array(module)
        if gs.size == 0:
            result: list[int] = []
        else:
            cg = self.circuit.compiled
            neighbours, counts = csr_gather(
                cg.gate_adj_indptr, cg.gate_adj_indices, gs
            )
            hits = self._module_of[neighbours] == other
            per_gate = np.repeat(np.arange(len(gs)), counts)
            adjacent = np.bincount(per_gate[hits], minlength=len(gs)) > 0
            result = gs[adjacent].tolist()
        self._boundary[(module, other)] = result
        return result

    def as_name_groups(self) -> tuple[frozenset[str], ...]:
        """Module contents as frozensets of gate names, for reports/tests.

        Order: by module id.
        """
        names = self.circuit.gate_names
        return tuple(
            frozenset(names[g] for g in gates)
            for _, gates in sorted(self._modules.items())
        )

    def canonical(self) -> frozenset[frozenset[int]]:
        """Order-independent identity (module ids erased)."""
        return frozenset(frozenset(gates) for gates in self._modules.values())

    # ------------------------------------------------------------------ moves
    def move_gate(self, gate: int, target_module: int) -> int:
        """Move one gate to ``target_module``; returns the source module.

        If the source module becomes empty it is deleted (paper §4.2:
        "If all gates of M are moved, this module is deleted").  Any
        already-materialised membership arrays of the two touched
        modules are maintained in place (sorted insert/delete), so the
        cache survives single moves — the optimiser hot path.
        """
        gate = self.gate_id(gate)
        if target_module not in self._modules:
            raise PartitionError(f"no module {target_module}")
        source = int(self._module_of[gate])
        if source == target_module:
            raise PartitionError(
                f"gate {gate} is already in module {target_module}"
            )
        self._modules[source].discard(gate)
        self._modules[target_module].add(gate)
        self._module_of[gate] = target_module
        if self._members_version == self._version:
            self._members_version = self._version + 1
            src_cached = self._members.get(source)
            if src_cached is not None:
                self._members[source] = np.delete(
                    src_cached, np.searchsorted(src_cached, gate)
                )
            tgt_cached = self._members.get(target_module)
            if tgt_cached is not None:
                self._members[target_module] = np.insert(
                    tgt_cached, np.searchsorted(tgt_cached, gate), gate
                )
        self._version += 1
        if not self._modules[source]:
            del self._modules[source]
            self._members.pop(source, None)
        return source

    def move_gates(self, gates: Iterable[int], target_module: int) -> None:
        """Move a batch of gates to ``target_module`` — one version bump,
        one membership-cache invalidation, emptied sources deleted.

        The common case (distinct gates sharing one source module) runs
        as whole-set operations instead of a per-gate loop.  The whole
        batch is validated before any mutation, so a rejected call
        leaves the partition (and its version-keyed caches) untouched.
        """
        gates = check_gate_ids(list(gates), len(self._module_of)).tolist()
        if target_module not in self._modules:
            raise PartitionError(f"no module {target_module}")
        if not gates:
            return
        block = set(gates)
        if len(block) != len(gates):
            raise PartitionError("duplicate gates in move_gates batch")
        for gate in gates:
            if int(self._module_of[gate]) == target_module:
                raise PartitionError(
                    f"gate {gate} is already in module {target_module}"
                )
        target_set = self._modules[target_module]
        source = int(self._module_of[gates[0]])
        source_set = self._modules[source]
        if block <= source_set:  # single-source fast path
            source_set -= block
            target_set |= block
            self._module_of[np.asarray(gates, dtype=np.int64)] = target_module
            if not source_set:
                del self._modules[source]
        else:
            for gate in gates:
                source = int(self._module_of[gate])
                source_set = self._modules[source]
                source_set.discard(gate)
                target_set.add(gate)
                self._module_of[gate] = target_module
                if not source_set:
                    del self._modules[source]
        self._version += 1

    def split_new_module(self, gates: Iterable[int]) -> int:
        """Move ``gates`` into a brand-new module; returns its id."""
        gates = list(gates)
        if not gates:
            raise PartitionError("cannot create an empty module")
        new_id = self._next_id
        self._next_id += 1
        self._version += 1
        self._modules[new_id] = set()
        for gate in gates:
            source = self._module_of[gate]
            self._modules[source].discard(gate)
            self._module_of[gate] = new_id
            self._modules[new_id].add(gate)
            if not self._modules[source]:
                del self._modules[source]
        return new_id

    def merge_modules(self, keep: int, absorb: int) -> None:
        """Merge module ``absorb`` into ``keep``."""
        if keep == absorb:
            raise PartitionError("cannot merge a module with itself")
        gates = self._modules.get(absorb)
        if gates is None or keep not in self._modules:
            raise PartitionError(f"unknown module in merge({keep}, {absorb})")
        self._module_of[self.gates_array(absorb)] = keep
        self._modules[keep].update(gates)
        self._version += 1
        del self._modules[absorb]

    # ------------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Verify cover/disjointness/non-emptiness; raises on violation.

        Used by tests and by the optimiser's debug mode.
        """
        seen: set[int] = set()
        for module, gates in self._modules.items():
            if not gates:
                raise PartitionError(f"module {module} is empty")
            for gate in gates:
                if gate in seen:
                    raise PartitionError(f"gate {gate} in two modules")
                if self._module_of[gate] != module:
                    raise PartitionError(
                        f"gate {gate}: map says {self._module_of[gate]}, set says {module}"
                    )
                seen.add(gate)
        if len(seen) != len(self.circuit.gate_names):
            raise PartitionError(
                f"partition covers {len(seen)} of {len(self.circuit.gate_names)} gates"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = sorted((len(g) for g in self._modules.values()), reverse=True)
        return f"Partition(modules={len(self._modules)}, sizes={sizes[:8]})"
