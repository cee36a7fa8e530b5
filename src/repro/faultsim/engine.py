"""The persistent, vectorised IDDQ coverage engine.

:func:`repro.faultsim.coverage.detection_matrix` and
:func:`~repro.faultsim.coverage.evaluate_coverage` are one-shot
reference implementations: every call rebuilds the
:class:`~repro.faultsim.iddq.IDDQSimulator` (leak tables included),
re-simulates the fault-free circuit, regroups the partition's modules
and loops over defects in Python.  That is fine for a single report and
hopeless inside a search loop — the hill-climbing phase of
:func:`~repro.faultsim.atpg.generate_iddq_tests` evaluates one small
pattern batch per step, thousands of times.

:class:`CoverageEngine` keeps everything reusable alive across calls:

* the :class:`IDDQSimulator` with its per-cell leak tables and
  arity-grouped leakage indexing (built once per engine);
* the last simulated pattern batch — fault-free :class:`NodeValues`
  plus the ``(patterns, gates)`` leakage matrix — keyed by batch
  content, so evaluating two partitions against one vector set
  simulates once;
* per-partition module index groupings (via
  :meth:`IDDQSimulator.module_indices`, keyed on the partition's
  mutation version);
* per-(partition, defect-list) observation structure: a packed
  all-defects activation matrix (built type-grouped with fancy
  indexing over the packed simulation words) and a defect -> observing
  module CSR.

``detection_matrix``/``evaluate_coverage`` then reduce to broadcast
threshold comparisons over (defect, module) pairs — zero per-defect
Python — and reproduce the reference implementations *exactly*: same
floats, same booleans, same report.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro import obs
from repro.backend import SimBackend, get_backend
from repro.faultsim.coverage import CoverageReport, effective_thresholds_ua
from repro.faultsim.faults import BridgingFault, Defect, GateOxideShort, StuckOnTransistor
from repro.faultsim.iddq import IDDQSimulator
from repro.faultsim.logic_sim import NodeValues
from repro.library.default_lib import generic_technology
from repro.library.library import CellLibrary
from repro.library.technology import Technology
from repro.netlist.circuit import Circuit
from repro.partition.partition import Partition

__all__ = ["CoverageEngine"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Relative margin on the current-bound comparisons of
#: :meth:`CoverageEngine.search_class`.  A background sum rounds by far
#: less than this, so no float result can cross it; a defect whose
#: current falls within it of a bound takes the step-by-step walk.
_BOUND_MARGIN = 1e-9


class CoverageEngine:
    """Cached, vectorised IDDQ detection/coverage for one circuit.

    One engine per (circuit, library, technology); partitions, defect
    lists and pattern batches vary call to call.  Results are exactly
    those of the reference functions in :mod:`repro.faultsim.coverage`.
    """

    #: Most-recently-used slots for the observation-structure cache.
    _OBS_CACHE_SLOTS = 8

    #: Most-recently-used slots for the simulation-state cache — enough
    #: to hold an ATPG walk's current flip batch, a handful of restart
    #: baselines and the full-pool batch simultaneously.
    _STATE_SLOTS = 8

    #: Fall back to a full re-simulation when more input columns than
    #: this changed against the cached batch — a mostly-new batch (e.g.
    #: a hill-climb restart) touches most of the circuit anyway, so the
    #: event-driven bookkeeping would only add overhead.
    _INCREMENTAL_COL_LIMIT = 4

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary | None = None,
        technology: Technology | None = None,
        backend: str | SimBackend | None = None,
    ):
        self.circuit = circuit
        self.technology = technology or generic_technology()
        self.backend = get_backend(backend)
        self.sim = IDDQSimulator(circuit, library, backend=self.backend)
        # Content-addressed simulation-state cache: batch digest ->
        # [patterns copy, values, unpacked bits, lazy full leakage
        # matrix].  Multiple slots (MRU) so interleaved pattern sets —
        # an ATPG hill-climb's flip batches against the full-pool
        # coverage checks, or several restarts' baselines — reuse each
        # other's simulated state instead of thrashing a single slot.
        # ``_active_key`` names the slot the background cache below is
        # valid for.
        self._state_cache: OrderedDict[
            tuple, list
        ] = OrderedDict()  # key -> [patterns, values, bits, leak|None]
        self._active_key: tuple | None = None
        #: (full resims, incremental patches, content hits) — the
        #: sim-state reuse telemetry the runtime tests assert on; every
        #: bump is mirrored into :data:`repro.obs.METRICS` as
        #: ``engine.state.<key>`` when metrics are enabled.
        self.state_stats = {"full": 0, "patches": 0, "hits": 0}
        self._obs_cache: dict[
            tuple, tuple[Partition, tuple[Defect, ...], np.ndarray, np.ndarray]
        ] = {}
        # Restricted-path background cache: (partition id, version,
        # module) -> [partition, dependency rows, per-gate leak matrix,
        # IDDQ series, dirty row batches].  Valid for the currently
        # cached pattern batch; a full re-simulation clears it, an
        # incremental patch marks only the modules whose gates read a
        # changed row dirty, and a dirty module refreshes just the
        # affected gates' leak rows before re-summing (leakage is a
        # per-gate function of fanin values, so the refreshed series is
        # bit-identical to a fresh computation).
        self._bg_cache: dict[tuple, list] = {}
        # Module dependency rows survive background refreshes (they
        # depend on the partition state only, not on the pattern batch).
        # Entries hold the partition so cached ids cannot be recycled.
        self._dep_cache: dict[tuple, tuple[Partition, np.ndarray]] = {}

    # ------------------------------------------------------------------ public
    def detection_matrix(
        self,
        partition: Partition,
        defects: Sequence[Defect],
        patterns: np.ndarray,
    ) -> np.ndarray:
        """Boolean ``(defects, patterns)`` detection matrix.

        Entry ``[d, p]`` is True when vector ``p`` makes some observing
        module sensor measure at or above its effective threshold.
        """
        matrix, _ = self._detect(partition, defects, patterns)
        return matrix

    def evaluate_coverage(
        self,
        partition: Partition,
        defects: Sequence[Defect],
        patterns: np.ndarray,
    ) -> CoverageReport:
        """Coverage of ``defects`` by ``patterns`` under ``partition``."""
        matrix, thresholds = self._detect(
            partition, defects, patterns, want_report=True
        )
        detected = matrix.any(axis=1)
        detected_ids = tuple(d.defect_id for d, hit in zip(defects, detected) if hit)
        undetected_ids = tuple(
            d.defect_id for d, hit in zip(defects, detected) if not hit
        )
        return CoverageReport(
            num_defects=len(defects),
            num_detected=int(detected.sum()),
            detected_ids=detected_ids,
            undetected_ids=undetected_ids,
            num_patterns=patterns.shape[0],
            num_modules=partition.num_modules,
            thresholds_ua=thresholds,
        )

    def prepared_values(self, patterns: np.ndarray) -> NodeValues:
        """Fault-free simulation of ``patterns`` (content-cached)."""
        return self._prepare(patterns)[0]

    def search_class(self, partition: Partition, defect: Defect) -> str:
        """What exact module-current bounds decide for ``defect``.

        With ``lo``/``hi`` an observing module's fault-free current
        bounds (:meth:`IDDQSimulator.module_leak_bounds_ua`) and ``I``
        the defect current: ``"futile"`` when every observing module has
        ``I + hi < th`` (no vector is ever detected); ``"activation"``
        when one has ``I + lo >= max(th, d * hi)``, at least its
        effective threshold in any batch — and as ``d > 1``, ``th > 0``,
        no background alone reaches its own, so detection *equals*
        activation; otherwise, or within :data:`_BOUND_MARGIN`, ``"walk"``.
        """
        nominal = self.technology.iddq_threshold_ua
        d = self.technology.discriminability
        current = defect.current_ua
        futile = True
        for module in self.sim.observing_modules(defect, partition):
            lo, hi = self.sim.module_leak_bounds_ua(partition, module)
            if current + lo >= max(nominal, d * hi) * (1 + _BOUND_MARGIN):
                return "activation"
            if current + hi >= nominal * (1 - _BOUND_MARGIN):
                futile = False
        return "futile" if futile else "walk"

    def activation(self, defect: Defect, patterns: np.ndarray) -> np.ndarray:
        """0/1 activation of ``defect`` over ``patterns``, simulated
        outside the sim-state cache (a walk's batch is never revisited)."""
        return self._activation_bits([defect], self.sim.simulate_values(patterns))[0]

    # ---------------------------------------------------------------- internal
    @staticmethod
    def _state_key(patterns: np.ndarray) -> tuple:
        digest = hashlib.blake2b(
            np.ascontiguousarray(patterns).tobytes(), digest_size=16
        ).digest()
        return (patterns.shape, str(patterns.dtype), digest)

    def _prepare(self, patterns: np.ndarray) -> tuple[NodeValues, np.ndarray]:
        """Content-cached fault-free simulation + unpacked node bits.

        The cache holds up to :attr:`_STATE_SLOTS` recently simulated
        batches, addressed by content digest, so callers mutating a
        batch in place (or passing an equal batch in a new array)
        always get results for the values they passed, and *alternating*
        batches — an ATPG walk's flip batch against full-pool coverage
        checks, a revisited restart baseline — hit without resimulating.
        A near-miss — same shape as some cached slot, few input columns
        changed — is patched incrementally from the **closest** slot
        when the backend supports event-driven replay: only the flipped
        inputs' fanout cones are re-simulated and re-unpacked (the ATPG
        hill-climb's step cost).  The module-background cache is tied
        to the *active* slot; switching the active batch clears it.
        """
        patterns = np.asarray(patterns)
        key = self._state_key(patterns)
        entry = self._state_cache.get(key)
        if entry is not None and np.array_equal(entry[0], patterns):
            self._state_cache.move_to_end(key)
            self._activate(key)
            self._stat("hits")
            return entry[1], entry[2]
        if self.backend.supports_incremental:
            prepared = self._prepare_incremental(key, patterns)
            if prepared is not None:
                return prepared
        values = self.sim.simulate_values(patterns)
        bits = self.sim.unpack_bits(values)
        self._remember(key, [patterns.copy(), values, bits, None])
        self._stat("full")
        return values, bits

    def _stat(self, key: str) -> None:
        """Bump one sim-state counter in both views (local dict +
        process metrics registry)."""
        self.state_stats[key] += 1
        obs.METRICS.inc(f"engine.state.{key}")

    def _activate(self, key: tuple) -> None:
        """Make ``key`` the slot the background cache refers to."""
        if key != self._active_key:
            self._bg_cache.clear()
            self._active_key = key

    def _remember(self, key: tuple, entry: list) -> None:
        self._state_cache[key] = entry
        self._state_cache.move_to_end(key)
        while len(self._state_cache) > self._STATE_SLOTS:
            self._state_cache.popitem(last=False)
            obs.METRICS.inc("engine.state.evictions")
        obs.METRICS.gauge("engine.state.slots", len(self._state_cache))
        self._activate(key)

    def _prepare_incremental(
        self, key: tuple, patterns: np.ndarray
    ) -> tuple[NodeValues, np.ndarray] | None:
        """Patch the new batch from the closest cached slot.

        Returns ``None`` (caller re-simulates from scratch) when no
        same-shaped slot is within the column limit.  The source slot
        stays cached, so its ``bits`` matrix is copied before patching;
        ``NodeValues`` handed out earlier stay untouched because
        :meth:`~repro.faultsim.logic_sim.LogicSimulator.simulate_delta`
        never mutates its baseline.  The lazy leakage matrix is not
        carried over — leakage is state-dependent, so a patched state
        must never reuse it.  Module-background dirty marking applies
        only when patching *from the active slot* (the background rows
        correspond to that batch); patching from any other slot clears
        the background cache instead.
        """
        best: tuple[tuple, list, np.ndarray] | None = None
        for slot_key in reversed(self._state_cache):  # most recent first
            slot = self._state_cache[slot_key]
            if slot[0].shape != patterns.shape:
                continue
            changed_cols = np.flatnonzero((patterns != slot[0]).any(axis=0))
            if changed_cols.size > self._INCREMENTAL_COL_LIMIT:
                continue
            if best is None or changed_cols.size < best[2].size:
                best = (slot_key, slot, changed_cols)
                if changed_cols.size <= 1:
                    break
        if best is None:
            return None
        source_key, source, changed_cols = best
        values, changed_rows = self.sim.simulator.simulate_delta(
            source[1], patterns, return_changed=True, changed_cols=changed_cols
        )
        bits = source[2].copy()
        if changed_rows.size:
            sub = np.ascontiguousarray(values.packed[changed_rows])
            bits[changed_rows] = np.unpackbits(
                sub.view(np.uint8), axis=1, bitorder="little"
            )[:, : values.num_patterns].astype(np.int32)
        if source_key == self._active_key:
            if changed_rows.size:
                changed_mask = np.zeros(bits.shape[0], dtype=bool)
                changed_mask[changed_rows] = True
                for entry in self._bg_cache.values():
                    if changed_mask[entry[1]].any():
                        entry[4].append(changed_rows)
            # The background rows now describe the patched batch.
            self._active_key = key
        self._remember(key, [patterns.copy(), values, bits, None])
        self._stat("patches")
        return values, bits

    def _full_leak(self, values: NodeValues) -> np.ndarray:
        """Lazily computed full leakage matrix for a cached batch."""
        for entry in self._state_cache.values():
            if entry[1] is values:
                if entry[3] is None:
                    entry[3] = self.sim.gate_leakage_na(values)
                return entry[3]
        return self.sim.gate_leakage_na(values)

    def _detect(
        self,
        partition: Partition,
        defects: Sequence[Defect],
        patterns: np.ndarray,
        want_report: bool = False,
    ) -> tuple[np.ndarray, dict[int, float]]:
        values, bits = self._prepare(patterns)
        num_patterns = patterns.shape[0]
        if not defects:
            fault_free = self.sim.module_iddq_from_leak(
                partition, self._full_leak(values)
            )
            thresholds = effective_thresholds_ua(fault_free, self.technology)
            return np.zeros((0, num_patterns), dtype=bool), thresholds

        indptr, flat_modules = self._observing_csr(partition, defects)
        needed = list(dict.fromkeys(flat_modules.tolist()))
        if want_report or len(needed) == partition.num_modules:
            # Full path: every module's background (the coverage report
            # quotes every sensor threshold).
            fault_free = self.sim.module_iddq_from_leak(
                partition, self._full_leak(values)
            )
        else:
            # Restricted path: a small defect list touches few modules —
            # compute leakage for those modules' gates only (the usual
            # case inside the ATPG hill-climb: one defect, 1-2 modules),
            # reusing cached series for modules untouched since the last
            # batch change.
            fault_free = self._module_background(partition, bits, needed)
        thresholds = effective_thresholds_ua(fault_free, self.technology)

        modules = list(fault_free)
        position = {module: i for i, module in enumerate(modules)}
        background = np.stack([fault_free[m] for m in modules])  # (M, patterns)
        threshold_arr = np.asarray([thresholds[m] for m in modules])
        pair_modules = np.asarray(
            [position[m] for m in flat_modules.tolist()], dtype=np.int64
        )
        activation = self._activation_bits(defects, values)  # (D, patterns) uint8
        currents = np.asarray([d.current_ua for d in defects], dtype=np.float64)

        pair_defects = np.repeat(
            np.arange(len(defects), dtype=np.int64), np.diff(indptr)
        )
        # Same float expression as the reference loop: background +
        # activation * current, compared against the module threshold.
        measured = (
            background[pair_modules]
            + activation[pair_defects].astype(np.float64)
            * currents[pair_defects][:, None]
        )
        hits = measured >= threshold_arr[pair_modules][:, None]
        matrix = np.logical_or.reduceat(hits, indptr[:-1], axis=0)
        return matrix, thresholds

    def _module_background(
        self, partition: Partition, bits: np.ndarray, modules
    ) -> dict[int, np.ndarray]:
        """Cached :meth:`IDDQSimulator.module_background_ua`.

        Between ATPG hill-climb steps only a handful of node rows
        change, so most steps reuse every observing module's background
        series outright; a module marked dirty by
        :meth:`_prepare_incremental` refreshes only the leak rows of
        gates whose fanins changed and re-sums — bit-identical to a
        fresh computation (same per-gate floats, same summation order)
        at a fraction of the cost.
        """
        result: dict[int, np.ndarray] = {}
        for module in modules:
            key = (id(partition), partition.version, module)
            entry = self._bg_cache.get(key)
            if entry is not None and entry[0] is partition:
                if entry[4]:
                    self._refresh_background(entry, partition, module, bits)
                result[module] = entry[3]
                continue
            idx = self.sim.module_indices(partition)[module]
            leak = self.sim.leakage_rows(bits, idx)
            series = leak.T.sum(axis=1) * 1e-3  # nA -> uA, as the reference
            dep_entry = self._dep_cache.get(key)
            if dep_entry is not None and dep_entry[0] is partition:
                deps = dep_entry[1]
            else:
                deps = self.sim.module_dependency_rows(partition, module)
                if len(self._dep_cache) >= 256:
                    self._dep_cache.pop(next(iter(self._dep_cache)))
                self._dep_cache[key] = (partition, deps)
            row2pos: dict[int, list[int]] = {}
            fanin_rows = self.sim.fanin_rows
            for i, g in enumerate(idx.tolist()):
                for row in fanin_rows[g]:
                    row2pos.setdefault(row, []).append(i)
            if len(self._bg_cache) >= 64:
                self._bg_cache.pop(next(iter(self._bg_cache)))
            self._bg_cache[key] = [partition, deps, leak, series, [], row2pos]
            result[module] = series
        # Preserve the uncached call's module order (dict order feeds
        # the stacked background matrix downstream).
        return {module: result[module] for module in modules}

    def _refresh_background(
        self, entry: list, partition: Partition, module: int, bits: np.ndarray
    ) -> None:
        """Recompute a dirty module's affected leak rows and re-sum."""
        row2pos = entry[5]
        positions: set[int] = set()
        for rows in entry[4]:
            for row in rows.tolist():
                hit = row2pos.get(row)
                if hit is not None:
                    positions.update(hit)
        entry[4] = []
        if positions:
            idx = self.sim.module_indices(partition)[module]
            affected = np.fromiter(positions, dtype=np.int64, count=len(positions))
            affected.sort()
            entry[2][affected] = self.sim.leakage_rows(bits, idx[affected])
            entry[3] = entry[2].T.sum(axis=1) * 1e-3

    def _observing_csr(
        self, partition: Partition, defects: Sequence[Defect]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Defect -> observing-module-id CSR (cached).

        Every defect observes at least one module (defect validation
        requires an observing gate, and every gate is in a module), so
        all CSR segments are non-empty — ``reduceat`` is safe.
        """
        defects = tuple(defects)
        key = (
            id(partition),
            partition.version,
            tuple(id(d) for d in defects),
        )
        cached = self._obs_cache.get(key)
        # The cached entry holds the partition and defect objects, so
        # their ids cannot be recycled while the entry lives; the
        # identity checks guard against stale ids after eviction
        # elsewhere.  (Keying on defect *objects* rather than defect_id
        # strings keeps two distinct defects sharing an id distinct.)
        if (
            cached is not None
            and cached[0] is partition
            and all(a is b for a, b in zip(cached[1], defects))
        ):
            return cached[2], cached[3]
        indptr = np.zeros(len(defects) + 1, dtype=np.int64)
        flat: list[int] = []
        for d, defect in enumerate(defects):
            flat.extend(self.sim.observing_modules(defect, partition))
            indptr[d + 1] = len(flat)
        result = (indptr, np.asarray(flat, dtype=np.int64))
        if len(self._obs_cache) >= self._OBS_CACHE_SLOTS:
            self._obs_cache.pop(next(iter(self._obs_cache)))
        self._obs_cache[key] = (partition, defects) + result
        return result

    def _activation_bits(
        self, defects: Sequence[Defect], values: NodeValues
    ) -> np.ndarray:
        """Packed-then-unpacked ``(defects, patterns)`` activation matrix.

        The three built-in defect classes compile to fancy indexing over
        the packed simulation words (XOR of two net rows for bridges,
        one net row with optional inversion for oxide shorts and
        stuck-on transistors); unknown :class:`Defect` subclasses fall
        back to their own ``activation`` method.
        """
        packed = values.packed
        row_of = values.row_of
        num_words = packed.shape[1]
        act = np.zeros((len(defects), num_words), dtype=np.uint64)
        rows_a = np.full(len(defects), -1, dtype=np.int64)
        rows_b = np.full(len(defects), -1, dtype=np.int64)
        invert = np.zeros(len(defects), dtype=bool)
        fallback: list[int] = []
        for d, defect in enumerate(defects):
            kind = type(defect)
            try:
                if kind is BridgingFault:
                    rows_a[d] = row_of[defect.net_a]
                    rows_b[d] = row_of[defect.net_b]
                elif kind is GateOxideShort:
                    rows_a[d] = row_of[defect.input_net]
                    invert[d] = not defect.active_value
                elif kind is StuckOnTransistor:
                    rows_a[d] = row_of[defect.gate]
                    invert[d] = not defect.active_output
                else:
                    fallback.append(d)
            except KeyError:
                rows_a[d] = -1
                fallback.append(d)
        known = np.flatnonzero(rows_a >= 0)
        if len(known):
            act[known] = packed[rows_a[known]]
            two = known[rows_b[known] >= 0]
            if len(two):
                act[two] ^= packed[rows_b[two]]
            flip = known[invert[known]]
            if len(flip):
                act[flip] ^= _ONES
        for d in fallback:
            act[d] = defects[d].activation(values)
        bits = np.unpackbits(act.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : values.num_patterns]
