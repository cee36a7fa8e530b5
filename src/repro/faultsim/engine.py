"""The persistent, vectorised IDDQ coverage engine.

The one-shot references ``detection_matrix`` and ``evaluate_coverage``
in ``tests/oracles/faultsim.py`` rebuild the
:class:`~repro.faultsim.iddq.IDDQSimulator` (leak tables included) on
every call, re-simulate the fault-free circuit, regroup the partition's
modules and loop over defects in Python.  That is fine for a single
report and hopeless inside a search loop — the hill-climbing phase of
:func:`~repro.faultsim.atpg.generate_iddq_tests` evaluates one small
pattern batch per step, thousands of times.

:class:`CoverageEngine` keeps everything reusable alive across calls:

* the :class:`IDDQSimulator` with its per-cell leak tables and
  arity-grouped leakage indexing (built once per engine);
* one sim-state slot: the last simulated pattern batch — fault-free
  :class:`NodeValues`, the unpacked node bits and a lazily built
  ``(patterns, gates)`` leakage matrix — compared by content (shape,
  dtype, values), so evaluating two partitions against one vector set
  simulates once;
* per-module gate index arrays, which are the partition's own sorted
  member arrays (:meth:`IDDQSimulator.module_indices`);
* per-(partition, defect-list) observation structure: a packed
  all-defects activation matrix (built type-grouped with fancy
  indexing over the packed simulation words) and a defect -> observing
  module CSR.

``detection_matrix``/``evaluate_coverage`` then reduce to broadcast
threshold comparisons over (defect, module) pairs — zero per-defect
Python — and reproduce the reference implementations *exactly*: same
floats, same booleans, same report.  A detection whose defects observe
only some modules (an ATPG walk step: one defect, one or two modules)
sums the leakage of those modules' gates alone
(:meth:`IDDQSimulator.module_background_ua`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
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
    those of the one-shot references in ``tests/oracles/faultsim.py``.
    """

    #: Most-recently-used slots for the observation-structure cache.
    _OBS_CACHE_SLOTS = 8

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary | None = None,
        technology: Technology | None = None,
    ):
        self.circuit = circuit
        self.technology = technology or generic_technology()
        self.sim = IDDQSimulator(circuit, library)
        # The sim-state slot: [patterns copy, values, unpacked bits,
        # full leakage matrix or None until first needed].
        self._state: list | None = None
        self._obs_cache: dict[
            tuple, tuple[Partition, tuple[Defect, ...], np.ndarray, np.ndarray]
        ] = {}

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
        outside the sim-state slot (a walk's batch is never revisited)."""
        return self._activation_bits([defect], self.sim.simulate_values(patterns))[0]

    # ---------------------------------------------------------------- internal
    def _prepare(self, patterns: np.ndarray) -> tuple[NodeValues, np.ndarray]:
        """Fault-free simulation + unpacked node bits, from the slot when
        ``patterns`` equals its batch in shape, dtype and values.

        Comparing content, not identity, means a caller mutating a batch
        in place (or passing an equal batch in a new array) always gets
        results for the values it passed.
        """
        patterns = np.asarray(patterns)
        state = self._state
        if (
            state is not None
            and state[0].dtype == patterns.dtype
            and np.array_equal(state[0], patterns)
        ):
            obs.METRICS.inc("engine.state.hits")
            return state[1], state[2]
        values = self.sim.simulate_values(patterns)
        bits = self.sim.unpack_bits(values)
        self._state = [patterns.copy(), values, bits, None]
        obs.METRICS.inc("engine.state.full")
        return values, bits

    def _full_leak(self) -> np.ndarray:
        """The slot batch's full leakage matrix (built on first use)."""
        state = self._state
        if state[3] is None:
            state[3] = self.sim.gate_leakage_na(state[1])
        return state[3]

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
            fault_free = self.sim.module_iddq_from_leak(partition, self._full_leak())
            thresholds = effective_thresholds_ua(fault_free, self.technology)
            return np.zeros((0, num_patterns), dtype=bool), thresholds

        indptr, flat_modules = self._observing_csr(partition, defects)
        needed = list(dict.fromkeys(flat_modules.tolist()))
        if want_report or len(needed) == partition.num_modules:
            # Full path: every module's background (the coverage report
            # quotes every sensor threshold).
            fault_free = self.sim.module_iddq_from_leak(partition, self._full_leak())
        else:
            # Restricted path: a small defect list touches few modules —
            # compute leakage for those modules' gates only (the usual
            # case inside the ATPG hill-climb: one defect, 1-2 modules).
            fault_free = self.sim.module_background_ua(partition, bits, needed)
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
