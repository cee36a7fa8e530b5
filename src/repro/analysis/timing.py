"""Critical-path timing with pluggable per-gate delays (paper §3.2).

Both circuit delays the paper compares — ``D`` (no sensors) and
``D_BIC`` (sensors inserted, per-gate delays degraded) — are longest
paths through the gate DAG.  Because the optimiser re-times the circuit
for every candidate partition, the longest-path computation is
vectorised: gates are processed level by level (the compiled graph's
level groups), and each level adds one segmented ``maximum.reduceat``
over its fanin arrivals into its fed gates.

:class:`IncrementalTiming` is the one engine.  Its
:meth:`~IncrementalTiming.full_arrival` is the full sweep, and it also
maintains an arrival vector under delay *changes* (DESIGN.md §8.4): a
fanout-cone walk for a handful of changed gates, a fresh full sweep for
anything larger, and :meth:`IncrementalTiming.retime_batch`, which
re-times ``C`` candidate delay vectors in one stacked sweep over a
scratch arrival matrix.
Max/add are exact floating-point operations, so every path here is
bit-identical to the scatter-max sweep that ``tests/oracles/timing.py``
keeps as the reference.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.analysis.current import GateElectricals
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import csr_gather, sorted_unique

__all__ = [
    "IncrementalTiming",
    "critical_path_delay",
    "levelized_timing",
    "nominal_gate_delays",
]


class IncrementalTiming:
    """Maintenance of an arrival-time vector under delay changes, and
    stacked re-timing of candidate delay vectors.

    :meth:`update` returns the arrival vector after delay changes,
    never writing into its input, by one of two bit-identical
    strategies picked by seed count: a fanout-cone walk for tiny seed
    sets, and a fresh full gate-space sweep for everything else.
    :meth:`retime_batch` stacks ``C`` candidate delay vectors as columns
    of one ``(gates, C)`` scratch matrix in **level-major order** (gates
    sorted by level, unfed-before-fed within a level, so each level's
    fed gates form one contiguous slice) and sweeps the whole circuit
    once for all of them: per level, one padded row gather, one
    contiguous ``max`` reduction and one in-place add.
    """

    #: Seed sets smaller than ``num_gates / CONE_DIVISOR`` take the cone walk.
    CONE_DIVISOR = 16
    #: :meth:`retime_batch` calls with fewer candidates take one full
    #: sweep each, faster there than the stacked sweep (see DESIGN §8.4).
    STACK_MIN = 3

    def __init__(self, compiled):
        cg = compiled
        n = cg.num_gates
        self.num_gates = n
        self.depth = cg.depth
        self.gate_level = cg.gate_level.astype(np.int64)

        # Gate-space fanin/fanout CSR (edges from/to primary inputs dropped).
        def gate_csr(indptr, indices):
            flat, counts = csr_gather(indptr, indices, cg.gate_node)
            gates = cg.node_gate[flat]
            keep = gates >= 0
            owner = np.repeat(np.arange(n, dtype=np.int64), counts)[keep]
            out_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=n), out=out_indptr[1:])
            return out_indptr, gates[keep].astype(np.int64)

        self.fanin_indptr, self.fanin_indices = gate_csr(
            cg.fanin_indptr, cg.fanin_indices
        )
        self.fanout_indptr, self.fanout_indices = gate_csr(
            cg.fanout_indptr, cg.fanout_indices
        )
        self.gates_by_level = [
            np.nonzero(self.gate_level == lvl)[0] for lvl in range(self.depth + 1)
        ]
        self._pending = np.zeros(n, dtype=bool)

        # Per level group: the gates with no gate-space fanins ("unfed",
        # fed by primary inputs alone, whose arrival is 0: they sit at
        # their own delay) and the fed ones, whose gate fanins ``src``
        # form segments starting at ``starts``.  The gate-space levels
        # drive the full sweep, which needs no permutation gathers; the
        # level-major order puts every level's unfed gates first.
        order_parts: list[np.ndarray] = []
        split_levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._gs_levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for group in cg.level_groups:
            gate_idx = cg.node_gate[group.nodes].astype(np.int64)
            fanin_gate = cg.node_gate[group.fanins].astype(np.int64)
            keep = fanin_gate >= 0
            src = fanin_gate[keep]
            # Every gate has a fanin, so no segment is empty.
            counts = np.add.reduceat(keep.astype(np.int64), group.offsets)
            fed = counts > 0
            starts = (np.cumsum(counts) - counts)[fed]
            order_parts.append(gate_idx[~fed])
            order_parts.append(gate_idx[fed])
            split_levels.append((gate_idx[~fed], gate_idx[fed], src, starts))
            self._gs_levels.append((gate_idx[fed], src, starts))
        if order_parts:
            self._order_lm = np.concatenate(order_parts)
        else:
            self._order_lm = np.empty(0, dtype=np.int64)
        self._pos_lm = np.empty(n, dtype=np.int64)
        self._pos_lm[self._order_lm] = np.arange(len(self._order_lm), dtype=np.int64)

        # Per level in level-major space: the fed gates' contiguous
        # slice, and their fanins as a padded ``(fed, max_fanin)`` matrix
        # of level-major positions (pad entries point at a sentinel row),
        # so the stacked sweep reduces with a plain SIMD ``max`` instead
        # of per-segment ufunc dispatch.
        self._lm_levels: list[tuple[slice, np.ndarray]] = []
        cursor = 0
        for unfed, fed_gates, src, starts in split_levels:
            fed_sl = slice(cursor + len(unfed), cursor + len(unfed) + len(fed_gates))
            cursor = fed_sl.stop
            if not src.size:
                continue
            src_pos = self._pos_lm[src]
            counts = np.diff(np.concatenate([starts, [src_pos.size]]))
            pad = np.full((len(fed_gates), int(counts.max())), n, dtype=np.int64)
            pad[np.arange(pad.shape[1])[None, :] < counts[:, None]] = src_pos
            self._lm_levels.append((fed_sl, pad))

    # ------------------------------------------------------------ full sweep
    def full_arrival(self, delays: np.ndarray) -> np.ndarray:
        """Fresh arrival times (gate order) via the gate-space segment
        sweep.

        Every gate starts at its own delay; each level adds the max
        fanin arrival into its fed gates.
        """
        arrival = delays.astype(np.float64, copy=True)
        for fed, src, starts in self._gs_levels:
            if src.size:
                arrival[fed] += np.maximum.reduceat(arrival[src], starts)
        return arrival

    def critical_path_delay(self, delays: np.ndarray) -> float:
        """Longest path delay under the given per-gate delays: the
        maximum of :meth:`full_arrival`."""
        if delays.shape != (self.num_gates,):
            raise ValueError(
                f"delays must have shape ({self.num_gates},), got {delays.shape}"
            )
        arrival = self.full_arrival(delays)
        return float(arrival.max()) if arrival.size else 0.0

    # ------------------------------------------------------------- maintenance
    def update(
        self, arrival: np.ndarray, delays: np.ndarray, seeds: np.ndarray
    ) -> np.ndarray:
        """The arrival vector after delay changes at ``seeds``; ``arrival``
        is never written into.

        Two bit-identical strategies (max/add are exact, so only the
        traversal differs): for tiny seed sets a walk of the seeds'
        fanout cones over a copy of ``arrival``, for anything else a
        fresh full gate-space sweep.
        """
        if seeds.size == 0 or self.num_gates == 0:
            return arrival
        if seeds.size * IncrementalTiming.CONE_DIVISOR < self.num_gates:
            obs.METRICS.inc("timing.update.cone")
            return self._cone_update(arrival.copy(), delays, seeds)
        obs.METRICS.inc("timing.update.full")
        return self.full_arrival(delays)

    def _cone_update(self, arrival, delays, seeds):
        """Per-gate fanout-cone walk in place, stopping a branch as soon
        as a recomputed arrival is unchanged.  The remaining-work counter
        is maintained exactly (seed/fanout marks are deduplicated), so
        the early exit is O(1) instead of a full boolean reduction per
        level.
        """
        pending = self._pending
        seeds = sorted_unique(seeds)
        pending[seeds] = True
        remaining = seeds.size
        for lvl in range(int(self.gate_level[seeds].min()), self.depth + 1):
            lg = self.gates_by_level[lvl]
            p = lg[pending[lg]]
            if p.size == 0:
                continue
            pending[p] = False
            remaining -= p.size
            fanins, counts = csr_gather(self.fanin_indptr, self.fanin_indices, p)
            base = np.zeros(len(p), dtype=np.float64)
            if fanins.size:
                dst = np.repeat(np.arange(len(p), dtype=np.int64), counts)
                np.maximum.at(base, dst, arrival[fanins])
            fresh = base + delays[p]
            diff = fresh != arrival[p]
            if diff.any():
                idx = p[diff]
                arrival[idx] = fresh[diff]
                fanouts, _ = csr_gather(self.fanout_indptr, self.fanout_indices, idx)
                if fanouts.size:
                    fanouts = sorted_unique(fanouts)
                    new_marks = fanouts[~pending[fanouts]]
                    pending[new_marks] = True
                    remaining += new_marks.size
            if remaining == 0:
                break
        return arrival

    # ---------------------------------------------------------- batched retime
    def retime_batch(
        self,
        arrival: np.ndarray,
        delays: np.ndarray,
        cols: np.ndarray,
        overrides: np.ndarray,
        return_arrivals: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray | None]:
        """Critical-path delay of ``C`` candidate delay vectors at once.

        Candidate ``i``'s delay vector is ``delays`` with
        ``overrides[i]`` written at the (unique) gate indices ``cols``.
        The candidates are stacked as columns of one ``(gates, C)`` scratch
        matrix and swept once (fewer than ``STACK_MIN``: one by one).
        ``arrival``/``delays`` are read-only; the result is
        bit-identical to running :meth:`update` per candidate and taking
        the maximum of the vector it returns.  When no override differs from
        the base delay, nothing is swept and every candidate scores
        ``arrival.max()``.

        Rows may override any number of gates.  An entry equal to the
        base delay is a no-op, so heterogeneous candidates can share one
        column set and still score bit-identically to separate calls:
        the population kernel (``EvaluationState.trial_blocks``) passes
        every gate, each row carrying its own parent's delays outside
        the modules it touches.

        With ``return_arrivals`` the result is a pair: the delays, and
        the sweep's stacked arrivals (``None`` when nothing changed),
        from which :meth:`stacked_arrival` reads candidate ``i``'s
        arrival vector.
        """
        count = overrides.shape[0]
        if count == 0 or self.num_gates == 0:
            d_bic = np.zeros(count, dtype=np.float64)
            return (d_bic, None) if return_arrivals else d_bic
        obs.METRICS.inc("timing.retime_batch.calls")
        obs.METRICS.inc("timing.retime_batch.candidates", count)
        if not (overrides != delays[cols][None, :]).any():
            d_bic = np.full(count, float(arrival.max()), dtype=np.float64)
            return (d_bic, None) if return_arrivals else d_bic
        obs.METRICS.inc("timing.retime_batch.full_cone")
        if count < IncrementalTiming.STACK_MIN:
            rows = np.repeat(delays[None, :], count, axis=0)
            rows[:, cols] = overrides
            fresh = [self.full_arrival(row) for row in rows]
            d_bic = np.array([arrival.max() for arrival in fresh])
            stacked = np.stack([arrival[self._order_lm] for arrival in fresh], 1)
            return (d_bic, stacked) if return_arrivals else d_bic
        # Scratch rows are the level-major positions, plus one trailing
        # ``-inf`` sentinel row absorbing pad entries.  The rows start as
        # delays and each level's fed rows turn into arrivals in place
        # (levels only read earlier levels).  ``cols`` is unique, so when
        # it lists every gate the overrides fill every row.
        scratch = np.empty((self.num_gates + 1, count), dtype=np.float64)
        if cols.size < self.num_gates:
            scratch[:-1] = np.take(delays, self._order_lm)[:, None]
        scratch[self._pos_lm[cols]] = overrides.T
        scratch[-1] = -np.inf
        for fed_sl, pad in self._lm_levels:
            seg = scratch[pad].max(axis=1)
            np.add(seg, scratch[fed_sl], out=scratch[fed_sl])
        d_bic = scratch[:-1].max(axis=0)
        return (d_bic, scratch[:-1]) if return_arrivals else d_bic

    def stacked_arrival(self, stacked: np.ndarray, i: int) -> np.ndarray:
        """Candidate ``i``'s arrival vector, in gate order, from the
        stacked arrivals :meth:`retime_batch` returns: bit-identical to
        :meth:`full_arrival` of its delay vector (the same maxima, and
        each gate's delay added to its fanin maximum)."""
        return stacked[self._pos_lm, i]


def nominal_gate_delays(electricals: GateElectricals) -> np.ndarray:
    """Per-gate nominal delays ``D(g)`` straight from the library."""
    return electricals.delay_ns.copy()


def levelized_timing(circuit: Circuit) -> IncrementalTiming:
    """The circuit's timing engine, cached on the compiled graph —
    one-shot callers and evaluators share one engine per circuit."""
    cg = circuit.compiled
    cached = cg.__dict__.get("_levelized_timing")
    if cached is None:
        cached = IncrementalTiming(cg)
        object.__setattr__(cg, "_levelized_timing", cached)
    return cached


def critical_path_delay(circuit: Circuit, delays: np.ndarray) -> float:
    """One-shot longest path (engine cached on the compiled graph, so
    repeated calls don't rebuild it)."""
    return levelized_timing(circuit).critical_path_delay(delays)
