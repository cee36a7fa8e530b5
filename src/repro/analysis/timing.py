"""Critical-path timing with pluggable per-gate delays (paper §3.2).

Both circuit delays the paper compares — ``D`` (no sensors) and
``D_BIC`` (sensors inserted, per-gate delays degraded) — are longest
paths through the gate DAG.  Because the optimiser re-times the circuit
for every candidate partition, the longest-path computation is
vectorised: gates are processed level by level, and each level's
arrival times are produced by one scatter-max over the edges entering
it.  The level structure itself comes straight from the compiled
graph's level groups — no dict traversal at construction either.

:class:`IncrementalTiming` additionally maintains an arrival vector
under delay *changes* with a block-structured scheme (DESIGN.md §8.4):
the level sequence is cut into contiguous level-segment **blocks**
(:func:`~repro.netlist.compiled.level_blocks`), each with its intra-
block edge segments and boundary-output gate set precomputed, so a
localized delay change recomputes only its own block and crosses a
block boundary only when a boundary-output arrival actually changed.
A per-block arrival maximum can be maintained alongside, making
``d_bic`` a reduction over a handful of block maxima.  The same block
structure powers :meth:`IncrementalTiming.retime_batch`, which re-times
``C`` candidate delay vectors in one stacked sweep over a scratch
arrival matrix.  Max/add are exact floating-point operations, so every
path here is bit-identical to :meth:`LevelizedTiming.arrival_times`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.analysis.current import GateElectricals
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import csr_gather, level_blocks

__all__ = [
    "IncrementalTiming",
    "LevelizedTiming",
    "critical_path_delay",
    "levelized_timing",
    "nominal_gate_delays",
]


@dataclass(frozen=True)
class _LevelEdges:
    """Edges entering one level: positions into the level's gate array
    (``dst_pos``) and global gate indices of driving gates (``src``)."""

    gate_idx: np.ndarray
    dst_pos: np.ndarray
    src: np.ndarray


class LevelizedTiming:
    """Precomputed level structure enabling O(depth) numpy longest path.

    Edges from primary inputs carry arrival 0 and are omitted — a gate
    fed only by inputs starts at its own delay.
    """

    def __init__(self, circuit: Circuit):
        cg = circuit.compiled
        self._compiled = cg
        self._incremental: "IncrementalTiming | None" = None
        self._levels: list[_LevelEdges] = []
        for group in cg.level_groups:
            fanin_gate = cg.node_gate[group.fanins].astype(np.int64)
            keep = fanin_gate >= 0  # drop edges from primary inputs
            dst_pos = np.repeat(
                np.arange(len(group.nodes), dtype=np.int64), group.counts
            )
            self._levels.append(
                _LevelEdges(
                    gate_idx=cg.node_gate[group.nodes].astype(np.int64),
                    dst_pos=dst_pos[keep],
                    src=fanin_gate[keep],
                )
            )
        self.num_gates = cg.num_gates

    def arrival_times(self, delays: np.ndarray) -> np.ndarray:
        """Arrival time at each gate's output for the given per-gate delays."""
        if delays.shape != (self.num_gates,):
            raise ValueError(
                f"delays must have shape ({self.num_gates},), got {delays.shape}"
            )
        arrival = np.zeros(self.num_gates, dtype=np.float64)
        for level in self._levels:
            base = np.zeros(len(level.gate_idx), dtype=np.float64)
            if level.src.size:
                np.maximum.at(base, level.dst_pos, arrival[level.src])
            arrival[level.gate_idx] = base + delays[level.gate_idx]
        return arrival

    def critical_path_delay(self, delays: np.ndarray) -> float:
        """Longest path delay under the given per-gate delays."""
        arrival = self.arrival_times(delays)
        return float(arrival.max()) if arrival.size else 0.0

    @property
    def incremental(self) -> "IncrementalTiming":
        """The block-structured update engine sharing this level
        structure (built lazily, cached)."""
        if self._incremental is None:
            self._incremental = IncrementalTiming(self._compiled, full=self)
        return self._incremental


class IncrementalTiming:
    """Block-structured maintenance of an arrival-time vector.

    The level sequence is partitioned into contiguous level-segment
    blocks.  All per-level work runs in **level-major order** (gates
    sorted by level, unfed-before-fed within a level), where each
    block's gates occupy one contiguous slice and a level's sweep is
    three light numpy calls: gather the fanin arrivals, one
    ``maximum.reduceat`` over the precomputed edge segments, one
    in-place add into the level's slice.

    :meth:`update` picks between three bit-identical strategies by seed
    size: a fanout-cone walk for tiny changes, a dirty-block sweep that
    recomputes only seeded blocks and propagates across a block
    boundary only when a boundary-output arrival changed, and a full
    gate-space sweep with a global diff when the seeds' reachable block
    set covers most of the circuit anyway.  :meth:`retime_batch` stacks ``C`` candidate delay vectors
    into one ``(rows, C)`` scratch matrix and sweeps the block cone
    once for all of them.
    """

    #: Seed sets smaller than ``num_gates / CONE_DIVISOR`` take the cone walk.
    CONE_DIVISOR = 16

    def __init__(
        self,
        compiled,
        full: "LevelizedTiming | None" = None,
        max_block_gates: int | None = None,
    ):
        cg = compiled
        n = cg.num_gates
        self.num_gates = n
        self.depth = cg.depth
        self.gate_level = cg.gate_level.astype(np.int64)

        # Per-level gate/edge extraction (gate-space; edges from primary
        # inputs dropped).  Reuses the LevelizedTiming edge lists when
        # available; builds the identical structure from the compiled
        # graph otherwise.
        raw_levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if full is not None:
            for level in full._levels:
                raw_levels.append((level.gate_idx, level.dst_pos, level.src))
        else:
            for group in cg.level_groups:
                fanin_gate = cg.node_gate[group.fanins].astype(np.int64)
                keep = fanin_gate >= 0
                dst_pos = np.repeat(
                    np.arange(len(group.nodes), dtype=np.int64), group.counts
                )
                raw_levels.append(
                    (
                        cg.node_gate[group.nodes].astype(np.int64),
                        dst_pos[keep],
                        fanin_gate[keep],
                    )
                )

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

        # ---- level-major permutation: gates sorted by level, and within
        # a level the gates with no gate-space fanins ("unfed": they sit
        # at their own delay) come first, so the fed gates of every level
        # form one contiguous slice.
        order_parts: list[np.ndarray] = []
        # per level: (unfed gate ids, fed gate ids, fed edge srcs, starts)
        split_levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        # Gate-space levels for the full sweep: no permutation gathers,
        # which beats the level-major layout when everything is dirty.
        self._gs_levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for gate_idx, dst_pos, src in raw_levels:
            counts = np.bincount(dst_pos, minlength=len(gate_idx))
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

        # ---- blocks: contiguous runs of levels sized by gate budget.
        level_sizes = [len(unfed) + len(fed) for unfed, fed, _, _ in split_levels]
        if max_block_gates is None:
            max_block_gates = max(32, n // 12)
        block_of_level = level_blocks(level_sizes, max_block_gates)
        num_blocks = int(block_of_level[-1]) + 1 if len(block_of_level) else 0
        self.num_blocks = num_blocks

        # Per level in lm space: fanin srcs as lm positions, reduceat
        # starts, the fed gates' contiguous lm slice, and the same edges
        # as a padded ``(fed, max_fanin)`` matrix (pad entries point at a
        # sentinel row) — scalar sweeps use the 1-D ``reduceat``, the
        # batched retime gathers through the pad and reduces with a
        # plain SIMD ``max`` instead of per-segment ufunc dispatch.
        # Grouped per block; the flat list drives the full sweep.
        self._block_levels: list[
            list[tuple[np.ndarray, np.ndarray, slice, np.ndarray]]
        ] = [[] for _ in range(num_blocks)]
        self._lm_levels: list[tuple[np.ndarray, np.ndarray, slice, np.ndarray]] = []
        self._block_slices: list[slice] = [slice(0, 0)] * num_blocks
        cursor = 0
        for lvl, (unfed, fed_gates, src, starts) in enumerate(split_levels):
            b = int(block_of_level[lvl])
            fed_sl = slice(cursor + len(unfed), cursor + len(unfed) + len(fed_gates))
            src_pos = self._pos_lm[src]
            counts = np.diff(np.concatenate([starts, [src_pos.size]]))
            kmax = int(counts.max()) if counts.size else 0
            pad = np.full((len(fed_gates), kmax), n, dtype=np.int64)
            pad[np.arange(kmax)[None, :] < counts[:, None]] = src_pos
            rec = (src_pos, starts, fed_sl, pad)
            self._block_levels[b].append(rec)
            self._lm_levels.append(rec)
            old = self._block_slices[b]
            if old.stop == old.start:
                self._block_slices[b] = slice(cursor, cursor + level_sizes[lvl])
            else:
                self._block_slices[b] = slice(old.start, cursor + level_sizes[lvl])
            cursor += level_sizes[lvl]

        #: block index per gate (gate order).
        self._block_of_gate = np.zeros(n, dtype=np.int64)
        #: lm start position per block, for one-reduceat block maxima.
        self._block_starts = np.empty(num_blocks, dtype=np.int64)
        #: gate ids of each block (views into ``order_lm``).
        self._block_gates: list[np.ndarray] = []
        for b in range(num_blocks):
            sl = self._block_slices[b]
            self._block_starts[b] = sl.start
            gates_b = self._order_lm[sl]
            self._block_gates.append(gates_b)
            self._block_of_gate[gates_b] = b

        # Boundary outputs: gates with at least one fanout in a *later*
        # block (in-block fanouts are recomputed with the block itself).
        fo_counts = np.diff(self.fanout_indptr)
        owner = np.repeat(np.arange(n, dtype=np.int64), fo_counts)
        cross = (
            self._block_of_gate[self.fanout_indices] > self._block_of_gate[owner]
        )
        bout_gate = np.zeros(n, dtype=bool)
        bout_gate[owner[cross]] = True
        #: per block: boolean mask over the block's lm slice.
        self._bout_local = [bout_gate[g] for g in self._block_gates]

        # Conservative block-level reachability closure (B is small):
        # ``reach[a, b]`` — a delay change in block ``a`` can affect an
        # arrival in block ``b``.  Drives the batched retime's block cone.
        direct = np.zeros((num_blocks, num_blocks), dtype=bool)
        if owner.size:
            direct[
                self._block_of_gate[owner[cross]],
                self._block_of_gate[self.fanout_indices[cross]],
            ] = True
        reach = direct.copy()
        for _ in range(num_blocks):
            grown = reach | (reach.astype(np.uint8) @ direct.astype(np.uint8) > 0)
            if np.array_equal(grown, reach):
                break
            reach = grown
        self._block_reach = reach

        # Scratch buffers (single-call lifetime; reused across calls).
        self._lm_cur = np.empty(n, dtype=np.float64)
        self._lm_delays = np.empty(n, dtype=np.float64)

    # ------------------------------------------------------------ full sweeps
    def full_arrival(self, delays: np.ndarray) -> np.ndarray:
        """Fresh arrival times (gate order) via the gate-space segment
        sweep — bit-identical to :meth:`LevelizedTiming.arrival_times`.

        Every gate starts at its own delay; each level adds the max
        fanin arrival into its fed gates.  Gate space avoids the
        level-major permutation gathers, which only pay off when the
        sweep is restricted to a subset of blocks.
        """
        arrival = delays.astype(np.float64, copy=True)
        for fed, src, starts in self._gs_levels:
            if src.size:
                arrival[fed] += np.maximum.reduceat(arrival[src], starts)
        return arrival

    def block_maxima(self, arrival: np.ndarray) -> np.ndarray:
        """Per-block arrival maxima — one gather plus one ``reduceat``.

        ``block_maxima(arrival).max()`` equals ``arrival.max()`` bit-for-
        bit (max is associative and exact)."""
        if self.num_blocks == 0:
            return np.empty(0, dtype=np.float64)
        lm = np.take(arrival, self._order_lm)
        return np.maximum.reduceat(lm, self._block_starts)

    # ------------------------------------------------------------- maintenance
    def update(
        self,
        arrival: np.ndarray,
        delays: np.ndarray,
        seeds: np.ndarray,
        block_max: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Propagate delay changes at ``seeds`` through their fanout cones.

        Mutates ``arrival`` (and, when given, the maintained per-block
        maxima ``block_max``) in place and returns ``(touched, old)`` —
        the gate indices whose arrival actually changed and their
        previous values, so callers can journal an exact undo.

        Three bit-identical strategies (max/add are exact, so only the
        traversal differs): a cone walk for tiny seed sets, a dirty-
        block sweep when the seeds' reachable block set is small, and a
        full gate-space sweep with a global diff when the changes could
        ripple through most blocks anyway.
        """
        if seeds.size == 0 or self.num_gates == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if seeds.size * IncrementalTiming.CONE_DIVISOR < self.num_gates:
            obs.METRICS.inc("timing.update.cone")
            return self._cone_update(arrival, delays, seeds, block_max)
        seed_blocks = np.unique(self._block_of_gate[seeds])
        # Dispatch on the *reachable* dirty set, not the seeded one: a
        # natural-K move seeds few blocks but its changes ripple through
        # every downstream block, where the per-block bookkeeping loses
        # to one flat gate-space sweep.
        reach = self._block_reach[seed_blocks].any(axis=0)
        reach[seed_blocks] = True
        if 2 * int(np.count_nonzero(reach)) >= self.num_blocks:
            obs.METRICS.inc("timing.update.full")
            return self._full_update(arrival, delays, block_max)
        obs.METRICS.inc("timing.update.block")
        return self._block_update(arrival, delays, seed_blocks, block_max)

    def _full_update(self, arrival, delays, block_max):
        fresh = self.full_arrival(delays)
        idx = np.nonzero(fresh != arrival)[0]
        old = arrival[idx]
        arrival[idx] = fresh[idx]
        if block_max is not None and self.num_blocks:
            np.maximum.reduceat(
                np.take(fresh, self._order_lm), self._block_starts, out=block_max
            )
        return idx, old

    def _block_update(self, arrival, delays, seed_blocks, block_max):
        """Recompute dirty blocks in ascending order, marking a later
        block dirty only when a changed arrival is a boundary output."""
        buf = self._lm_cur
        np.take(arrival, self._order_lm, out=buf)
        dl = self._lm_delays
        np.take(delays, self._order_lm, out=dl)
        pending = np.zeros(self.num_blocks, dtype=bool)
        pending[seed_blocks] = True
        touched_parts: list[np.ndarray] = []
        old_parts: list[np.ndarray] = []
        new_parts: list[np.ndarray] = []
        for b in range(int(seed_blocks[0]), self.num_blocks):
            if not pending[b]:
                continue
            sl = self._block_slices[b]
            old_b = buf[sl].copy()
            buf[sl] = dl[sl]
            for src_pos, starts, fed_sl, _pad in self._block_levels[b]:
                if src_pos.size:
                    seg = np.maximum.reduceat(buf[src_pos], starts)
                    np.add(seg, buf[fed_sl], out=buf[fed_sl])
            changed = buf[sl] != old_b
            if not changed.any():
                continue
            loc = np.nonzero(changed)[0]
            touched_parts.append(self._block_gates[b][loc])
            old_parts.append(old_b[loc])
            new_parts.append(buf[sl][loc])
            if block_max is not None:
                block_max[b] = buf[sl].max()
            crossing = loc[self._bout_local[b][loc]]
            if crossing.size:
                fanouts, _ = csr_gather(
                    self.fanout_indptr,
                    self.fanout_indices,
                    self._block_gates[b][crossing],
                )
                if fanouts.size:
                    pending[self._block_of_gate[fanouts]] = True
        if not touched_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        touched = np.concatenate(touched_parts)
        old = np.concatenate(old_parts)
        arrival[touched] = np.concatenate(new_parts)
        return touched, old

    def _cone_update(self, arrival, delays, seeds, block_max):
        """Per-gate fanout-cone walk, stopping a branch as soon as a
        recomputed arrival is unchanged.  The remaining-work counter is
        maintained exactly (seed/fanout marks are deduplicated), so the
        early exit is O(1) instead of a full boolean reduction per level.
        """
        pending = self._pending
        seeds = np.unique(seeds)
        pending[seeds] = True
        remaining = seeds.size
        touched: list[np.ndarray] = []
        old: list[np.ndarray] = []
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
                touched.append(idx)
                old.append(arrival[idx].copy())
                arrival[idx] = fresh[diff]
                fanouts, _ = csr_gather(self.fanout_indptr, self.fanout_indices, idx)
                if fanouts.size:
                    fanouts = np.unique(fanouts)
                    new_marks = fanouts[~pending[fanouts]]
                    pending[new_marks] = True
                    remaining += new_marks.size
            if remaining == 0:
                break
        if not touched:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        touched_all = np.concatenate(touched)
        old_all = np.concatenate(old)
        if block_max is not None:
            for b in np.unique(self._block_of_gate[touched_all]):
                block_max[b] = arrival[self._block_gates[b]].max()
        return touched_all, old_all

    # ---------------------------------------------------------- batched retime
    def retime_batch(
        self,
        arrival: np.ndarray,
        delays: np.ndarray,
        cols: np.ndarray,
        overrides: np.ndarray,
        block_max: np.ndarray | None = None,
        return_arrivals: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray | None]:
        """Critical-path delay of ``C`` candidate delay vectors at once.

        Candidate ``i``'s delay vector is ``delays`` with
        ``overrides[i]`` written at the (unique) gate indices ``cols``.
        The candidates are stacked as columns of one ``(rows, C)``
        scratch arrival matrix covering the **block cone** — the blocks
        reachable from any overridden gate whose value actually differs
        from the base — and swept level by level, each level one padded
        row gather, one contiguous ``max`` reduction, one in-place add.
        Fanins outside the cone cannot change, so they enter as extra
        constant rows holding the maintained base arrival, and the
        non-cone contribution to the max reduces to the maintained
        per-block maxima (``block_max``) or, failing that, a max over
        the base arrivals.  ``arrival``/``delays`` are read-only; the
        result is bit-identical to running :meth:`update` plus
        ``arrival.max()`` per candidate.

        Rows may override any number of gates (multi-gate override
        columns: a swap writes two exchanged entries, a module retune
        writes the whole membership).  An entry equal to the base delay
        is a no-op *for its row only* — the candidate cone is the union
        of every row's changed columns, but each row's scratch carries
        its own values — so heterogeneous candidates (different module
        pairs) can share one union column set and still score
        bit-identically to separate per-group calls.  The batched
        optimizer kernels (``trial_moves``/``trial_swaps``) lean on
        exactly this to merge scattered candidate pools into one
        stacked sweep.

        With ``return_arrivals`` the result is a pair: the delays, and
        the full-cone sweep's stacked arrivals (``None`` after a
        partial-cone sweep or when nothing changed), from which
        :meth:`stacked_arrival` reads candidate ``i``'s arrival vector.
        """
        count = overrides.shape[0]
        if count == 0 or self.num_gates == 0:
            d_bic = np.zeros(count, dtype=np.float64)
            return (d_bic, None) if return_arrivals else d_bic
        d_bic, stacked = self._retime_batch(
            arrival, delays, cols, overrides, block_max, count
        )
        return (d_bic, stacked) if return_arrivals else d_bic

    def stacked_arrival(self, stacked: np.ndarray, i: int) -> np.ndarray:
        """Candidate ``i``'s arrival vector, in gate order, from the
        stacked arrivals :meth:`retime_batch` returns: bit-identical to
        :meth:`full_arrival` of its delay vector (the same maxima, and
        each gate's delay added to its fanin maximum)."""
        return stacked[self._pos_lm, i]

    def _retime_batch(self, arrival, delays, cols, overrides, block_max, count):
        """:meth:`retime_batch`'s sweep: the delays, and the stacked
        arrivals of a full-cone sweep (else ``None``)."""
        obs.METRICS.inc("timing.retime_batch.calls")
        obs.METRICS.inc("timing.retime_batch.candidates", count)
        base_max = (
            float(block_max.max())
            if block_max is not None and block_max.size
            else float(arrival.max())
        )
        changed_cols = (overrides != delays[cols][None, :]).any(axis=0)
        seeds = cols[changed_cols]
        if seeds.size == 0:
            return np.full(count, base_max, dtype=np.float64), None
        seed_blocks = np.unique(self._block_of_gate[seeds])
        cone_mask = self._block_reach[seed_blocks].any(axis=0)
        cone_mask[seed_blocks] = True

        dl = self._lm_delays
        np.take(delays, self._order_lm, out=dl)
        if cone_mask.all():
            obs.METRICS.inc("timing.retime_batch.full_cone")
            # Fast path: scratch rows are exactly the lm positions, plus
            # one trailing ``-inf`` sentinel row absorbing pad entries.
            # The rows start as delays and each level's fed rows turn
            # into arrivals in place (levels only read earlier levels).
            scratch = np.empty((self.num_gates + 1, count), dtype=np.float64)
            scratch[:-1] = dl[:, None]
            scratch[self._pos_lm[cols]] = overrides.T
            scratch[-1] = -np.inf
            for src_pos, _starts, fed_sl, pad in self._lm_levels:
                if src_pos.size:
                    seg = scratch[pad].max(axis=1)
                    np.add(seg, scratch[fed_sl], out=scratch[fed_sl])
            return scratch[:-1].max(axis=0), scratch[:-1]

        # Partial cone: cone blocks' lm slices become contiguous scratch
        # rows; out-of-cone fanins append as constant base-arrival rows.
        obs.METRICS.inc("timing.retime_batch.partial_cone")
        cone_blocks = np.nonzero(cone_mask)[0]
        # One extra entry so the pad sentinel (lm position ``num_gates``)
        # remaps to the scratch sentinel row (index -1, the ``-inf`` row).
        row_of_lm = np.full(self.num_gates + 1, -1, dtype=np.int64)
        cone_lm_parts = []
        n_cone = 0
        for b in cone_blocks:
            sl = self._block_slices[b]
            size = sl.stop - sl.start
            row_of_lm[sl] = np.arange(n_cone, n_cone + size, dtype=np.int64)
            cone_lm_parts.append(np.arange(sl.start, sl.stop, dtype=np.int64))
            n_cone += size
        cone_lm = np.concatenate(cone_lm_parts)
        ext_parts = []
        for b in cone_blocks:
            for src_pos, _, _, _ in self._block_levels[b]:
                if src_pos.size:
                    outside = src_pos[row_of_lm[src_pos] < 0]
                    if outside.size:
                        ext_parts.append(outside)
        if ext_parts:
            ext = np.unique(np.concatenate(ext_parts))
            row_of_lm[ext] = np.arange(n_cone, n_cone + ext.size, dtype=np.int64)
        else:
            ext = np.empty(0, dtype=np.int64)

        # Trailing ``-inf`` sentinel row: pad entries (and the unused
        # ``-1`` remaps) resolve to it and never win a max.  Cone rows
        # start as delays and become arrivals in place, as above.
        scratch = np.empty((n_cone + ext.size + 1, count), dtype=np.float64)
        scratch[:n_cone] = dl[cone_lm][:, None]
        col_rows = row_of_lm[self._pos_lm[cols]]
        # A column outside the cone — whether unmapped (-1) or present
        # only as an out-of-cone fanin row (>= n_cone, which carries an
        # *arrival*, not a delay) — is override==base for every
        # candidate (otherwise it would have seeded the cone), so its
        # base arrival already stands in for it and the write is skipped.
        inside = (col_rows >= 0) & (col_rows < n_cone)
        scratch[col_rows[inside]] = overrides.T[inside]
        if ext.size:
            arrival_lm = np.take(arrival, self._order_lm)
            scratch[n_cone:-1] = arrival_lm[ext][:, None]
        scratch[-1] = -np.inf
        for b in cone_blocks:
            for src_pos, _starts, fed_sl, pad in self._block_levels[b]:
                if src_pos.size:
                    seg = scratch[row_of_lm[pad]].max(axis=1)
                    fed_rows = slice(
                        int(row_of_lm[fed_sl.start]),
                        int(row_of_lm[fed_sl.start]) + (fed_sl.stop - fed_sl.start),
                    )
                    np.add(seg, scratch[fed_rows], out=scratch[fed_rows])
        out = scratch[:n_cone].max(axis=0)
        if block_max is not None:
            outside_max = block_max[~cone_mask]
            remainder = float(outside_max.max()) if outside_max.size else None
        else:
            outside_lm = np.concatenate(
                [
                    np.arange(
                        self._block_slices[b].start, self._block_slices[b].stop
                    )
                    for b in np.nonzero(~cone_mask)[0]
                ]
            )
            remainder = (
                float(np.take(arrival, self._order_lm)[outside_lm].max())
                if outside_lm.size
                else None
            )
        if remainder is not None:
            np.maximum(out, remainder, out=out)
        return out, None


def nominal_gate_delays(electricals: GateElectricals) -> np.ndarray:
    """Per-gate nominal delays ``D(g)`` straight from the library."""
    return electricals.delay_ns.copy()


def levelized_timing(circuit: Circuit) -> LevelizedTiming:
    """The circuit's :class:`LevelizedTiming`, cached on the compiled
    graph — one-shot callers and evaluators share one level structure
    (and its incremental engine) per circuit."""
    cg = circuit.compiled
    cached = cg.__dict__.get("_levelized_timing")
    if cached is None:
        cached = LevelizedTiming(circuit)
        object.__setattr__(cg, "_levelized_timing", cached)
    return cached


def critical_path_delay(circuit: Circuit, delays: np.ndarray) -> float:
    """One-shot longest path (level structure cached on the compiled
    graph, so repeated calls don't rebuild it)."""
    return levelized_timing(circuit).critical_path_delay(delays)
