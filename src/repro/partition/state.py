"""Incrementally maintained, transactional evaluation state (paper §4.2).

The evolution strategy evaluates thousands of candidate partitions, each
differing from its parent by a handful of gate moves.  The paper makes
this affordable by recomputing "costs ... just for the modified modules".

:class:`EvaluationState` keeps per-module statistics in contiguous
*slot*-indexed arrays — ``(S,)`` leakage / rail-cap / separation /
peak-current vectors and ``(S, T)`` current / activity profile
matrices — so every cost term and the feasibility predicate ``Γ`` are
pure array reductions with no per-module Python loop.  The ``c2``/``c4``
delay term is maintained incrementally: a move dirties two modules,
their gates' degraded delays are re-derived, and the critical path is
updated through the changed gates' fanout cones, or by one full sweep
when many gates changed
(:class:`~repro.analysis.timing.IncrementalTiming`).  ``D_BIC`` is the
maximum of the maintained arrival vector.  :class:`_StateProtocol`
holds the generic trial loops; with the dict-based reference state in
``tests/oracles/state.py`` they are the oracles the dense kernels are
tested against.

The state supports the **transactional move protocol**: ``begin_trial()``
opens a journal, moves apply *in place*, and ``rollback()`` restores
every byte of state exactly (saved prior values, not reverse
arithmetic) while ``commit()`` keeps the moves.  Optimisers therefore
never clone a state to score a candidate.  The dense state additionally
offers :meth:`EvaluationState.trial_moves` — a batched gain kernel that
scores a whole candidate set ``(gates, targets)`` in one vectorised
pass (batched separation sums, scatter-added profile deltas, vectorised
sensor sizing and constraint checking) and stacked retimes for the
delay term, and
:meth:`EvaluationState.trial_blocks` — the population kernel that
scores a whole ES generation of multi-move rows from several parent
states in one statistics pass and one stacked retiming sweep, and
hands each scored row back as a state without replaying its moves.

The batched kernels call the degradation model's ``delta`` with arrays
of sensor parameters, one element per (candidate, gate).  A model
declares that safe by setting ``broadcasts = True``, as both shipped
models do.  For any other model, ``trial_moves`` and ``trial_swaps``
re-time their candidates one at a time and ``trial_blocks`` is the
generic per-row trial loop of :class:`_StateProtocol`.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import obs
from repro.errors import PartitionError
from repro.partition.constraints import ConstraintReport, check_constraints_arrays
from repro.netlist.compiled import csr_gather
from repro.partition.costs import CostBreakdown, log_guarded
from repro.partition.partition import Partition
from repro.sensors.bic import BICSensor, size_sensors
from repro.sensors.sensing import settle_times_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.partition.evaluator import PartitionEvaluator

__all__ = [
    "BlockScores",
    "ModuleStats",
    "EvaluationState",
]


def _profile_max_rows(times, gate_ids, act_rows):
    """Per (candidate row, gate): the max of that candidate's activity
    profile over the gate's own transition times — the batched form of
    :meth:`TransitionTimes.max_in_profile` (segments are non-empty)."""
    slots, counts = csr_gather(times.times_indptr, times.times_flat, gate_ids)
    starts = np.cumsum(counts) - counts
    return np.maximum.reduceat(act_rows[:, slots], starts, axis=1)


def _profile_max_diag(times, gates, act_rows):
    """Row ``i``'s activity-profile max over gate ``gates[i]``'s own
    transition times — one value per candidate row."""
    slots, counts = csr_gather(times.times_indptr, times.times_flat, gates)
    row_rep = np.repeat(np.arange(len(gates), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return np.maximum.reduceat(act_rows[row_rep, slots], starts)


class ModuleStats:
    """Cached per-module quantities (mutable, copied with the state)."""

    __slots__ = ("current_profile", "activity_profile", "leak_na", "sep_sum", "rail_cap_ff")

    def __init__(
        self,
        current_profile: np.ndarray,
        activity_profile: np.ndarray,
        leak_na: float,
        sep_sum: float,
        rail_cap_ff: float,
    ):
        self.current_profile = current_profile
        self.activity_profile = activity_profile
        self.leak_na = leak_na
        self.sep_sum = sep_sum
        self.rail_cap_ff = rail_cap_ff

    def copy(self) -> "ModuleStats":
        return ModuleStats(
            self.current_profile.copy(),
            self.activity_profile.copy(),
            self.leak_na,
            self.sep_sum,
            self.rail_cap_ff,
        )

    @property
    def max_current_ma(self) -> float:
        return float(self.current_profile.max())


def _target_runs(moves: Sequence[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """``(target, gates)`` for every maximal run of consecutive moves
    into one target, in move order."""
    runs: list[tuple[int, list[int]]] = []
    for gate, target in moves:
        if runs and runs[-1][0] == target:
            runs[-1][1].append(gate)
        else:
            runs.append((target, [gate]))
    return runs


class BlockScores:
    """What ``trial_blocks`` returns: ``costs[i]`` is row ``i``'s
    penalised cost, and :meth:`state` builds the state row ``i``
    describes.

    This generic form builds it by replay: a copy of the row's parent
    plus one ``move_gates`` call per maximal same-target run of the
    row's moves.  The dense kernel returns a subclass that adopts the
    statistics it already computed for the row instead.
    """

    def __init__(self, costs: np.ndarray, rows: Sequence):
        self.costs = costs
        self._rows = rows

    def state(self, i: int):
        parent, moves = self._rows[i]
        state = parent.copy()
        for target, gates in _target_runs(moves):
            state.move_gates(gates, target)
        return state


class _StateProtocol:
    """The evaluation-state protocol and its generic trial loops, shared
    by :class:`EvaluationState` and the test suite's reference state."""

    ctx: "PartitionEvaluator"
    partition: Partition

    def move_gate(self, gate: int, target_module: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def penalized_cost(self, penalty: float) -> float:  # pragma: no cover
        raise NotImplementedError

    def begin_trial(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def commit(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def rollback(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def move_gates(self, gates: Iterable[int], target_module: int) -> None:
        for gate in gates:
            self.move_gate(gate, target_module)

    def trial_cost(
        self, moves: Sequence[tuple[int, int]], penalty: float
    ) -> float:
        """Open a trial, apply ``moves``, and return the penalised cost.

        The trial stays open: the caller decides between :meth:`commit`
        (keep the moves) and :meth:`rollback` (exact restore).
        """
        self.begin_trial()
        try:
            for gate, target in moves:
                self.move_gate(gate, target)
            return self.penalized_cost(penalty)
        except Exception:
            self.rollback()
            raise

    def trial_moves(
        self, gates: Sequence[int], targets: Sequence[int], penalty: float
    ) -> np.ndarray:
        """Penalised cost of each single-gate candidate move, evaluated
        independently from the current state (generic trial/rollback
        loop; the dense state overrides this with the batched kernel)."""
        costs = np.empty(len(gates), dtype=np.float64)
        for i, (gate, target) in enumerate(zip(gates, targets)):
            costs[i] = self.trial_cost([(int(gate), int(target))], penalty)
            self.rollback()
        return costs

    def trial_swaps(
        self, gates_a: Sequence[int], gates_b: Sequence[int], penalty: float
    ) -> np.ndarray:
        """Penalised cost of each two-gate *swap* candidate — gate ``a``
        moves into ``b``'s module and ``b`` into ``a``'s — evaluated
        independently from the current state (generic trial/rollback
        loop; the dense state overrides this with the batched kernel).
        ``a``'s module must hold at least two gates, or the first move
        of the exchange would delete it."""
        costs = np.empty(len(gates_a), dtype=np.float64)
        for i, (a, b) in enumerate(zip(gates_a, gates_b)):
            a, b = int(a), int(b)
            partition = self.partition  # rollback may swap the object
            module_a = partition.module_of(a)
            module_b = partition.module_of(b)
            costs[i] = self.trial_cost([(a, module_b), (b, module_a)], penalty)
            self.rollback()
        return costs

    @staticmethod
    def trial_blocks(
        rows: Sequence[tuple["_StateProtocol", Sequence[tuple[int, int]]]],
        penalty: float,
    ) -> BlockScores:
        """Penalised cost of each ``(state, moves)`` row, the moves
        applied in order and evaluated independently from that state
        (generic trial/rollback loop; the dense state overrides this
        with the population kernel).  Row states are built by replay."""
        costs = np.empty(len(rows), dtype=np.float64)
        for i, (state, moves) in enumerate(rows):
            costs[i] = state.trial_cost(moves, penalty)
            state.rollback()
        return BlockScores(costs, rows)

    def committed_moves(self) -> list[tuple[int, int]]:
        """The (gate, target) sequence of every committed move so far —
        rolled-back trial moves are erased.  Equivalence tests compare
        these across implementations."""
        return list(self._move_log)


class EvaluationState(_StateProtocol):
    """Dense transactional evaluation core (see module docstring).

    Module statistics are stored at *slots* — positions in contiguous
    arrays.  A module dying frees its slot (zero-filled, so full-array
    reductions stay exact); a split claims a free slot or grows the
    arrays.  All mutations route through :meth:`_aset`, which journals
    prior values while a trial is open, making :meth:`rollback` an
    exact byte-for-byte restore.
    """

    _GROW = 8

    #: Every slot-indexed statistic, ``(S,)`` vectors and ``(S, T)``
    #: profiles alike: copied, grown, freed and adopted as one set.
    SLOT_ARRAYS = (
        "leak_na",
        "rail_cap_ff",
        "sep_sum",
        "max_current_ma",
        "current",
        "activity",
        "sensor_rs",
        "sensor_area",
        "sensor_cs",
        "sensor_tau",
        "sensor_clamped",
        "settle_ns",
    )

    def __init__(self, ctx: "PartitionEvaluator", partition: Partition):
        self.ctx = ctx
        self.partition = partition.copy()
        modules = list(self.partition.module_ids)
        depth_t = ctx.times.depth + 1
        s = len(modules)
        self._slot_of: dict[int, int] = {m: i for i, m in enumerate(modules)}
        self._slot_module = np.full(s, -1, dtype=np.int64)
        self._slot_module[: len(modules)] = modules
        self._free_slots: list[int] = []
        self.leak_na = np.zeros(s, dtype=np.float64)
        self.rail_cap_ff = np.zeros(s, dtype=np.float64)
        self.sep_sum = np.zeros(s, dtype=np.float64)
        self.max_current_ma = np.zeros(s, dtype=np.float64)
        self.current = np.zeros((s, depth_t), dtype=np.float64)
        self.activity = np.zeros((s, depth_t), dtype=np.float64)
        self.sensor_rs = np.zeros(s, dtype=np.float64)
        self.sensor_area = np.zeros(s, dtype=np.float64)
        self.sensor_cs = np.zeros(s, dtype=np.float64)
        self.sensor_tau = np.zeros(s, dtype=np.float64)
        self.sensor_clamped = np.zeros(s, dtype=bool)
        self.settle_ns = np.zeros(s, dtype=np.float64)
        self.delay_degraded = ctx.electricals.delay_ns.copy()
        self._arrival: np.ndarray | None = None
        self._dbic = 0.0
        self._dirty: set[int] = set(modules)
        self._journal: list | None = None
        self._trial_meta: tuple | None = None
        self._move_log: list[tuple[int, int]] = []
        # State-owned sorted membership arrays: maintained by replacement
        # (never mutated in place), journaled by reference, so they
        # survive trials and rollbacks without re-materialisation.
        self._members: dict[int, np.ndarray] = {}
        for module in modules:
            self._fill_slot(self._slot_of[module], module)

    # ------------------------------------------------------------ construction
    def _fill_slot(self, slot: int, module: int) -> None:
        """Build one module's statistics into its slot from scratch."""
        ctx = self.ctx
        gates = self.partition.gates_array(module)
        self._members[module] = gates
        self.current[slot] = ctx.times.profile(gates, ctx.electricals.peak_current_ma)
        self.activity[slot] = ctx.times.profile(gates, ctx.ones)
        self.leak_na[slot] = float(ctx.electricals.leakage_na[gates].sum())
        self.rail_cap_ff[slot] = float(ctx.electricals.rail_cap_ff[gates].sum())
        self.sep_sum[slot] = ctx.separation.module_sum(gates)
        self.max_current_ma[slot] = self.current[slot].max()

    def copy(self) -> "EvaluationState":
        if self._journal is not None:
            raise PartitionError("cannot copy a state with an open trial")
        clone = object.__new__(EvaluationState)
        clone.ctx = self.ctx
        clone.partition = self.partition.copy()
        clone._slot_of = dict(self._slot_of)
        clone._slot_module = self._slot_module.copy()
        clone._free_slots = list(self._free_slots)
        for name in EvaluationState.SLOT_ARRAYS + ("delay_degraded",):
            setattr(clone, name, getattr(self, name).copy())
        clone._arrival = None if self._arrival is None else self._arrival.copy()
        clone._dbic = self._dbic
        clone._dirty = set(self._dirty)
        clone._journal = None
        clone._trial_meta = None
        clone._move_log = list(self._move_log)
        # Arrays are replaced, never mutated, so sharing them is safe.
        clone._members = dict(self._members)
        return clone

    # ----------------------------------------------------------------- journal
    def _aset(self, array: np.ndarray, index, value) -> None:
        """Assign ``array[index] = value``, journaling the prior bytes
        when a trial is open."""
        if self._journal is not None:
            self._journal.append(("arr", array, index, np.array(array[index], copy=True)))
        array[index] = value

    def _mem_set(self, module: int, members: np.ndarray | None) -> None:
        """Replace (or, with ``None``, drop) a module's membership array,
        journaling the prior reference when a trial is open."""
        if self._journal is not None:
            self._journal.append(("mem", module, self._members.get(module)))
        if members is None:
            self._members.pop(module, None)
        else:
            self._members[module] = members

    def begin_trial(self) -> None:
        """Open a trial: moves and lazy refreshes apply in place and are
        journaled; :meth:`rollback` restores the exact prior state."""
        if self._journal is not None:
            raise PartitionError("trial already open")
        self._journal = []
        self._trial_meta = (
            self.partition._next_id,
            set(self._dirty),
            len(self._move_log),
            self._dbic,
            self._arrival is not None,
        )

    def commit(self) -> None:
        if self._journal is None:
            raise PartitionError("no open trial")
        self._journal = None
        self._trial_meta = None

    def rollback(self) -> None:
        journal = self._journal
        if journal is None:
            raise PartitionError("no open trial")
        next_id, dirty, log_len, dbic, had_arrival = self._trial_meta
        self._journal = None
        self._trial_meta = None
        partition = self.partition
        for entry in reversed(journal):
            kind = entry[0]
            if kind == "arr":
                _, array, index, old = entry
                array[index] = old
            elif kind == "move":
                _, gate, source, target, source_died = entry
                if source_died:
                    partition._modules[source] = set()
                partition._modules[target].discard(gate)
                partition._modules[source].add(gate)
                partition._module_of[gate] = source
            elif kind == "mem":
                _, module, members = entry
                if members is None:
                    self._members.pop(module, None)
                else:
                    self._members[module] = members
            else:  # "slot_del": a module death freed a slot
                _, module, slot = entry
                self._slot_of[module] = slot
                self._free_slots.remove(slot)
        # The version counter is NOT restored: versions must never be
        # reused, or version-keyed caches (the membership cache, the
        # IDDQ engine's per-partition caches) could serve content from
        # the rolled-back timeline.  One extra bump makes every version
        # observed during the trial permanently stale.
        partition._version += 1
        partition._next_id = next_id
        self._dirty = dirty
        self._dbic = dbic
        if not had_arrival:
            # The arrival vector was first materialised during the trial
            # (against trial-time delays); drop it so the next refresh
            # rebuilds from the restored delays.
            self._arrival = None
        del self._move_log[log_len:]

    # ------------------------------------------------------------------ moves
    def _slot(self, module: int) -> int:
        slot = self._slot_of.get(module)
        if slot is None:
            raise PartitionError(f"no module {module}")
        return slot

    def move_gate(self, gate: int, target_module: int) -> int:
        """Move a gate, updating both touched slots; returns the source
        module id.  Inside a trial every write is journaled."""
        ctx = self.ctx
        partition = self.partition
        source = partition.module_of(gate)
        if source == target_module:
            raise PartitionError(f"gate {gate} already in module {target_module}")
        tgt_slot = self._slot(target_module)
        src_slot = self._slot_of[source]

        src_members = self._members[source]
        tgt_members = self._members[target_module]
        separation = ctx.separation
        self._aset(
            self.sep_sum,
            src_slot,
            self.sep_sum[src_slot] - separation.sum_to_group(gate, src_members),
        )
        self._aset(
            self.sep_sum,
            tgt_slot,
            self.sep_sum[tgt_slot] + separation.sum_to_group(gate, tgt_members),
        )

        times = ctx.times.times[gate]
        peak = ctx.electricals.peak_current_ma[gate]
        self._aset(self.current, (src_slot, times), self.current[src_slot, times] - peak)
        self._aset(self.current, (tgt_slot, times), self.current[tgt_slot, times] + peak)
        self._aset(
            self.activity, (src_slot, times), self.activity[src_slot, times] - 1.0
        )
        self._aset(
            self.activity, (tgt_slot, times), self.activity[tgt_slot, times] + 1.0
        )
        leak = ctx.electricals.leakage_na[gate]
        rail = ctx.electricals.rail_cap_ff[gate]
        self._aset(self.leak_na, src_slot, self.leak_na[src_slot] - leak)
        self._aset(self.leak_na, tgt_slot, self.leak_na[tgt_slot] + leak)
        self._aset(self.rail_cap_ff, src_slot, self.rail_cap_ff[src_slot] - rail)
        self._aset(self.rail_cap_ff, tgt_slot, self.rail_cap_ff[tgt_slot] + rail)
        self._aset(self.max_current_ma, src_slot, self.current[src_slot].max())
        self._aset(self.max_current_ma, tgt_slot, self.current[tgt_slot].max())

        source_died = partition.module_size(source) == 1
        if self._journal is not None:
            self._journal.append(("move", gate, source, target_module, source_died))
        partition.move_gate(gate, target_module)
        if source_died:
            self._release_slot(source, src_slot)
            self._dirty.discard(source)
        else:
            self._mem_set(
                source, np.delete(src_members, np.searchsorted(src_members, gate))
            )
            self._dirty.add(source)
        self._mem_set(
            target_module,
            np.insert(tgt_members, np.searchsorted(tgt_members, gate), gate),
        )
        self._dirty.add(target_module)
        self._move_log.append((gate, target_module))
        return source

    # Its own entry, so that perfbench (``perfbench/layers.py``) can wrap
    # the dense state's method on this class.
    move_gates = _StateProtocol.move_gates

    def _release_slot(self, module: int, slot: int) -> None:
        """Zero a dead module's slot so full-array reductions stay exact."""
        if self._journal is not None:
            self._journal.append(("slot_del", module, slot))
        self._mem_set(module, None)
        del self._slot_of[module]
        self._free_slots.append(slot)
        self._aset(self._slot_module, slot, -1)
        for name in EvaluationState.SLOT_ARRAYS:
            self._aset(getattr(self, name), slot, 0)

    def _claim_slot(self, module: int) -> int:
        """Allocate a slot for a new module (outside trials only)."""
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slot_module)
            grow = EvaluationState._GROW
            self._slot_module = np.concatenate(
                [self._slot_module, np.full(grow, -1, dtype=np.int64)]
            )
            for name in EvaluationState.SLOT_ARRAYS:
                old = getattr(self, name)
                pad = np.zeros((grow,) + old.shape[1:], dtype=old.dtype)
                setattr(self, name, np.concatenate([old, pad]))
        self._slot_of[module] = slot
        self._slot_module[slot] = module
        return slot

    def split_new_module(self, gates) -> int:
        """Create a new module from ``gates``; rebuilds only the touched
        modules (cold path, not allowed inside trials)."""
        if self._journal is not None:
            raise PartitionError("split_new_module not allowed inside a trial")
        gates = list(gates)
        if not gates:
            raise PartitionError("cannot create an empty module")
        sources = {self.partition.module_of(gate) for gate in gates}
        new_id = self.partition.split_new_module(gates)
        self._claim_slot(new_id)
        self._rebuild_touched(sources | {new_id})
        return new_id

    def merge_modules(self, keep: int, absorb: int) -> None:
        """Merge ``absorb`` into ``keep`` (rebuilds only ``keep``)."""
        if self._journal is not None:
            raise PartitionError("merge_modules not allowed inside a trial")
        self.partition.merge_modules(keep, absorb)
        self._rebuild_touched({keep, absorb})

    def _rebuild_touched(self, modules: set[int]) -> None:
        alive = set(self.partition.module_ids)
        for module in sorted(modules):
            if module in alive:
                self._fill_slot(self._slot(module), module)
                self._dirty.add(module)
            elif module in self._slot_of:
                self._release_slot(module, self._slot_of[module])
                self._dirty.discard(module)

    # ------------------------------------------------------------ derived data
    def _refresh(self) -> None:
        """Re-size sensors, re-degrade delays and re-time the critical
        path for modified modules — vectorised across the dirty set; the
        timing update is seeded by the gates whose delay changed."""
        ctx = self.ctx
        if self._dirty:
            dirty = sorted(self._dirty)
            slots = np.asarray([self._slot_of[m] for m in dirty], dtype=np.int64)
            rs, area, cs, tau, clamped = size_sensors(
                ctx.technology,
                self.max_current_ma[slots],
                self.rail_cap_ff[slots],
            )
            self._aset(self.sensor_rs, slots, rs)
            self._aset(self.sensor_area, slots, area)
            self._aset(self.sensor_cs, slots, cs)
            self._aset(self.sensor_tau, slots, tau)
            self._aset(self.sensor_clamped, slots, clamped)
            self._aset(
                self.settle_ns,
                slots,
                settle_times_ns(self.max_current_ma[slots], tau, ctx.technology),
            )
            changed: list[np.ndarray] = []
            for module, slot, rs_i, cs_i in zip(dirty, slots, rs, cs):
                gates = self._members[module]
                if ctx.time_resolved_degradation:
                    n = ctx.times.max_in_profile(gates, self.activity[slot])
                else:
                    n = float(self.activity[slot].max())
                delta = ctx.degradation.delta(
                    n,
                    rs_i,
                    cs_i,
                    ctx.electricals.output_cap_ff[gates],
                    ctx.electricals.pulldown_res_ohm[gates],
                )
                fresh = ctx.electricals.delay_ns[gates] * (1.0 + delta)
                diff = fresh != self.delay_degraded[gates]
                if diff.any():
                    idx = gates[diff]
                    self._aset(self.delay_degraded, idx, fresh[diff])
                    changed.append(idx)
            self._dirty.clear()
        else:
            changed = []
        incremental = ctx.timing.incremental
        if self._arrival is None:
            self._arrival = incremental.full_arrival(self.delay_degraded)
            self._dbic = float(self._arrival.max()) if self._arrival.size else 0.0
        elif changed:
            touched, old = incremental.update(
                self._arrival,
                self.delay_degraded,
                np.concatenate(changed),
            )
            if self._journal is not None and touched.size:
                self._journal.append(("arr", self._arrival, touched, old))
            self._dbic = float(self._arrival.max())

    def sensors(self) -> dict[int, BICSensor]:
        """Sized sensors for every module (refreshes lazily; cold path —
        builds :class:`BICSensor` objects from the slot arrays)."""
        self._refresh()
        out: dict[int, BICSensor] = {}
        for module in sorted(self._slot_of):
            slot = self._slot_of[module]
            rs = float(self.sensor_rs[slot])
            current = float(self.max_current_ma[slot])
            out[module] = BICSensor(
                module_id=module,
                rs_ohm=rs,
                area=float(self.sensor_area[slot]),
                cs_ff=float(self.sensor_cs[slot]),
                tau_ns=float(self.sensor_tau[slot]),
                max_current_ma=current,
                rail_perturbation_v=rs * current * 1e-3,
                rs_clamped=bool(self.sensor_clamped[slot]),
            )
        return out

    @property
    def stats(self) -> dict[int, ModuleStats]:
        """Per-module statistics as :class:`ModuleStats` views (cold
        path; profile rows are live views into the slot matrices)."""
        out: dict[int, ModuleStats] = {}
        for module in sorted(self._slot_of):
            slot = self._slot_of[module]
            out[module] = ModuleStats(
                self.current[slot],
                self.activity[slot],
                float(self.leak_na[slot]),
                float(self.sep_sum[slot]),
                float(self.rail_cap_ff[slot]),
            )
        return out

    def cost_breakdown(self) -> CostBreakdown:
        """All five cost terms — pure reductions over the slot arrays
        (dead slots hold exact zeros and contribute nothing)."""
        self._refresh()
        ctx = self.ctx
        c1 = log_guarded(float(self.sensor_area.sum()))
        d_bic = self._dbic
        d_nom = ctx.nominal_delay_ns
        c2 = (d_bic - d_nom) / d_nom
        c3 = log_guarded(float(self.sep_sum.sum()))
        settle = float(self.settle_ns.max())
        c4 = (d_bic + settle - d_nom) / d_nom
        c5 = float(self.partition.num_modules)
        return CostBreakdown(
            c1_area=c1,
            c2_delay=c2,
            c3_separation=c3,
            c4_test_time=c4,
            c5_modules=c5,
            weights=ctx.weights,
        )

    def constraint_report(self) -> ConstraintReport:
        """Full ``Γ`` report (cold path; the hot path uses the array
        reduction directly in :meth:`penalized_cost`)."""
        feasible, violation, disc, rail_ok = check_constraints_arrays(
            self.ctx.technology, self.leak_na, self.max_current_ma
        )
        modules = sorted(self._slot_of)
        slots = [self._slot_of[m] for m in modules]
        return ConstraintReport(
            feasible=bool(feasible),
            violation=float(violation),
            discriminability={m: float(disc[s]) for m, s in zip(modules, slots)},
            rail_ok={m: bool(rail_ok[s]) for m, s in zip(modules, slots)},
        )

    def penalized_cost(self, penalty: float) -> float:
        """Cost plus penalty for constraint violation — the optimiser's
        selection criterion, with no per-module Python work."""
        feasible, violation, _, _ = check_constraints_arrays(
            self.ctx.technology, self.leak_na, self.max_current_ma
        )
        cost = self.cost_breakdown().total
        if feasible:
            return cost
        return cost + penalty * (1.0 + float(violation))

    # ----------------------------------------------------------- gain kernel
    def trial_moves(
        self, gates: Sequence[int], targets: Sequence[int], penalty: float
    ) -> np.ndarray:
        """Batched gain kernel: the penalised cost of every candidate
        single-gate move, each evaluated independently from the current
        state, in one vectorised pass.

        Stage 1 scores every non-delay term for all candidates at once:
        batched separation sums (:meth:`SeparationMatrix.sums_by_group`),
        scatter-added profile deltas, vectorised sensor sizing and the
        array-form constraint check.  Stage 2 scores the ``c2``/``c4``
        delay term batched per (source, target) module pair: all
        candidates of a pair share the same two-module invalidation
        frontier, so their degraded-delay overrides are built as one
        ``(C, gates)`` matrix (the degradation delta is elementwise, so
        the moved gate's row entry is simply overwritten with its
        target-side value) and re-timed in one stacked sweep
        (:meth:`IncrementalTiming.retime_batch`).  The state is never
        mutated.  Degradation models that don't advertise numpy
        broadcasting (``broadcasts = True``) fall back to the sequential
        per-candidate update/restore loop — same results, one candidate
        at a time.
        """
        gates = np.asarray(gates, dtype=np.int64)
        count = len(gates)
        costs = np.empty(count, dtype=np.float64)
        if count == 0:
            return costs
        obs.METRICS.inc("optimize.trial_moves.calls")
        obs.METRICS.inc("optimize.trial_moves.candidates", count)
        if self._journal is not None:
            raise PartitionError("trial_moves not allowed inside an open trial")
        self._refresh()
        ctx = self.ctx
        partition = self.partition
        electricals = ctx.electricals
        num_slots = len(self._slot_module)
        targets = np.asarray(targets, dtype=np.int64)

        slot_map = np.full(partition._next_id, -1, dtype=np.int64)
        for module, slot in self._slot_of.items():
            slot_map[module] = slot
        src_modules = partition._module_of[gates].astype(np.int64)
        if (src_modules == targets).any():
            raise PartitionError("candidate move into the gate's own module")
        src_slot = slot_map[src_modules]
        tgt_slot = slot_map[targets]
        if (tgt_slot < 0).any():
            raise PartitionError("candidate move into a missing module")
        sizes = np.bincount(
            partition._module_of, minlength=int(partition._next_id)
        )[src_modules]
        dying = sizes == 1
        rows = np.arange(count)

        # --- stage 1: every non-delay statistic, fully vectorised.
        leak_g = electricals.leakage_na[gates]
        rail_g = electricals.rail_cap_ff[gates]
        peak_g = electricals.peak_current_ma[gates]
        src_leak = self.leak_na[src_slot] - leak_g
        tgt_leak = self.leak_na[tgt_slot] + leak_g
        src_rail = self.rail_cap_ff[src_slot] - rail_g
        tgt_rail = self.rail_cap_ff[tgt_slot] + rail_g

        gate_slot = slot_map[partition._module_of]
        unique_gates, inverse = np.unique(gates, return_inverse=True)
        sums = ctx.separation.sums_by_group(unique_gates, gate_slot, num_slots)
        src_sep = self.sep_sum[src_slot] - sums[inverse, src_slot]
        tgt_sep = self.sep_sum[tgt_slot] + sums[inverse, tgt_slot]

        times = ctx.times
        slots_flat, slot_counts = csr_gather(
            times.times_indptr, times.times_flat, gates
        )
        row_rep = np.repeat(rows, slot_counts)
        peak_rep = np.repeat(peak_g, slot_counts)
        src_cur = self.current[src_slot].copy()
        tgt_cur = self.current[tgt_slot].copy()
        src_act = self.activity[src_slot].copy()
        tgt_act = self.activity[tgt_slot].copy()
        src_cur[row_rep, slots_flat] -= peak_rep
        tgt_cur[row_rep, slots_flat] += peak_rep
        src_act[row_rep, slots_flat] -= 1.0
        tgt_act[row_rep, slots_flat] += 1.0
        src_max = src_cur.max(axis=1)
        tgt_max = tgt_cur.max(axis=1)

        src_rs, src_area, src_cs, src_tau, _ = size_sensors(
            ctx.technology, src_max, src_rail
        )
        tgt_rs, tgt_area, tgt_cs, tgt_tau, _ = size_sensors(
            ctx.technology, tgt_max, tgt_rail
        )
        src_settle = settle_times_ns(src_max, src_tau, ctx.technology)
        tgt_settle = settle_times_ns(tgt_max, tgt_tau, ctx.technology)

        # Candidate-row matrices over all slots: base values with the two
        # touched columns replaced (dying sources contribute nothing) —
        # the same full-array reductions as the committed path.
        def candidate_matrix(base, src_new, tgt_new):
            matrix = np.broadcast_to(base, (count, num_slots)).copy()
            matrix[rows, src_slot] = np.where(dying, 0.0, src_new)
            matrix[rows, tgt_slot] = tgt_new
            return matrix

        total_area = candidate_matrix(self.sensor_area, src_area, tgt_area).sum(axis=1)
        total_sep = candidate_matrix(self.sep_sum, src_sep, tgt_sep).sum(axis=1)
        settle = candidate_matrix(self.settle_ns, src_settle, tgt_settle).max(axis=1)
        feasible, violation, _, _ = check_constraints_arrays(
            ctx.technology,
            candidate_matrix(self.leak_na, src_leak, tgt_leak),
            candidate_matrix(self.max_current_ma, src_max, tgt_max),
        )

        # --- stage 2: the delay term, batched per (source, target) pair.
        d_bic = np.empty(count, dtype=np.float64)
        if getattr(ctx.degradation, "broadcasts", False):
            arrival = self._arrival
            delays = self.delay_degraded
            nominal = electricals.delay_ns
            incremental = ctx.timing.incremental
            cg_ff = electricals.output_cap_ff
            rg_ohm = electricals.pulldown_res_ohm
            time_resolved = ctx.time_resolved_degradation
            if not time_resolved:
                # Matches the sequential path's ``float(act_row.max())``.
                n_src = src_act.max(axis=1)
                n_tgt = tgt_act.max(axis=1)

            def side_overrides(members, n_rows, rs_rows, cs_rows):
                """Degraded delays of ``members`` for each candidate row —
                the elementwise delta broadcast over (candidate, gate)."""
                delta = ctx.degradation.delta(
                    n_rows,
                    rs_rows[:, None],
                    cs_rows[:, None],
                    cg_ff[members][None, :],
                    rg_ohm[members][None, :],
                )
                return nominal[members][None, :] * (1.0 + delta)

            keys = src_modules * np.int64(partition._next_id) + targets
            order = np.argsort(keys, kind="stable")
            boundaries = np.nonzero(np.diff(keys[order]))[0] + 1
            groups = np.split(order, boundaries)
            # Scattered batches (random annealing blocks, KL pools) land
            # roughly one candidate per module pair, so per-pair calls
            # degrade to C=1 sweeps and nothing stacks.  Merging every
            # group into one call over the union column set restores the
            # stacking: a candidate's entries outside its own pair carry
            # the base delays, which retime_batch treats as no-op
            # overrides, so the merged sweep stays bit-identical to the
            # per-pair calls while amortising one sweep over the whole
            # batch.  Dense batches (neighbourhood scans) keep the
            # per-pair calls and their narrower override matrices.
            merged_over = None
            if len(groups) * 8 > count:
                touched_modules = np.unique(np.concatenate([src_modules, targets]))
                # Memberships are disjoint sorted runs, so one sort (no
                # dedup) yields the sorted union column set.
                all_cols = np.sort(
                    np.concatenate([self._members[int(m)] for m in touched_modules])
                )
                merged_over = np.empty((count, all_cols.size), dtype=np.float64)
                merged_over[:] = delays[all_cols][None, :]
            for group in groups:
                src_members = self._members[int(src_modules[group[0]])]
                tgt_members = self._members[int(targets[group[0]])]
                group_dying = bool(dying[group[0]])
                cols = np.concatenate([src_members, tgt_members])
                if merged_over is not None:
                    col_pos = np.searchsorted(all_cols, cols)
                n_s = src_members.size
                for lo in range(0, len(group), 192):
                    chunk = group[lo : lo + 192]
                    moved = gates[chunk]
                    over = np.empty((chunk.size, cols.size), dtype=np.float64)
                    if group_dying:
                        # No source side remains; the moved gate's entry
                        # is overwritten with its target-side value below.
                        over[:, :n_s] = delays[src_members]
                    else:
                        n_rows = (
                            _profile_max_rows(times, src_members, src_act[chunk])
                            if time_resolved
                            else n_src[chunk][:, None]
                        )
                        over[:, :n_s] = side_overrides(
                            src_members, n_rows, src_rs[chunk], src_cs[chunk]
                        )
                    n_rows = (
                        _profile_max_rows(times, tgt_members, tgt_act[chunk])
                        if time_resolved
                        else n_tgt[chunk][:, None]
                    )
                    over[:, n_s:] = side_overrides(
                        tgt_members, n_rows, tgt_rs[chunk], tgt_cs[chunk]
                    )
                    # The moved gate joins the target module: same
                    # elementwise delta with the target side's
                    # parameters and the gate's own load.
                    n_moved = (
                        _profile_max_diag(times, moved, tgt_act[chunk])
                        if time_resolved
                        else n_tgt[chunk]
                    )
                    delta_moved = ctx.degradation.delta(
                        n_moved,
                        tgt_rs[chunk],
                        tgt_cs[chunk],
                        cg_ff[moved],
                        rg_ohm[moved],
                    )
                    over[
                        np.arange(chunk.size), np.searchsorted(src_members, moved)
                    ] = nominal[moved] * (1.0 + delta_moved)
                    if merged_over is not None:
                        merged_over[chunk[:, None], col_pos[None, :]] = over
                    else:
                        d_bic[chunk] = incremental.retime_batch(
                            arrival, delays, cols, over
                        )
            if merged_over is not None:
                for lo in range(0, count, 192):
                    d_bic[lo : lo + 192] = incremental.retime_batch(
                        arrival, delays, all_cols, merged_over[lo : lo + 192]
                    )
        else:
            self._delay_term_loop(
                d_bic,
                gates,
                targets,
                src_modules,
                dying,
                src_act,
                tgt_act,
                src_rs,
                src_cs,
                tgt_rs,
                tgt_cs,
            )

        d_nom = ctx.nominal_delay_ns
        weights = ctx.weights
        c1 = np.log1p(np.maximum(total_area, 0.0))
        c2 = (d_bic - d_nom) / d_nom
        c3 = np.log1p(np.maximum(total_sep, 0.0))
        c4 = (d_bic + settle - d_nom) / d_nom
        c5 = (partition.num_modules - dying).astype(np.float64)
        costs = (
            weights.area * c1
            + weights.delay * c2
            + weights.separation * c3
            + weights.test_time * c4
            + weights.modules * c5
        )
        return costs + np.where(feasible, 0.0, penalty * (1.0 + violation))

    def _delay_term_loop(
        self,
        d_bic,
        gates,
        targets,
        src_modules,
        dying,
        src_act,
        tgt_act,
        src_rs,
        src_cs,
        tgt_rs,
        tgt_cs,
    ) -> None:
        """Sequential per-candidate delay term — the fallback for
        degradation models without broadcasting: re-degrade the two
        touched modules, update the critical path, restore the scratch
        exactly."""
        ctx = self.ctx
        times = ctx.times
        electricals = ctx.electricals
        arrival = self._arrival
        delays = self.delay_degraded
        nominal = electricals.delay_ns
        incremental = ctx.timing.incremental
        for i in range(len(gates)):
            gate = int(gates[i])
            seeds: list[np.ndarray] = []
            saved: list[tuple[np.ndarray, np.ndarray]] = []
            sides: list[tuple[np.ndarray, np.ndarray, float, float]] = []
            if not dying[i]:
                members = self._members[int(src_modules[i])]
                sides.append(
                    (members[members != gate], src_act[i], src_rs[i], src_cs[i])
                )
            members = self._members[int(targets[i])]
            sides.append(
                (np.append(members, gate), tgt_act[i], tgt_rs[i], tgt_cs[i])
            )
            for module_gates, act_row, rs_i, cs_i in sides:
                if ctx.time_resolved_degradation:
                    n = times.max_in_profile(module_gates, act_row)
                else:
                    n = float(act_row.max())
                delta = ctx.degradation.delta(
                    n,
                    rs_i,
                    cs_i,
                    electricals.output_cap_ff[module_gates],
                    electricals.pulldown_res_ohm[module_gates],
                )
                fresh = nominal[module_gates] * (1.0 + delta)
                diff = fresh != delays[module_gates]
                if diff.any():
                    idx = module_gates[diff]
                    saved.append((idx, delays[idx].copy()))
                    delays[idx] = fresh[diff]
                    seeds.append(idx)
            if seeds:
                touched, old = incremental.update(
                    arrival, delays, np.concatenate(seeds)
                )
                d_bic[i] = arrival.max()
                if touched.size:
                    arrival[touched] = old
                for idx, old_delays in saved:
                    delays[idx] = old_delays
            else:
                d_bic[i] = self._dbic

    # ------------------------------------------------------------ swap kernel
    def trial_swaps(
        self, gates_a: Sequence[int], gates_b: Sequence[int], penalty: float
    ) -> np.ndarray:
        """Batched swap kernel: the penalised cost of every candidate
        two-gate exchange ``(a -> module(b), b -> module(a))``, each
        evaluated independently from the current state.

        The structure mirrors :meth:`trial_moves`, with both touched
        modules losing one gate and gaining another: stage 1 applies the
        two moves' deltas in the sequential per-move order (so every
        float operation matches ``trial_cost`` byte for byte), stage 2
        groups candidates by (module_a, module_b) pair — all swaps of a
        pair share one retiming override column-set, the union of both
        memberships — and builds multi-gate override rows where the
        exchanged pair's entries carry the *other* side's sensor
        parameters, retimed in one
        :meth:`IncrementalTiming.retime_batch` stacked sweep.  The state
        is never mutated.  Candidates out of a 1-gate module are
        rejected (the first move of the exchange would delete it —
        sequential scoring raises the same way).
        """
        gates_a = np.asarray(gates_a, dtype=np.int64)
        gates_b = np.asarray(gates_b, dtype=np.int64)
        count = len(gates_a)
        if len(gates_b) != count:
            raise PartitionError("trial_swaps needs equally many a- and b-gates")
        if count == 0:
            return np.empty(0, dtype=np.float64)
        obs.METRICS.inc("optimize.trial_swaps.calls")
        obs.METRICS.inc("optimize.trial_swaps.candidates", count)
        if self._journal is not None:
            raise PartitionError("trial_swaps not allowed inside an open trial")
        self._refresh()
        ctx = self.ctx
        partition = self.partition
        electricals = ctx.electricals
        num_slots = len(self._slot_module)

        slot_map = np.full(partition._next_id, -1, dtype=np.int64)
        for module, slot in self._slot_of.items():
            slot_map[module] = slot
        mod_a = partition._module_of[gates_a].astype(np.int64)
        mod_b = partition._module_of[gates_b].astype(np.int64)
        if (mod_a == mod_b).any():
            raise PartitionError("swap candidate within a single module")
        sizes = np.bincount(partition._module_of, minlength=int(partition._next_id))
        if (sizes[mod_a] == 1).any():
            raise PartitionError("swap candidate out of a 1-gate module")
        slot_a = slot_map[mod_a]
        slot_b = slot_map[mod_b]
        rows = np.arange(count)

        # --- stage 1: every non-delay statistic, fully vectorised, with
        # the two moves' deltas applied in sequential per-move order.
        leak_ga = electricals.leakage_na[gates_a]
        leak_gb = electricals.leakage_na[gates_b]
        rail_ga = electricals.rail_cap_ff[gates_a]
        rail_gb = electricals.rail_cap_ff[gates_b]
        peak_ga = electricals.peak_current_ma[gates_a]
        peak_gb = electricals.peak_current_ma[gates_b]
        a_leak = (self.leak_na[slot_a] - leak_ga) + leak_gb
        b_leak = (self.leak_na[slot_b] + leak_ga) - leak_gb
        a_rail = (self.rail_cap_ff[slot_a] - rail_ga) + rail_gb
        b_rail = (self.rail_cap_ff[slot_b] + rail_ga) - rail_gb

        gate_slot = slot_map[partition._module_of]
        unique_gates, inverse = np.unique(
            np.concatenate([gates_a, gates_b]), return_inverse=True
        )
        sums = ctx.separation.sums_by_group(unique_gates, gate_slot, num_slots)
        inv_a = inverse[:count]
        inv_b = inverse[count:]
        # The second move sees the first one's result: ``a`` is already
        # in B, so ``b``'s sums gain/lose the pair's own distance.
        d_ab = ctx.separation.matrix[gates_a, gates_b].astype(np.float64)
        a_sep = (self.sep_sum[slot_a] - sums[inv_a, slot_a]) + (
            sums[inv_b, slot_a] - d_ab
        )
        b_sep = (self.sep_sum[slot_b] + sums[inv_a, slot_b]) - (
            sums[inv_b, slot_b] + d_ab
        )

        times = ctx.times
        a_flat, a_counts = csr_gather(times.times_indptr, times.times_flat, gates_a)
        b_flat, b_counts = csr_gather(times.times_indptr, times.times_flat, gates_b)
        a_row_rep = np.repeat(rows, a_counts)
        b_row_rep = np.repeat(rows, b_counts)
        a_peak_rep = np.repeat(peak_ga, a_counts)
        b_peak_rep = np.repeat(peak_gb, b_counts)
        a_cur = self.current[slot_a].copy()
        b_cur = self.current[slot_b].copy()
        a_act = self.activity[slot_a].copy()
        b_act = self.activity[slot_b].copy()
        a_cur[a_row_rep, a_flat] -= a_peak_rep  # move 1: a leaves A ...
        b_cur[a_row_rep, a_flat] += a_peak_rep  # ... and joins B
        a_act[a_row_rep, a_flat] -= 1.0
        b_act[a_row_rep, a_flat] += 1.0
        b_cur[b_row_rep, b_flat] -= b_peak_rep  # move 2: b leaves B ...
        a_cur[b_row_rep, b_flat] += b_peak_rep  # ... and joins A
        b_act[b_row_rep, b_flat] -= 1.0
        a_act[b_row_rep, b_flat] += 1.0
        a_max = a_cur.max(axis=1)
        b_max = b_cur.max(axis=1)

        a_rs, a_area, a_cs, a_tau, _ = size_sensors(ctx.technology, a_max, a_rail)
        b_rs, b_area, b_cs, b_tau, _ = size_sensors(ctx.technology, b_max, b_rail)
        a_settle = settle_times_ns(a_max, a_tau, ctx.technology)
        b_settle = settle_times_ns(b_max, b_tau, ctx.technology)

        # Candidate-row matrices over all slots: base values with the two
        # touched columns replaced (swaps preserve sizes — nothing dies).
        def candidate_matrix(base, a_new, b_new):
            matrix = np.broadcast_to(base, (count, num_slots)).copy()
            matrix[rows, slot_a] = a_new
            matrix[rows, slot_b] = b_new
            return matrix

        total_area = candidate_matrix(self.sensor_area, a_area, b_area).sum(axis=1)
        total_sep = candidate_matrix(self.sep_sum, a_sep, b_sep).sum(axis=1)
        settle = candidate_matrix(self.settle_ns, a_settle, b_settle).max(axis=1)
        feasible, violation, _, _ = check_constraints_arrays(
            ctx.technology,
            candidate_matrix(self.leak_na, a_leak, b_leak),
            candidate_matrix(self.max_current_ma, a_max, b_max),
        )

        # --- stage 2: the delay term, batched per (module_a, module_b)
        # pair — one shared override column-set per pair.
        d_bic = np.empty(count, dtype=np.float64)
        if getattr(ctx.degradation, "broadcasts", False):
            arrival = self._arrival
            delays = self.delay_degraded
            nominal = electricals.delay_ns
            incremental = ctx.timing.incremental
            cg_ff = electricals.output_cap_ff
            rg_ohm = electricals.pulldown_res_ohm
            time_resolved = ctx.time_resolved_degradation
            if not time_resolved:
                n_a = a_act.max(axis=1)
                n_b = b_act.max(axis=1)

            def side_overrides(members, n_rows, rs_rows, cs_rows):
                delta = ctx.degradation.delta(
                    n_rows,
                    rs_rows[:, None],
                    cs_rows[:, None],
                    cg_ff[members][None, :],
                    rg_ohm[members][None, :],
                )
                return nominal[members][None, :] * (1.0 + delta)

            keys = mod_a * np.int64(partition._next_id) + mod_b
            order = np.argsort(keys, kind="stable")
            boundaries = np.nonzero(np.diff(keys[order]))[0] + 1
            groups = np.split(order, boundaries)
            # Same merged-stacking path as trial_moves: scattered pools
            # merge every pair group into one retime_batch call over the
            # union column set (base-delay entries are no-op overrides,
            # so the merge is bit-identical).
            merged_over = None
            if len(groups) * 8 > count:
                touched_modules = np.unique(np.concatenate([mod_a, mod_b]))
                all_cols = np.sort(
                    np.concatenate([self._members[int(m)] for m in touched_modules])
                )
                merged_over = np.empty((count, all_cols.size), dtype=np.float64)
                merged_over[:] = delays[all_cols][None, :]
            for group in groups:
                members_a = self._members[int(mod_a[group[0]])]
                members_b = self._members[int(mod_b[group[0]])]
                cols = np.concatenate([members_a, members_b])
                if merged_over is not None:
                    col_pos = np.searchsorted(all_cols, cols)
                n_s = members_a.size
                for lo in range(0, len(group), 192):
                    chunk = group[lo : lo + 192]
                    moved_a = gates_a[chunk]
                    moved_b = gates_b[chunk]
                    over = np.empty((chunk.size, cols.size), dtype=np.float64)
                    n_rows = (
                        _profile_max_rows(times, members_a, a_act[chunk])
                        if time_resolved
                        else n_a[chunk][:, None]
                    )
                    over[:, :n_s] = side_overrides(
                        members_a, n_rows, a_rs[chunk], a_cs[chunk]
                    )
                    n_rows = (
                        _profile_max_rows(times, members_b, b_act[chunk])
                        if time_resolved
                        else n_b[chunk][:, None]
                    )
                    over[:, n_s:] = side_overrides(
                        members_b, n_rows, b_rs[chunk], b_cs[chunk]
                    )
                    # The exchanged pair crosses sides: each moved
                    # gate's override carries the *other* module's
                    # sensor parameters — two overwritten entries per
                    # candidate row (multi-gate override columns).
                    n_moved = (
                        _profile_max_diag(times, moved_a, b_act[chunk])
                        if time_resolved
                        else n_b[chunk]
                    )
                    delta_moved = ctx.degradation.delta(
                        n_moved,
                        b_rs[chunk],
                        b_cs[chunk],
                        cg_ff[moved_a],
                        rg_ohm[moved_a],
                    )
                    over[
                        np.arange(chunk.size), np.searchsorted(members_a, moved_a)
                    ] = nominal[moved_a] * (1.0 + delta_moved)
                    n_moved = (
                        _profile_max_diag(times, moved_b, a_act[chunk])
                        if time_resolved
                        else n_a[chunk]
                    )
                    delta_moved = ctx.degradation.delta(
                        n_moved,
                        a_rs[chunk],
                        a_cs[chunk],
                        cg_ff[moved_b],
                        rg_ohm[moved_b],
                    )
                    over[
                        np.arange(chunk.size),
                        n_s + np.searchsorted(members_b, moved_b),
                    ] = nominal[moved_b] * (1.0 + delta_moved)
                    if merged_over is not None:
                        merged_over[chunk[:, None], col_pos[None, :]] = over
                    else:
                        d_bic[chunk] = incremental.retime_batch(
                            arrival, delays, cols, over
                        )
            if merged_over is not None:
                for lo in range(0, count, 192):
                    d_bic[lo : lo + 192] = incremental.retime_batch(
                        arrival, delays, all_cols, merged_over[lo : lo + 192]
                    )
        else:
            self._delay_swap_loop(
                d_bic,
                gates_a,
                gates_b,
                mod_a,
                mod_b,
                a_act,
                b_act,
                a_rs,
                a_cs,
                b_rs,
                b_cs,
            )

        d_nom = ctx.nominal_delay_ns
        weights = ctx.weights
        c1 = np.log1p(np.maximum(total_area, 0.0))
        c2 = (d_bic - d_nom) / d_nom
        c3 = np.log1p(np.maximum(total_sep, 0.0))
        c4 = (d_bic + settle - d_nom) / d_nom
        c5 = float(partition.num_modules)  # swaps never change K
        costs = (
            weights.area * c1
            + weights.delay * c2
            + weights.separation * c3
            + weights.test_time * c4
            + weights.modules * c5
        )
        return costs + np.where(feasible, 0.0, penalty * (1.0 + violation))

    def _delay_swap_loop(
        self,
        d_bic,
        gates_a,
        gates_b,
        mod_a,
        mod_b,
        a_act,
        b_act,
        a_rs,
        a_cs,
        b_rs,
        b_cs,
    ) -> None:
        """Sequential per-candidate swap delay term — the fallback for
        degradation models without broadcasting (mirror of
        :meth:`_delay_term_loop` with both memberships exchanged)."""
        ctx = self.ctx
        times = ctx.times
        electricals = ctx.electricals
        arrival = self._arrival
        delays = self.delay_degraded
        nominal = electricals.delay_ns
        incremental = ctx.timing.incremental
        for i in range(len(gates_a)):
            a = int(gates_a[i])
            b = int(gates_b[i])
            members_a = self._members[int(mod_a[i])]
            members_b = self._members[int(mod_b[i])]
            keep_a = members_a[members_a != a]
            new_a = np.insert(keep_a, np.searchsorted(keep_a, b), b)
            keep_b = members_b[members_b != b]
            new_b = np.insert(keep_b, np.searchsorted(keep_b, a), a)
            seeds: list[np.ndarray] = []
            saved: list[tuple[np.ndarray, np.ndarray]] = []
            for module_gates, act_row, rs_i, cs_i in (
                (new_a, a_act[i], a_rs[i], a_cs[i]),
                (new_b, b_act[i], b_rs[i], b_cs[i]),
            ):
                if ctx.time_resolved_degradation:
                    n = times.max_in_profile(module_gates, act_row)
                else:
                    n = float(act_row.max())
                delta = ctx.degradation.delta(
                    n,
                    rs_i,
                    cs_i,
                    electricals.output_cap_ff[module_gates],
                    electricals.pulldown_res_ohm[module_gates],
                )
                fresh = nominal[module_gates] * (1.0 + delta)
                diff = fresh != delays[module_gates]
                if diff.any():
                    idx = module_gates[diff]
                    saved.append((idx, delays[idx].copy()))
                    delays[idx] = fresh[diff]
                    seeds.append(idx)
            if seeds:
                touched, old = incremental.update(
                    arrival, delays, np.concatenate(seeds)
                )
                d_bic[i] = arrival.max()
                if touched.size:
                    arrival[touched] = old
                for idx, old_delays in saved:
                    delays[idx] = old_delays
            else:
                d_bic[i] = self._dbic

    # ------------------------------------------------------ population kernel
    @staticmethod
    def trial_blocks(
        rows: Sequence[tuple["EvaluationState", Sequence[tuple[int, int]]]],
        penalty: float,
    ) -> BlockScores:
        """Population kernel: the penalised cost of every ``(parent,
        moves)`` row, bit-identical to ``parent.trial_cost(moves)``
        followed by ``rollback()``, plus each row's state on demand.

        Built for one ES generation: rows from several parents of one
        evaluator, each moving distinct gates out of a single source
        module into one or more targets (a row may empty its source, or
        move nothing).  Each parent is refreshed once, outside any
        trial, and otherwise left untouched — no move is applied, so its
        partition keeps its version and cached boundary sets.  The rows
        are scored and adopted by :class:`_BlockRows`; a degradation
        model without ``broadcasts`` takes the generic per-row loop
        instead (see the module docstring).
        """
        count = len(rows)
        if count == 0:
            return BlockScores(np.empty(0, dtype=np.float64), rows)
        obs.METRICS.inc("optimize.trial_blocks.calls")
        obs.METRICS.inc("optimize.trial_blocks.candidates", count)
        ctx = rows[0][0].ctx
        if not getattr(ctx.degradation, "broadcasts", False):
            return _StateProtocol.trial_blocks(rows, penalty)
        by_parent: dict[int, tuple[EvaluationState, list[int]]] = {}
        for i, (state, _) in enumerate(rows):
            by_parent.setdefault(id(state), (state, []))[1].append(i)
        for state, _ in by_parent.values():
            if state.ctx is not ctx:
                raise PartitionError("trial_blocks rows must share one evaluator")
            if state._journal is not None:
                raise PartitionError("trial_blocks not allowed inside an open trial")
            state._refresh()
        return _BlockRows(rows, list(by_parent.values()), penalty)

    # ------------------------------------------------------------- validation
    def consistency_check(self, atol: float = 1e-6) -> None:
        """Compare every slot against a from-scratch rebuild, and the
        maintained arrival vector against a full longest-path pass."""
        self.partition.check_invariants()
        ctx = self.ctx
        if set(self._slot_of) != set(self.partition.module_ids):
            raise PartitionError(
                f"slots {sorted(self._slot_of)} != modules "
                f"{sorted(self.partition.module_ids)}"
            )
        if set(self._members) != set(self._slot_of):
            raise PartitionError(
                f"membership keys {sorted(self._members)} != modules "
                f"{sorted(self._slot_of)}"
            )
        for module in self.partition.module_ids:
            slot = self._slot_of[module]
            if self._slot_module[slot] != module:
                raise PartitionError(f"slot table disagrees for module {module}")
            gates = self.partition.gates_array(module)
            if not np.array_equal(self._members[module], gates):
                raise PartitionError(f"module {module}: membership array drifted")
            current = ctx.times.profile(gates, ctx.electricals.peak_current_ma)
            activity = ctx.times.profile(gates, ctx.ones)
            if not np.allclose(self.current[slot], current, atol=atol):
                raise PartitionError(f"module {module}: current profile drifted")
            if not np.allclose(self.activity[slot], activity, atol=atol):
                raise PartitionError(f"module {module}: activity profile drifted")
            expected = {
                "leak_na": float(ctx.electricals.leakage_na[gates].sum()),
                "rail_cap_ff": float(ctx.electricals.rail_cap_ff[gates].sum()),
                "sep_sum": ctx.separation.module_sum(gates),
                "max_current_ma": float(current.max()),
            }
            for field, fresh in expected.items():
                cached = float(getattr(self, field)[slot])
                if abs(cached - fresh) > atol:
                    raise PartitionError(
                        f"module {module}: {field} drifted ({cached} vs {fresh})"
                    )
        dead = np.setdiff1d(
            np.arange(len(self._slot_module)), list(self._slot_of.values())
        )
        if dead.size:
            if (self._slot_module[dead] != -1).any():
                raise PartitionError("freed slot still maps to a module")
            for array in (self.leak_na, self.sep_sum, self.sensor_area, self.settle_ns):
                if array[dead].any():
                    raise PartitionError("freed slot holds non-zero statistics")
        if self._arrival is not None:
            full = ctx.timing.arrival_times(self.delay_degraded)
            if not np.array_equal(self._arrival, full):
                raise PartitionError("maintained arrival times drifted")
            if self._dbic != (float(full.max()) if full.size else 0.0):
                raise PartitionError("maintained critical path drifted")


class _BlockRows(BlockScores):
    """The rows of :meth:`EvaluationState.trial_blocks`, scored in one
    stage-1 pass over every parent's rows and one stacked retime, and
    adopted as states.

    Rows are grouped by parent (``costs`` and :meth:`state` keep the
    caller's row numbers), and row ``j`` of parent ``p`` owns ``S_p``
    consecutive *cells* of every slot vector and profile stack, one per
    parent slot.
    Leakage, rail and profile deltas are scattered with
    ``subtract.at``/``add.at`` in move order, the float sequence of
    :meth:`EvaluationState.move_gate` applied gate by gate; touched cells
    are sized in one call.

    Separation values are integers held in float64, far below 2**53, and
    the matrix is symmetric with a zero diagonal, so a row's total
    changes by one exact integer whatever order its moves are applied
    in: ``Σ_t M[moved_t, T_t] − M[moved, rest] − cross``, where ``rest``
    is the source minus the moved gates and ``cross`` sums the pairs of
    moved gates bound for different targets.  Every touched module's
    gates are re-degraded in one ``degradation.delta`` call with
    per-element sensor parameters (the model broadcasts elementwise, so
    each element sees the IEEE operations of
    :meth:`EvaluationState._refresh`'s per-module call).
    Per-row sums, maxima and ``Γ`` reduce over each parent's own
    ``(rows, S_p)`` view: numpy's pairwise sum groups by length, so a
    common padded width would change the float results.  Stage 2 re-times
    every row's delay vector in one
    :meth:`IncrementalTiming.retime_batch` sweep, and the cost terms are
    the scalar expressions of :meth:`EvaluationState.cost_breakdown` and
    :meth:`EvaluationState.penalized_cost`.
    """

    def __init__(self, rows, groups, penalty: float):
        parents = [state for state, _ in groups]
        order = [i for _, idx in groups for i in idx]
        blocks = [rows[i][1] for i in order]
        count = len(blocks)
        ctx = parents[0].ctx
        electricals = ctx.electricals
        times = ctx.times
        num_gates = electricals.delay_ns.size
        depth_t = parents[0].current.shape[1]
        self._parents = parents
        self._blocks = blocks
        self._position = np.empty(count, dtype=np.int64)
        self._position[order] = np.arange(count)

        row_bounds = np.cumsum([0] + [len(idx) for _, idx in groups])
        row_parent = np.repeat(np.arange(len(groups)), np.diff(row_bounds))
        num_slots = np.array([len(p._slot_module) for p in parents], dtype=np.int64)
        row_slots = num_slots[row_parent]
        row_off = np.cumsum(row_slots) - row_slots
        parent_off = np.cumsum(num_slots) - num_slots
        # Each cell's position in the parents' slot vectors laid end to end.
        cell_src = np.arange(int(row_slots.sum()), dtype=np.int64) + np.repeat(
            parent_off[row_parent] - row_off, row_slots
        )

        lengths = np.fromiter(map(len, blocks), dtype=np.int64, count=count)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        moves = np.fromiter(
            chain.from_iterable(chain.from_iterable(blocks)),
            dtype=np.int64,
            count=2 * int(ends[-1]),
        ).reshape(-1, 2)
        gates = moves[:, 0]
        targets = moves[:, 1]
        move_row = np.repeat(np.arange(count, dtype=np.int64), lengths)
        sources = np.empty_like(gates)
        src_slot = np.empty_like(gates)
        tgt_slot = np.empty_like(gates)
        move_bounds = np.concatenate([[0], ends])[row_bounds]
        for p, parent in enumerate(parents):
            lo, hi = int(move_bounds[p]), int(move_bounds[p + 1])
            if lo == hi:
                continue
            partition = parent.partition
            slot_map = np.full(partition._next_id, -1, dtype=np.int64)
            slot_map[list(parent._slot_of)] = list(parent._slot_of.values())
            into = targets[lo:hi]
            if ((into < 0) | (into >= partition._next_id)).any() or (
                slot_map[into] < 0
            ).any():
                raise PartitionError("trial_blocks move into a missing module")
            out_of = partition._module_of[gates[lo:hi]].astype(np.int64)
            if (out_of == into).any():
                raise PartitionError("trial_blocks move into the gate's own module")
            sources[lo:hi] = out_of
            src_slot[lo:hi] = slot_map[out_of]
            tgt_slot[lo:hi] = slot_map[into]
        moving = lengths > 0
        row_source = np.full(count, -1, dtype=np.int64)
        row_source[moving] = sources[starts[moving]]
        if (sources != row_source[move_row]).any():
            raise PartitionError("trial_blocks rows must leave one source module")
        keys = move_row * num_gates + gates
        if np.unique(keys).size != keys.size:
            raise PartitionError("trial_blocks row moves a gate twice")
        src_cell = row_off[move_row] + src_slot
        tgt_cell = row_off[move_row] + tgt_slot
        multi = np.zeros(count, dtype=bool)
        multi[move_row[targets != targets[starts[move_row]]]] = True

        # Separation: one exact integer delta per row, from one gather of
        # the moved gates' matrix rows.  The members of every touched
        # module after the move are collected, per parent, for
        # re-degradation.
        matrix = ctx.separation.matrix
        flag = np.zeros(num_gates, dtype=bool)
        dying = np.zeros(count, dtype=bool)
        sep_delta = np.zeros(count, dtype=np.int64)
        self._pieces: dict[int, tuple] = {}
        member_parts: list[list[np.ndarray]] = [[] for _ in parents]
        part_cells: list[list[int]] = [[] for _ in parents]
        for r in np.flatnonzero(moving).tolist():
            lo, hi = int(starts[r]), int(ends[r])
            p = int(row_parent[r])
            parent = parents[p]
            moved = gates[lo:hi]
            members = parent._members[int(row_source[r])]
            near = matrix[moved]
            if moved.size == members.size:
                dying[r] = True
                rest = None
                loss = 0
            else:
                flag[moved] = True
                rest = members[~flag[members]]
                flag[moved] = False
                loss = int(near[:, rest].sum(dtype=np.int64))
                member_parts[p].append(rest)
                part_cells[p].append(int(src_cell[lo]))
            into = targets[lo:hi]
            if multi[r]:
                same = into[:, None] == into[None, :]
                cross = int(near[:, moved][~same].sum(dtype=np.int64)) // 2
                split = [(t, into == t) for t in sorted(set(into.tolist()))]
            else:
                cross = 0
                split = [(int(into[0]), None)]
            gains = []
            for target, mask in split:
                tgt_members = parent._members[target]
                rows_t = near if mask is None else near[mask]
                gains.append(int(rows_t[:, tgt_members].sum(dtype=np.int64)))
                member_parts[p].append(tgt_members)
                part_cells[p].append(int(row_off[r]) + parent._slot_of[target])
            sep_delta[r] = sum(gains) - loss - cross
            self._pieces[r] = (rest, loss, split, gains)
        dead = np.flatnonzero(dying)
        dead_cell = row_off[dead] + src_slot[starts[dead]]

        # Separation is scored as row totals and rebuilt per slot on
        # adoption; every other slot array is stacked per row.
        self._slots = slots = {
            name: np.concatenate([getattr(p, name) for p in parents])[cell_src]
            for name in EvaluationState.SLOT_ARRAYS
            if name != "sep_sum"
        }
        leak, rail, max_current = (
            slots[name] for name in ("leak_na", "rail_cap_ff", "max_current_ma")
        )
        current, activity, settle = (
            slots[name] for name in ("current", "activity", "settle_ns")
        )
        rs, area, cs, tau, clamped = (
            slots["sensor_" + name] for name in ("rs", "area", "cs", "tau", "clamped")
        )
        for flat, per_gate in (
            (leak, electricals.leakage_na[gates]),
            (rail, electricals.rail_cap_ff[gates]),
        ):
            np.subtract.at(flat, src_cell, per_gate)
            np.add.at(flat, tgt_cell, per_gate)
        time_slots, time_counts = csr_gather(
            times.times_indptr, times.times_flat, gates
        )
        peak_rep = np.repeat(electricals.peak_current_ma[gates], time_counts)
        src_time = np.repeat(src_cell, time_counts) * depth_t + time_slots
        tgt_time = np.repeat(tgt_cell, time_counts) * depth_t + time_slots
        np.subtract.at(current.reshape(-1), src_time, peak_rep)
        np.add.at(current.reshape(-1), tgt_time, peak_rep)
        np.subtract.at(activity.reshape(-1), src_time, 1.0)
        np.add.at(activity.reshape(-1), tgt_time, 1.0)

        # An emptied source frees its slot: exact zeros, as _release_slot.
        for array in slots.values():
            array[dead_cell] = 0
        cells = np.setdiff1d(np.concatenate([src_cell, tgt_cell]), dead_cell)
        max_current[cells] = current[cells].max(axis=1)
        rs[cells], area[cells], cs[cells], tau[cells], clamped[cells] = size_sensors(
            ctx.technology, max_current[cells], rail[cells]
        )
        settle[cells] = settle_times_ns(max_current[cells], tau[cells], ctx.technology)

        # Re-degrade every touched module's gates, one call per parent's
        # rows, into the parent's delay rows.
        delays = np.empty((count, num_gates), dtype=np.float64)
        cell_row = np.repeat(np.arange(count, dtype=np.int64), row_slots)
        time_resolved = ctx.time_resolved_degradation
        cell_n = None if time_resolved else activity.max(axis=1)
        for p, parent in enumerate(parents):
            delays[row_bounds[p] : row_bounds[p + 1]] = parent.delay_degraded
            lo, hi = int(move_bounds[p]), int(move_bounds[p + 1])
            member_gates = np.concatenate(member_parts[p] + [gates[lo:hi]])
            if not member_gates.size:
                continue
            sizes = [part.size for part in member_parts[p]]
            member_cell = np.concatenate(
                [np.repeat(part_cells[p], sizes), tgt_cell[lo:hi]]
            )
            if time_resolved:
                member_slots, counts = csr_gather(
                    times.times_indptr, times.times_flat, member_gates
                )
                flat = np.repeat(member_cell, counts) * depth_t + member_slots
                n = np.maximum.reduceat(
                    activity.reshape(-1)[flat], np.cumsum(counts) - counts
                )
            else:
                n = cell_n[member_cell]
            delta = ctx.degradation.delta(
                n,
                rs[member_cell],
                cs[member_cell],
                electricals.output_cap_ff[member_gates],
                electricals.pulldown_res_ohm[member_gates],
            )
            delays.reshape(-1)[cell_row[member_cell] * num_gates + member_gates] = (
                electricals.delay_ns[member_gates] * (1.0 + delta)
            )
        self._delays = delays

        area_sum = np.empty(count, dtype=np.float64)
        settle_max = np.empty(count, dtype=np.float64)
        feasible = np.empty(count, dtype=bool)
        violation = np.empty(count, dtype=np.float64)
        for p in range(len(parents)):
            r0, r1 = int(row_bounds[p]), int(row_bounds[p + 1])
            c0 = int(row_off[r0])
            shape = (r1 - r0, int(num_slots[p]))
            c1 = c0 + shape[0] * shape[1]
            area_sum[r0:r1] = area[c0:c1].reshape(shape).sum(axis=1)
            settle_max[r0:r1] = settle[c0:c1].reshape(shape).max(axis=1)
            feasible[r0:r1], violation[r0:r1], _, _ = check_constraints_arrays(
                ctx.technology,
                leak[c0:c1].reshape(shape),
                max_current[c0:c1].reshape(shape),
            )
        parent_sep = np.array([int(p.sep_sum.sum()) for p in parents], dtype=np.int64)
        sep_total = (parent_sep[row_parent] + sep_delta).astype(np.float64)
        num_modules = np.array([p.partition.num_modules for p in parents])
        modules = num_modules[row_parent] - dying
        self._row_parent = row_parent
        self._row_off = row_off
        self._row_source = row_source
        self._dying = dying

        # Stage 2: every row's delay vector re-timed in one stacked sweep,
        # whose arrivals the adopted rows keep.
        base = parents[0]
        self._d_bic, self._arrivals = ctx.timing.incremental.retime_batch(
            base._arrival,
            base.delay_degraded,
            np.arange(num_gates, dtype=np.int64),
            delays,
            return_arrivals=True,
        )
        d_nom = ctx.nominal_delay_ns
        costs = np.empty(count, dtype=np.float64)
        for i, d, a, s, t, ok, v, k in zip(
            order,
            self._d_bic.tolist(),
            area_sum.tolist(),
            sep_total.tolist(),
            settle_max.tolist(),
            feasible.tolist(),
            violation.tolist(),
            modules.tolist(),
        ):
            cost = CostBreakdown(
                c1_area=log_guarded(a),
                c2_delay=(d - d_nom) / d_nom,
                c3_separation=log_guarded(s),
                c4_test_time=(d + t - d_nom) / d_nom,
                c5_modules=float(k),
                weights=ctx.weights,
            ).total
            costs[i] = cost if ok else cost + penalty * (1.0 + v)
        super().__init__(costs, rows)

    def state(self, i: int) -> EvaluationState:
        """Row ``i``'s state, adopted from the scored row (the parents
        must be unchanged since the call).

        The parent is copied and the moves are applied to the copy's
        partition alone, one :meth:`Partition.move_gates` call per
        same-target run; statistics, sensor sizes and degraded delays
        come from the row, and so does the arrival vector the stacked
        sweep left (unset when no row changed a delay, and the first
        refresh is then one full sweep).  Nothing is dirty, so a refresh
        re-sizes, re-degrades and diffs nothing.  The partition's
        membership cache starts from the row's sorted member arrays.
        Equal, array for array, to the parent's ``copy()`` plus a
        ``move_gates`` replay and ``_refresh()``; the replay's partition
        version differs, as it is bumped once per moved gate.
        """
        j = int(self._position[i])
        parent = self._parents[int(self._row_parent[j])]
        moves = self._blocks[j]
        state = parent.copy()
        for target, gates in _target_runs(moves):
            state.partition.move_gates(gates, target)
        state._move_log.extend((int(gate), int(target)) for gate, target in moves)
        state.delay_degraded = self._delays[j].copy()
        state._arrival = (
            None
            if self._arrivals is None
            else parent.ctx.timing.incremental.stacked_arrival(self._arrivals, j)
        )
        state._dbic = float(self._d_bic[j])
        if moves:
            self._adopt_row(state, parent, j, moves)
        # Both sides replace member arrays and never write into them.
        partition = state.partition
        partition._members = dict(state._members)
        partition._members_version = partition.version
        return state

    def _adopt_row(self, state, parent, j: int, moves) -> None:
        """Row ``j``'s slot arrays and member arrays, into ``state``."""
        off = int(self._row_off[j])
        for name, stack in self._slots.items():
            setattr(state, name, stack[off : off + len(parent._slot_module)].copy())

        # Per-slot separation from the row's integer pieces: the source
        # loses ``M[moved, rest] + pairs(moved)``, target ``t`` gains
        # ``M[moved_t, T_t] + pairs(moved_t)``.
        rest, loss, split, gains = self._pieces[j]
        moved = np.array([gate for gate, _ in moves], dtype=np.int64)
        within = parent.ctx.separation.matrix[np.ix_(moved, moved)]
        for (target, mask), gain in zip(split, gains):
            own = within if mask is None else within[mask][:, mask]
            state.sep_sum[parent._slot_of[target]] += float(
                gain + int(own.sum(dtype=np.int64)) // 2
            )
            state._members[target] = np.sort(
                np.concatenate(
                    [parent._members[target], moved if mask is None else moved[mask]]
                )
            )
        source = int(self._row_source[j])
        if self._dying[j]:
            state._release_slot(source, parent._slot_of[source])
        else:
            state.sep_sum[parent._slot_of[source]] -= float(
                loss + int(within.sum(dtype=np.int64)) // 2
            )
            state._members[source] = rest
