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
never clone a state to score a candidate.  Batched scoring has one
kernel, :meth:`EvaluationState.trial_blocks`: it scores ``(state,
moves)`` rows from one or several parent states in one statistics pass
and one stacked retiming sweep, and hands each scored row back as a
state without replaying its moves.  The evolution strategy scores a
whole generation through it; :meth:`_StateProtocol.trial_moves` (one
move per row: greedy, annealing) and :meth:`_StateProtocol.trial_swaps`
(a two-move exchange per row: KL) are thin adapters over it.

The kernel calls the degradation model's ``delta`` with arrays of
sensor parameters, one row per candidate.  A model declares that safe
by setting ``broadcasts = True``, as both shipped models do.  For any
other model ``trial_blocks`` is the generic per-row trial loop of
:class:`_StateProtocol`.
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
from repro.partition.partition import Partition, check_gate_ids
from repro.sensors.bic import BICSensor, size_sensors
from repro.sensors.sensing import settle_times_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.partition.evaluator import PartitionEvaluator

__all__ = [
    "BlockScores",
    "ModuleStats",
    "EvaluationState",
]


#: Rows per ``trial_blocks`` call of the ``trial_moves``/``trial_swaps``
#: adapters: bounds the ``(rows, gates)`` delay stack and the stacked
#: sweep's scratch.
_CHUNK_ROWS = 192

#: A parent with at least this many rows in one call — a KL pool, an
#: annealing block, a greedy chunk, but no ES parent, which has λ + χ ≤ 6
#: — takes the batched forms: its rows of at most ``_SHORT_ROW`` moves
#: sum their separation change in one gathered pass per parent slot, and
#: its touched modules are re-degraded by one broadcast call per slot.
#: Other rows take a per-row loop, which never forms a one-source,
#: one-target row's ``k × k`` corner, and one elementwise call per parent.
_BATCH_ROWS = 8
_SHORT_ROW = 2

_NO_GATES = np.empty(0, dtype=np.int64)


def _scatter(flat, lose, gain, values, mixed: bool) -> None:
    """Subtract ``values[i]`` at ``lose[i]`` and add it at ``gain[i]``,
    in the order of ``i`` at every position when ``mixed`` (``x - v`` is
    ``x + (-v)`` in IEEE arithmetic), else all subtractions first."""
    if mixed:
        at = np.stack([lose, gain], axis=1).reshape(-1)
        np.add.at(flat, at, np.stack([-values, values], axis=1).reshape(-1))
    else:
        np.subtract.at(flat, lose, values)
        np.add.at(flat, gain, values)


def _sum(block: np.ndarray) -> int:
    """The exact sum of a block of the ``uint8`` separation matrix."""
    return int(block.sum(dtype=np.int64))


def _groups(keys: np.ndarray) -> list[np.ndarray]:
    """The positions of ``keys``, grouped by key value in ascending
    order."""
    order = np.argsort(keys, kind="stable")
    if not keys.size:
        return []
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def _profile_max_rows(times, gate_ids, act_rows):
    """Per (candidate row, gate): the max of that candidate's activity
    profile over the gate's own transition times — the batched form of
    :meth:`TransitionTimes.max_in_profile` (segments are non-empty)."""
    slots, counts = csr_gather(times.times_indptr, times.times_flat, gate_ids)
    starts = np.cumsum(counts) - counts
    return np.maximum.reduceat(act_rows[:, slots], starts, axis=1)


def _profile_max_diag(times, gates, act_flat, cells, depth):
    """Per ``i``: the max of cell ``cells[i]``'s activity profile (rows of
    ``depth`` in ``act_flat``) over gate ``gates[i]``'s own transition
    times."""
    slots, counts = csr_gather(times.times_indptr, times.times_flat, gates)
    flat = np.repeat(cells * depth, counts) + slots
    return np.maximum.reduceat(act_flat[flat], np.cumsum(counts) - counts)


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
        """Penalised cost of each single-gate candidate move ``gates[i]
        -> targets[i]``, evaluated independently from this state: one
        one-move row of :meth:`trial_blocks` per candidate."""
        if len(gates) != len(targets):
            raise PartitionError("trial_moves needs equally many gates and targets")
        rows = [[(gate, target)] for gate, target in zip(gates, targets)]
        return self._score_rows("trial_moves", rows, penalty)

    def trial_swaps(
        self, gates_a: Sequence[int], gates_b: Sequence[int], penalty: float
    ) -> np.ndarray:
        """Penalised cost of each two-gate *swap* candidate — gate ``a``
        moves into ``b``'s module, then ``b`` into ``a``'s — evaluated
        independently from this state as two-move rows of
        :meth:`trial_blocks`.  ``a``'s module must hold at least two
        gates, or the first move of the exchange would delete it."""
        if len(gates_a) != len(gates_b):
            raise PartitionError("trial_swaps needs equally many a- and b-gates")
        partition = self.partition
        num_gates = len(partition._module_of)
        modules_a = partition.modules_of(check_gate_ids(gates_a, num_gates)).tolist()
        modules_b = partition.modules_of(check_gate_ids(gates_b, num_gates)).tolist()
        if any(a == b for a, b in zip(modules_a, modules_b)):
            raise PartitionError("swap candidate within a single module")
        if any(partition.module_size(a) == 1 for a in modules_a):
            raise PartitionError("swap candidate out of a 1-gate module")
        rows = [
            [(a, module_b), (b, module_a)]
            for a, b, module_a, module_b in zip(gates_a, gates_b, modules_a, modules_b)
        ]
        return self._score_rows("trial_swaps", rows, penalty)

    def _score_rows(self, name: str, rows: list, penalty: float) -> np.ndarray:
        """Costs of ``rows`` of moves from this state, through
        :meth:`trial_blocks` in chunks of ``_CHUNK_ROWS``, counted as
        ``optimize.<name>.calls`` and ``.candidates``."""
        costs = np.empty(len(rows), dtype=np.float64)
        if rows:
            obs.METRICS.inc(f"optimize.{name}.calls")
            obs.METRICS.inc(f"optimize.{name}.candidates", len(rows))
        for lo in range(0, len(rows), _CHUNK_ROWS):
            chunk = [(self, moves) for moves in rows[lo : lo + _CHUNK_ROWS]]
            costs[lo : lo + len(chunk)] = self.trial_blocks(chunk, penalty).costs
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
        gate = partition.gate_id(gate)
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

    # Their own entries, so that perfbench (``perfbench/layers.py``) can
    # wrap the dense state's methods on this class.
    move_gates = _StateProtocol.move_gates
    trial_moves = _StateProtocol.trial_moves
    trial_swaps = _StateProtocol.trial_swaps

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

    # ------------------------------------------------------ population kernel
    @staticmethod
    def trial_blocks(
        rows: Sequence[tuple["EvaluationState", Sequence[tuple[int, int]]]],
        penalty: float,
    ) -> BlockScores:
        """Population kernel: the penalised cost of every ``(parent,
        moves)`` row, bit-identical to ``parent.trial_cost(moves)``
        followed by ``rollback()``, plus each row's state on demand.

        Rows come from one or several parents of one evaluator.  A row
        moves distinct gates, in order, out of any modules into others:
        an ES mutation or Monte-Carlo block, a KL swap, a single greedy
        or annealing move.  It may empty modules, but not move into one
        it emptied, and it may move nothing.  Each parent is refreshed
        once, outside any trial, and otherwise left untouched — no move
        is applied, so its partition keeps its version and cached
        boundary sets.  The rows are scored and adopted by
        :class:`_BlockRows`; a degradation model without ``broadcasts``
        takes the generic per-row loop instead (see the module
        docstring).
        """
        count = len(rows)
        if count == 0:
            return BlockScores(np.empty(0, dtype=np.float64), rows)
        obs.METRICS.inc("optimize.trial_blocks.calls")
        obs.METRICS.inc("optimize.trial_blocks.candidates", count)
        ctx = rows[0][0].ctx
        by_parent: dict[int, tuple[EvaluationState, list[int]]] = {}
        for i, (state, _) in enumerate(rows):
            by_parent.setdefault(id(state), (state, []))[1].append(i)
        for state, _ in by_parent.values():
            if state.ctx is not ctx:
                raise PartitionError("trial_blocks rows must share one evaluator")
            if state._journal is not None:
                raise PartitionError("trial_blocks not allowed inside an open trial")
        if not getattr(ctx.degradation, "broadcasts", False):
            return _StateProtocol.trial_blocks(rows, penalty)
        for state, _ in by_parent.values():
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
    parent slot.  Leakage, rail and profile deltas are scattered in move
    order, the float sequence of :meth:`EvaluationState.move_gate`
    applied gate by gate: a call whose rows each leave one module
    subtracts every move and then adds every move, and a call with a row
    that leaves several (a KL swap) interleaves each move's source ``-v``
    and target ``+v`` in one ``add.at``, as ``x - v`` is ``x + (-v)`` in
    IEEE arithmetic.  A row empties a module when all its gates leave
    before any enters; touched cells are sized in one call.

    Separation values are integers held in float64, far below 2**53, and
    the matrix is symmetric with a zero diagonal, so a row's total
    changes by one exact integer whatever order its moves are applied
    in.  With ``X`` the moved gates, ``s_g`` and ``t_g`` a gate's source
    and target, and ``R[g, m]`` the sum of ``M[g, ·]`` over module
    ``m``'s members before the row::

        Δ = Σ_g (R[g, t_g] − R[g, s_g]) + Σ_{g,h ⊂ X} M[g, h]·([t_g = t_h]
              + [s_g = s_h] − [s_h = t_g] − [s_g = t_h])

    A batched parent's (see ``_BATCH_ROWS``) rows of at most
    ``_SHORT_ROW`` moves are summed this way in one pass.  Other rows
    take a per-row loop over each touched module's members outside
    ``X``, ``rest_m``: ``Σ_m M(In_m, rest_m) − M(Out_m, rest_m)`` plus
    the pairs' ``[t_g = t_h] − [s_g = s_h]``, which cancel for a row
    with one source and one target, so that a Monte-Carlo block never
    forms its ``k × k`` corner.

    Every touched module's members before the row are re-degraded from
    its cell's sensor — for a batched parent one broadcast
    ``degradation.delta`` call over (rows, members) per slot, else one
    elementwise call per parent — and then every moved gate from its
    target cell's, overwriting its source-side entry.  The model is
    elementwise, so each element sees the IEEE operations of
    :meth:`EvaluationState._refresh`'s per-module call.

    Per-row sums, maxima and ``Γ`` reduce over each parent's own
    ``(rows, S_p)`` view: numpy's pairwise sum groups by length, so a
    common padded width would change the float results.
    Stage 2 re-times every row's delay vector in one
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
        num_cells = int(row_slots.sum())
        cell_row = np.repeat(np.arange(count, dtype=np.int64), row_slots)
        # Each cell's *parent slot*: its position in the parents' slot
        # vectors laid end to end, whose members are laid out likewise.
        shift = parent_off[row_parent] - row_off
        cell_src = np.arange(num_cells, dtype=np.int64) + shift[cell_row]
        slot_members = [
            parent._members[module] if module >= 0 else _NO_GATES
            for parent in parents
            for module in parent._slot_module.tolist()
        ]
        slot_size = np.fromiter(map(len, slot_members), dtype=np.int64)

        lengths = np.fromiter(map(len, blocks), dtype=np.int64, count=count)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        num_moves = int(ends[-1])
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(blocks)),
            dtype=np.float64,
            count=2 * num_moves,
        )
        gates = check_gate_ids(flat[0::2], num_gates)
        targets = flat[1::2]
        if ((np.trunc(targets) != targets) | (targets < 0) | (targets >= 2**31)).any():
            raise PartitionError("trial_blocks move into a missing module")
        targets = targets.astype(np.int64)
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
            if (into >= partition._next_id).any() or (slot_map[into] < 0).any():
                raise PartitionError("trial_blocks move into a missing module")
            out_of = partition._module_of[gates[lo:hi]].astype(np.int64)
            if (out_of == into).any():
                raise PartitionError("trial_blocks move into the gate's own module")
            sources[lo:hi] = out_of
            src_slot[lo:hi] = slot_map[out_of]
            tgt_slot[lo:hi] = slot_map[into]
        keys = move_row * num_gates + gates
        if np.unique(keys).size != keys.size:
            raise PartitionError("trial_blocks row moves a gate twice")
        src_cell = row_off[move_row] + src_slot
        tgt_cell = row_off[move_row] + tgt_slot

        # A module all of whose gates leave is emptied unless a gate
        # entered it before the last one left.  A later move into it
        # finds no module, as in trial_cost.
        out_count = np.bincount(src_cell, minlength=num_cells)
        dead_cell = np.flatnonzero(
            (out_count == slot_size[cell_src]) & (out_count > 0)
        )
        if dead_cell.size:
            step = np.arange(num_moves)
            first_in = np.full(num_cells, num_moves)
            np.minimum.at(first_in, tgt_cell, step)
            last_out = np.zeros(num_cells, dtype=np.int64)
            np.maximum.at(last_out, src_cell, step)
            entered = first_in[dead_cell]
            late = dead_cell[(entered > last_out[dead_cell]) & (entered < num_moves)]
            if late.size:
                r = int(cell_row[late[0]])
                module = parents[int(row_parent[r])]._slot_module[late[0] - row_off[r]]
                raise PartitionError(
                    f"no module {module}: a trial_blocks row moves into it "
                    "after emptying it"
                )
            dead_cell = dead_cell[entered == num_moves]
        dying = np.bincount(cell_row[dead_cell], minlength=count)

        # Separation: one exact integer delta per row.  Short rows: one
        # R[gate, module] query per move end, gathered per parent slot.
        matrix = ctx.separation.matrix
        sep_delta = np.zeros(count, dtype=np.int64)
        batched = np.diff(row_bounds) >= _BATCH_ROWS
        short = (lengths <= _SHORT_ROW) & batched[row_parent] & (lengths > 0)
        sm = np.flatnonzero(short[move_row])
        # R[g, t_g] and R[g, s_g] of every short row's moves, kept for
        # adoption.
        self._reach = reach = np.zeros((num_moves, 2), dtype=np.int64)
        if sm.size:
            base = parent_off[row_parent[move_row[sm]]]
            query = np.concatenate([base + tgt_slot[sm], base + src_slot[sm]])
            asked = np.concatenate([gates[sm], gates[sm]])
            sums = np.empty(query.size, dtype=np.int64)
            for group in _groups(query):
                members = slot_members[int(query[group[0]])]
                near = matrix[asked[group]][:, members]
                sums[group] = near.sum(axis=1, dtype=np.int64)
            reach[sm] = sums.reshape(2, -1).T
            np.add.at(sep_delta, move_row[sm], reach[sm, 0] - reach[sm, 1])
        paired = np.flatnonzero(short & (lengths > 1)) if sm.size else sm
        if paired.size:
            # Ordered pairs (i, j) of each such row's moves; i == j adds
            # M's zero diagonal.
            k = lengths[paired]
            span = np.repeat(k, k * k)
            local = np.arange(span.size) - np.repeat(np.cumsum(k * k) - k * k, k * k)
            first = np.repeat(starts[paired], k * k)
            i, j = first + local // span, first + local % span
            coef = (
                (targets[i] == targets[j]).astype(np.int64)
                + (sources[i] == sources[j])
                - (sources[j] == targets[i])
                - (sources[i] == targets[j])
            )
            twice = np.zeros(count, dtype=np.int64)
            np.add.at(twice, move_row[i], matrix[gates[i], gates[j]] * coef)
            sep_delta += twice // 2
        # Other rows: each touched module's M(In, rest) − M(Out, rest),
        # kept for adoption with rest itself, and each parent's (cell,
        # rest) pairs, kept for re-degradation.
        flag = np.zeros(num_gates, dtype=bool)
        self._pieces: dict[int, dict[int, tuple[int, np.ndarray]]] = {}
        kept = [([], []) for _ in parents]
        for r in np.flatnonzero(~short & (lengths > 0)).tolist():
            lo, hi = int(starts[r]), int(ends[r])
            parent = parents[int(row_parent[r])]
            kept_cells, kept_rests = kept[int(row_parent[r])]
            off = int(row_off[r])
            moved, out_of, into = gates[lo:hi], sources[lo:hi], targets[lo:hi]
            left, entered = set(out_of.tolist()), set(into.tolist())
            near = matrix[moved]
            flag[moved] = True
            pieces = {}
            for module in left | entered:
                rest = parent._members[module]
                value = 0
                if module in left:
                    rest = rest[~flag[rest]]
                    picked = near if len(left) == 1 else near[out_of == module]
                    value -= _sum(picked[:, rest])
                if module in entered:
                    picked = near if len(entered) == 1 else near[into == module]
                    value += _sum(picked[:, rest])
                pieces[module] = value, rest
                kept_cells.append(off + parent._slot_of[module])
                kept_rests.append(rest)
            flag[moved] = False
            sep_delta[r] = sum(value for value, _ in pieces.values())
            if len(left) > 1 or len(entered) > 1:
                same = (into[:, None] == into).astype(np.int64)
                same -= out_of[:, None] == out_of
                sep_delta[r] += int((near[:, moved] * same).sum()) // 2
            self._pieces[r] = pieces

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
        # Deltas in move order.  A row with one source never moves into
        # it, so no cell of it both loses and gains: subtract every move,
        # then add every move.  A row with several sources (a KL swap)
        # interleaves each move's source and target entries instead.
        mixed = bool((sources != sources[starts[move_row]]).any())
        for stack, per_gate in (
            (leak, electricals.leakage_na[gates]),
            (rail, electricals.rail_cap_ff[gates]),
        ):
            _scatter(stack, src_cell, tgt_cell, per_gate, mixed)
        time_slots, time_counts = csr_gather(
            times.times_indptr, times.times_flat, gates
        )
        lose = np.repeat(src_cell, time_counts) * depth_t + time_slots
        gain = np.repeat(tgt_cell, time_counts) * depth_t + time_slots
        peak_rep = np.repeat(electricals.peak_current_ma[gates], time_counts)
        _scatter(current.reshape(-1), lose, gain, peak_rep, mixed)
        _scatter(activity.reshape(-1), lose, gain, np.ones(lose.size), mixed)

        # An emptied module frees its slot: exact zeros, as _release_slot.
        for array in slots.values():
            array[dead_cell] = 0
        cells = np.setdiff1d(np.concatenate([src_cell, tgt_cell]), dead_cell)
        max_current[cells] = current[cells].max(axis=1)
        rs[cells], area[cells], cs[cells], tau[cells], clamped[cells] = size_sensors(
            ctx.technology, max_current[cells], rail[cells]
        )
        settle[cells] = settle_times_ns(max_current[cells], tau[cells], ctx.technology)

        # Re-degrade, parent by parent, so that the temporaries scale with
        # one parent's rows.  A batched parent's touched modules take one
        # broadcast (rows, members before the row) call per slot, and its
        # moved gates then overwrite their source-side entries.  Any
        # other parent's members that stay and moved gates, as (cell,
        # gate) pairs, take one elementwise call.
        delays = np.empty((count, num_gates), dtype=np.float64)
        for p, parent in enumerate(parents):
            delays[row_bounds[p] : row_bounds[p + 1]] = parent.delay_degraded
        nominal = electricals.delay_ns
        cg_ff = electricals.output_cap_ff
        rg_ohm = electricals.pulldown_res_ohm
        time_resolved = ctx.time_resolved_degradation
        cell_n = None if time_resolved else activity.max(axis=1)

        def degraded(cell_of, gate_of):
            if time_resolved:
                n = _profile_max_diag(
                    times, gate_of, activity.reshape(-1), cell_of, depth_t
                )
            else:
                n = cell_n[cell_of]
            delta = ctx.degradation.delta(
                n, rs[cell_of], cs[cell_of], cg_ff[gate_of], rg_ohm[gate_of]
            )
            return nominal[gate_of] * (1.0 + delta)

        edges = np.searchsorted(cells, np.append(row_off, num_cells)[row_bounds])
        for p, parent in enumerate(parents):
            lo, hi = int(move_bounds[p]), int(move_bounds[p + 1])
            cell_of, gate_of = [tgt_cell[lo:hi]], [gates[lo:hi]]
            if batched[p]:
                mine = cells[edges[p] : edges[p + 1]]
                for group in _groups(cell_src[mine]):
                    group = mine[group]
                    members = slot_members[int(cell_src[group[0]])]
                    if time_resolved:
                        n = _profile_max_rows(times, members, activity[group])
                    else:
                        n = cell_n[group][:, None]
                    delta = ctx.degradation.delta(
                        n,
                        rs[group][:, None],
                        cs[group][:, None],
                        cg_ff[members],
                        rg_ohm[members],
                    )
                    delays[cell_row[group][:, None], members] = nominal[members] * (
                        1.0 + delta
                    )
            else:
                kept_cells, kept_rests = kept[p]
                sizes = [rest.size for rest in kept_rests]
                cell_of.append(np.repeat(np.array(kept_cells, dtype=np.int64), sizes))
                gate_of += kept_rests
            cell_of, gate_of = np.concatenate(cell_of), np.concatenate(gate_of)
            if gate_of.size:
                delays[cell_row[cell_of], gate_of] = degraded(cell_of, gate_of)
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
        self._starts = starts

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
        w = ctx.weights
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
            # CostBreakdown.total, term by term.
            cost = (
                w.area * log_guarded(a)
                + w.delay * ((d - d_nom) / d_nom)
                + w.separation * log_guarded(s)
                + w.test_time * ((d + t - d_nom) / d_nom)
                + w.modules * float(k)
            )
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

        # Per touched module, from the members that stay (rest) and the
        # gates that come in and go out: M(In, rest) − M(Out, rest) +
        # S(In) − S(Out).  The per-row loop kept the first two terms and
        # rest; a batched short row's come from its R sums, as
        # M(In, rest) = Σ_In R − M(In, Out) and M(Out, rest) = Σ_Out R −
        # M(Out, Out).  Emptied modules free their slots in the order
        # their last gate left, as a replay frees them.
        moved = np.array([gate for gate, _ in moves], dtype=np.int64)
        into = np.array([target for _, target in moves], dtype=np.int64)
        out_of = parent.partition._module_of[moved].astype(np.int64)
        within = parent.ctx.separation.matrix[np.ix_(moved, moved)]
        pieces = self._pieces.get(j)
        reach = self._reach[self._starts[j] : self._starts[j] + len(moves)]
        left, entered = set(out_of.tolist()), set(into.tolist())
        emptied = []
        for module in sorted(left | entered):
            slot = parent._slot_of[module]
            come, gone = into == module, out_of == module
            if pieces is None:
                rest = parent._members[module]
                if module in left:
                    keep = np.ones(rest.size, dtype=bool)
                    keep[np.searchsorted(rest, moved[gone])] = False
                    rest = rest[keep]
            else:
                piece, rest = pieces[module]
            if not rest.size and module not in entered:
                emptied.append((int(np.flatnonzero(gone)[-1]), module, slot))
                continue
            inner = outer = 0
            if module in entered:
                inner = _sum(within if len(entered) == 1 else within[come][:, come])
            if module in left:
                outer = _sum(within if len(left) == 1 else within[gone][:, gone])
            if pieces is None:
                piece = int(reach[come, 0].sum() - reach[gone, 1].sum()) + outer
                if module in left and module in entered:
                    piece -= _sum(within[come][:, gone])
            state.sep_sum[slot] += float(piece + (inner - outer) // 2)
            if module in entered:
                rest = np.sort(np.concatenate([rest, moved[come]]))
            state._members[module] = rest
        for _, module, slot in sorted(emptied):
            state._release_slot(module, slot)
