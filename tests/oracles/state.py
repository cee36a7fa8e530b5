"""Reference evaluation state: the original dict-based §4.2 implementation.

:class:`ReferenceEvaluationState` keeps one :class:`ModuleStats` per
module, snapshots the whole state when a trial opens, and re-times the
degraded circuit from scratch for every cost.  It speaks the same
protocol as :class:`~repro.partition.state.EvaluationState` and takes
the generic trial loops of ``_StateProtocol``, so an optimiser run on
either state must make the same moves, and the dense kernels must score
what its per-candidate trials score.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.partition.constraints import ConstraintReport, check_constraints
from repro.partition.costs import CostBreakdown, log_guarded
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition
from repro.partition.state import ModuleStats, _StateProtocol
from repro.sensors.bic import BICSensor, size_sensor
from repro.sensors.sensing import settle_time_ns


class ReferenceEvaluationState(_StateProtocol):
    """A partition plus per-module dict caches — the original §4.2
    implementation, the dense state's executable specification."""

    def __init__(self, ctx: PartitionEvaluator, partition: Partition):
        self.ctx = ctx
        self.partition = partition.copy()
        self.stats: dict[int, ModuleStats] = {}
        self.delay_degraded = ctx.electricals.delay_ns.copy()
        self._sensors: dict[int, BICSensor] = {}
        self._dirty: set[int] = set()
        self._snapshot: "ReferenceEvaluationState | None" = None
        self._move_log: list[tuple[int, int]] = []
        for module in self.partition.module_ids:
            self.stats[module] = self._build_module_stats(module)
            self._dirty.add(module)

    # ------------------------------------------------------------ construction
    def _build_module_stats(self, module: int) -> ModuleStats:
        ctx = self.ctx
        gates = self.partition.gates_array(module)
        current = ctx.times.profile(gates, ctx.electricals.peak_current_ma)
        activity = ctx.times.profile(gates, ctx.ones)
        leak = float(ctx.electricals.leakage_na[gates].sum())
        rail = float(ctx.electricals.rail_cap_ff[gates].sum())
        sep = ctx.separation.module_sum(gates)
        return ModuleStats(current, activity, leak, sep, rail)

    def copy(self) -> "ReferenceEvaluationState":
        if self._snapshot is not None:
            raise PartitionError("cannot copy a state with an open trial")
        clone = object.__new__(ReferenceEvaluationState)
        clone.ctx = self.ctx
        clone.partition = self.partition.copy()
        clone.stats = {module: stats.copy() for module, stats in self.stats.items()}
        clone.delay_degraded = self.delay_degraded.copy()
        clone._sensors = dict(self._sensors)
        clone._dirty = set(self._dirty)
        clone._snapshot = None
        clone._move_log = list(self._move_log)
        return clone

    # ------------------------------------------------------------------ trials
    def begin_trial(self) -> None:
        """Open a trial: subsequent moves apply in place until
        :meth:`commit` keeps them or :meth:`rollback` restores the exact
        prior state.  (Reference implementation: a full snapshot.)"""
        if self._snapshot is not None:
            raise PartitionError("trial already open")
        self._snapshot = self.copy()

    def commit(self) -> None:
        if self._snapshot is None:
            raise PartitionError("no open trial")
        self._snapshot = None

    def rollback(self) -> None:
        snap = self._snapshot
        if snap is None:
            raise PartitionError("no open trial")
        self._snapshot = None
        # Same monotonic-version contract as the dense journal rollback:
        # every version observed during the trial becomes stale.
        snap.partition._version = self.partition._version + 1
        self.partition = snap.partition
        self.stats = snap.stats
        self.delay_degraded = snap.delay_degraded
        self._sensors = snap._sensors
        self._dirty = snap._dirty
        self._move_log = snap._move_log

    # ------------------------------------------------------------------ moves
    def move_gate(self, gate: int, target_module: int) -> int:
        """Move a gate, updating both touched modules' caches; returns the
        source module id."""
        ctx = self.ctx
        partition = self.partition
        source = partition.module_of(gate)
        if source == target_module:
            raise PartitionError(f"gate {gate} already in module {target_module}")
        src_stats = self.stats[source]
        tgt_stats = self.stats.get(target_module)
        if tgt_stats is None:
            raise PartitionError(f"no module {target_module}")

        # Separation deltas need the memberships *around* the move: the
        # source before removal (self-distance is 0 so including the gate
        # is harmless) and the target before insertion.
        src_members = partition.gates_array(source)
        tgt_members = partition.gates_array(target_module)
        src_stats.sep_sum -= ctx.separation.sum_to_group(gate, src_members)
        tgt_stats.sep_sum += ctx.separation.sum_to_group(gate, tgt_members)

        times = ctx.times.times[gate]
        peak = ctx.electricals.peak_current_ma[gate]
        src_stats.current_profile[times] -= peak
        tgt_stats.current_profile[times] += peak
        src_stats.activity_profile[times] -= 1.0
        tgt_stats.activity_profile[times] += 1.0
        leak = ctx.electricals.leakage_na[gate]
        rail = ctx.electricals.rail_cap_ff[gate]
        src_stats.leak_na -= leak
        tgt_stats.leak_na += leak
        src_stats.rail_cap_ff -= rail
        tgt_stats.rail_cap_ff += rail

        partition.move_gate(gate, target_module)
        if source not in partition.module_ids or partition.module_size(source) == 0:
            # Module died with this move.
            self.stats.pop(source, None)
            self._sensors.pop(source, None)
            self._dirty.discard(source)
        else:
            self._dirty.add(source)
        self._dirty.add(target_module)
        self._move_log.append((gate, target_module))
        return source

    def split_new_module(self, gates) -> int:
        """Create a new module from ``gates`` (state-maintaining version of
        :meth:`Partition.split_new_module`); rebuilds only the touched
        modules' caches."""
        if self._snapshot is not None:
            raise PartitionError("split_new_module not allowed inside a trial")
        gates = list(gates)
        if not gates:
            raise PartitionError("cannot create an empty module")
        sources = {self.partition.module_of(gate) for gate in gates}
        new_id = self.partition.split_new_module(gates)
        self._rebuild_touched(sources | {new_id})
        return new_id

    def merge_modules(self, keep: int, absorb: int) -> None:
        """Merge ``absorb`` into ``keep`` (rebuilds only ``keep``)."""
        if self._snapshot is not None:
            raise PartitionError("merge_modules not allowed inside a trial")
        self.partition.merge_modules(keep, absorb)
        self._rebuild_touched({keep, absorb})

    def _rebuild_touched(self, modules: set[int]) -> None:
        """Rebuild caches of ``modules`` only; dead ones are dropped and
        only the rebuilt ones become dirty."""
        alive = set(self.partition.module_ids)
        for module in sorted(modules):
            if module in alive:
                self.stats[module] = self._build_module_stats(module)
                self._dirty.add(module)
            else:
                self.stats.pop(module, None)
                self._sensors.pop(module, None)
                self._dirty.discard(module)

    # ------------------------------------------------------------ derived data
    def _refresh(self) -> None:
        """Re-size sensors and re-degrade delays for modified modules."""
        ctx = self.ctx
        for module in sorted(self._dirty):
            stats = self.stats[module]
            gates = self.partition.gates_array(module)
            sensor = size_sensor(
                ctx.technology, module, stats.max_current_ma, stats.rail_cap_ff
            )
            self._sensors[module] = sensor
            if ctx.time_resolved_degradation:
                n = ctx.times.max_in_profile(gates, stats.activity_profile)
            else:
                n = float(stats.activity_profile.max())
            delta = ctx.degradation.delta(
                n,
                sensor.rs_ohm,
                sensor.cs_ff,
                ctx.electricals.output_cap_ff[gates],
                ctx.electricals.pulldown_res_ohm[gates],
            )
            self.delay_degraded[gates] = ctx.electricals.delay_ns[gates] * (1.0 + delta)
        self._dirty.clear()

    def sensors(self) -> dict[int, BICSensor]:
        """Sized sensors for every module (refreshes lazily)."""
        self._refresh()
        return dict(self._sensors)

    def cost_breakdown(self) -> CostBreakdown:
        """All five cost terms for the current partition."""
        self._refresh()
        ctx = self.ctx
        total_area = sum(s.area for s in self._sensors.values())
        c1 = log_guarded(total_area)
        d_bic = ctx.timing.critical_path_delay(self.delay_degraded)
        d_nom = ctx.nominal_delay_ns
        c2 = (d_bic - d_nom) / d_nom
        total_sep = sum(stats.sep_sum for stats in self.stats.values())
        c3 = log_guarded(total_sep)
        settle = max(
            settle_time_ns(sensor, ctx.technology) for sensor in self._sensors.values()
        )
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
        leak = {module: stats.leak_na for module, stats in self.stats.items()}
        current = {module: stats.max_current_ma for module, stats in self.stats.items()}
        return check_constraints(self.ctx.technology, leak, current)

    def penalized_cost(self, penalty: float) -> float:
        """Cost plus penalty for constraint violation — the optimiser's
        selection criterion (feasible partitions dominate infeasible)."""
        report = self.constraint_report()
        cost = self.cost_breakdown().total
        if report.feasible:
            return cost
        return cost + penalty * (1.0 + report.violation)

    # ------------------------------------------------------------- validation
    def consistency_check(self, atol: float = 1e-6) -> None:
        """Compare every cache against a from-scratch rebuild.

        Property tests drive random move sequences through this; any
        drift in the incremental updates fails loudly here.
        """
        self.partition.check_invariants()
        for module in self.partition.module_ids:
            fresh = self._build_module_stats(module)
            cached = self.stats[module]
            if not np.allclose(cached.current_profile, fresh.current_profile, atol=atol):
                raise PartitionError(f"module {module}: current profile drifted")
            if not np.allclose(cached.activity_profile, fresh.activity_profile, atol=atol):
                raise PartitionError(f"module {module}: activity profile drifted")
            for field in ("leak_na", "sep_sum", "rail_cap_ff"):
                if abs(getattr(cached, field) - getattr(fresh, field)) > atol:
                    raise PartitionError(
                        f"module {module}: {field} drifted "
                        f"({getattr(cached, field)} vs {getattr(fresh, field)})"
                    )
        if set(self.stats) != set(self.partition.module_ids):
            raise PartitionError(
                f"stats keys {sorted(self.stats)} != modules "
                f"{sorted(self.partition.module_ids)}"
            )
