"""The :class:`PartitionEvaluator` façade and evaluation result objects.

One evaluator is built per (circuit, library, technology, weights)
quadruple; it precomputes every estimator input — transition-time sets,
per-gate electrical vectors, the capped separation matrix, the levelised
timing structure and the nominal critical path — and then evaluates any
number of partitions, either from scratch (:meth:`evaluate`) or
incrementally via :class:`~repro.partition.state.EvaluationState`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from repro import obs
from repro.analysis.current import GateElectricals
from repro.analysis.separation import SeparationMatrix
from repro.analysis.timing import levelized_timing
from repro.analysis.transition_times import TransitionTimes
from repro.config import CostWeights
from repro.library.default_lib import generic_library, generic_technology
from repro.library.library import CellLibrary
from repro.library.technology import Technology
from repro.netlist.circuit import Circuit
from repro.partition.constraints import ConstraintReport
from repro.partition.costs import CostBreakdown
from repro.partition.partition import Partition
from repro.partition.state import EvaluationState
from repro.sensors.bic import BICSensor
from repro.sensors.degradation import DelayDegradationModel, SecondOrderDegradation
from repro.sensors.sensing import settle_time_ns

__all__ = ["GateLists", "ModuleReport", "PartitionEvaluation", "PartitionEvaluator"]


@dataclass(frozen=True)
class ModuleReport:
    """Per-module summary of an evaluated partition."""

    module_id: int
    num_gates: int
    max_current_ma: float
    leakage_na: float
    discriminability: float
    separation: float
    sensor: BICSensor
    settle_time_ns: float

    @property
    def sensor_area(self) -> float:
        return self.sensor.area


@dataclass(frozen=True)
class PartitionEvaluation:
    """Complete evaluation of one partition: Γ, all cost terms, details."""

    partition: Partition
    feasible: bool
    violation: float
    breakdown: CostBreakdown
    modules: tuple[ModuleReport, ...]
    nominal_delay_ns: float
    degraded_delay_ns: float
    constraint: ConstraintReport

    @property
    def cost(self) -> float:
        """The weighted global cost ``C(Π)``."""
        return self.breakdown.total

    @property
    def sensor_area_total(self) -> float:
        """Σ BIC sensor area — the headline Table 1 quantity."""
        return sum(m.sensor_area for m in self.modules)

    @property
    def delay_overhead(self) -> float:
        """``(D_BIC - D)/D`` — the paper's relative performance cost."""
        return self.breakdown.c2_delay

    @property
    def test_time_overhead(self) -> float:
        """Relative per-vector test time overhead (``c4``)."""
        return self.breakdown.c4_test_time

    @property
    def num_modules(self) -> int:
        return len(self.modules)

    def module_by_id(self, module_id: int) -> ModuleReport:
        for module in self.modules:
            if module.module_id == module_id:
                return module
        raise KeyError(f"no module {module_id} in evaluation")


class GateLists(NamedTuple):
    """The gate graph laid out for walks that visit one gate at a time:
    Python lists where a walk reads single gates (list indexing beats
    numpy's per-call overhead), an array where it filters whole."""

    #: Per gate, its fanout gates in fanout order.
    successors: list[list[int]]
    #: Per gate, its sorted ``gate_adj_*`` row.
    neighbours: list[list[int]]
    #: Every gate by level, ties by gate index.
    level_order: np.ndarray


class PartitionEvaluator:
    """Precomputed evaluation context for one circuit.

    Args:
        circuit: the CUT.
        library: cell library; the generic default when omitted.
        technology: technology constants; the generic default when omitted.
        weights: cost weights; the paper's §5 weights when omitted.
        degradation: delay degradation model; second-order by default.
        time_resolved_degradation: evaluate δ(g,t) at each gate's own
            transition times instead of the module's worst slot
            (see DESIGN.md §6.4 and the ablation bench).
        separation: a prebuilt separation matrix to reuse (the runtime
            artifact cache restores one instead of re-running the BFS);
            its cap must match the technology's ``separation_cap``.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary | None = None,
        technology: Technology | None = None,
        weights: CostWeights | None = None,
        degradation: DelayDegradationModel | None = None,
        time_resolved_degradation: bool = False,
        separation: SeparationMatrix | None = None,
    ):
        self.circuit = circuit
        self.library = library or generic_library()
        self.technology = technology or generic_technology()
        self.weights = weights or CostWeights()
        self.degradation = degradation or SecondOrderDegradation()
        self.time_resolved_degradation = time_resolved_degradation
        with obs.TRACER.span("evaluator.build", circuit=circuit.name):
            with obs.TRACER.span("evaluator.transition_times"):
                self.times = TransitionTimes.compute(circuit)
            self.electricals = GateElectricals.compute(circuit, self.library)
            if separation is not None:
                if separation.cap != self.technology.separation_cap:
                    raise ValueError(
                        f"injected separation matrix has cap {separation.cap}, "
                        f"technology requires {self.technology.separation_cap}"
                    )
                expected = len(circuit.gate_names)
                if separation.matrix.shape[0] != expected:
                    raise ValueError(
                        f"injected separation matrix covers "
                        f"{separation.matrix.shape[0]} gates, circuit has {expected}"
                    )
                self.separation = separation
            else:
                with obs.TRACER.span("evaluator.separation"):
                    self.separation = SeparationMatrix(
                        circuit, self.technology.separation_cap
                    )
            with obs.TRACER.span("evaluator.timing"):
                # Cached on the compiled graph: evaluators of the same
                # circuit share one timing engine.
                self.timing = levelized_timing(circuit)
                self.nominal_delay_ns = self.timing.critical_path_delay(
                    self.electricals.delay_ns
                )
            self.ones = np.ones(len(circuit.gate_names), dtype=np.float64)

    @functools.cached_property
    def gate_lists(self) -> GateLists:
        """:class:`GateLists` of the circuit, built on first use (the
        chain start partitions walk them).  Kept per evaluator, not on
        the compiled graph, which the stand-in cache keeps alive for
        every circuit."""
        cg = self.circuit.compiled
        sinks = cg.node_gate[cg.fanout_indices].tolist()
        bounds = cg.fanout_indptr.tolist()
        adj = cg.gate_adj_indices.tolist()
        adj_bounds = cg.gate_adj_indptr.tolist()
        return GateLists(
            successors=[
                sinks[bounds[node] : bounds[node + 1]]
                for node in cg.gate_node.tolist()
            ],
            neighbours=[
                adj[lo:hi] for lo, hi in zip(adj_bounds, adj_bounds[1:])
            ],
            level_order=np.argsort(cg.gate_level, kind="stable"),
        )

    # --------------------------------------------------------------- evaluate
    def new_state(self, partition: Partition) -> EvaluationState:
        """An incremental evaluation state seeded from ``partition``."""
        return EvaluationState(self, partition)

    def evaluate(self, partition: Partition) -> PartitionEvaluation:
        """Full evaluation of one partition."""
        return self.evaluation_of(self.new_state(partition))

    def evaluation_of(self, state: EvaluationState) -> PartitionEvaluation:
        """Snapshot a state into an immutable :class:`PartitionEvaluation`."""
        breakdown = state.cost_breakdown()
        constraint = state.constraint_report()
        sensors = state.sensors()
        modules: list[ModuleReport] = []
        for module_id in sorted(state.partition.module_ids):
            stats = state.stats[module_id]
            sensor = sensors[module_id]
            modules.append(
                ModuleReport(
                    module_id=module_id,
                    num_gates=state.partition.module_size(module_id),
                    max_current_ma=stats.max_current_ma,
                    leakage_na=stats.leak_na,
                    discriminability=constraint.discriminability[module_id],
                    separation=stats.sep_sum,
                    sensor=sensor,
                    settle_time_ns=settle_time_ns(sensor, self.technology),
                )
            )
        d_bic = self.timing.critical_path_delay(state.delay_degraded)
        return PartitionEvaluation(
            partition=state.partition.copy(),
            feasible=constraint.feasible,
            violation=constraint.violation,
            breakdown=breakdown,
            modules=tuple(modules),
            nominal_delay_ns=self.nominal_delay_ns,
            degraded_delay_ns=d_bic,
            constraint=constraint,
        )

    # ------------------------------------------------------------- estimates
    def min_feasible_modules(self) -> int:
        """Lower bound on K from the discriminability constraint: total
        worst-case leakage divided by the per-module budget."""
        total_leak = float(self.electricals.leakage_na.sum())
        budget = self.technology.max_module_leakage_na
        return max(1, int(np.ceil(total_leak / budget)))

    def leakage_by_module(self, partition: Partition) -> Mapping[int, float]:
        return {
            module: float(
                self.electricals.leakage_na[partition.gates_array(module)].sum()
            )
            for module in partition.module_ids
        }
