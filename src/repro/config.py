"""Configuration dataclasses for costs, the optimiser and the flow.

Defaults reproduce the paper's §5 experimental setup:

* cost weights ``C(Π) = 9·c1 + 1e5·c2 + c3 + c4 + 10·c5``;
* discriminability ``d = 10`` and ``IDDQ,th = 1 uA`` live in
  :class:`repro.library.Technology`, not here;
* evolution-strategy parameters ``μ λ χ κ m ε`` as named in §4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import OptimizationError

__all__ = [
    "CostWeights",
    "EvolutionParams",
    "RuntimeConfig",
    "SynthesisConfig",
]


@dataclass(frozen=True)
class CostWeights:
    """Weights ``αi`` of the global cost function ``C(Π) = Σ αi·ci(Π)``.

    Defaults are the paper's §5 choice, picked there so that "all
    components of the cost function [have] similar range and variation".
    """

    area: float = 9.0
    delay: float = 1.0e5
    separation: float = 1.0
    test_time: float = 1.0
    modules: float = 10.0

    def __post_init__(self) -> None:
        for name in ("area", "delay", "separation", "test_time", "modules"):
            if getattr(self, name) < 0:
                raise OptimizationError(f"cost weight {name!r} must be >= 0")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.area, self.delay, self.separation, self.test_time, self.modules)


@dataclass(frozen=True)
class EvolutionParams:
    """Control parameters of the §4 evolution strategy.

    Attributes (paper notation in brackets):
        mu: number of parents [μ].
        children_per_parent: mutated children per parent [λ].
        monte_carlo_per_parent: Monte-Carlo children per parent [χ] —
            unconstrained random block moves that "reduce the probability
            of being caught in a local minimum".
        max_lifetime: maximum parent age in generations [o / κ]; older
            parents are removed before selection.
        max_moved_gates: initial mutation step width [m] — upper bound on
            boundary gates moved per mutation.
        step_std: standard deviation of the normal perturbation applied
            to each descendant's step width [ε].
        generations: hard generation budget.
        convergence_window: stop early when the best cost has not
            improved for this many generations ("until the results
            converged to a stable value").
        penalty: weight of constraint-violation penalty added to the cost
            of infeasible partitions, letting the search traverse the
            infeasible region without ever selecting it at convergence.
    """

    mu: int = 8
    children_per_parent: int = 4
    monte_carlo_per_parent: int = 2
    max_lifetime: int = 8
    max_moved_gates: int = 4
    step_std: float = 1.5
    generations: int = 200
    convergence_window: int = 40
    penalty: float = 1.0e4

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise OptimizationError("mu must be >= 1")
        if self.children_per_parent < 1:
            raise OptimizationError("children_per_parent (lambda) must be >= 1")
        if self.monte_carlo_per_parent < 0:
            raise OptimizationError("monte_carlo_per_parent (chi) must be >= 0")
        if self.max_lifetime < 1:
            raise OptimizationError("max_lifetime (kappa) must be >= 1")
        if self.max_moved_gates < 1:
            raise OptimizationError("max_moved_gates (m) must be >= 1")
        if self.step_std <= 0:
            raise OptimizationError("step_std (epsilon) must be > 0")
        if self.generations < 1:
            raise OptimizationError("generations must be >= 1")
        if self.convergence_window < 1:
            raise OptimizationError("convergence_window must be >= 1")
        if self.penalty <= 0:
            raise OptimizationError("penalty must be > 0")

    def scaled(self, factor: float) -> "EvolutionParams":
        """A cheaper/costlier copy: scales the generation budget (used by
        tests and benchmarks to bound runtime)."""
        return replace(self, generations=max(1, int(self.generations * factor)))


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime observability knobs (see :mod:`repro.obs`).

    Attributes:
        trace: record runtime spans on the process-wide tracer
            (:mod:`repro.obs`); ``None`` defers to ``REPRO_TRACE`` and
            then off.  Tracing never changes computed results — only
            how the run is described.
        metrics: report runtime counters — per-entry counter deltas in
            campaign manifests and counters in heartbeat records (the
            registry counts either way); ``None`` defers to
            ``REPRO_METRICS`` and then off.  Enabled implicitly
            alongside ``trace`` by consumers that export both (the
            campaign runner's ``--trace``).
        heartbeat: worker heartbeat interval in seconds (DESIGN.md
            §12); ``None`` defers to ``REPRO_HEARTBEAT`` and then off
            (0).  Like every observability knob, heartbeats change what
            a run reports, never what it computes.
        heartbeat_dir: run directory receiving the per-worker
            ``hb-<pid>.jsonl`` heartbeat files; ``None`` defers to
            ``REPRO_HEARTBEAT_DIR`` and then an executor- or
            campaign-chosen default.
        stall_after: soft stall threshold in seconds — the gather emits
            an ``executor.stall`` instant for a task waited on this
            long; ``None`` defers to ``REPRO_STALL_AFTER`` and then
            half the hard ``task_timeout`` (off when no deadline).
    """

    trace: bool | None = None
    metrics: bool | None = None
    heartbeat: float | None = None
    heartbeat_dir: str | None = None
    stall_after: float | None = None

    def __post_init__(self) -> None:
        if self.heartbeat is not None and self.heartbeat < 0:
            raise OptimizationError("heartbeat must be >= 0 seconds (0 = off)")
        if self.heartbeat_dir is not None and not self.heartbeat_dir:
            raise OptimizationError(
                "heartbeat_dir must be a non-empty path or None"
            )
        if self.stall_after is not None and self.stall_after <= 0:
            raise OptimizationError("stall_after must be > 0 seconds")

    def apply_observability(self) -> None:
        """Flip the process-wide tracer/metrics singletons to match the
        non-``None`` ``trace`` / ``metrics`` fields and push the
        non-``None`` live-health knobs into their environment variables
        (the channel that reaches pool workers); ``None`` keeps the
        environment-derived state.  Called by flow entry points that
        accept a config; imports lazily so the config module stays free
        of runtime imports."""
        if self.trace is not None or self.metrics is not None:
            from repro import obs

            obs.enable(trace=self.trace, metrics=self.metrics)
        if (
            self.heartbeat is not None
            or self.heartbeat_dir is not None
            or self.stall_after is not None
        ):
            import os

            from repro.obs import live

            if self.heartbeat is not None:
                os.environ[live.HEARTBEAT_ENV] = str(self.heartbeat)
            if self.heartbeat_dir is not None:
                os.environ[live.HEARTBEAT_DIR_ENV] = self.heartbeat_dir
            if self.stall_after is not None:
                os.environ[live.STALL_AFTER_ENV] = str(self.stall_after)


@dataclass(frozen=True)
class SynthesisConfig:
    """End-to-end flow configuration.

    ``time_resolved_degradation`` selects the per-transition-time
    evaluation of the delay degradation δ(g, t) (slower, closest to the
    paper's time-grid formulation) versus the module-worst-case
    simplification (default; pessimistic, same ordering in practice —
    the ablation benchmark quantifies this).
    """

    weights: CostWeights = field(default_factory=CostWeights)
    evolution: EvolutionParams = field(default_factory=EvolutionParams)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    time_resolved_degradation: bool = False
    seed: int = 1995
