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
    time_resolved_degradation: bool = False
    seed: int = 1995
