"""Optimiser portfolio: run several strategies, keep the best.

PART-IDDQ is NP-hard (§2) and every heuristic here has failure modes;
a small portfolio — the paper's evolution strategy plus a KL polish and
an annealing fallback — is the pragmatic production answer and a useful
upper-bound reference in the ablation benches.

With ``seeds`` the whole portfolio additionally fans out over a *seed
population*: one full portfolio run per seed, sharded across the
runtime's process pool (``jobs``), the winner picked by cost with seed
order breaking ties — deterministic at any worker count.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.config import EvolutionParams
from repro.errors import OptimizationError
from repro.optimize.annealing import AnnealingParams, anneal_partition
from repro.optimize.evolution import evolve_partition
from repro.optimize.kl import kl_refine
from repro.optimize.result import OptimizationResult
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator

__all__ = ["portfolio_partition"]


def portfolio_partition(
    evaluator: PartitionEvaluator,
    evolution_params: EvolutionParams | None = None,
    annealing_params: AnnealingParams | None = None,
    seed: int | None = None,
    kl_passes: int = 2,
    seeds: Sequence[int] | None = None,
    jobs: int | None = None,
) -> OptimizationResult:
    """Evolution + KL polish, with an annealing run as insurance.

    Returns the best feasible result; raises when *no* strategy found a
    feasible partition (a strong sign the constraints are unsatisfiable).

    Args:
        seeds: run the full portfolio once per seed and keep the best
            (mutually exclusive with ``seed``); with ``jobs`` > 1 the
            seed runs shard across worker processes.
        jobs: worker count for the multi-seed fan-out (``None`` defers
            to ``REPRO_JOBS``).
    """
    if seeds is not None:
        if seed is not None:
            raise OptimizationError("pass either seed or seeds, not both")
        return _multi_seed_portfolio(
            evaluator, list(seeds), evolution_params, annealing_params,
            kl_passes, jobs,
        )
    rng = random.Random(seed)
    runs: list[OptimizationResult] = []

    evolution = evolve_partition(evaluator, evolution_params, seed=seed)
    runs.append(evolution)
    if evolution.feasible and kl_passes > 0:
        polished = kl_refine(
            evaluator,
            evolution.best.partition,
            max_passes=kl_passes,
            seed=seed,
        )
        polished.optimizer = "evolution+kl"
        runs.append(polished)

    start = chain_start_partition(evaluator, estimate_module_count(evaluator), rng)
    runs.append(
        anneal_partition(evaluator, annealing_params, seed=seed, start=start)
    )

    feasible = [run for run in runs if run.feasible]
    if not feasible:
        raise OptimizationError(
            "portfolio found no feasible partition "
            f"(best violation {min(r.best.violation for r in runs):.3g})"
        )
    best = min(feasible, key=lambda run: run.best_cost)
    best.evaluations = sum(run.evaluations for run in runs)
    if best.seed is None:
        best.seed = seed
    return best


def _multi_seed_portfolio(
    evaluator: PartitionEvaluator,
    seeds: list[int],
    evolution_params: EvolutionParams | None,
    annealing_params: AnnealingParams | None,
    kl_passes: int,
    jobs: int | None,
) -> OptimizationResult:
    """One portfolio run per seed through the runtime executor.

    Workers ship back compact summaries (winning assignment + scalars);
    the parent re-evaluates the winning partition exactly — evaluation
    is a deterministic function of the assignment, so nothing is lost.
    The winner is the lowest feasible cost, ties broken by seed order.
    """
    from repro.partition.partition import Partition
    from repro.runtime.parallel import portfolio_runs

    if not seeds:
        raise OptimizationError("seeds must be non-empty")
    summaries = portfolio_runs(
        evaluator,
        seeds,
        evolution_params=evolution_params,
        annealing_params=annealing_params,
        kl_passes=kl_passes,
        jobs=jobs,
    )
    feasible = [s for s in summaries if s["feasible"]]
    if not feasible:
        raise OptimizationError(
            "multi-seed portfolio found no feasible partition "
            f"(best violation {min(s['violation'] for s in summaries):.3g})"
        )
    winner = min(feasible, key=lambda s: s["cost"])  # min() keeps seed order on ties
    partition = Partition.from_array(evaluator.circuit, winner["assignment"])
    result = OptimizationResult(
        best=evaluator.evaluate(partition),
        evaluations=sum(s["evaluations"] for s in summaries),
        seed=winner["seed"],
        optimizer=f"{winner['optimizer']}[seeds={len(seeds)}]",
    )
    return result
