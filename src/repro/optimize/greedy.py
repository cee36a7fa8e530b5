"""Greedy local refinement: steepest-descent boundary-gate moves.

A deterministic hill-climber over the same neighbourhood as the
evolution strategy's mutation.  Useful both as a baseline (it gets stuck
exactly where the paper says single-minimum methods do) and as a cheap
polish pass after any other optimiser.

Each pass scores its entire move neighbourhood through one
:meth:`~repro.partition.state.EvaluationState.trial_moves` call: one-move
rows of the ``trial_blocks`` kernel in chunks of 192, so separation
sums, profile deltas *and* the exact D_BIC retiming of every candidate
run as array passes, the delay term one
:meth:`~repro.analysis.timing.IncrementalTiming.retime_batch` stacked
sweep per chunk (DESIGN §8.3-8.4); no candidate takes a trial of its own.
"""

from __future__ import annotations

from repro.optimize.result import GenerationRecord, OptimizationResult
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["greedy_refine"]


def greedy_refine(
    evaluator: PartitionEvaluator,
    start: Partition,
    max_passes: int = 20,
    penalty: float = 1.0e4,
) -> OptimizationResult:
    """Repeatedly apply the best improving boundary move until none exists.

    Each pass scans every boundary gate of every module and every
    adjacent target module; the single best improving move is applied.
    Terminates at a local minimum of the move neighbourhood or after
    ``max_passes`` moves.
    """
    state = evaluator.new_state(start)
    cost = state.penalized_cost(penalty)
    evaluations = 1
    history: list[GenerationRecord] = []

    for step in range(1, max_passes + 1):
        best_move = None
        best_cost = cost
        partition = state.partition
        # Enumerate the whole move neighbourhood, score it in one batched
        # gain-kernel call, then replicate the sequential first-strict-
        # improvement scan over the cost vector.
        candidates: list[tuple[int, int]] = []
        for module in partition.module_ids:
            for gate in partition.boundary_gates(module):
                for target in partition.neighbor_modules(gate):
                    candidates.append((gate, target))
        if candidates:
            costs = state.trial_moves(
                [c[0] for c in candidates], [c[1] for c in candidates], penalty
            )
            evaluations += len(candidates)
            for move, trial_cost in zip(candidates, costs):
                if trial_cost < best_cost - 1e-12:
                    best_cost = float(trial_cost)
                    best_move = move
        if best_move is None:
            break
        state.move_gate(*best_move)
        cost = state.penalized_cost(penalty)
        history.append(
            GenerationRecord(
                generation=step,
                best_cost=cost,
                best_feasible=state.constraint_report().feasible,
                mean_cost=cost,
                num_modules=partition.num_modules,
                evaluations=evaluations,
            )
        )

    return OptimizationResult(
        best=evaluator.evaluation_of(state),
        history=history,
        generations_run=len(history),
        evaluations=evaluations,
        converged=True,
        seed=None,
        optimizer="greedy",
    )
