"""Kernighan-Lin style pairwise refinement under the full cost function.

The classic partitioning refinement the EDA literature of the paper's
era reached for first: repeatedly pick the best *swap* of two gates
between two modules (or a single move), tentatively apply a whole pass
of best swaps with locking, and keep the prefix of the pass that
minimised the cost.  Here the gain is measured by the paper's full
weighted cost via the incremental evaluation state, so KL is a fair
same-objective baseline for the evolution strategy.

KL preserves module sizes exactly (swaps only), which makes it a useful
polish pass when balance must be held.  Boundary-gate and
neighbour-module queries run on the compiled graph's CSR gate adjacency
(via :class:`~repro.partition.partition.Partition`), so candidate
sampling stays cheap even on the Table 1 circuits.

Each pass samples whole swap pools up front (``candidate_rounds`` rounds
of ``candidate_swaps`` pairs) and scores each pool in one
:meth:`~repro.partition.state.EvaluationState.trial_swaps` call (each
swap a two-move row of the ``trial_blocks`` kernel), then walks the
ranked gains best-first, replay-validating each chosen swap through
``trial_cost`` before committing it — earlier commits invalidate the
pool's baseline, so a stale gain can never be committed unchecked.  A
pool doesn't reflect its own commits, so this samples other swaps than
the interleaved sample-score-commit loop it replaced; that loop is kept
as ``tests/oracles/kl.py``, and the seed-swept ablation in
``tests/optimize/test_kl.py`` pins the final costs against it.

Pools draw through :class:`_SwapSampler`, which precomputes the filtered
unlocked-gate arrays once per (commit, lock) epoch instead of
re-deriving membership lists on every rejection-sampling attempt.
"""

from __future__ import annotations

import random

import numpy as np

from repro import obs
from repro.errors import OptimizationError
from repro.optimize.result import GenerationRecord, OptimizationResult
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["kl_refine"]


def kl_refine(
    evaluator: PartitionEvaluator,
    start: Partition,
    max_passes: int = 4,
    candidate_swaps: int = 64,
    seed: int | None = None,
    penalty: float = 1.0e4,
    candidate_rounds: int = 8,
) -> OptimizationResult:
    """KL-style refinement of ``start``.

    Per pass: sample pools of ``candidate_swaps`` boundary-gate pairs
    from adjacent module pairs, score each in one ``trial_swaps`` call,
    and commit the improving ones best-first with replay validation and
    gate locking, for up to ``candidate_rounds`` pools.  Passes repeat
    until no pass improves or ``max_passes`` is hit.
    """
    if max_passes < 1 or candidate_swaps < 1:
        raise OptimizationError("max_passes and candidate_swaps must be >= 1")
    if candidate_rounds < 1:
        raise OptimizationError("candidate_rounds must be >= 1")
    rng = random.Random(seed)
    state = evaluator.new_state(start)
    cost = state.penalized_cost(penalty)
    evaluations = 1
    history: list[GenerationRecord] = []

    for sweep in range(1, max_passes + 1):
        cost, gained, improved = _batched_pass(
            state, rng, cost, candidate_swaps, penalty, candidate_rounds
        )
        evaluations += gained
        history.append(
            GenerationRecord(
                generation=sweep,
                best_cost=cost,
                best_feasible=state.constraint_report().feasible,
                mean_cost=cost,
                num_modules=state.partition.num_modules,
                evaluations=evaluations,
            )
        )
        if not improved:
            break

    return OptimizationResult(
        best=evaluator.evaluation_of(state),
        history=history,
        generations_run=len(history),
        evaluations=evaluations,
        converged=True,
        seed=seed,
        optimizer="kl-refine",
    )


def _batched_pass(state, rng, cost, candidate_swaps, penalty, rounds):
    """One batched KL pass: pooled rounds, ranked walks, replay-validated
    commits.

    Each round samples a fresh pool of up to ``candidate_swaps``
    unlocked pairs against the live partition, scores it in one
    ``trial_swaps`` call, and walks the ranked gains best-first.  Every
    candidate that beats the current cost is replayed through
    ``trial_cost`` against the *live* state before committing: the
    first commit of a round replays to exactly its batched score (the
    kernel is bit-identical), later candidates may have gained or lost
    from earlier commits, and a replay that no longer improves is
    rolled back and counted as a mismatch.  Rounds stop early when one
    commits nothing (the pool has gone dry at this baseline); locking
    persists across the whole pass.  Batched candidates are roughly an
    order of magnitude cheaper to score than one trial each, so a pass
    affords ``rounds`` times the exploration of the sequential reference
    pass at comparable wall-clock.
    """
    sampler = _SwapSampler(state)
    locked: set[int] = set()
    improved = False
    evaluations = 0
    for _round in range(rounds):
        pool: list[tuple[int, int, int, int]] = []
        for _ in range(candidate_swaps):
            swap = sampler.sample(rng, locked)
            if swap is None:
                break
            pool.append(swap)
        if not pool:
            break
        gates_a = [swap[0] for swap in pool]
        gates_b = [swap[1] for swap in pool]
        scores = state.trial_swaps(gates_a, gates_b, penalty)
        obs.METRICS.inc("optimizer.batch.size", len(pool))
        evaluations += len(pool)
        committed = False
        for i in np.argsort(scores, kind="stable"):
            if scores[i] >= cost - 1e-12:
                break  # ranked ascending: nothing further can improve
            gate_a, gate_b, module_a, module_b = pool[i]
            if gate_a in locked or gate_b in locked:
                continue
            replay = state.trial_cost(
                [(gate_a, module_b), (gate_b, module_a)], penalty
            )
            evaluations += 1
            obs.METRICS.inc("optimizer.batch.rescore")
            if replay < cost - 1e-12:
                state.commit()
                cost = replay
                locked.update((gate_a, gate_b))
                sampler.invalidate()
                improved = True
                committed = True
            else:
                state.rollback()
                obs.METRICS.inc("optimizer.batch.replay_mismatch")
        if not committed:
            break
    return cost, evaluations, improved


class _SwapSampler:
    """Rejection sampler over boundary pairs with per-epoch caches.

    Draw-for-draw identical to sampling straight off the partition
    (same ``rng`` call sequence over the same canonical lists), but the
    filtered unlocked-gate lists are computed once per (commit, lock)
    epoch instead of once per rejection-sampling attempt —
    :meth:`invalidate` must be called after every committed swap (locks
    only change alongside commits, so one seam covers both).
    """

    def __init__(self, state):
        self.state = state  # rollback may swap the partition object
        self._boundary: dict[int, list[int]] = {}
        self._adjacent: dict[tuple[int, int], list[int]] = {}

    @property
    def partition(self) -> Partition:
        return self.state.partition

    def invalidate(self) -> None:
        self._boundary.clear()
        self._adjacent.clear()

    def _unlocked_boundary(self, module: int, locked: set[int]) -> list[int]:
        cached = self._boundary.get(module)
        if cached is None:
            cached = [
                g
                for g in self.partition.boundary_gates(module)
                if g not in locked
            ]
            self._boundary[module] = cached
        return cached

    def _unlocked_adjacent(
        self, module_b: int, module_a: int, locked: set[int]
    ) -> list[int]:
        key = (module_b, module_a)
        cached = self._adjacent.get(key)
        if cached is None:
            cached = [
                g
                for g in self.partition.gates_adjacent_to(module_b, module_a)
                if g not in locked
            ]
            self._adjacent[key] = cached
        return cached

    def sample(self, rng: random.Random, locked: set[int]):
        """A random boundary pair (a in A, b in B adjacent), unlocked."""
        partition = self.partition
        if partition.num_modules < 2:
            return None
        for _ in range(16):
            module_a = rng.choice(partition.module_ids)
            if partition.module_size(module_a) < 2:
                continue  # swapping out of a 1-gate module would delete it
            boundary = self._unlocked_boundary(module_a, locked)
            if not boundary:
                continue
            gate_a = rng.choice(boundary)
            targets = partition.neighbor_modules(gate_a)
            if not targets:
                continue
            module_b = rng.choice(targets)
            candidates = self._unlocked_adjacent(module_b, module_a, locked)
            if not candidates:
                continue
            gate_b = rng.choice(candidates)
            return gate_a, gate_b, module_a, module_b
        return None
