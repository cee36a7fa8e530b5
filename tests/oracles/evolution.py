"""Reference evolution strategy: one trial per child (paper §4).

The per-child loop :class:`repro.optimize.evolution.EvolutionOptimizer`
replaced.  Each child opens a trial on its parent's live state, applies
its mutation moves one gate at a time (a Monte-Carlo block in one bulk
move), is scored with ``penalized_cost`` and rolled back.  Children
whose mutation collapsed to a single move defer their scoring until all
of a parent's children are drawn, then take one trial each.  Drawing
consumes the RNG and scoring does not, so the shipped draw-then-score
generation must reproduce this run exactly: the same draws, child
costs, selections and history.  No batched kernel runs here, so the
oracle never scores with the kernel it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.config import EvolutionParams
from repro.errors import OptimizationError
from repro.optimize.result import GenerationRecord, OptimizationResult
from repro.optimize.start import estimate_module_count, start_population
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition


@dataclass
class _Individual:
    """One population member: ES bookkeeping plus either a live
    evaluation state (parents) or a recorded mutation relative to the
    parent's state (unselected children never materialise one)."""

    cost: float | None  # None = single-move child awaiting its trial
    step: float
    age: int = 0
    state: object | None = None
    parent_state: object | None = None
    moves: list[tuple[int, int]] = field(default_factory=list)

    def materialize(self):
        """The individual's live state, building it on first need by
        copying the parent and replaying the recorded moves (identical
        arithmetic to the scoring trial, so identical statistics)."""
        if self.state is None:
            state = self.parent_state.copy()
            i = 0
            while i < len(self.moves):  # replay maximal same-target runs
                target = self.moves[i][1]
                j = i + 1
                while j < len(self.moves) and self.moves[j][1] == target:
                    j += 1
                state.move_gates([gate for gate, _ in self.moves[i:j]], target)
                i = j
            self.state = state
            self.parent_state = None
        return self.state


class EvolutionOptimizer:
    """The per-child ES driver, bound to one evaluator."""

    def __init__(
        self,
        evaluator: PartitionEvaluator,
        params: EvolutionParams | None = None,
        seed: int | None = None,
    ):
        self.evaluator = evaluator
        self.params = params or EvolutionParams()
        self.rng = random.Random(seed)
        self.seed = seed

    # ----------------------------------------------------------------- driver
    def run(self, starts: list[Partition] | None = None) -> OptimizationResult:
        params = self.params
        rng = self.rng
        if starts is None:
            k = estimate_module_count(self.evaluator)
            starts = start_population(self.evaluator, k, params.mu, rng)
        if not starts:
            raise OptimizationError("evolution needs at least one start partition")

        evaluations = 0
        parents: list[_Individual] = []
        for partition in starts:
            state = self.evaluator.new_state(partition)
            cost = state.penalized_cost(params.penalty)
            evaluations += 1
            parents.append(
                _Individual(cost, step=float(params.max_moved_gates), state=state)
            )

        best = min(parents, key=lambda ind: ind.cost)
        best_snapshot = best.state.copy()
        best_cost = best.cost
        history: list[GenerationRecord] = []
        stale = 0
        generation = 0
        converged = False

        for generation in range(1, params.generations + 1):
            children: list[_Individual] = []
            for parent in parents:
                deferred: list[_Individual] = []
                for _ in range(params.children_per_parent):
                    children.append(self._mutated_child(parent))
                    if children[-1].cost is None:
                        deferred.append(children[-1])
                for _ in range(params.monte_carlo_per_parent):
                    children.append(self._monte_carlo_child(parent))
                    if children[-1].cost is None:
                        deferred.append(children[-1])
                for child in deferred:
                    child.cost = parent.state.trial_cost(child.moves, params.penalty)
                    parent.state.rollback()
            evaluations += len(children)

            for parent in parents:
                parent.age += 1
            pool = [p for p in parents if p.age < params.max_lifetime] + children
            if not pool:
                pool = children or parents
            pool.sort(key=lambda ind: ind.cost)
            parents = pool[: params.mu]
            for survivor in parents:
                survivor.materialize()

            generation_best = parents[0]
            if generation_best.cost < best_cost - 1e-12:
                best_cost = generation_best.cost
                best_snapshot = generation_best.state.copy()
                stale = 0
            else:
                stale += 1
            mean_cost = sum(ind.cost for ind in parents) / len(parents)
            history.append(
                GenerationRecord(
                    generation=generation,
                    best_cost=best_cost,
                    best_feasible=best_snapshot.constraint_report().feasible,
                    mean_cost=mean_cost,
                    num_modules=best_snapshot.partition.num_modules,
                    evaluations=evaluations,
                )
            )
            if stale >= params.convergence_window:
                converged = True
                break

        evaluation = self.evaluator.evaluation_of(best_snapshot)
        return OptimizationResult(
            best=evaluation,
            history=history,
            generations_run=generation,
            evaluations=evaluations,
            converged=converged,
            seed=self.seed,
            optimizer="evolution",
        )

    # -------------------------------------------------------------- operators
    def _child_step(self, parent_step: float) -> float:
        """Normal perturbation of the step width (paper: "The new m is
        subject to normal distribution with variance ε around the m of
        the step before")."""
        return max(1.0, self.rng.gauss(parent_step, self.params.step_std))

    def _mutated_child(self, parent: _Individual) -> _Individual:
        rng = self.rng
        state = parent.state
        partition = state.partition
        step = self._child_step(parent.step)
        moves: list[tuple[int, int]] = []
        state.begin_trial()
        if partition.num_modules >= 2:
            module = rng.choice(partition.module_ids)
            boundary = partition.boundary_gates(module)
            if boundary:
                limit = min(int(step), len(boundary))
                count = rng.randint(1, max(1, limit))
                moved = rng.sample(boundary, count)
                for gate in moved:
                    if partition.module_of(gate) != module:
                        continue  # an earlier move dissolved the module
                    targets = partition.neighbor_modules(gate)
                    if targets:
                        target = rng.choice(targets)
                        state.move_gate(gate, target)
                        moves.append((gate, target))
        # Single-move children defer to the parent's batched scoring
        # call in ``run`` (their trial state is just parent + one move).
        cost = None if len(moves) == 1 else state.penalized_cost(self.params.penalty)
        state.rollback()
        return _Individual(cost, step=step, parent_state=state, moves=moves)

    def _monte_carlo_child(self, parent: _Individual) -> _Individual:
        rng = self.rng
        state = parent.state
        partition = state.partition
        step = self._child_step(parent.step)
        moves: list[tuple[int, int]] = []
        state.begin_trial()
        if partition.num_modules >= 2:
            source = rng.choice(partition.module_ids)
            targets = [m for m in partition.module_ids if m != source]
            target = rng.choice(targets)
            gates = partition.gates_array(source).tolist()  # ascending
            count = rng.randint(1, len(gates))
            block = rng.sample(gates, count)
            state.move_gates(block, target)
            moves.extend((gate, target) for gate in block)
        cost = None if len(moves) == 1 else state.penalized_cost(self.params.penalty)
        state.rollback()
        return _Individual(cost, step=step, parent_state=state, moves=moves)

