"""The paper's evolution strategy for PART-IDDQ (paper §4).

One cycle = recombination (duplication of a single parent), mutation,
selection:

* each of the μ parents is copied λ times; each copy has between 1 and
  ``min(m, #boundary gates)`` randomly chosen boundary gates of a random
  module moved into a module they are connected with;
* additionally χ *Monte-Carlo* children per parent move a random number
  of random gates of a random module into a random (not necessarily
  connected) module — the high-variance descendants that "reduce the
  probability of being caught in a local minimum"; a fully emptied
  module is deleted;
* every descendant's step width ``m`` is redrawn from a normal
  distribution around its parent's (standard deviation ε);
* selection keeps the best μ of {parents younger than the maximum
  lifetime κ} ∪ {descendants}.

Each generation runs in three phases, traced as the ``es.draw``,
``es.score`` and ``es.select`` spans:

* **draw** — every child's mutation is drawn as a move list against its
  parent's unchanged partition.  A mutated child's later gates must see
  its earlier moves when they look for connected modules; a ``{gate:
  target}`` overlay read by :meth:`Partition.neighbor_modules` provides
  that, so no gate is moved and the parent's partition keeps its
  version.  The mutation reads :meth:`Partition.boundary_sets`, so a new
  parent pays one boundary pass for all λ of its children, and the
  boundary and Monte-Carlo samples make ``rng.sample``'s draws inline
  (:func:`_sample`).
* **score** — all μ·(λ+χ) move lists go to one
  :meth:`~repro.partition.state.EvaluationState.trial_blocks` call.
  Only the modified modules are re-evaluated (§4.2: "costs are
  recomputed just for the modified modules ... the partitions generated
  this way can be evaluated very efficiently"), for the whole
  generation at once: one statistics pass over every row (exact integer
  separation totals, one re-degradation call) and one stacked
  block-cone retiming sweep (DESIGN §8.3) for the exact ``D_BIC``.
  Each cost is bit-identical to trying the child's moves on the
  parent's state and rolling back.  Drawing consumes the RNG and
  scoring does not, so the draws happen in the order the paper's
  child-by-child loop makes them.
* **select** — only the μ survivors build a state, and each adopts the
  row the kernel scored for it (``scores.state(row)``): a copy of the
  parent's partition with the moves applied, plus the row's statistics,
  sensor sizes, degraded delays, member arrays and its column of the
  stacked sweep's arrival times.  Nothing is replayed, re-sized,
  re-degraded or re-timed, so the survivor's refresh in the next score
  phase does no work.  Only the survivors carry over: the scored rows,
  the unselected children and the parents that did not survive are
  freed before the next draw, as are the start partitions once their
  states exist.

The connected-target queries of the mutation operator are per-gate CSR
reads, and the boundary pass is one array pass over the compiled
graph's gate edges (see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro import obs
from repro.config import EvolutionParams
from repro.errors import OptimizationError
from repro.optimize.result import GenerationRecord, OptimizationResult
from repro.optimize.start import estimate_module_count, start_population
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["EvolutionOptimizer", "evolve_partition"]


@dataclass
class _Individual:
    """One population member: ES bookkeeping plus either a live
    evaluation state (parents) or a recorded mutation relative to the
    parent's state and its row in the generation's scoring call
    (unselected children never build a state)."""

    cost: float | None  # None until the generation is scored
    step: float
    age: int = 0
    state: object | None = None
    parent_state: object | None = None
    moves: list[tuple[int, int]] = field(default_factory=list)
    row: int = -1


class EvolutionOptimizer:
    """Reusable ES driver bound to one evaluator.

    Use :func:`evolve_partition` for the one-call version.
    """

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
            with obs.TRACER.span("es.start", starts=params.mu):
                k = estimate_module_count(self.evaluator)
                starts = start_population(self.evaluator, k, params.mu, rng)
        if not starts:
            raise OptimizationError("evolution needs at least one start partition")

        parents = [
            _Individual(
                state.penalized_cost(params.penalty),
                step=float(params.max_moved_gates),
                state=state,
            )
            for state in map(self.evaluator.new_state, starts)
        ]
        # Every state holds its own copy of its start partition.
        del starts
        evaluations = len(parents)

        # Generation 0 is the start population.
        generation_best = min(parents, key=lambda ind: ind.cost)
        best_snapshot = generation_best.state.copy()
        best_cost = generation_best.cost
        history: list[GenerationRecord] = []
        stale = 0
        generation = 0
        converged = False

        for generation in range(1, params.generations + 1):
            with obs.TRACER.span("es.draw", generation=generation):
                children = [
                    child
                    for parent in parents
                    for child in self.draw_children(parent.state, parent.step)
                ]
            with obs.TRACER.span("es.score", generation=generation, rows=len(children)):
                scores = type(parents[0].state).trial_blocks(
                    [(child.parent_state, child.moves) for child in children],
                    params.penalty,
                )
                for row, cost in enumerate(scores.costs.tolist()):
                    children[row].cost = cost
                    children[row].row = row
            evaluations += len(children)

            with obs.TRACER.span("es.select", generation=generation):
                parents = self._select(parents, children, scores)
                # Only the survivors carry over: the scored rows, the
                # unselected children and the parents they point to go
                # before the next generation is drawn.
                del children, scores
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

    def _select(self, parents, children, scores) -> list[_Individual]:
        """The μ best of the parents younger than κ and the scored
        children; each surviving child adopts its scored row as its
        state."""
        params = self.params
        for parent in parents:
            parent.age += 1
        pool = [p for p in parents if p.age < params.max_lifetime] + children
        if not pool:
            pool = children or parents
        pool.sort(key=lambda ind: ind.cost)
        survivors = pool[: params.mu]
        for survivor in survivors:
            if survivor.state is None:
                survivor.state = scores.state(survivor.row)
                survivor.parent_state = None
        return survivors

    # -------------------------------------------------------------- operators
    def draw_children(self, state, step: float) -> list[_Individual]:
        """The λ mutated then χ Monte-Carlo children of the parent with
        live ``state`` and step width ``step``, as unscored move lists
        against its unchanged partition."""
        params = self.params
        partition = state.partition
        children = []
        for mutation in [True] * params.children_per_parent + [
            False
        ] * params.monte_carlo_per_parent:
            child_step = self._child_step(step)
            if partition.num_modules < 2:
                moves = []
            elif mutation:
                moves = self._mutation_moves(partition, child_step)
            else:
                moves = self._monte_carlo_moves(partition)
            children.append(
                _Individual(None, step=child_step, parent_state=state, moves=moves)
            )
        return children

    def _child_step(self, parent_step: float) -> float:
        """Normal perturbation of the step width (paper: "The new m is
        subject to normal distribution with variance ε around the m of
        the step before")."""
        return max(1.0, self.rng.gauss(parent_step, self.params.step_std))

    def _mutation_moves(self, partition: Partition, step: float) -> list[tuple[int, int]]:
        """Boundary gates of a random module, each moved into a random
        connected module; the overlay makes every later gate see the
        earlier moves."""
        rng = self.rng
        module = rng.choice(partition.module_ids)
        boundary = partition.boundary_sets()[module]
        if not boundary:
            return []
        count = rng.randint(1, max(1, min(int(step), len(boundary))))
        overlay: dict[int, int] = {}
        moves = []
        for gate in _sample(boundary, count, rng):
            targets = partition.neighbor_modules(gate, overlay)
            if targets:
                target = rng.choice(targets)
                overlay[gate] = target
                moves.append((gate, target))
        return moves

    def _monte_carlo_moves(self, partition: Partition) -> list[tuple[int, int]]:
        """A random block of a random module moved into another random
        module."""
        rng = self.rng
        module_ids = partition.module_ids
        source = rng.choice(module_ids)
        target = rng.choice([m for m in module_ids if m != source])
        gates = partition.gates_array(source).tolist()  # ascending
        block = _sample(gates, rng.randint(1, len(gates)), rng)
        return [(gate, target) for gate in block]


def _sample(population: list, k: int, rng: random.Random) -> list:
    """``rng.sample(population, k)``, with the draws inlined.

    Both branches of ``random.Random.sample`` (a shrinking pool when the
    population is small against the selected-set size, else rejection
    against the selected indices), switched at the same ``setsize``, and
    the rejection sampling over ``getrandbits`` of its ``_randbelow``: the
    same sample and the same RNG state afterwards, without a method call
    per draw.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result = [None] * k
    setsize = 21  # a small set's size minus an empty list's
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            bound = n - i
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[bound - 1]
    else:
        selected: set[int] = set()
        bits = n.bit_length()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result[i] = population[j]
    return result


def evolve_partition(
    evaluator: PartitionEvaluator,
    params: EvolutionParams | None = None,
    seed: int | None = None,
    starts: list[Partition] | None = None,
) -> OptimizationResult:
    """Run the paper's evolution strategy once and return the result."""
    return EvolutionOptimizer(evaluator, params=params, seed=seed).run(starts)
