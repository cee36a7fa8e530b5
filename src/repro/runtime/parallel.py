"""Domain drivers on top of the process-pool executor.

Three workloads are sharded here:

* :func:`sharded_detection_matrix` — the stuck-at detection matrix,
  its stem flip passes split into contiguous stem ranges
  (:func:`sharded_stem_flips`).  Every stem's flip words are computed
  independently of its batch-mates (the batched engine pins each stem
  in its own bit column), so concatenating the ranges' words in stem
  order is **bit-identical** to the serial build — asserted by the
  runtime test suite and the benchmark.
* :func:`sharded_targeted_searches` — the targeted phase of IDDQ test
  generation, one task per undetected defect.  Each search draws from
  its own seeded stream (:func:`repro.faultsim.atpg.defect_stream_seed`),
  so the vector found for defect *d* is a pure function of
  ``(seed, d)`` — independent of worker scheduling and of *which
  other* defects are searched — and the test set equals the
  in-process one, bit for bit, as the equivalence suite pins.
* :func:`portfolio_runs` — multi-seed optimiser portfolios, one full
  portfolio run per seed; workers return compact summaries (assignment
  array + scalars) and the parent re-evaluates the winner, keeping the
  heavyweight result objects out of the result queue.

Worker state is shipped through the executor's ``state_factory`` as
``functools.partial`` over module-level builders — under fork it is
inherited copy-on-write (the parent pre-compiles the circuit so workers
start warm), under spawn it is pickled once per worker.

Because each shard/defect/seed task is a pure function of its inputs,
the executor's failure recovery (DESIGN.md §10) is free here: a crashed
or timed-out worker's tasks are simply re-dispatched and the gathered
result is bit-identical to the fault-free run — the fault-injection
suite pins this for every driver below.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro import obs
from repro.runtime.executor import Executor, resolve_jobs

__all__ = [
    "portfolio_runs",
    "sharded_detection_matrix",
    "sharded_stem_flips",
    "sharded_targeted_searches",
]


# ------------------------------------------------------------------ stuck-at
def _stem_state(circuit, batch_words, good, stems):
    from repro.faultsim.stuck_at import StuckAtSimulator

    sim = StuckAtSimulator(circuit)
    sim.batch_words = batch_words
    return (sim, good, stems)


def _stem_shard(state, task):
    sim, good, stems = state
    start, stop = task
    return sim.stem_flips(good, stems[start:stop])


def sharded_detection_matrix(
    circuit,
    faults: Sequence,
    patterns: np.ndarray,
    jobs: int | None = None,
) -> np.ndarray:
    """Stuck-at detection matrix with its stem flip passes sharded
    across workers.

    Bit-identical to ``StuckAtSimulator(circuit).detection_matrix(...)``
    at any worker count.  With ``jobs <= 1`` this *is* that call.
    """
    from repro.faultsim.stuck_at import StuckAtSimulator

    return StuckAtSimulator(circuit).detection_matrix(
        faults, patterns, jobs=resolve_jobs(jobs)
    )


def sharded_stem_flips(
    sim, good: np.ndarray, stems: np.ndarray, jobs: int | None = None
) -> np.ndarray:
    """``sim.stem_flips(good, stems)`` over contiguous stem ranges, one
    pool task per range, about four ranges per worker for load balance
    (stem cones vary in size).

    Tasks are ``(start, stop)`` index ranges — the fault-free words and
    the stems ride in the worker state (inherited free under fork,
    pickled once per worker under spawn), keeping per-task payloads to
    a few bytes; each worker replays its range in ``sim``'s batches.
    """
    circuit = sim.circuit
    executor = Executor(jobs)
    with obs.TRACER.span(
        "driver.detection_matrix",
        circuit=circuit.name,
        stems=len(stems),
        jobs=executor.jobs,
    ):
        # Warm shared compiled-graph caches before forking so every worker
        # inherits them instead of rebuilding (slot closures are cached on
        # the CompiledGraph instance itself).
        circuit.compiled.slot_closure()
        shard = max(1, -(-len(stems) // (executor.jobs * 4)))
        tasks = [
            (start, min(start + shard, len(stems)))
            for start in range(0, len(stems), shard)
        ]
        results = executor.map(
            _stem_shard,
            tasks,
            state_factory=partial(
                _stem_state, circuit, sim.batch_words, good, stems
            ),
        )
        return np.concatenate(results) if results else good[:0]


# ---------------------------------------------------------------------- ATPG
def _atpg_state(circuit, library, technology, *search):
    """``(engine, partition, defects, seed, restarts, flip_budget)``."""
    from repro.faultsim.engine import CoverageEngine

    return (CoverageEngine(circuit, library, technology), *search)


def _atpg_search(state, index):
    from repro.faultsim.atpg import _search_defects

    return _search_defects(*state, [index])


def sharded_targeted_searches(
    engine,
    partition,
    defects: Sequence,
    undetected: Sequence[int],
    seed: int,
    restarts: int,
    flip_budget: int,
    jobs: int | None = None,
) -> dict[int, np.ndarray]:
    """Activating vectors for the ``undetected`` defect indices.

    Returns ``{defect index: vector}`` for the searches that succeeded.
    With ``jobs <= 1`` (or one search) the searches run in turn on
    ``engine``; otherwise one pool task per defect, each worker with
    its own engine for ``engine``'s circuit, library and technology.
    The result does not depend on ``jobs``.
    """
    from repro.faultsim.atpg import _search_defects

    search = (partition, defects, seed, restarts, flip_budget)
    if resolve_jobs(jobs) <= 1 or len(undetected) <= 1:
        return _search_defects(engine, *search, undetected)
    executor = Executor(jobs)
    circuit = engine.circuit
    with obs.TRACER.span(
        "driver.targeted_searches",
        circuit=circuit.name,
        defects=len(undetected),
        jobs=executor.jobs,
    ):
        circuit.compiled  # warm before fork
        found: dict[int, np.ndarray] = {}
        for part in executor.map(
            _atpg_search,
            undetected,
            state_factory=partial(
                _atpg_state, circuit, engine.sim.library, engine.technology,
                *search,
            ),
        ):
            found.update(part)
        return found


# ----------------------------------------------------------------- portfolio
def _portfolio_state(evaluator):
    return evaluator


def _portfolio_run(evaluator, task):
    from repro.errors import OptimizationError
    from repro.optimize.portfolio import portfolio_partition

    seed, evolution_params, annealing_params, kl_passes = task
    try:
        result = portfolio_partition(
            evaluator,
            evolution_params=evolution_params,
            annealing_params=annealing_params,
            seed=seed,
            kl_passes=kl_passes,
        )
    except OptimizationError as exc:
        # A seed whose every strategy came back infeasible must not
        # abort the whole fan-out — other seeds may still win.
        return {
            "seed": seed,
            "optimizer": "portfolio",
            "feasible": False,
            "cost": float("inf"),
            "violation": float("inf"),
            "evaluations": 0,
            "assignment": None,
            "error": str(exc),
        }
    assignment = result.best.partition.module_of_array()
    return {
        "seed": seed,
        "optimizer": result.optimizer,
        "feasible": result.feasible,
        "cost": result.best_cost,
        "violation": result.best.violation,
        "evaluations": result.evaluations,
        "assignment": assignment,
    }


def portfolio_runs(
    evaluator,
    seeds: Sequence[int],
    evolution_params=None,
    annealing_params=None,
    kl_passes: int = 2,
    jobs: int | None = None,
) -> list[dict]:
    """One full portfolio run per seed, fanned out across workers.

    Returns compact per-seed summaries in seed order (deterministic
    tie-breaks downstream).  A seed whose every strategy is infeasible
    yields a ``feasible=False`` summary (with the error message) rather
    than aborting the fan-out.
    """
    tasks = [
        (seed, evolution_params, annealing_params, kl_passes) for seed in seeds
    ]
    executor = Executor(jobs)
    with obs.TRACER.span(
        "driver.portfolio_runs", seeds=len(tasks), jobs=executor.jobs
    ):
        return executor.map(
            _portfolio_run, tasks, state_factory=partial(_portfolio_state, evaluator)
        )
