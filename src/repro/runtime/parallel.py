"""Domain drivers on top of the process-pool executor.

Three workloads are sharded here:

* :func:`sharded_detection_matrix` — the stuck-at detection matrix,
  split into contiguous fault shards.  Every fault's detection row is
  computed independently of its batch-mates (the batched engine pins
  each fault in its own bit column), so concatenating shard submatrices
  in fault order is **bit-identical** to the serial build — asserted by
  the runtime test suite and the benchmark.
* :func:`defect_parallel_targeted` — the targeted phase of IDDQ test
  generation with one independent, seeded ``random.Random`` stream per
  defect (stream id = ``f"{seed}:{defect_index}"``, so the walk for
  defect *d* is a pure function of ``(seed, d)`` and the engine —
  independent of worker scheduling and of *which other* defects are
  searched).  This trades the serial reference's single shared RNG walk
  for scalability; the mode is opt-in and its determinism and coverage
  are pinned by the equivalence suite.
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

import random
from functools import partial
from typing import Sequence

import numpy as np

from repro import obs
from repro.runtime.executor import Executor

__all__ = [
    "defect_parallel_targeted",
    "portfolio_runs",
    "sharded_detection_matrix",
]


# ------------------------------------------------------------------ stuck-at
def _stuck_state(circuit, faults, patterns, backend):
    from repro.faultsim.stuck_at import StuckAtSimulator

    return (StuckAtSimulator(circuit, backend), faults, patterns)


def _stuck_shard(state, task):
    sim, faults, patterns = state
    start, stop = task
    return start, sim.detection_matrix(faults[start:stop], patterns)


def sharded_detection_matrix(
    circuit,
    faults: Sequence,
    patterns: np.ndarray,
    jobs: int | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Stuck-at detection matrix sharded across workers by fault range.

    Bit-identical to ``StuckAtSimulator(circuit).detection_matrix(...)``
    at any worker count.  With ``jobs <= 1`` this *is* that call.
    ``backend`` is a registered simulation-backend *name* (names, not
    instances, cross the process boundary).

    Tasks are ``(start, stop)`` index ranges — the fault list rides in
    the worker state (inherited free under fork, pickled once per
    worker under spawn), keeping per-task payloads to a few bytes.
    """
    from repro.faultsim.stuck_at import StuckAtSimulator

    executor = Executor(jobs)
    if executor.serial or len(faults) <= 1:
        return StuckAtSimulator(circuit, backend).detection_matrix(faults, patterns)
    with obs.TRACER.span(
        "driver.detection_matrix",
        circuit=circuit.name,
        faults=len(faults),
        patterns=int(patterns.shape[0]),
        jobs=executor.jobs,
    ):
        # Warm shared compiled-graph caches before forking so every worker
        # inherits them instead of rebuilding (slot closures are cached on
        # the CompiledGraph instance itself).
        circuit.compiled.slot_closure()
        faults = list(faults)
        # ~4 shards per worker for load balance: fault cones vary in size.
        shard = max(1, -(-len(faults) // (executor.jobs * 4)))
        tasks = [
            (start, min(start + shard, len(faults)))
            for start in range(0, len(faults), shard)
        ]
        results = executor.map(
            _stuck_shard,
            tasks,
            state_factory=partial(_stuck_state, circuit, faults, patterns, backend),
        )
        out = np.zeros((len(faults), patterns.shape[0]), dtype=np.bool_)
        for start, submatrix in results:
            out[start : start + submatrix.shape[0]] = submatrix
        return out


# ---------------------------------------------------------------------- ATPG
def defect_stream_seed(seed: int, defect_index: int) -> str:
    """The per-defect RNG stream id (documented contract, DESIGN §9).

    ``random.Random`` seeds strings deterministically (version-2 string
    seeding is stable across platforms and Python releases), and the
    index is the defect's position in the *full* defect list, so the
    stream survives re-ordering of the undetected subset.
    """
    return f"{seed}:{defect_index}"


def _atpg_state(circuit, partition, library, technology, backend_name):
    from repro.faultsim.engine import CoverageEngine

    engine = CoverageEngine(circuit, library, technology, backend=backend_name)
    return (engine, partition)


def _atpg_search(state, task):
    from repro.faultsim.atpg import _targeted_search

    engine, partition = state
    index, defect, seed, num_inputs, restarts, flip_budget = task
    rng = random.Random(defect_stream_seed(seed, index))
    vector = _targeted_search(
        engine, partition, defect, rng, num_inputs, restarts, flip_budget
    )
    return index, vector


def defect_parallel_targeted(
    circuit,
    partition,
    defects: Sequence,
    undetected: Sequence[int],
    seed: int,
    restarts: int,
    flip_budget: int,
    library=None,
    technology=None,
    backend_name: str | None = None,
    jobs: int | None = None,
) -> dict[int, np.ndarray]:
    """Activating vectors for every undetected defect, defect-parallel.

    Returns ``{defect index: vector}`` for the searches that succeeded,
    gathered in defect order.  Deterministic for a fixed ``seed``
    regardless of ``jobs``.
    """
    num_inputs = len(circuit.input_names)
    tasks = [
        (d, defects[d], seed, num_inputs, restarts, flip_budget)
        for d in undetected
    ]
    executor = Executor(jobs)
    with obs.TRACER.span(
        "driver.defect_targeted",
        circuit=circuit.name,
        defects=len(tasks),
        jobs=executor.jobs,
    ):
        if not executor.serial:
            circuit.compiled  # warm before fork
        results = executor.map(
            _atpg_search,
            tasks,
            state_factory=partial(
                _atpg_state, circuit, partition, library, technology, backend_name
            ),
        )
        return {index: vector for index, vector in results if vector is not None}


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
