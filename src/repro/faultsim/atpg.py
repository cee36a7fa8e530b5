"""IDDQ test generation: random phase + targeted activation search.

The paper assumes "a precomputed test vector set" (§3.4).  This module
produces one: defects from :mod:`repro.faultsim.faults` are targeted
with

1. a **random phase** — a batch of uniform vectors, evaluated with the
   bit-parallel detection matrix (random vectors activate most bridges:
   any vector putting opposite values on the two nets works);
2. a **targeted phase** — for each still-undetected defect, a
   hill-climbing search over single-input flips toward a vector that
   activates the defect *and* drives the observing module's measured
   current over its effective threshold;
3. a **compaction phase** — greedy set cover keeps a minimal subset
   preserving coverage.

The search runs on a persistent
:class:`~repro.faultsim.engine.CoverageEngine`, whose exact module
current bounds decide most defects before any simulation
(:meth:`~repro.faultsim.engine.CoverageEngine.search_class`): a
*futile* defect is never detected, and an *activation-only* defect's
whole walk is simulated in one batch of logic values (a few for a long
walk).  Only the rest run the step-by-step hill-climb of
:func:`_search_activating_vector`.  Each returns the step-by-step
walk's vector and leaves the RNG where that walk leaves it.
:func:`reference_generate_iddq_tests` drives the step-by-step search
through the one-shot reference ``detection_matrix`` — the equivalence
suite asserts both return the same test set, bit for bit.

IDDQ test generation is fundamentally easier than logic ATPG: a defect
needs only to be *activated* (no propagation to an output), which is why
small vector sets reach high coverage — the property the paper's test
application-time argument (§3.4: per-vector cost dominates) builds on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.errors import FaultSimError
from repro.faultsim.coverage import detection_matrix
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import Defect
from repro.faultsim.patterns import compact_patterns, random_patterns
from repro.library.library import CellLibrary
from repro.library.technology import Technology
from repro.netlist.circuit import Circuit
from repro.partition.partition import Partition

__all__ = ["IDDQTestSet", "generate_iddq_tests", "reference_generate_iddq_tests"]

#: ``detect(defects, patterns) -> (defects, patterns)`` boolean matrix.
Detector = Callable[[Sequence[Defect], np.ndarray], np.ndarray]

#: Most patterns an activation-only walk simulates at once: a quick
#: campaign's walk (16 steps of at most 234 rows) is one batch; a
#: full-budget c7552 walk (96 steps of 208 rows) peaks at ~10 MB in three.
_WALK_BATCH_ROWS = 8192


@dataclass(frozen=True)
class IDDQTestSet:
    """A generated IDDQ test set and its bookkeeping.

    Attributes:
        patterns: ``(vectors, inputs)`` 0/1 matrix, compacted.
        detected_ids / undetected_ids: defect coverage split.
        random_detected: how many defects the random phase caught.
        targeted_detected: how many more the targeted phase added.
    """

    patterns: np.ndarray
    detected_ids: tuple[str, ...]
    undetected_ids: tuple[str, ...]
    random_detected: int
    targeted_detected: int

    @property
    def num_vectors(self) -> int:
        return int(self.patterns.shape[0])

    @property
    def coverage(self) -> float:
        total = len(self.detected_ids) + len(self.undetected_ids)
        return len(self.detected_ids) / total if total else 1.0

    def summary(self) -> str:
        return (
            f"{self.num_vectors} vectors cover {len(self.detected_ids)} of "
            f"{len(self.detected_ids) + len(self.undetected_ids)} defects "
            f"({100 * self.coverage:.1f}%; random phase {self.random_detected}, "
            f"targeted phase +{self.targeted_detected})"
        )


def generate_iddq_tests(
    circuit: Circuit,
    partition: Partition,
    defects: Sequence[Defect],
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    seed: int = 0,
    random_vectors: int = 128,
    restarts: int = 4,
    flip_budget: int = 24,
    compact: bool = True,
    engine: CoverageEngine | None = None,
    defect_parallel: bool = False,
    jobs: int | None = None,
) -> IDDQTestSet:
    """Generate and compact an IDDQ test set for ``defects``.

    Args:
        random_vectors: size of the random phase batch.
        restarts: random restarts per undetected defect in the targeted
            phase.
        flip_budget: maximum greedy single-bit flips per restart.
        compact: greedily minimise the final vector set.
        engine: reuse an existing :class:`CoverageEngine` (one is built
            when omitted; mutually exclusive with ``library`` /
            ``technology``, which a passed engine already carries).
        defect_parallel: opt into the defect-parallel targeted phase —
            one independent seeded RNG stream per defect (stream id
            ``f"{seed}:{defect_index}"``), sharded across the runtime's
            process pool.  Deterministic for a fixed seed at any worker
            count, but a *different* walk than the serial reference's
            single shared stream, so results differ from (and coverage
            is pinned to be no worse than) the default mode.
        jobs: worker count for the defect-parallel phase (``None``
            defers to ``REPRO_JOBS``; only meaningful with
            ``defect_parallel=True``).
    """
    if engine is not None and (library is not None or technology is not None):
        raise FaultSimError(
            "pass either an engine or a library/technology, not both — "
            "the engine already carries its own characterisation"
        )
    search_all = None
    if defect_parallel:
        worker_library = engine.sim.library if engine is not None else library
        worker_technology = engine.technology if engine is not None else technology

        def search_all(undetected_indices):
            from repro.runtime.parallel import defect_parallel_targeted

            return defect_parallel_targeted(
                circuit,
                partition,
                defects,
                undetected_indices,
                seed=seed,
                restarts=restarts,
                flip_budget=flip_budget,
                library=worker_library,
                technology=worker_technology,
                jobs=jobs,
            )

    engine = engine or CoverageEngine(circuit, library, technology)
    num_inputs = len(circuit.input_names)
    return _generate(
        lambda ds, ps: engine.detection_matrix(partition, ds, ps),
        lambda defect, rng: _targeted_search(
            engine, partition, defect, rng, num_inputs, restarts, flip_budget
        ),
        circuit,
        defects,
        seed,
        random_vectors,
        compact,
        search_all=search_all,
    )


def reference_generate_iddq_tests(
    circuit: Circuit,
    partition: Partition,
    defects: Sequence[Defect],
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    seed: int = 0,
    random_vectors: int = 128,
    restarts: int = 4,
    flip_budget: int = 24,
    compact: bool = True,
) -> IDDQTestSet:
    """The identical search through the one-shot reference detector.

    Every detection call rebuilds the IDDQ simulator from scratch — the
    pre-engine behaviour, kept as the executable specification and the
    benchmark baseline.
    """

    def detect(ds, ps):
        return detection_matrix(circuit, partition, ds, ps, library, technology)

    num_inputs = len(circuit.input_names)
    return _generate(
        detect,
        lambda defect, rng: _search_activating_vector(
            detect, defect, rng, num_inputs, restarts, flip_budget
        ),
        circuit,
        defects,
        seed,
        random_vectors,
        compact,
    )


def _generate(
    detect: Detector,
    search: Callable[[Defect, random.Random], np.ndarray | None],
    circuit: Circuit,
    defects: Sequence[Defect],
    seed: int,
    random_vectors: int,
    compact: bool,
    search_all: Callable[[list[int]], dict[int, np.ndarray]] | None = None,
) -> IDDQTestSet:
    if not defects:
        raise FaultSimError("no defects to target")
    rng = random.Random(seed)

    with obs.TRACER.span("atpg.random", vectors=random_vectors):
        pool = random_patterns(len(circuit.input_names), random_vectors, seed=seed)
        matrix = detect(defects, pool)
        detected = matrix.any(axis=1)
    random_count = int(detected.sum())

    # Targeted phase: one search per missed defect.  The serial mode
    # walks the defects in order through one shared RNG; a
    # ``search_all`` override (the defect-parallel mode) supplies the
    # found vectors for every undetected defect at once instead.
    undetected = [d for d in range(len(defects)) if not detected[d]]
    with obs.TRACER.span("atpg.targeted", defects=len(undetected)):
        if search_all is not None:
            found = search_all(undetected)
        else:
            found = {}
            for d in undetected:
                vector = search(defects[d], rng)
                if vector is not None:
                    found[d] = vector
        if found:
            pool = np.vstack([pool, np.stack([found[d] for d in sorted(found)])])
            matrix = detect(defects, pool)

    if compact:
        with obs.TRACER.span("atpg.compact", vectors=int(pool.shape[0])):
            keep = compact_patterns(matrix)
            if keep.size:
                pool = pool[keep]
                matrix = matrix[:, keep]
            else:
                pool = pool[:1]
                matrix = matrix[:, :1]

    detected = matrix.any(axis=1)
    detected_ids = tuple(d.defect_id for d, hit in zip(defects, detected) if hit)
    undetected_ids = tuple(d.defect_id for d, hit in zip(defects, detected) if not hit)
    return IDDQTestSet(
        patterns=pool,
        detected_ids=detected_ids,
        undetected_ids=undetected_ids,
        random_detected=random_count,
        targeted_detected=len(found),
    )


def _targeted_search(
    engine: CoverageEngine,
    partition: Partition,
    defect: Defect,
    rng: random.Random,
    num_inputs: int,
    restarts: int,
    flip_budget: int,
) -> np.ndarray | None:
    """:func:`_search_activating_vector`'s result through ``engine``,
    found the way :meth:`CoverageEngine.search_class` allows; ``rng``
    ends where that walk leaves it, as the serial mode's shared stream
    needs."""
    kind = engine.search_class(partition, defect)
    obs.METRICS.inc(f"atpg.search.{kind}")
    if kind == "walk":
        return _search_activating_vector(
            lambda ds, ps: engine.detection_matrix(partition, ds, ps),
            defect, rng, num_inputs, restarts, flip_budget,
        )
    if kind == "futile":
        for _ in _walk_steps(rng, num_inputs, restarts, flip_budget):
            pass
        return None
    # Activation only: no step steers the walk before a hit, so draw every
    # step on a copy of the stream, simulate many steps' flip batches at
    # once and take the first activating row in walk order.
    draw = random.Random()
    draw.setstate(rng.getstate())
    steps = np.asarray(
        list(_walk_steps(draw, num_inputs, restarts, flip_budget)), dtype=np.uint8
    ).reshape(-1, num_inputs)
    flips = np.eye(num_inputs, dtype=np.uint8)
    per_batch = max(1, _WALK_BATCH_ROWS // (num_inputs + 1))
    for first in range(0, len(steps), per_batch):
        batch = steps[first : first + per_batch, None].repeat(num_inputs + 1, axis=1)
        batch[:, 1:] ^= flips
        active = engine.activation(defect, batch.reshape(-1, num_inputs))
        active = active.reshape(len(batch), num_inputs + 1)
        hit_steps = np.flatnonzero(active.any(axis=1))
        if hit_steps.size:
            step = int(hit_steps[0])
            replay = _walk_steps(rng, num_inputs, restarts, flip_budget)
            for _ in islice(replay, first + step + 1):
                pass
            return batch[step, int(np.flatnonzero(active[step])[0])].copy()
    rng.setstate(draw.getstate())
    return None


def _walk_steps(
    rng: random.Random, num_inputs: int, restarts: int, flip_budget: int
) -> Iterator[np.ndarray]:
    """The vectors :func:`_search_activating_vector` tries while it finds
    nothing, drawn as it draws them: taking the first ``k`` leaves ``rng``
    where a hit at the ``k``-th step leaves it, exhausting it where a
    miss does."""
    for _ in range(restarts):
        vector = np.asarray(
            [rng.randint(0, 1) for _ in range(num_inputs)], dtype=np.uint8
        )
        for _ in range(flip_budget):
            yield vector
            vector = vector.copy()
            vector[rng.randrange(num_inputs)] ^= 1


def _search_activating_vector(
    detect: Detector,
    defect: Defect,
    rng: random.Random,
    num_inputs: int,
    restarts: int,
    flip_budget: int,
) -> np.ndarray | None:
    """Hill-climb toward a vector that *detects* ``defect``.

    Each step evaluates the whole single-flip neighbourhood in one
    bit-parallel batch; any detecting neighbour wins immediately,
    otherwise a random flip keeps the walk moving (the landscape is flat
    away from activation, so greedy descent alone would stall).
    """
    for _ in range(restarts):
        vector = np.asarray(
            [rng.randint(0, 1) for _ in range(num_inputs)], dtype=np.uint8
        )
        for _ in range(flip_budget):
            batch = np.tile(vector, (num_inputs + 1, 1))
            for bit in range(num_inputs):
                batch[bit + 1, bit] ^= 1
            hits = detect([defect], batch)[0]
            if hits[0]:
                return vector
            winners = np.flatnonzero(hits[1:])
            if winners.size:
                flipped = int(winners[0])
                vector = batch[flipped + 1]
                return vector
            vector = vector.copy()
            vector[rng.randrange(num_inputs)] ^= 1
    return None
