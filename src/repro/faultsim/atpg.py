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

Each targeted search draws from its own stream,
``random.Random(defect_stream_seed(seed, d))`` for the defect at index
``d`` of the full list, so a search is a pure function of ``(seed, d)``
and the test set is the same at any worker count: with ``jobs <= 1``
the searches run in turn on the caller's
:class:`~repro.faultsim.engine.CoverageEngine`, with more they shard
across the process pool, one engine per worker
(:func:`repro.runtime.parallel.sharded_targeted_searches`).  The
engine's exact module current bounds decide most defects before any
simulation (:meth:`~repro.faultsim.engine.CoverageEngine.search_class`):
a *futile* defect is never detected, and an *activation-only* defect's
whole walk is simulated in one batch of logic values (a few for a long
walk).  Only the rest run the step-by-step hill-climb of
:func:`_search_activating_vector`; every class returns the vector that
walk returns.  The reference in ``tests/oracles/faultsim.py`` runs the
step-by-step search on the same streams through a one-shot detector —
the equivalence suite asserts both return the same test set, bit for
bit, at one and at two jobs.

IDDQ test generation is fundamentally easier than logic ATPG: a defect
needs only to be *activated* (no propagation to an output), which is why
small vector sets reach high coverage — the property the paper's test
application-time argument (§3.4: per-vector cost dominates) builds on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.errors import FaultSimError
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import Defect
from repro.faultsim.patterns import compact_patterns, random_patterns
from repro.library.library import CellLibrary
from repro.library.technology import Technology
from repro.netlist.circuit import Circuit
from repro.partition.partition import Partition

__all__ = ["IDDQTestSet", "defect_stream_seed", "generate_iddq_tests"]

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


def defect_stream_seed(seed: int, defect_index: int) -> str:
    """The RNG stream id of one defect's targeted search (DESIGN §9.4).

    ``random.Random`` seeds strings deterministically (version-2 string
    seeding is stable across platforms and Python releases), and the
    index is the defect's position in the *full* defect list, so the
    stream survives re-ordering of the undetected subset.
    """
    return f"{seed}:{defect_index}"


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
        jobs: worker count for the targeted searches (``None`` defers
            to ``REPRO_JOBS``); the test set does not depend on it.
    """
    if engine is not None and (library is not None or technology is not None):
        raise FaultSimError(
            "pass either an engine or a library/technology, not both — "
            "the engine already carries its own characterisation"
        )
    engine = engine or CoverageEngine(circuit, library, technology)

    def search(undetected: list[int]) -> dict[int, np.ndarray]:
        from repro.runtime.parallel import sharded_targeted_searches

        return sharded_targeted_searches(
            engine, partition, defects, undetected, seed, restarts, flip_budget,
            jobs=jobs,
        )

    return _generate(
        lambda ds, ps: engine.detection_matrix(partition, ds, ps),
        search,
        circuit,
        defects,
        seed,
        random_vectors,
        compact,
    )


def _generate(
    detect: Detector,
    search: Callable[[list[int]], dict[int, np.ndarray]],
    circuit: Circuit,
    defects: Sequence[Defect],
    seed: int,
    random_vectors: int,
    compact: bool,
) -> IDDQTestSet:
    if not defects:
        raise FaultSimError("no defects to target")

    with obs.TRACER.span("atpg.random", vectors=random_vectors):
        pool = random_patterns(len(circuit.input_names), random_vectors, seed=seed)
        matrix = detect(defects, pool)
        detected = matrix.any(axis=1)
    random_count = int(detected.sum())

    # Targeted phase: one search per missed defect, each on its own stream.
    undetected = [d for d in range(len(defects)) if not detected[d]]
    with obs.TRACER.span("atpg.targeted", defects=len(undetected)):
        found = search(undetected)
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


def _search_defects(
    engine: CoverageEngine,
    partition: Partition,
    defects: Sequence[Defect],
    seed: int,
    restarts: int,
    flip_budget: int,
    indices: Sequence[int],
) -> dict[int, np.ndarray]:
    """``{index: vector}`` for each of ``defects[indices]`` whose
    targeted search, on its own stream, finds one."""
    num_inputs = len(engine.circuit.input_names)
    found = {}
    for d in indices:
        rng = random.Random(defect_stream_seed(seed, d))
        vector = _targeted_search(
            engine, partition, defects[d], rng, num_inputs, restarts, flip_budget
        )
        if vector is not None:
            found[d] = vector
    return found


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
    found the way :meth:`CoverageEngine.search_class` allows; ``rng`` is
    the defect's own stream, so a futile search draws nothing."""
    kind = engine.search_class(partition, defect)
    obs.METRICS.inc(f"atpg.search.{kind}")
    if kind == "futile":
        return None
    if kind == "walk":
        return _search_activating_vector(
            lambda ds, ps: engine.detection_matrix(partition, ds, ps),
            defect, rng, num_inputs, restarts, flip_budget,
        )
    # Activation only: no step steers the walk before a hit, so draw every
    # step, simulate many steps' flip batches at once and take the first
    # activating row in walk order.
    steps = np.asarray(
        list(_walk_steps(rng, num_inputs, restarts, flip_budget)), dtype=np.uint8
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
            return batch[step, int(np.flatnonzero(active[step])[0])].copy()
    return None


def _walk_steps(
    rng: random.Random, num_inputs: int, restarts: int, flip_budget: int
) -> Iterator[np.ndarray]:
    """The vectors :func:`_search_activating_vector` tries while it finds
    nothing, drawn from ``rng`` as it draws them."""
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
