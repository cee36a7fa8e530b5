"""Typed artifact helpers: the cacheable products of each pipeline stage.

Each helper owns one artifact *kind* — its schema version, its cache-key
recipe (which inputs invalidate it) and its exact round-trip encoding:

========================  =====================================================
kind                      keyed on
========================  =====================================================
``separation``            circuit, cap, schema
``stuckat-detection``     circuit, fault list, patterns, schema
``iddq-testset``          circuit, partition, defects, library, technology,
                          search parameters
``optimize-portfolio``    circuit, library, technology, weights, degradation
                          flags, ES/annealing/KL parameters, seeds
========================  =====================================================

Worker count (``jobs``) is deliberately *not* part of any key: every
parallel build is deterministic and result-identical at any worker
count.

All helpers return ``(value, hit)`` so callers (the campaign manifest,
the benchmarks) can report cache effectiveness.  Failure handling is
inherited from :meth:`~repro.runtime.store.ArtifactStore.fetch`: a
corrupt cached file is quarantined and rebuilt, and a cache directory
that cannot be written degrades to compute-without-cache with a warning
(DESIGN.md §10) — helpers never fail because of the cache.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.runtime import fingerprint as fp
from repro.runtime.store import ArtifactStore

__all__ = [
    "cached_detection_matrix",
    "cached_iddq_test_set",
    "cached_portfolio",
    "cached_separation_matrix",
]

#: Per-kind schema versions; bump to invalidate one kind only.
SCHEMA = {
    "separation": 1,
    "stuckat-detection": 1,
    "iddq-testset": 1,
    "optimize-portfolio": 1,
}


# ---------------------------------------------------------------- separation
def cached_separation_matrix(store: ArtifactStore, circuit, cap: int):
    """Memoized :class:`~repro.analysis.separation.SeparationMatrix`.

    Returns ``(matrix, hit)``.  The cached payload is the raw uint8
    distance matrix; reconstruction is exact by construction.
    """
    from repro.analysis.separation import SeparationMatrix

    key = fp.combine(
        "separation", SCHEMA["separation"], fp.fingerprint_circuit(circuit), cap
    )

    def build():
        matrix = SeparationMatrix(circuit, cap).matrix
        return {"matrix": matrix}, {"cap": cap, "circuit": circuit.name}

    artifact, hit = store.fetch("separation", key, build)
    return SeparationMatrix.from_matrix(artifact.arrays["matrix"], cap), hit


# ------------------------------------------------------------------ stuck-at
def _fault_fingerprint(faults: Sequence) -> str:
    return fp.fingerprint_value([(f.net, f.value) for f in faults])


def cached_detection_matrix(
    store: ArtifactStore,
    circuit,
    faults: Sequence,
    patterns: np.ndarray,
    jobs: int | None = None,
):
    """Memoized stuck-at detection matrix (sharded build on miss).

    Returns ``(matrix, hit)`` with the boolean ``(faults, patterns)``
    matrix stored bit-packed (exactly recoverable: the unpacked tail
    bits beyond ``patterns`` are dropped on load).
    """
    from repro.runtime.parallel import sharded_detection_matrix

    patterns = np.ascontiguousarray(patterns)
    key = fp.combine(
        "stuckat-detection",
        SCHEMA["stuckat-detection"],
        fp.fingerprint_circuit(circuit),
        _fault_fingerprint(faults),
        fp.fingerprint_value(patterns),
    )
    num_patterns = int(patterns.shape[0])

    def build():
        matrix = sharded_detection_matrix(circuit, faults, patterns, jobs=jobs)
        packed = np.packbits(matrix, axis=1)
        return {"packed": packed}, {
            "faults": len(faults),
            "patterns": num_patterns,
            "circuit": circuit.name,
        }

    artifact, hit = store.fetch("stuckat-detection", key, build)
    packed = artifact.arrays["packed"]
    matrix = np.unpackbits(packed, axis=1, count=num_patterns).astype(bool)
    return matrix, hit


# ---------------------------------------------------------------------- ATPG
def _defect_fingerprint(defects: Sequence) -> str:
    return fp.fingerprint_value(list(defects))


def cached_iddq_test_set(
    store: ArtifactStore,
    circuit,
    partition,
    defects: Sequence,
    library=None,
    technology=None,
    seed: int = 0,
    random_vectors: int = 128,
    restarts: int = 4,
    flip_budget: int = 24,
    compact: bool = True,
    jobs: int | None = None,
):
    """Memoized :func:`~repro.faultsim.atpg.generate_iddq_tests`.

    Returns ``(IDDQTestSet, hit)``.  Patterns round-trip exactly; the
    coverage split is stored as id lists in the metadata.
    """
    from repro.faultsim.atpg import IDDQTestSet, generate_iddq_tests
    from repro.library.default_lib import generic_library, generic_technology

    library = library or generic_library()
    technology = technology or generic_technology()
    key = fp.combine(
        "iddq-testset",
        SCHEMA["iddq-testset"],
        fp.fingerprint_circuit(circuit),
        fp.fingerprint_partition(partition),
        _defect_fingerprint(defects),
        fp.fingerprint_library(library),
        fp.fingerprint_technology(technology),
        seed,
        random_vectors,
        restarts,
        flip_budget,
        compact,
    )

    def build():
        tests = generate_iddq_tests(
            circuit,
            partition,
            defects,
            library=library,
            technology=technology,
            seed=seed,
            random_vectors=random_vectors,
            restarts=restarts,
            flip_budget=flip_budget,
            compact=compact,
            jobs=jobs,
        )
        return {"patterns": tests.patterns}, {
            "detected_ids": list(tests.detected_ids),
            "undetected_ids": list(tests.undetected_ids),
            "random_detected": tests.random_detected,
            "targeted_detected": tests.targeted_detected,
        }

    artifact, hit = store.fetch("iddq-testset", key, build)
    tests = IDDQTestSet(
        patterns=artifact.arrays["patterns"],
        detected_ids=tuple(artifact.meta["detected_ids"]),
        undetected_ids=tuple(artifact.meta["undetected_ids"]),
        random_detected=int(artifact.meta["random_detected"]),
        targeted_detected=int(artifact.meta["targeted_detected"]),
    )
    return tests, hit


# ----------------------------------------------------------------- portfolio
def cached_portfolio(
    store: ArtifactStore,
    evaluator,
    seeds: Sequence[int],
    evolution_params=None,
    annealing_params=None,
    kl_passes: int = 2,
    jobs: int | None = None,
):
    """Memoized multi-seed optimiser portfolio.

    Returns ``(best_partition, meta, hit)`` where ``meta`` records the
    winning seed/optimizer/cost.  The artifact stores only the winning
    assignment array — evaluations are recomputable exactly from it.
    """
    from repro.optimize.portfolio import portfolio_partition
    from repro.partition.partition import Partition

    seeds = list(seeds)
    key = fp.combine(
        "optimize-portfolio",
        SCHEMA["optimize-portfolio"],
        fp.fingerprint_circuit(evaluator.circuit),
        fp.fingerprint_library(evaluator.library),
        fp.fingerprint_technology(evaluator.technology),
        fp.fingerprint_value(evaluator.weights),
        evaluator.time_resolved_degradation,
        fp.fingerprint_value(evolution_params) if evolution_params else None,
        fp.fingerprint_value(annealing_params) if annealing_params else None,
        kl_passes,
        seeds,
    )

    def build():
        result = portfolio_partition(
            evaluator,
            evolution_params=evolution_params,
            annealing_params=annealing_params,
            seed=seeds[0] if len(seeds) == 1 else None,
            seeds=seeds if len(seeds) > 1 else None,
            kl_passes=kl_passes,
            jobs=jobs,
        )
        assignment = result.best.partition.module_of_array()
        return {"assignment": assignment}, {
            "cost": result.best_cost,
            "feasible": result.feasible,
            "optimizer": result.optimizer,
            "seed": result.seed,
            "evaluations": result.evaluations,
            "num_modules": result.best.num_modules,
        }

    artifact, hit = store.fetch("optimize-portfolio", key, build)
    assignment = artifact.arrays["assignment"]
    partition = Partition.from_array(evaluator.circuit, assignment)
    return partition, dict(artifact.meta), hit
