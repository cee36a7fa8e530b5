"""Reference §5 standard partitioning.

The float64 implementation :func:`repro.optimize.standard.standard_partition`
replaced: it copies the separation matrix to ``float64`` and masks
claimed gates with ``inf``.  Every sum is an integer far below 2**53,
so the integer rewrite must choose exactly the same gates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OptimizationError
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition


def standard_partition(evaluator: PartitionEvaluator, num_modules: int) -> Partition:
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    if not 1 <= num_modules <= n:
        raise OptimizationError(f"cannot build {num_modules} modules from {n} gates")
    matrix = evaluator.separation.matrix.astype(np.float64)
    levels = np.asarray(
        [circuit.levels[name] for name in circuit.gate_names], dtype=np.float64
    )

    free = np.ones(n, dtype=bool)
    dist_to_free = matrix.sum(axis=1)
    assignment = np.empty(n, dtype=np.int64)

    sizes = _balanced_sizes(n, num_modules)
    for module, target_size in enumerate(sizes):
        seed = _argmin_masked(levels, free)
        _claim(seed, module, assignment, free, dist_to_free, matrix)
        dist_to_module = matrix[seed].copy()
        for _ in range(target_size - 1):
            if not free.any():
                break
            candidate = _closest_free(dist_to_module, dist_to_free, free)
            _claim(candidate, module, assignment, free, dist_to_free, matrix)
            dist_to_module += matrix[candidate]
    if free.any():
        assignment[free] = num_modules - 1
    return Partition(circuit, {g: int(assignment[g]) for g in range(n)})


def _balanced_sizes(n: int, k: int) -> list[int]:
    base = n // k
    extra = n % k
    return [base + 1 if i < extra else base for i in range(k)]


def _argmin_masked(values: np.ndarray, mask: np.ndarray) -> int:
    masked = np.where(mask, values, np.inf)
    return int(masked.argmin())


def _claim(gate, module, assignment, free, dist_to_free, matrix) -> None:
    assignment[gate] = module
    free[gate] = False
    dist_to_free -= matrix[gate]


def _closest_free(dist_to_module, dist_to_free, free) -> int:
    masked = np.where(free, dist_to_module, np.inf)
    best = masked.min()
    ties = np.flatnonzero(masked == best)
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[dist_to_free[ties].argmax()])
