"""The paper's §5 "standard partitioning" baseline.

"The process of standard partitioning starts with a gate as near to a
primary input as possible.  New gates are added until a specified size
of the module is generated ... The new gate added is that gate whose
path length to all the gates already clustered gives a minimum sum.  If
there are multiple choices, a gate of this set is selected such that the
path lengths to all the gates not yet clustered give a maximum sum.  A
partition generated this way contains modules such that their gates are
connected most closely."

Path lengths are the capped undirected-graph distances of the separation
metric (the baseline and the optimiser must measure closeness the same
way to be comparable).  The module size is "the numbers obtained by the
evolution based algorithm" — callers pass the module count the evolution
produced, exactly as the paper does for Table 1.

The implementation is fully vectorised: two running ``int64`` arrays
hold each gate's summed distance to the current module and to the free
set; adding a gate updates both with one ``uint8`` matrix-row addition.
Sums are exact integers, so ties are decided exactly.  Claimed gates
carry a sentinel far above any real sum, so picking the closest free
gate is one ``min`` over the running array.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import OptimizationError
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["standard_partition"]

#: Marks claimed gates in the running sums; real sums stay below
#: ``n * 255``, so adding matrix rows never lets a claimed gate win.
_CLAIMED = np.int64(1) << 62


def standard_partition(evaluator: PartitionEvaluator, num_modules: int) -> Partition:
    """Build the deterministic standard partition with ``num_modules``
    balanced modules."""
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    if not 1 <= num_modules <= n:
        raise OptimizationError(f"cannot build {num_modules} modules from {n} gates")
    with obs.TRACER.span("standard.partition", modules=num_modules):
        assignment = _standard_assignment(evaluator, num_modules)
        return Partition.from_array(circuit, assignment)


def _standard_assignment(evaluator: PartitionEvaluator, num_modules: int) -> np.ndarray:
    """The module of every gate, clustered greedily module by module."""
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    matrix = evaluator.separation.matrix
    # Seed order: claimed gates get the sentinel, so argmin is the first
    # free gate of minimal level.
    seed_key = circuit.compiled.gate_level.astype(np.int64)

    free = np.ones(n, dtype=bool)
    # Σ distance from each gate to every currently free gate (tie-breaker).
    dist_to_free = matrix.sum(axis=1, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)

    for module, target_size in enumerate(_balanced_sizes(n, num_modules)):
        # Σ distance to the module, sentinel on every claimed gate.
        dist_to_module = np.where(free, np.int64(0), _CLAIMED)
        # Seed: free gate as near to a primary input as possible.
        gate = int(seed_key.argmin())
        for size in range(1, target_size + 1):
            assignment[gate] = module
            free[gate] = False
            seed_key[gate] = _CLAIMED
            # The gate left the free set: everyone's distance-to-free shrinks.
            dist_to_free -= matrix[gate]
            dist_to_module += matrix[gate]
            dist_to_module[gate] = _CLAIMED
            if size < target_size:
                gate = _closest_free(dist_to_module, dist_to_free)
    return assignment


def _balanced_sizes(n: int, k: int) -> list[int]:
    base = n // k
    extra = n % k
    return [base + 1 if i < extra else base for i in range(k)]


def _closest_free(dist_to_module: np.ndarray, dist_to_free: np.ndarray) -> int:
    """Free gate minimising Σ distance to the module; ties broken by
    maximising Σ distance to the remaining free gates (paper §5)."""
    best = dist_to_module.min()
    ties = np.flatnonzero(dist_to_module == best)
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[dist_to_free[ties].argmax()])
