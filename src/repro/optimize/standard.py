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

The implementation is fully vectorised: one running ``int64`` key per
gate orders the free gates exactly as the rule does (see
:func:`_standard_assignment`), and adding a gate to the module updates
every key with one scaled ``uint8`` matrix row, so picking the next gate
is one ``argmin``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import OptimizationError
from repro.optimize.start import _balanced_sizes
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["standard_partition"]

#: Marks claimed gates in the running keys; real keys stay below it.
_CLAIMED = np.int64(1) << 62
#: A matrix row moves a key by its distance to the module times 2**32,
#: and by its distance to the free set once.
_SCALE = np.int64((1 << 32) + 1)
#: The low 32 bits of ``-key`` are a free gate's distance to the free set.
_LOW = np.int64((1 << 32) - 1)


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
    """The module of every gate, clustered greedily module by module.

    Each free gate's key is ``dist_to_module * 2**32 - dist_to_free``
    (its summed distances to the module and to the free set), and every
    claimed gate's is at least ``_CLAIMED``.  One ``argmin`` then picks
    the gate nearest the module, ties going to the largest distance to
    the free set and then to the lowest index, as the paper's rule and
    the float64 reference do.  Both sums are below ``n * cap``, so the
    order is exact while ``n * cap < 2**30``: ``dist_to_free`` fits the
    low 32 bits, and real keys stay below ``_CLAIMED`` and claimed ones
    below ``2**63``.
    """
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    matrix = evaluator.separation.matrix
    # Seed order: claimed gates get the sentinel, so argmin is the first
    # free gate of minimal level.
    seed_key = circuit.compiled.gate_level.astype(np.int64)
    # An empty module: every gate at distance 0, tied on distance to free.
    key = -matrix.sum(axis=1, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)

    for module, target_size in enumerate(_balanced_sizes(n, num_modules)):
        # Seed: free gate as near to a primary input as possible.
        gate = int(seed_key.argmin())
        for size in range(1, target_size + 1):
            assignment[gate] = module
            seed_key[gate] = _CLAIMED
            # The gate joins the module and leaves the free set.
            key += matrix[gate] * _SCALE
            key[gate] = _CLAIMED
            if size < target_size:
                gate = int(key.argmin())
        # The next module starts empty: keep only the distance to free.
        key = np.where(key < _CLAIMED, -(-key & _LOW), _CLAIMED)
    return assignment
