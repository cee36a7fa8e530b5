"""Reference chain start partitions (paper §4.2).

The set-and-list implementation :func:`repro.optimize.start.chain_start_partition`
replaced: every chain seed rescans the module's neighbour tuples against
a ``set`` of free gates, and the level fallback re-sorts the free set.
"""

from __future__ import annotations

import random

from repro.errors import OptimizationError
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition


def chain_start_partition(
    evaluator: PartitionEvaluator,
    num_modules: int,
    rng: random.Random,
) -> Partition:
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    if not 1 <= num_modules <= n:
        raise OptimizationError(
            f"cannot build {num_modules} modules from {n} gates"
        )
    levels = circuit.levels
    names = circuit.gate_names
    level_of = [levels[name] for name in names]
    neighbours = circuit.gate_neighbors
    index = circuit.gate_index
    successors: list[list[int]] = [[] for _ in range(n)]
    for name in names:
        g = index[name]
        for sink in circuit.fanouts[name]:
            sink_idx = index.get(sink)
            if sink_idx is not None:
                successors[g].append(sink_idx)

    free: set[int] = set(range(n))
    sizes = _balanced_sizes(n, num_modules)
    assignment: dict[int, int] = {}

    for module, target_size in enumerate(sizes):
        module_gates: list[int] = []
        while len(module_gates) < target_size and free:
            seed = _pick_seed(free, module_gates, neighbours, level_of, rng)
            chain = seed
            while chain is not None and len(module_gates) < target_size:
                module_gates.append(chain)
                free.discard(chain)
                assignment[chain] = module
                free_successors = [s for s in successors[chain] if s in free]
                chain = rng.choice(free_successors) if free_successors else None
        if not module_gates:
            leftover = free.pop()
            assignment[leftover] = module
    for gate in list(free):
        assignment[gate] = num_modules - 1
        free.discard(gate)
    return Partition(circuit, assignment)


def _balanced_sizes(n: int, k: int) -> list[int]:
    base = n // k
    extra = n % k
    return [base + 1 if i < extra else base for i in range(k)]


def _pick_seed(
    free: set[int],
    module_gates: list[int],
    neighbours,
    level_of: list[int],
    rng: random.Random,
) -> int:
    if module_gates:
        adjacent = [
            nbr
            for gate in module_gates
            for nbr in neighbours[gate]
            if nbr in free
        ]
        if adjacent:
            return rng.choice(adjacent)
    candidates = sorted(free, key=lambda g: level_of[g])
    cutoff = max(1, len(candidates) // 20)
    return rng.choice(candidates[:cutoff])
