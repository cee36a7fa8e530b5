"""Start partitions for the evolution strategy (paper §4.2).

Two pieces:

* **module-count pre-estimation** — the paper estimates "the appropriate
  module size ... by evaluating c1 and c2 by average numbers for the
  required parameters and by abstraction from structural information".
  Under the sizing rule ``Rs = r/î`` the area term decomposes as
  ``K·A0 + A1·î_chip/r`` and the average delay degradation is nearly
  K-independent, so both push K down to the smallest count the
  discriminability constraint allows; a configurable safety margin gives
  the evolution room to rebalance (it can delete modules but never
  create them).

* **chain clustering** — "starting from a gate close to a primary input
  gate, chains are formed towards a primary output"; a chain stops at a
  primary output, when no free gate remains, or when the module is
  full.  Different random chains yield the μ distinct start partitions.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.errors import OptimizationError
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["estimate_module_count", "chain_start_partition", "start_population"]


def estimate_module_count(evaluator: PartitionEvaluator, margin: float = 1.25) -> int:
    """Estimated number of modules K for the start partitions.

    ``K_min`` comes from the discriminability constraint (total leakage
    over per-module budget); the margin covers leakage imbalance across
    chain-built modules.  Never below 2 — a single module cannot be
    mutated (and for any realistically sized CUT a single sensor fails
    discriminability anyway, which is the paper's §1 motivation).
    """
    if margin < 1.0:
        raise OptimizationError(f"margin must be >= 1, got {margin}")
    k_min = evaluator.min_feasible_modules()
    k = max(2, math.ceil(k_min * margin))
    return min(k, len(evaluator.circuit.gate_names))


def chain_start_partition(
    evaluator: PartitionEvaluator,
    num_modules: int,
    rng: random.Random,
) -> Partition:
    """One chain-clustered start partition with exactly ``num_modules``
    balanced modules.

    Chains follow free fanout gates toward the outputs; when a chain dies
    (primary output reached or no free successor) and the module still
    has room, a new chain is seeded — preferably adjacent to the module,
    else at a free gate of minimal level (close to a primary input).

    Seed candidates are listed in a fixed order, so a seeded ``rng``
    draws the same partition on every run: adjacent gates in the order
    of the module's claims and of each claimed gate's sorted neighbour
    row (a gate next to two module gates is listed twice); fallback
    gates by level, ties by gate index.
    """
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    if not 1 <= num_modules <= n:
        raise OptimizationError(
            f"cannot build {num_modules} modules from {n} gates"
        )
    cg = circuit.compiled
    # Fanout successors in dense index space (chains move toward
    # outputs); every fanout sink is a logic gate.
    sinks = cg.node_gate[cg.fanout_indices].tolist()
    bounds = cg.fanout_indptr.tolist()
    successors = [
        sinks[bounds[node] : bounds[node + 1]] for node in cg.gate_node.tolist()
    ]
    adj_bounds = cg.gate_adj_indptr.tolist()
    adj_indices = cg.gate_adj_indices
    by_level = np.argsort(cg.gate_level, kind="stable")

    free = np.ones(n, dtype=bool)
    num_free = n
    # Append-only: the neighbour rows of the module's gates, claim order.
    adjacent = np.empty(len(adj_indices), dtype=adj_indices.dtype)
    assignment: dict[int, int] = {}

    for module, target_size in enumerate(_balanced_sizes(n, num_modules)):
        size = filled = 0
        while size < target_size:
            # Seed a new chain: prefer free gates adjacent to the module
            # under construction (keeps modules connected), else a random
            # gate among the few lowest levels.
            candidates = adjacent[:filled]
            candidates = candidates[free[candidates]]
            if not len(candidates):
                candidates = by_level[free[by_level]][: max(1, num_free // 20)]
            chain = int(rng.choice(candidates))
            while chain is not None and size < target_size:
                assignment[chain] = module
                free[chain] = False
                num_free -= 1
                size += 1
                row = adj_indices[adj_bounds[chain] : adj_bounds[chain + 1]]
                adjacent[filled : filled + len(row)] = row
                filled += len(row)
                free_successors = [s for s in successors[chain] if free[s]]
                chain = rng.choice(free_successors) if free_successors else None
    return Partition(circuit, assignment)


def _balanced_sizes(n: int, k: int) -> list[int]:
    base = n // k
    extra = n % k
    return [base + 1 if i < extra else base for i in range(k)]


def start_population(
    evaluator: PartitionEvaluator,
    num_modules: int,
    count: int,
    rng: random.Random,
) -> list[Partition]:
    """μ start partitions from different random chains."""
    return [chain_start_partition(evaluator, num_modules, rng) for _ in range(count)]
