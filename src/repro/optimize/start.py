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

The chain walk visits one gate at a time, so it indexes Python lists of
the gate graph that each evaluator builds once and all of its starts
share (:attr:`PartitionEvaluator.gate_lists`); seed candidates are
filtered in numpy (see :func:`chain_start_partition`).
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.errors import OptimizationError
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["estimate_module_count", "chain_start_partition", "start_population"]

_NO_GATES = np.empty(0, dtype=np.int64)


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

    The walk indexes the evaluator's
    :attr:`~repro.partition.evaluator.PartitionEvaluator.gate_lists` and
    a ``bytearray`` free set one gate at a time, and makes
    ``rng.choice``'s draws inline.  Candidate filtering stays in numpy,
    through a bool view of the free set: each seed appends the neighbour
    rows of the gates claimed since the previous seed to the module's
    buffer and keeps only its free entries, and a fallback keeps only
    the free gates of the level order.  A claimed gate never becomes free
    again, so filtering what was kept (plus the new rows) lists exactly
    what filtering everything would, in the same order and with the same
    multiplicity.
    """
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    if not 1 <= num_modules <= n:
        raise OptimizationError(
            f"cannot build {num_modules} modules from {n} gates"
        )
    successors, neighbours, by_level = evaluator.gate_lists
    getrandbits = rng.getrandbits
    free = bytearray(b"\x01") * n
    is_free = np.frombuffer(free, dtype=bool)
    num_free = n
    claimed: list[int] = []
    sizes = _balanced_sizes(n, num_modules)

    for target_size in sizes:
        size = 0
        adjacent = _NO_GATES
        pending: list[int] = []  # rows of the gates claimed since the last seed
        while size < target_size:
            # Seed a new chain: prefer free gates adjacent to the module
            # under construction (keeps modules connected), else a random
            # gate among the few lowest levels.
            if pending:
                adjacent = np.concatenate((adjacent, pending))
                pending = []
            adjacent = adjacent[is_free[adjacent]]
            count = len(adjacent) or max(1, num_free // 20)
            bits = count.bit_length()
            pick = getrandbits(bits)
            while pick >= count:
                pick = getrandbits(bits)
            if len(adjacent):
                chain = int(adjacent[pick])
            else:
                by_level = by_level[is_free[by_level]]
                chain = int(by_level[pick])
            while True:
                free[chain] = 0
                num_free -= 1
                size += 1
                claimed.append(chain)
                pending += neighbours[chain]
                options = [s for s in successors[chain] if free[s]]
                if not options:
                    break
                # Drawn even after the module's last gate, as the
                # set-and-list builder does: later modules' draws depend
                # on it.
                count = len(options)
                bits = count.bit_length()
                pick = getrandbits(bits)
                while pick >= count:
                    pick = getrandbits(bits)
                chain = options[pick]
                if size == target_size:
                    break

    # Modules claim their gates one after another, so ``claimed`` holds
    # them module by module; each set is built in claim order, as the
    # set-and-list builder built it.
    module_of = np.empty(n, dtype=np.int32)
    module_of[claimed] = np.repeat(np.arange(num_modules, dtype=np.int32), sizes)
    bounds = np.cumsum([0] + sizes).tolist()
    return Partition._from_groups(
        circuit,
        module_of,
        {
            module: claimed[bounds[module] : bounds[module + 1]]
            for module in range(num_modules)
        },
    )


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
