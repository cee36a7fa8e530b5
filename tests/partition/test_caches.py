"""The partition's version-keyed caches equal fresh builds through the
sequential trial step.

``Partition.move_gate`` rewrites the two touched modules' member arrays
and boundary lists and drops the adjacency lists that name either, and
``Partition.rollback`` (which ``EvaluationState.rollback`` calls)
re-keys the caches that were valid when its trial opened.  The
equivalence suite cannot see a fault here, because its reference state
drives the same ``Partition``, so every cached member array, boundary
list and adjacency list is compared with a partition built from scratch
by ``Partition.from_array``.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

PENALTY = 1.0e4


@functools.lru_cache(maxsize=None)
def _evaluator(num_gates: int, depth: int, seed: int) -> PartitionEvaluator:
    circuit = generate_iscas_like(
        GeneratorConfig(
            name="caches",
            num_gates=num_gates,
            num_inputs=5,
            num_outputs=3,
            depth=min(depth, num_gates),
            seed=seed,
        )
    )
    return PartitionEvaluator(circuit)


def _start(evaluator: PartitionEvaluator, k: int, rng: random.Random) -> Partition:
    n = len(evaluator.circuit.gate_names)
    return Partition.from_array(evaluator.circuit, [rng.randrange(k) for _ in range(n)])


def assert_caches_fresh(partition: Partition) -> None:
    """Every cache entry valid at this version, and every query, equals
    what a partition built from scratch gives.  The queries run on a
    copy, so this partition's caches stay as the last step left them."""
    fresh = Partition.from_array(partition.circuit, partition.module_of_array())
    modules = fresh.module_ids
    assert partition.module_ids == modules
    members = {m: fresh.gates_array(m) for m in modules}
    boundary = {m: fresh.boundary_gates(m) for m in modules}
    adjacent = {
        (m, o): fresh.gates_adjacent_to(m, o) for m in modules for o in modules if m != o
    }
    version = partition.version
    if partition._members_version == version:
        for module, cached in partition._members.items():
            assert cached.dtype == np.int64
            assert np.array_equal(cached, members[module]), module
    if partition._boundary_version == version:
        for module, cached in partition._boundary.items():
            assert cached == boundary[module], module
        for key, cached in partition._adjacent.items():
            assert cached == adjacent[key], key
    copy = partition.copy()
    for module in modules:
        assert np.array_equal(copy.gates_array(module), members[module]), module
        assert copy.boundary_gates(module) == boundary[module], module
    for (module, other), want in adjacent.items():
        assert copy.gates_adjacent_to(module, other) == want, (module, other)


def _warm(partition: Partition) -> None:
    """Fill every cache at the current version."""
    modules = partition.module_ids
    partition.boundary_sets()
    for module in modules:
        partition.gates_array(module)
        for other in modules:
            if other != module:
                partition.gates_adjacent_to(module, other)


def _move(partition: Partition, rng: random.Random) -> tuple[int, int] | None:
    """A random move: mostly a gate into a neighbouring module, sometimes
    into any other module."""
    if partition.num_modules < 2:
        return None
    gate = rng.randrange(len(partition.module_of_array()))
    targets = partition.neighbor_modules(gate)
    if not targets or rng.random() < 0.3:
        own = partition.module_of(gate)
        targets = [m for m in partition.module_ids if m != own]
    return gate, rng.choice(targets)


def _trial_moves(partition: Partition, count: int, rng: random.Random) -> list:
    """``count`` moves that apply in order (each drawn against a probe
    copy that already made the ones before it)."""
    probe = partition.copy()
    moves = []
    for _ in range(count):
        move = _move(probe, rng)
        if move is None:
            break
        probe.move_gate(*move)
        moves.append(move)
    return moves


def _query(partition: Partition, op: str, rng: random.Random) -> None:
    modules = partition.module_ids
    if op == "boundary":
        partition.boundary_gates(rng.choice(modules))
    elif len(modules) > 1:
        module, other = rng.sample(modules, 2)
        partition.gates_adjacent_to(module, other)


#: Step kinds and their weights in a random interleaving.
OPS = {
    "trial1": 4,
    "trial2": 3,
    "move": 2,
    "boundary": 2,
    "adjacent": 2,
}


@settings(max_examples=40, deadline=None)
@given(
    num_gates=st.integers(8, 120),
    depth=st.integers(2, 12),
    circuit_seed=st.integers(0, 40),
    k=st.integers(2, 6),
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 40),
)
def test_random_interleavings_match_fresh_builds(
    num_gates, depth, circuit_seed, k, seed, steps
):
    """One- and two-move trials, each rolled back or committed and
    sometimes queried while open, bare moves, and boundary and adjacency
    queries in random order: after every step each cache and query
    equals a fresh build, and the state is consistent."""
    evaluator = _evaluator(num_gates, depth, circuit_seed)
    rng = random.Random(seed)
    state = evaluator.new_state(_start(evaluator, k, rng))
    partition = state.partition
    for op in rng.choices(list(OPS), weights=list(OPS.values()), k=steps):
        if op in ("trial1", "trial2"):
            moves = _trial_moves(partition, 1 if op == "trial1" else 2, rng)
            if not moves:
                continue
            state.trial_cost(moves, PENALTY)
            if rng.random() < 0.3:
                _query(partition, rng.choice(("boundary", "adjacent")), rng)
            if rng.random() < 0.5:
                state.rollback()
            else:
                state.commit()
        elif op == "move":
            move = _move(partition, rng)
            if move is not None:
                state.move_gate(*move)
        else:
            _query(partition, op, rng)
        assert_caches_fresh(partition)
        state.copy().consistency_check()


class TestRollback:
    """The re-keying, through an evaluation state's trial (which opens
    and closes its partition's) and through a bare partition's own."""

    def _trial_owner(self, owner):
        evaluator = _evaluator(40, 6, 3)
        state = evaluator.new_state(_start(evaluator, 3, random.Random(5)))
        return state.partition, state if owner == "state" else state.partition

    def test_rekeys_the_caches_valid_when_the_trial_opened(self):
        self._check_rekeys("state")

    def test_partition_trial_rekeys_the_caches(self):
        self._check_rekeys("partition")

    def test_a_stale_cache_stays_stale(self):
        self._check_stale_stays_stale("state")

    def test_partition_trial_keeps_a_stale_cache_stale(self):
        self._check_stale_stays_stale("partition")

    def _check_rekeys(self, owner):
        partition, trial = self._trial_owner(owner)
        _warm(partition)
        members, boundary = dict(partition._members), dict(partition._boundary)
        adjacent = dict(partition._adjacent)
        moves = _trial_moves(partition, 2, random.Random(1))
        trial.begin_trial()
        seen = []
        for move in moves:
            trial.move_gate(*move)
            seen.append(partition.version)
        partition.boundary_gates(partition.module_ids[0])
        trial.rollback()
        assert partition.version > max(seen)
        assert partition._members_version == partition._boundary_version
        assert partition._boundary_version == partition.version
        # The restored entries are the very objects cached before the trial.
        assert partition._members.keys() == members.keys()
        assert all(partition._members[m] is members[m] for m in members)
        assert partition._boundary == boundary and partition._adjacent == adjacent
        assert_caches_fresh(partition)

    def _check_stale_stays_stale(self, owner):
        """Caches filled during a trial that opened with them stale
        describe the rolled-back partition, so the rollback must not
        re-key them."""
        partition, trial = self._trial_owner(owner)
        partition._clear_caches()
        assert partition._boundary_version != partition.version
        (move,) = _trial_moves(partition, 1, random.Random(2))
        trial.begin_trial()
        trial.move_gate(*move)
        partition.gates_array(move[1])
        partition.boundary_gates(move[1])
        partition.gates_adjacent_to(move[1], partition.module_of(move[0]))
        trial.rollback()
        assert partition._members_version != partition.version
        assert partition._boundary_version != partition.version
        assert_caches_fresh(partition)


@pytest.mark.parametrize("op", ["move_gates"])
def test_other_mutations_drop_the_caches(op):
    """``move_gates``, the one mutation besides ``move_gate`` and a
    trial's rollback, drops every cache."""
    evaluator = _evaluator(40, 6, 3)
    partition = _start(evaluator, 3, random.Random(5))
    _warm(partition)
    first, second = partition.module_ids[:2]
    getattr(partition, op)(partition.gates_array(first)[:2].tolist(), second)
    assert partition._members_version != partition.version
    assert partition._boundary_version != partition.version
    assert partition._boundary_sets_version != partition.version
    assert_caches_fresh(partition)
