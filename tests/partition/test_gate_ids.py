"""Every move entry point rejects a bad gate id before it writes anything.

A gate id is an integer in ``[0, n)``.  A negative id used to index
from the end of the assignment array (``-1`` rewrote gate ``n - 1``'s
entry and corrupted the module sets), and ``n`` or ``1.5`` raised a raw
``IndexError``.  Each entry point must raise :class:`PartitionError`
and leave the partition and the state as they were.
"""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition.partition import Partition
from repro.partition.state import EvaluationState

PENALTY = 1.0e4
#: c17 has gates 0-5; the fixture puts {0, 2, 4} in module 0.
BAD = (-1, 6, 1.5)


@pytest.fixture
def partition(c17_paper):
    return Partition(c17_paper, {g: g % 2 for g in range(6)})


@pytest.fixture
def state(c17_evaluator, partition):
    state = c17_evaluator.new_state(partition)
    state.penalized_cost(PENALTY)
    return state


def _partition_snapshot(partition):
    return (
        partition.module_of_array().tobytes(),
        {m: set(gates) for m, gates in partition._modules.items()},
    )


def _state_snapshot(state):
    return (
        _partition_snapshot(state.partition),
        state.penalized_cost(PENALTY),
        state.committed_moves(),
        tuple(getattr(state, name).tobytes() for name in EvaluationState.SLOT_ARRAYS),
        state.delay_degraded.tobytes(),
    )


@pytest.mark.parametrize("gate", BAD)
class TestPartitionMoves:
    def test_move_gate(self, partition, gate):
        before, version = _partition_snapshot(partition), partition.version
        with pytest.raises(PartitionError, match="gate ids"):
            partition.move_gate(gate, 0)
        assert _partition_snapshot(partition) == before
        assert partition.version == version
        partition.check_invariants()

    def test_move_gates(self, partition, gate):
        before, version = _partition_snapshot(partition), partition.version
        with pytest.raises(PartitionError, match="gate ids"):
            partition.move_gates([1, gate], 0)
        assert _partition_snapshot(partition) == before
        assert partition.version == version
        partition.check_invariants()


@pytest.mark.parametrize("gate", BAD)
class TestStateMoves:
    def test_move_gate(self, state, gate):
        before = _state_snapshot(state)
        with pytest.raises(PartitionError, match="gate ids"):
            state.move_gate(gate, 0)
        assert _state_snapshot(state) == before
        state.consistency_check()

    def test_trial_cost(self, state, gate):
        before = _state_snapshot(state)
        with pytest.raises(PartitionError, match="gate ids"):
            state.trial_cost([(1, 0), (gate, 0)], PENALTY)
        assert _state_snapshot(state) == before
        state.consistency_check()

    def test_trial_moves(self, state, gate):
        before = _state_snapshot(state)
        with pytest.raises(PartitionError, match="gate ids"):
            state.trial_moves([1, gate], [0, 0], PENALTY)
        with pytest.raises(PartitionError, match="gate ids"):
            state.trial_moves(np.array([1, gate]), [0, 1], PENALTY)
        assert _state_snapshot(state) == before
        state.consistency_check()

    def test_trial_swaps(self, state, gate):
        before = _state_snapshot(state)
        with pytest.raises(PartitionError, match="gate ids"):
            state.trial_swaps([0, gate], [1, 1], PENALTY)
        with pytest.raises(PartitionError, match="gate ids"):
            state.trial_swaps([0, 2], [1, gate], PENALTY)
        assert _state_snapshot(state) == before
        state.consistency_check()

    def test_trial_blocks(self, state, gate):
        before = _state_snapshot(state)
        with pytest.raises(PartitionError, match="gate ids"):
            EvaluationState.trial_blocks([(state, [(1, 0)]), (state, [(gate, 0)])], PENALTY)
        assert _state_snapshot(state) == before
        state.consistency_check()


def test_trial_moves_needs_equal_lengths(state):
    before = _state_snapshot(state)
    for gates, targets in (([0, 2], [1]), ([0, 1], [1])):
        with pytest.raises(PartitionError, match="equally many"):
            state.trial_moves(gates, targets, PENALTY)
    assert _state_snapshot(state) == before
