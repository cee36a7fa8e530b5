"""The population kernel scores ES-shaped rows exactly like one trial each.

``EvaluationState.trial_blocks`` must return, bit for bit, what
``trial_cost(moves)`` followed by ``rollback()`` gives for every
``(parent, moves)`` row -- the generic ``_StateProtocol.trial_blocks``
loop is the oracle -- and must leave its parents as it found them.
Each row's adopted state (``.state(i)``) must equal, array for array,
the parent's ``copy()`` plus a ``move_gates`` replay (the generic
``BlockScores.state``) once both are refreshed.  Rows follow the
evolution strategy's shapes: mutations that move a few gates of one
module into one or several (possibly repeated) targets, Monte-Carlo
blocks into one target, rows that empty their source, and rows that
move nothing.  Parents come from one evaluator but may differ in module
count, and some carry freed slots and un-refreshed moves.  Rows of
several parents in one call score and adopt exactly as one call per
parent.
"""

import dataclasses
import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timing import IncrementalTiming
from repro.errors import PartitionError
from repro.library.default_lib import generic_technology
from repro.netlist.benchmarks import c17, load_iscas85
from repro.netlist.builder import CircuitBuilder
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.optimize.start import chain_start_partition
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition
from repro.partition.state import BlockScores, EvaluationState, _StateProtocol
from repro.sensors.degradation import FirstOrderDegradation, SecondOrderDegradation

PENALTY = 1.0e4
#: ``shuffled`` declares its gates out of level order, so its level-major
#: timing order is not gate order.
CIRCUITS = ("c17", "small", "shuffled", "c432")
MODELS = ("first", "second")
SHAPES = ("mutation", "block", "empty", "none")
#: Every array a state keeps, compared bit for bit.
STATE_ARRAYS = EvaluationState.SLOT_ARRAYS + (
    "delay_degraded",
    "_slot_module",
    "_arrival",
)


class ScalarOnlyDegradation(SecondOrderDegradation):
    """The second-order model, without the ``broadcasts`` promise: it
    must only ever see one module's scalar sensor parameters."""

    broadcasts = False

    def delta(self, n, rs_ohm, cs_ff, cg_ff, rg_ohm):
        assert np.ndim(rs_ohm) == 0 and np.ndim(cs_ff) == 0
        return super().delta(n, rs_ohm, cs_ff, cg_ff, rg_ohm)


DEGRADATION = {
    "first": FirstOrderDegradation,
    "second": SecondOrderDegradation,
    "scalar": ScalarOnlyDegradation,
}


@functools.lru_cache(maxsize=None)
def _circuit(key: str):
    if key == "c17":
        return c17()
    if key in ("small", "shuffled"):
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="small120",
                num_gates=120,
                num_inputs=12,
                num_outputs=8,
                depth=10,
                seed=7,
            )
        )
        if key == "small":
            return circuit
        gates = list(circuit)
        random.Random(5).shuffle(gates)
        builder = CircuitBuilder("shuffled120")
        for gate in gates:
            builder.add(gate)
        return builder.outputs(circuit.output_names).build()
    return load_iscas85(key)


@functools.lru_cache(maxsize=None)
def _evaluator(
    key: str, model: str, time_resolved: bool, tight: bool = False, strict: bool = False
) -> PartitionEvaluator:
    """``tight`` lowers the IDDQ threshold and raises the minimum switch
    resistance so that coarse partitions violate both constraints and
    their rows carry the penalty; ``strict`` goes further, so that every
    module violates both and Γ's violation sums a term per slot."""
    degradation = DEGRADATION[model]()
    technology = generic_technology()
    if tight:
        technology = dataclasses.replace(
            technology, iddq_threshold_ua=0.08, min_rs_ohm=20.0
        )
    if strict:
        technology = dataclasses.replace(
            technology, iddq_threshold_ua=0.001, min_rs_ohm=2000.0
        )
    return PartitionEvaluator(
        _circuit(key),
        technology=technology,
        degradation=degradation,
        time_resolved_degradation=time_resolved,
    )


def _parent(evaluator, num_modules: int, seed: int) -> EvaluationState:
    """A dense state at ``num_modules`` modules; odd seeds also commit a
    few moves (one of which may kill a module, freeing its slot) and
    leave them un-refreshed."""
    rng = random.Random(seed)
    n = len(evaluator.circuit.gate_names)
    partition = chain_start_partition(evaluator, min(num_modules, n), rng)
    state = evaluator.new_state(partition)
    if seed % 2:
        state.penalized_cost(PENALTY)
        for _ in range(3):
            partition = state.partition
            if partition.num_modules < 2:
                break
            source, target = rng.sample(partition.module_ids, 2)
            gates = partition.gates_array(source).tolist()
            block = rng.sample(gates, rng.randint(1, len(gates)))
            state.move_gates(block, target)
    return state


def _row(state, shape: str, rng: random.Random) -> list[tuple[int, int]]:
    """One ES-shaped move list against ``state``'s partition."""
    partition = state.partition
    if shape == "none" or partition.num_modules < 2:
        return []
    modules = partition.module_ids
    source = rng.choice(modules)
    others = [m for m in modules if m != source]
    gates = partition.gates_array(source).tolist()
    if shape == "mutation":
        moved = rng.sample(gates, rng.randint(1, min(6, len(gates))))
        return [(gate, rng.choice(others)) for gate in moved]
    if shape == "block":
        target = rng.choice(others)
        return [(gate, target) for gate in rng.sample(gates, rng.randint(1, len(gates)))]
    rng.shuffle(gates)  # "empty": the whole source, one or several targets
    if rng.random() < 0.5:
        target = rng.choice(others)
        return [(gate, target) for gate in gates]
    return [(gate, rng.choice(others)) for gate in gates]


def _bits(array: np.ndarray) -> tuple:
    return array.dtype, array.shape, array.tobytes()


def _assert_same_state(got: EvaluationState, want: EvaluationState) -> None:
    """``got`` equals ``want`` array for array once both are refreshed,
    and passes ``consistency_check``."""
    got._refresh()
    want._refresh()
    for name in STATE_ARRAYS:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert got._dbic == want._dbic
    assert got._slot_of == want._slot_of
    assert got._free_slots == want._free_slots
    assert got._members.keys() == want._members.keys()
    for module, members in want._members.items():
        assert _bits(got._members[module]) == _bits(members), module
    assert got._move_log == want._move_log
    assert got._dirty == want._dirty == set()
    assert _bits(got.partition._module_of) == _bits(want.partition._module_of)
    assert got.partition._modules == want.partition._modules
    assert got.partition.version == want.partition.version
    got.consistency_check()


def _assert_kernel_matches_trials(parents, rows):
    oracle_parents = {id(p): p.copy() for p in parents}
    before = [(p.committed_moves(), p.partition.version) for p in parents]
    scores = EvaluationState.trial_blocks(rows, PENALTY)
    want = _StateProtocol.trial_blocks(
        [(oracle_parents[id(p)], moves) for p, moves in rows], PENALTY
    ).costs
    got = scores.costs
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (got, want)
    for i in range(len(rows)):
        _assert_same_state(scores.state(i), BlockScores.state(scores, i))
    for parent, (log, version) in zip(parents, before):
        parent.consistency_check()
        assert parent.committed_moves() == log
        assert parent.partition.version == version


def _feasible(parent, moves) -> bool:
    state = parent.copy()
    for gate, target in moves:
        state.move_gate(gate, target)
    return state.constraint_report().feasible


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(CIRCUITS),
    model=st.sampled_from(MODELS),
    time_resolved=st.booleans(),
    tight=st.booleans(),
    parent_ks=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    shapes=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=12),
    seed=st.integers(0, 10_000),
)
def test_kernel_matches_per_row_trials(
    key, model, time_resolved, tight, parent_ks, shapes, seed
):
    evaluator = _evaluator(key, model, time_resolved, tight)
    parents = [_parent(evaluator, k, seed + i) for i, k in enumerate(parent_ks)]
    rng = random.Random(seed)
    rows = []
    for shape in shapes:  # rows of different parents interleave
        parent = rng.choice(parents)
        rows.append((parent, _row(parent, shape, rng)))
    _assert_kernel_matches_trials(parents, rows)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("time_resolved", [False, True])
def test_every_shape_on_mixed_k(model, time_resolved):
    """Each shape at least once, from parents with 2, 5 and 9 modules,
    feasible and infeasible rows alike."""
    evaluator = _evaluator("small", model, time_resolved, tight=True)
    parents = [_parent(evaluator, k, seed) for k, seed in ((2, 2), (5, 4), (9, 8))]
    rng = random.Random(11)
    rows = [
        (parent, _row(parent, shape, rng))
        for shape in SHAPES
        for parent in parents
    ]
    assert any(len({t for _, t in moves}) > 1 for _, moves in rows)
    _assert_kernel_matches_trials(parents, rows)
    assert {_feasible(parent, moves) for parent, moves in rows} == {True, False}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("time_resolved", [False, True])
@pytest.mark.parametrize("strict", [False, True])
def test_fused_pass_equals_per_parent_calls(model, time_resolved, strict):
    """Rows of five parents in one call score like one trial each and
    adopt bit-equal to one call per parent.  The parents' slot counts
    lie on both sides of 8, where numpy's pairwise sum changes how it
    groups a row's terms; a reduction over a common padded width would
    change sums such as the strict technology's per-slot violations."""
    evaluator = _evaluator("c432", model, time_resolved, strict=strict)
    parents = [
        _parent(evaluator, k, seed)
        for k, seed in ((3, 1), (7, 2), (8, 5), (9, 4), (16, 7))
    ]
    assert {len(p._slot_module) for p in parents} == {3, 7, 8, 9, 16}
    rng = random.Random(13)
    rows = [(p, _row(p, shape, rng)) for p in parents for shape in SHAPES]
    rng.shuffle(rows)
    _assert_kernel_matches_trials(parents, rows)
    fused = EvaluationState.trial_blocks(rows, PENALTY)
    for parent in parents:
        mine = [i for i, (p, _) in enumerate(rows) if p is parent]
        alone = EvaluationState.trial_blocks([rows[i] for i in mine], PENALTY)
        assert _bits(fused.costs[mine]) == _bits(alone.costs)
        for j, i in enumerate(mine):
            _assert_same_state(fused.state(i), alone.state(j))


@pytest.mark.parametrize("time_resolved", [False, True])
def test_model_without_broadcasts_takes_the_per_row_loop(time_resolved):
    """Rows under a model without ``broadcasts`` are scored and rebuilt
    by the generic per-row loop, and cost what the kernel gives for the
    same rows under the broadcasting model with the same arithmetic."""
    scores = {}
    for model in ("second", "scalar"):
        evaluator = _evaluator("small", model, time_resolved, tight=True)
        parents = [_parent(evaluator, k, seed) for k, seed in ((2, 2), (5, 4), (9, 8))]
        rng = random.Random(11)
        rows = [(p, _row(p, shape, rng)) for shape in SHAPES for p in parents]
        scores[model] = EvaluationState.trial_blocks(rows, PENALTY)
    assert type(scores["scalar"]) is BlockScores
    assert type(scores["second"]) is not BlockScores
    assert _bits(scores["scalar"].costs) == _bits(scores["second"].costs)


def _adoption_rows(evaluator):
    parents = [_parent(evaluator, k, seed) for k, seed in ((4, 2), (6, 3))]
    rng = random.Random(3)
    return [(p, _row(p, shape, rng)) for p in parents for shape in SHAPES]


def test_adopted_state_scores_its_row(monkeypatch):
    """A row's adopted state keeps the stacked sweep's arrivals, bit for
    bit a full sweep of its delays, with nothing dirty, so re-scoring it
    to the row's cost sweeps nothing.  The sweep runs in level-major
    order, which ``shuffled`` makes differ from gate order."""

    def no_sweep(delays):
        raise AssertionError("an adopted state swept its arrivals again")

    adopted = []
    for key in ("small", "shuffled"):
        evaluator = _evaluator(key, "second", False)
        timing = evaluator.timing.incremental
        assert (key == "shuffled") == (
            timing._pos_lm.tolist() != list(range(timing.num_gates))
        )
        scores = EvaluationState.trial_blocks(_adoption_rows(evaluator), PENALTY)
        for i, cost in enumerate(scores.costs.tolist()):
            state = scores.state(i)
            assert not state._dirty
            full = timing.full_arrival(state.delay_degraded)
            assert _bits(state._arrival) == _bits(full)
            adopted.append((state, cost))
        monkeypatch.setattr(timing, "full_arrival", no_sweep)
    for state, cost in adopted:
        assert state.penalized_cost(PENALTY) == cost


def test_adoption_without_stacked_arrivals(monkeypatch):
    """When the sweep hands back no arrivals (a partial cone, or no
    change at all), adopted states leave theirs unset; the first
    refresh sweeps them, and they equal copy-and-replay states."""
    original = IncrementalTiming.retime_batch

    def without_arrivals(self, *args, **kwargs):
        d_bic, _ = original(self, *args, **kwargs)
        return (d_bic, None) if kwargs.get("return_arrivals") else d_bic

    monkeypatch.setattr(IncrementalTiming, "retime_batch", without_arrivals)
    evaluator = _evaluator("small", "second", False)
    scores = EvaluationState.trial_blocks(_adoption_rows(evaluator), PENALTY)
    for i, cost in enumerate(scores.costs.tolist()):
        state = scores.state(i)
        assert state._arrival is None and not state._dirty
        assert state.penalized_cost(PENALTY) == cost
        _assert_same_state(state, BlockScores.state(scores, i))


def test_adopted_partition_serves_the_row_members():
    """An adopted partition's membership cache starts from the row's
    member arrays, equal to what a fresh partition builds."""
    evaluator = _evaluator("c432", "second", False)
    scores = EvaluationState.trial_blocks(_adoption_rows(evaluator), PENALTY)
    for i in range(len(scores.costs)):
        partition = scores.state(i).partition
        assert partition._members_version == partition.version
        fresh = Partition.from_array(evaluator.circuit, partition.module_of_array())
        for module in partition.module_ids:
            assert _bits(partition.gates_array(module)) == _bits(
                fresh.gates_array(module)
            )


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(CIRCUITS), k=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_boundary_sets_match_module_scans(key, k, seed):
    """The whole-graph boundary pass lists every module's boundary gates
    as the module-local scan does, on a fresh partition and again after
    a move."""
    evaluator = _evaluator(key, "second", False)
    rng = random.Random(seed)
    n = len(evaluator.circuit.gate_names)
    partition = Partition.from_array(
        evaluator.circuit, [rng.randrange(min(k, n)) for _ in range(n)]
    )
    for _ in range(2):
        scan = partition.copy()
        want = {m: scan.boundary_gates(m) for m in scan.module_ids}
        assert partition.boundary_sets() == want
        assert {m: partition.boundary_gates(m) for m in partition.module_ids} == want
        if partition.num_modules < 2:
            break
        source, target = rng.sample(partition.module_ids, 2)
        partition.move_gate(rng.choice(partition.gates_array(source).tolist()), target)


def test_zero_move_rows_on_a_single_module():
    """c17 at K=1: no mutation can move anything, every row is empty and
    scores as the parent itself."""
    evaluator = _evaluator("c17", "second", False)
    parent = evaluator.new_state(Partition.single_module(evaluator.circuit))
    costs = EvaluationState.trial_blocks([(parent, [])] * 3, PENALTY).costs
    assert costs.tolist() == [parent.penalized_cost(PENALTY)] * 3


def test_row_that_empties_its_source():
    evaluator = _evaluator("c432", "second", True)
    parent = _parent(evaluator, 4, 2)
    source, target = parent.partition.module_ids[:2]
    gates = parent.partition.gates_array(source).tolist()
    rows = [(parent, [(gate, target) for gate in reversed(gates)])]
    _assert_kernel_matches_trials([parent], rows)


def test_counters_and_empty_call():
    from repro import obs

    assert EvaluationState.trial_blocks([], PENALTY).costs.shape == (0,)
    evaluator = _evaluator("small", "second", False)
    parent = _parent(evaluator, 3, 4)
    rows = [(parent, _row(parent, "mutation", random.Random(i))) for i in range(5)]
    saved = obs.enabled_state()
    obs.enable(metrics=True)
    try:
        mark = obs.METRICS.counters()
        EvaluationState.trial_blocks(rows, PENALTY)
        delta = obs.METRICS.delta_since(mark)
    finally:
        obs.enable(trace=saved[0], metrics=saved[1])
    assert delta["optimize.trial_blocks.calls"] == 1
    assert delta["optimize.trial_blocks.candidates"] == 5
    assert "optimize.trial_moves.calls" not in delta


class TestRejectsNonEsRows:
    @pytest.fixture
    def parent(self):
        return _parent(_evaluator("small", "second", False), 3, 6)

    def _modules(self, parent):
        partition = parent.partition
        a, b, c = partition.module_ids[:3]
        return partition, a, b, c

    def test_two_sources(self, parent):
        partition, a, b, c = self._modules(parent)
        moves = [(int(partition.gates_array(a)[0]), c), (int(partition.gates_array(b)[0]), c)]
        with pytest.raises(PartitionError, match="one source"):
            EvaluationState.trial_blocks([(parent, moves)], PENALTY)

    def test_gate_moved_twice(self, parent):
        partition, a, b, c = self._modules(parent)
        gate = int(partition.gates_array(a)[0])
        with pytest.raises(PartitionError, match="twice"):
            EvaluationState.trial_blocks([(parent, [(gate, b), (gate, c)])], PENALTY)

    def test_own_module(self, parent):
        partition, a, _, _ = self._modules(parent)
        gate = int(partition.gates_array(a)[0])
        with pytest.raises(PartitionError, match="own module"):
            EvaluationState.trial_blocks([(parent, [(gate, a)])], PENALTY)

    def test_missing_module(self, parent):
        partition, a, _, _ = self._modules(parent)
        gate = int(partition.gates_array(a)[0])
        with pytest.raises(PartitionError, match="missing module"):
            EvaluationState.trial_blocks(
                [(parent, [(gate, partition._next_id + 3)])], PENALTY
            )

    def test_open_trial(self, parent):
        parent.begin_trial()
        with pytest.raises(PartitionError, match="open trial"):
            EvaluationState.trial_blocks([(parent, [])], PENALTY)
        parent.rollback()
