"""Compiled-kernel vs reference equivalence (bit-for-bit).

The compiled-graph refactor keeps the original per-gate/dict-based
implementations in ``tests/oracles`` as executable specifications.
These tests drive
randomly generated circuits (``netlist/generate.py``), the exact C17,
the Figure 2 wave array, and benchmark stand-ins through both paths and
assert *exact* agreement: same packed simulation words, same separation
matrix, same transition masks, same arrival times and critical paths,
same cost breakdowns.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.faultsim import (
    ReferenceStuckAtSimulator,
    detection_matrix,
    evaluate_coverage,
    reference_gate_leakage_na,
    reference_generate_iddq_tests,
)
from oracles.separation import reference_separation_matrix
from oracles.sim import ReferenceLogicSimulator
from oracles.state import ReferenceEvaluationState
from oracles.timing import LevelizedTiming
from repro.analysis.paths import extract_critical_path
from repro.config import EvolutionParams
from repro.analysis import separation
from repro.analysis.separation import SeparationMatrix
from repro.analysis.timing import levelized_timing
from repro.analysis.transition_times import (
    TransitionTimes,
    times_from_mask,
    transition_mask_words,
    transition_time_masks,
)
from repro.faultsim.atpg import generate_iddq_tests
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import (
    sample_bridging_faults,
    sample_gate_oxide_shorts,
    sample_stuck_on_transistors,
)
from repro.faultsim.iddq import IDDQSimulator
from repro.faultsim.logic_sim import LogicSimulator
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.library.default_lib import generic_technology
from repro.netlist.arrays import wave_array
from repro.netlist.benchmarks import c17, load_iscas85
from repro.netlist.gate import evaluate_gate
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.metrics import cut_edges
from repro.partition.partition import Partition


def _generated(seed: int, gates: int = 140, depth: int = 10):
    return generate_iscas_like(
        GeneratorConfig(
            name=f"eq{seed}", num_gates=gates, num_inputs=12, num_outputs=8,
            depth=depth, seed=seed,
        )
    )


@pytest.fixture(
    scope="module",
    params=["c17", "wave", "gen3", "gen4", "c880"],
)
def circuit(request):
    if request.param == "c17":
        return c17()
    if request.param == "wave":
        return wave_array(4, 5).circuit
    if request.param == "c880":
        return load_iscas85("c880")
    return _generated(int(request.param[3:]))


def _random_partition(circuit, k: int, seed: int) -> Partition:
    rng = random.Random(seed)
    n = len(circuit.gate_names)
    assignment = {g: rng.randrange(k) for g in range(n)}
    for module in range(min(k, n)):  # guarantee non-empty modules
        assignment[module] = module
    return Partition(circuit, assignment)


class TestLogicSimEquivalence:
    def test_packed_words_identical(self, circuit):
        patterns = random_patterns(len(circuit.input_names), 500, seed=11)
        compiled = LogicSimulator(circuit).simulate(patterns)
        reference = ReferenceLogicSimulator(circuit).simulate(patterns)
        assert np.array_equal(compiled.packed, reference.packed)
        assert compiled.row_of == reference.row_of

    def test_unpack_identical(self, circuit):
        patterns = random_patterns(len(circuit.input_names), 70, seed=12)
        compiled = LogicSimulator(circuit).simulate(patterns)
        reference = ReferenceLogicSimulator(circuit).simulate(patterns)
        nodes = circuit.output_names
        assert np.array_equal(compiled.unpack(nodes), reference.unpack(nodes))

    def test_pinned_simulation_matches_scalar_reference(self):
        circuit = _generated(9, gates=60, depth=6)
        patterns = random_patterns(len(circuit.input_names), 48, seed=13)
        sim = LogicSimulator(circuit)
        rng = random.Random(5)
        nets = [rng.choice(circuit.all_names) for _ in range(4)]
        for net, value in zip(nets, (0, 1, 1, 0)):
            values = sim.simulate(patterns, pinned={net: value})
            scalar = self._scalar_pinned(circuit, patterns, net, value)
            for name in circuit.all_names:
                assert np.array_equal(values.node_bits(name), scalar[name]), (net, name)

    @staticmethod
    def _scalar_pinned(circuit, patterns, net, value):
        """Per-pattern scalar evaluation with one net pinned."""
        out = {}
        for column, name in enumerate(circuit.input_names):
            out[name] = (patterns[:, column] & 1).astype(np.uint8)
        if net in out:
            out[net] = np.full(patterns.shape[0], value, dtype=np.uint8)
        for name in circuit.topological_order:
            gate = circuit.gate(name)
            if gate.gate_type.is_input:
                continue
            if name == net:
                out[name] = np.full(patterns.shape[0], value, dtype=np.uint8)
                continue
            out[name] = np.asarray(
                [
                    evaluate_gate(
                        gate.gate_type, [int(out[f][p]) for f in gate.fanins]
                    )
                    for p in range(patterns.shape[0])
                ],
                dtype=np.uint8,
            )
        return out


class TestStuckAtEquivalence:
    """The stem engine (batched cone-limited flip passes + critical-path
    tracing inside fanout-free regions) vs the serial reference — fault
    for fault, bit for bit."""

    #: Stems per pass, on top of the word budget's default.
    BATCHES = (1, 7, 64, 256)

    def test_detection_matrix_identical(self, circuit):
        faults = enumerate_stuck_at_faults(circuit)
        patterns = random_patterns(len(circuit.input_names), 140, seed=21)
        reference = ReferenceStuckAtSimulator(circuit).detection_matrix(
            faults, patterns
        )
        assert np.array_equal(
            StuckAtSimulator(circuit).detection_matrix(faults, patterns), reference
        )
        words = -(-patterns.shape[0] // 64)
        for batch in self.BATCHES:
            fast = StuckAtSimulator(circuit)
            fast.batch_words = batch * words
            assert np.array_equal(
                fast.detection_matrix(faults, patterns), reference
            ), f"batch {batch}"

    def test_coverage_identical_with_fault_dropping(self, circuit):
        """Coverage is the matrix's any-row mean (the chunked fault
        dropping this test is named after is gone)."""
        faults = enumerate_stuck_at_faults(circuit)
        patterns = random_patterns(len(circuit.input_names), 200, seed=22)
        reference = ReferenceStuckAtSimulator(circuit).coverage(faults, patterns)
        for batch in self.BATCHES:
            fast = StuckAtSimulator(circuit)
            fast.batch_words = batch * 4  # four words at 200 patterns
            assert fast.coverage(faults, patterns) == reference, f"batch {batch}"

    def test_fault_subsets_and_duplicates(self, circuit):
        faults = enumerate_stuck_at_faults(circuit)
        subset = faults[1::3] + faults[:4]  # shuffled polarity mix + dupes
        patterns = random_patterns(len(circuit.input_names), 70, seed=23)
        assert np.array_equal(
            StuckAtSimulator(circuit).detection_matrix(subset, patterns),
            ReferenceStuckAtSimulator(circuit).detection_matrix(subset, patterns),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        gates=st.integers(2, 90),
        inputs=st.integers(1, 9),
        outputs=st.integers(1, 6),
        depth=st.integers(1, 12),
        seed=st.integers(0, 100_000),
        num_patterns=st.integers(1, 200),
        picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
        batch=st.sampled_from((1, 7, 64, 256)),
    )
    def test_generated_circuits_match_reference(
        self, gates, inputs, outputs, depth, seed, num_patterns, picks, batch
    ):
        """Any generated circuit, pattern count and fault subset (in any
        order, duplicates included) gives the reference's matrix."""
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="sagen", num_gates=gates, num_inputs=inputs,
                num_outputs=outputs, depth=min(depth, gates), seed=seed,
            )
        )
        every = enumerate_stuck_at_faults(circuit)
        faults = [every[i % len(every)] for i in picks]
        patterns = random_patterns(inputs, num_patterns, seed=seed)
        fast = StuckAtSimulator(circuit)
        fast.batch_words = batch * -(-num_patterns // 64)
        assert np.array_equal(
            fast.detection_matrix(faults, patterns),
            ReferenceStuckAtSimulator(circuit).detection_matrix(faults, patterns),
        )


def _sampled_defects(circuit, seed: int):
    return (
        sample_bridging_faults(circuit, 15, seed=seed, current_range_ua=(0.5, 25.0))
        + sample_gate_oxide_shorts(
            circuit, 10, seed=seed + 1, current_range_ua=(0.5, 25.0)
        )
        + sample_stuck_on_transistors(
            circuit, 10, seed=seed + 2, current_range_ua=(0.5, 25.0)
        )
    )


def _banded(engine, partition, defects):
    """``defects`` with their currents placed in turn below the futile
    bound, between the bounds and above the activation-only bound of
    :meth:`CoverageEngine.search_class`."""
    nominal = engine.technology.iddq_threshold_ua
    d = engine.technology.discriminability
    placed = []
    for i, defect in enumerate(defects):
        bounds = [
            engine.sim.module_leak_bounds_ua(partition, m)
            for m in engine.sim.observing_modules(defect, partition)
        ]
        ceiling = nominal - max(hi for _, hi in bounds)
        floor = min(max(nominal, d * hi) - lo for lo, hi in bounds)
        current = (0.5 * ceiling, ceiling + 0.1 * (floor - ceiling), 2 * floor)[i % 3]
        placed.append(replace(defect, current_ua=current))
    return placed


class TestCoverageEngineEquivalence:
    """The cached vectorised engine vs the one-shot reference functions —
    exact floats, exact booleans, exact reports."""

    def test_detection_matrix_identical(self, circuit):
        partition = _random_partition(circuit, 4, seed=31)
        defects = _sampled_defects(circuit, 31)
        patterns = random_patterns(len(circuit.input_names), 130, seed=31)
        engine = CoverageEngine(circuit)
        assert np.array_equal(
            engine.detection_matrix(partition, defects, patterns),
            detection_matrix(circuit, partition, defects, patterns),
        )

    def test_coverage_report_identical(self, circuit):
        partition = _random_partition(circuit, 3, seed=32)
        defects = _sampled_defects(circuit, 32)
        patterns = random_patterns(len(circuit.input_names), 90, seed=32)
        engine = CoverageEngine(circuit)
        assert engine.evaluate_coverage(partition, defects, patterns) == (
            evaluate_coverage(circuit, partition, defects, patterns)
        )

    def test_leakage_matches_per_gate_loop(self, circuit):
        sim = IDDQSimulator(circuit)
        values = sim.simulate_values(
            random_patterns(len(circuit.input_names), 110, seed=33)
        )
        assert np.array_equal(
            sim.gate_leakage_na(values), reference_gate_leakage_na(sim, values)
        )

    def test_atpg_identical_through_engine(self, circuit):
        partition = _random_partition(circuit, 3, seed=34)
        engine = CoverageEngine(circuit)
        defects = _banded(engine, partition, _sampled_defects(circuit, 34))
        # Two random vectors leave defects of every search class to the
        # targeted phase: futile, activation-only and the walk.
        kwargs = dict(seed=34, random_vectors=2, restarts=2, flip_budget=6)
        pool = random_patterns(len(circuit.input_names), 2, seed=34)
        missed = ~engine.detection_matrix(partition, defects, pool).any(axis=1)
        assert {
            engine.search_class(partition, d) for d, m in zip(defects, missed) if m
        } == {"futile", "activation", "walk"}
        reference = reference_generate_iddq_tests(
            circuit, partition, defects, **kwargs
        )
        for jobs in (1, 2):
            fast = generate_iddq_tests(circuit, partition, defects, jobs=jobs, **kwargs)
            assert np.array_equal(fast.patterns, reference.patterns), jobs
            assert fast.detected_ids == reference.detected_ids
            assert fast.undetected_ids == reference.undetected_ids
            assert fast.random_detected == reference.random_detected
            assert fast.targeted_detected == reference.targeted_detected


class TestATPGProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        circuit_seed=st.integers(0, 10_000),
        gates=st.integers(12, 60),
        modules=st.integers(1, 3),
        threshold=st.floats(0.005, 0.5),
        discriminability=st.floats(1.5, 10.0),
        seed=st.integers(0, 10_000),
        random_vectors=st.integers(1, 8),
        restarts=st.integers(0, 3),
        flip_budget=st.integers(0, 6),
    )
    def test_generation_equals_reference(
        self, circuit_seed, gates, modules, threshold, discriminability, seed,
        random_vectors, restarts, flip_budget,
    ):
        """A threshold near the modules' background puts defects in all
        three search classes; each searches on its own stream, and the
        engine's test set is the reference's at one and two jobs."""
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="atpgprop", num_gates=gates, num_inputs=7, num_outputs=4,
                depth=min(6, gates), seed=circuit_seed,
            )
        )
        partition = _random_partition(circuit, modules, circuit_seed)
        currents = (0.1 * threshold, 3 * threshold)
        defects = sample_bridging_faults(
            circuit, 6, seed=circuit_seed, current_range_ua=currents
        ) + sample_gate_oxide_shorts(
            circuit, 4, seed=circuit_seed + 1, current_range_ua=currents
        )
        technology = replace(
            generic_technology(),
            iddq_threshold_ua=threshold,
            discriminability=discriminability,
        )
        kwargs = dict(
            technology=technology, seed=seed, random_vectors=random_vectors,
            restarts=restarts, flip_budget=flip_budget,
        )
        reference = reference_generate_iddq_tests(
            circuit, partition, defects, **kwargs
        )
        for jobs in (1, 2):
            fast = generate_iddq_tests(circuit, partition, defects, jobs=jobs, **kwargs)
            assert np.array_equal(fast.patterns, reference.patterns), jobs
            assert fast.detected_ids == reference.detected_ids
            assert fast.undetected_ids == reference.undetected_ids
            assert fast.random_detected == reference.random_detected
            assert fast.targeted_detected == reference.targeted_detected


class TestSeparationEquivalence:
    # 255: every BFS runs out of new nodes long before the cap.
    @pytest.mark.parametrize("cap", [1, 3, 10, 255])
    def test_matrix_identical(self, circuit, cap):
        matrix = SeparationMatrix(circuit, cap).matrix
        assert matrix.dtype == np.uint8
        assert np.array_equal(matrix, reference_separation_matrix(circuit, cap))

    # A budget of ``rows`` gate rows: unpack blocks of that many rows and
    # OR chunks of one or a few adjacency segments.
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("cap", [1, 2, 3, 10, 255])
    def test_matrix_identical_in_small_blocks(self, circuit, cap, rows, monkeypatch):
        monkeypatch.setattr(separation, "_BLOCK_BYTES", rows * len(circuit.gate_names))
        matrix = SeparationMatrix(circuit, cap).matrix
        assert np.array_equal(matrix, reference_separation_matrix(circuit, cap))

    @pytest.mark.slow
    def test_matrix_identical_c7552(self):
        circuit = load_iscas85("c7552")
        assert np.array_equal(
            SeparationMatrix(circuit, 10).matrix,
            reference_separation_matrix(circuit, 10),
        )


class TestTransitionTimeEquivalence:
    def test_mask_words_match_integer_masks(self, circuit):
        reference = transition_time_masks(circuit)
        words = transition_mask_words(circuit)
        for i, name in enumerate(circuit.all_names):
            assert int.from_bytes(words[i].tobytes(), "little") == reference[name]

    def test_times_and_csr_match_reference_masks(self, circuit):
        reference = transition_time_masks(circuit)
        times = TransitionTimes.compute(circuit)
        for g, name in enumerate(circuit.gate_names):
            expected = np.asarray(times_from_mask(reference[name]), dtype=np.int64)
            assert np.array_equal(times.times[g], expected)
            assert np.array_equal(
                times.times_flat[times.times_indptr[g] : times.times_indptr[g + 1]],
                expected,
            )

    def test_profile_matches_per_gate_loop(self, circuit):
        times = TransitionTimes.compute(circuit)
        n = len(circuit.gate_names)
        rng = np.random.default_rng(3)
        weights = rng.random(n)
        gates = rng.permutation(n)[: max(1, n // 3)]
        expected = np.zeros(times.depth + 1)
        for g in gates:
            expected[times.times[g]] += weights[g]
        assert np.array_equal(times.profile(gates, weights), expected)

    def test_max_in_profile_matches_per_gate_loop(self, circuit):
        times = TransitionTimes.compute(circuit)
        n = len(circuit.gate_names)
        rng = np.random.default_rng(4)
        profile = rng.random(times.depth + 1)
        gates = rng.permutation(n)[: max(1, n // 2)]
        expected = np.asarray([float(profile[times.times[g]].max()) for g in gates])
        assert np.array_equal(times.max_in_profile(gates, profile), expected)


class TestTimingEquivalence:
    def test_arrival_times_match_dict_longest_path(self, circuit):
        n = len(circuit.gate_names)
        rng = np.random.default_rng(5)
        delays = np.round(rng.random(n) * 2, 1)  # rounded to provoke ties
        index = circuit.gate_index
        expected: dict[str, float] = {}
        for name in circuit.topological_order:
            gate = circuit.gate(name)
            if gate.gate_type.is_input:
                expected[name] = 0.0
            else:
                expected[name] = float(delays[index[name]]) + max(
                    expected[f] for f in gate.fanins
                )
        for arrival in (
            levelized_timing(circuit).full_arrival(delays),
            LevelizedTiming(circuit).arrival_times(delays),
        ):
            for name, g in index.items():
                assert arrival[g] == expected[name]

    def test_critical_path_matches_dict_walk(self, circuit):
        n = len(circuit.gate_names)
        rng = np.random.default_rng(6)
        delays = np.round(rng.random(n) * 2, 1)
        got = extract_critical_path(circuit, delays)
        index = circuit.gate_index
        arrival: dict[str, float] = {}
        predecessor: dict[str, str | None] = {}
        for name in circuit.topological_order:
            gate = circuit.gate(name)
            if gate.gate_type.is_input:
                arrival[name] = 0.0
                predecessor[name] = None
                continue
            best_fanin, best_arrival = None, -1.0
            for fanin in gate.fanins:
                if arrival[fanin] > best_arrival:
                    best_arrival, best_fanin = arrival[fanin], fanin
            arrival[name] = best_arrival + float(delays[index[name]])
            predecessor[name] = best_fanin
        end = max(circuit.gate_names, key=lambda name: (arrival[name], name))
        path: list[str] = []
        cursor: str | None = end
        while cursor is not None and not circuit.gate(cursor).gate_type.is_input:
            path.append(cursor)
            cursor = predecessor[cursor]
        path.reverse()
        assert got.gates == tuple(path)
        assert got.delay == arrival[end]
        assert got.start_input == cursor


class TestPartitionEquivalence:
    def test_boundary_and_neighbor_queries_match_tuple_walk(self, circuit):
        partition = _random_partition(circuit, 4, seed=7)
        neighbours = circuit.gate_neighbors
        for module in partition.module_ids:
            expected = sorted(
                g
                for g in partition._modules[module]
                if any(partition.module_of(nbr) != module for nbr in neighbours[g])
            )
            assert partition.boundary_gates(module) == expected
        for gate in range(len(circuit.gate_names)):
            own = partition.module_of(gate)
            expected_mods = tuple(
                sorted({partition.module_of(n) for n in neighbours[gate]} - {own})
            )
            assert partition.neighbor_modules(gate) == expected_mods

    def test_cut_edges_match_pair_loop(self, circuit):
        partition = _random_partition(circuit, 3, seed=8)
        neighbours = circuit.gate_neighbors
        cut = total = 0
        for gate, adjacent in enumerate(neighbours):
            for nbr in adjacent:
                if nbr <= gate:
                    continue
                total += 1
                if partition.module_of(nbr) != partition.module_of(gate):
                    cut += 1
        assert cut_edges(partition) == (cut, total)

    def test_cost_breakdown_matches_reference_kernels(self, circuit):
        """Evaluator with every compiled kernel swapped for its reference
        implementation produces the exact same cost breakdown."""
        partition = _random_partition(circuit, 3, seed=9)
        evaluator = PartitionEvaluator(circuit)
        breakdown = evaluator.evaluate(partition).breakdown

        reference = PartitionEvaluator(circuit)
        reference.separation.matrix = reference_separation_matrix(
            circuit, reference.technology.separation_cap
        )
        masks = transition_time_masks(circuit)
        reference.times = TransitionTimes(
            depth=circuit.depth,
            times=tuple(
                np.asarray(times_from_mask(masks[name]), dtype=np.int64)
                for name in circuit.gate_names
            ),
        )
        ref_breakdown = reference.evaluate(partition).breakdown
        assert breakdown.c1_area == ref_breakdown.c1_area
        assert breakdown.c2_delay == ref_breakdown.c2_delay
        assert breakdown.c3_separation == ref_breakdown.c3_separation
        assert breakdown.c4_test_time == ref_breakdown.c4_test_time
        assert breakdown.c5_modules == ref_breakdown.c5_modules
        assert breakdown.total == ref_breakdown.total

    def test_time_resolved_breakdown_matches_reference_times(self, circuit):
        """The §5.4 time-resolved path works (and agrees) with a CSR-less
        reference TransitionTimes swapped in."""
        partition = _random_partition(circuit, 3, seed=11)
        evaluator = PartitionEvaluator(circuit, time_resolved_degradation=True)
        breakdown = evaluator.evaluate(partition).breakdown

        reference = PartitionEvaluator(circuit, time_resolved_degradation=True)
        masks = transition_time_masks(circuit)
        reference.times = TransitionTimes(
            depth=circuit.depth,
            times=tuple(
                np.asarray(times_from_mask(masks[name]), dtype=np.int64)
                for name in circuit.gate_names
            ),
        )
        ref_breakdown = reference.evaluate(partition).breakdown
        assert breakdown.total == ref_breakdown.total

    def test_incremental_state_consistency_after_random_moves(self, circuit):
        evaluator = PartitionEvaluator(circuit)
        state = evaluator.new_state(_random_partition(circuit, 3, seed=10))
        rng = random.Random(10)
        n = len(circuit.gate_names)
        for _ in range(30):
            gate = rng.randrange(n)
            targets = [
                m
                for m in state.partition.module_ids
                if m != state.partition.module_of(gate)
            ]
            if not targets:
                break
            state.move_gate(gate, rng.choice(targets))
        state.consistency_check()

    def test_dense_state_tracks_reference_state(self, circuit):
        """Identical move scripts through both state implementations give
        matching costs, sensors and constraint reports at every step."""
        evaluator = PartitionEvaluator(circuit)
        partition = _random_partition(circuit, 3, seed=12)
        dense = evaluator.new_state(partition)
        reference = ReferenceEvaluationState(evaluator, partition)
        rng = random.Random(12)
        n = len(circuit.gate_names)
        for _ in range(20):
            gate = rng.randrange(n)
            targets = [
                m
                for m in dense.partition.module_ids
                if m != dense.partition.module_of(gate)
            ]
            if not targets:
                break
            target = rng.choice(targets)
            dense.move_gate(gate, target)
            reference.move_gate(gate, target)
            assert dense.penalized_cost(1e4) == pytest.approx(
                reference.penalized_cost(1e4), rel=1e-12
            )
        assert dense.partition.canonical() == reference.partition.canonical()
        dense_report = dense.constraint_report()
        ref_report = reference.constraint_report()
        assert dense_report.feasible == ref_report.feasible
        assert dense_report.violation == pytest.approx(ref_report.violation)
        dense_sensors = dense.sensors()
        for module, sensor in reference.sensors().items():
            assert dense_sensors[module].rs_ohm == pytest.approx(sensor.rs_ohm)
            assert dense_sensors[module].area == pytest.approx(sensor.area)
        dense_breakdown = dense.cost_breakdown()
        ref_breakdown = reference.cost_breakdown()
        for key, value in dense_breakdown.terms().items():
            assert value == pytest.approx(ref_breakdown.terms()[key], rel=1e-12), key


QUICK_EQ_ES = EvolutionParams(
    mu=3,
    children_per_parent=2,
    monte_carlo_per_parent=1,
    generations=8,
    convergence_window=6,
)


class TestOptimizerEquivalence:
    """All seven optimisers, seeded, on the dense vs the reference
    evaluation state: identical move sequences, identical final
    partitions, costs matching within tolerance."""

    @pytest.fixture(scope="class")
    def opt_evaluator(self):
        return PartitionEvaluator(_generated(17, gates=120, depth=9))

    @pytest.fixture(scope="class")
    def opt_start(self, opt_evaluator):
        from repro.optimize.start import chain_start_partition

        return chain_start_partition(opt_evaluator, 4, random.Random(7))

    def _run_both(self, evaluator, run):
        """Run ``run(evaluator)`` under each state implementation,
        recording every state the optimiser creates so committed move
        logs can be compared.  Returns both outcomes and the evaluator,
        the arguments of :meth:`_assert_equivalent`."""
        outcomes = {}
        for impl, make in (
            ("dense", type(evaluator).new_state),
            ("reference", ReferenceEvaluationState),
        ):
            created = []

            def spy(partition, make=make, _created=created):
                state = make(evaluator, partition)
                _created.append(state)
                return state

            evaluator.new_state = spy
            try:
                result = run(evaluator)
            finally:
                del evaluator.new_state
            outcomes[impl] = (result, [s.committed_moves() for s in created])
        return outcomes["dense"], outcomes["reference"], evaluator

    def _assert_equivalent(self, dense_outcome, reference_outcome, evaluator):
        dense, dense_logs = dense_outcome
        reference, reference_logs = reference_outcome
        # Each reported best is what a fresh evaluation of its partition
        # gives, and a fresh state of that partition is self-consistent.
        for result in (dense, reference):
            fresh = evaluator.evaluate(result.best.partition)
            assert fresh.cost == pytest.approx(result.best.cost, rel=1e-9)
            assert fresh.violation == pytest.approx(result.best.violation, rel=1e-9)
            assert fresh.sensor_area_total == pytest.approx(
                result.best.sensor_area_total, rel=1e-9
            )
            evaluator.new_state(result.best.partition).consistency_check()
        assert dense_logs == reference_logs  # identical move sequences
        assert dense.best.partition.canonical() == reference.best.partition.canonical()
        assert dense.evaluations == reference.evaluations
        assert dense.generations_run == reference.generations_run
        assert dense.converged == reference.converged
        assert dense.best_cost == pytest.approx(reference.best_cost, rel=1e-9)
        assert len(dense.history) == len(reference.history)
        for dense_record, reference_record in zip(dense.history, reference.history):
            assert dense_record.generation == reference_record.generation
            assert dense_record.num_modules == reference_record.num_modules
            assert dense_record.evaluations == reference_record.evaluations
            assert dense_record.best_feasible == reference_record.best_feasible
            assert dense_record.best_cost == pytest.approx(
                reference_record.best_cost, rel=1e-9
            )
            assert dense_record.mean_cost == pytest.approx(
                reference_record.mean_cost, rel=1e-9
            )

    def test_evolution(self, opt_evaluator):
        from repro.optimize.evolution import evolve_partition

        self._assert_equivalent(
            *self._run_both(
                opt_evaluator,
                lambda ev: evolve_partition(ev, QUICK_EQ_ES, seed=5),
            )
        )

    def test_kl_refine(self, opt_evaluator, opt_start):
        from repro.optimize.kl import kl_refine

        self._assert_equivalent(
            *self._run_both(
                opt_evaluator,
                lambda ev: kl_refine(ev, opt_start, max_passes=3, seed=3),
            )
        )

    def test_greedy(self, opt_evaluator, opt_start):
        from repro.optimize.greedy import greedy_refine

        self._assert_equivalent(
            *self._run_both(
                opt_evaluator,
                lambda ev: greedy_refine(ev, opt_start, max_passes=6),
            )
        )

    def test_annealing(self, opt_evaluator, opt_start):
        from repro.optimize.annealing import AnnealingParams, anneal_partition

        params = AnnealingParams(
            initial_temperature=10.0,
            cooling=0.6,
            steps_per_temperature=10,
            min_temperature=0.4,
        )
        self._assert_equivalent(
            *self._run_both(
                opt_evaluator,
                lambda ev: anneal_partition(ev, params, seed=2, start=opt_start),
            )
        )

    def test_random_search(self, opt_evaluator):
        from repro.optimize.random_search import random_search_partition

        self._assert_equivalent(
            *self._run_both(
                opt_evaluator,
                lambda ev: random_search_partition(ev, samples=20, seed=4),
            )
        )

    def test_force_directed(self, opt_evaluator, opt_start):
        from repro.optimize.force_directed import force_directed_partition

        self._assert_equivalent(
            *self._run_both(
                opt_evaluator,
                lambda ev: force_directed_partition(ev, seed=3, start=opt_start),
            )
        )

    def test_portfolio(self, opt_evaluator):
        from repro.optimize.annealing import AnnealingParams
        from repro.optimize.portfolio import portfolio_partition

        params = AnnealingParams(
            initial_temperature=10.0,
            cooling=0.6,
            steps_per_temperature=8,
            min_temperature=0.5,
        )
        self._assert_equivalent(
            *self._run_both(
                opt_evaluator,
                lambda ev: portfolio_partition(
                    ev,
                    evolution_params=QUICK_EQ_ES,
                    annealing_params=params,
                    seed=3,
                ),
            )
        )
