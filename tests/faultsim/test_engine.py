"""Tests for the cached, vectorised :class:`CoverageEngine`.

The engine's contract is *exact* agreement with the one-shot reference
implementations in :mod:`repro.faultsim.coverage` — same floats, same
booleans, same report — while caching everything reusable.  Randomised
cross-checks live in ``tests/test_equivalence.py``; here we pin the
cache behaviour and the restricted single-defect path.
"""

import random

import numpy as np
import pytest

from oracles.faultsim import reference_gate_leakage_na
from repro.faultsim.coverage import detection_matrix, evaluate_coverage
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import (
    BridgingFault,
    sample_bridging_faults,
    sample_gate_oxide_shorts,
    sample_stuck_on_transistors,
)
from repro.faultsim.iddq import IDDQSimulator
from repro.faultsim.patterns import random_patterns
from repro.faultsim.quality import quality_from_coverage, quality_from_defects
from repro.partition.partition import Partition


@pytest.fixture(scope="module")
def setup(small_circuit):
    rng = random.Random(3)
    n = len(small_circuit.gate_names)
    assignment = {g: rng.randrange(5) for g in range(n)}
    for module in range(5):
        assignment[module] = module
    partition = Partition(small_circuit, assignment)
    defects = (
        sample_bridging_faults(small_circuit, 20, seed=1, current_range_ua=(0.5, 20.0))
        + sample_gate_oxide_shorts(small_circuit, 12, seed=2, current_range_ua=(0.5, 20.0))
        + sample_stuck_on_transistors(small_circuit, 12, seed=3, current_range_ua=(0.5, 20.0))
    )
    patterns = random_patterns(len(small_circuit.input_names), 150, seed=4)
    return small_circuit, partition, defects, patterns


class TestExactness:
    def test_detection_matrix_matches_reference(self, setup):
        circuit, partition, defects, patterns = setup
        engine = CoverageEngine(circuit)
        assert np.array_equal(
            engine.detection_matrix(partition, defects, patterns),
            detection_matrix(circuit, partition, defects, patterns),
        )

    def test_coverage_report_matches_reference(self, setup):
        circuit, partition, defects, patterns = setup
        engine = CoverageEngine(circuit)
        assert engine.evaluate_coverage(partition, defects, patterns) == (
            evaluate_coverage(circuit, partition, defects, patterns)
        )

    def test_single_defect_restricted_path(self, setup):
        """One defect observes few modules; the engine then computes
        leakage for those modules' gates only — still bit-identical."""
        circuit, partition, defects, patterns = setup
        engine = CoverageEngine(circuit)
        for defect in defects[:10]:
            assert np.array_equal(
                engine.detection_matrix(partition, [defect], patterns),
                detection_matrix(circuit, partition, [defect], patterns),
            ), defect.defect_id

    def test_empty_defect_list(self, setup):
        circuit, partition, _, patterns = setup
        engine = CoverageEngine(circuit)
        assert engine.detection_matrix(partition, [], patterns).shape == (
            0,
            patterns.shape[0],
        )
        report = engine.evaluate_coverage(partition, [], patterns)
        assert report.coverage == 1.0

    def test_unknown_defect_subclass_falls_back(self, setup):
        """A Defect subclass the engine does not recognise must still be
        evaluated through its own activation method."""
        circuit, partition, _, patterns = setup

        class OddBridge(BridgingFault):
            pass

        net_a = circuit.gate_names[0]
        net_b = circuit.gate_names[1]
        odd = OddBridge(
            defect_id="odd", current_ua=25.0, observing_gates=(net_a,),
            net_a=net_a, net_b=net_b,
        )
        engine = CoverageEngine(circuit)
        assert np.array_equal(
            engine.detection_matrix(partition, [odd], patterns),
            detection_matrix(circuit, partition, [odd], patterns),
        )


class TestLeakageVectorisation:
    def test_grouped_leakage_matches_reference_loop(self, setup):
        circuit, _, _, patterns = setup
        sim = IDDQSimulator(circuit)
        values = sim.simulate_values(patterns)
        assert np.array_equal(
            sim.gate_leakage_na(values), reference_gate_leakage_na(sim, values)
        )

    def test_leakage_rows_match_full_matrix(self, setup):
        circuit, _, _, patterns = setup
        sim = IDDQSimulator(circuit)
        values = sim.simulate_values(patterns)
        bits = sim.unpack_bits(values)
        full = sim.gate_leakage_na(values)
        gates = np.asarray([7, 3, 40, 11, 3], dtype=np.int64)
        rows = sim.leakage_rows(bits, gates)
        assert np.array_equal(rows, full[:, gates].T)


class TestModuleIndexCache:
    def test_indices_cached_until_mutation(self, setup):
        circuit, partition, _, _ = setup
        sim = IDDQSimulator(circuit)
        partition = partition.copy()
        first = sim.module_indices(partition)
        assert sim.module_indices(partition) is first  # cache hit
        gate = next(iter(partition.gates_of(partition.module_ids[0])))
        partition.move_gate(gate, partition.module_ids[1])
        second = sim.module_indices(partition)
        assert second is not first  # version bump invalidates
        merged = np.sort(np.concatenate(list(second.values())))
        assert np.array_equal(merged, np.arange(len(circuit.gate_names)))

    def test_background_matches_module_iddq(self, setup):
        circuit, partition, _, patterns = setup
        sim = IDDQSimulator(circuit)
        values = sim.simulate_values(patterns)
        full = sim.module_iddq_ua(partition, values)
        bits = sim.unpack_bits(values)
        subset = sim.module_background_ua(partition, bits, list(full)[:2])
        for module, series in subset.items():
            assert np.array_equal(series, full[module])


class TestQualityFromDefects:
    def test_matches_report_route(self, setup):
        circuit, partition, defects, patterns = setup
        engine = CoverageEngine(circuit)
        direct = quality_from_defects(engine, partition, defects, patterns, 0.95)
        via_report = quality_from_coverage(
            evaluate_coverage(circuit, partition, defects, patterns), 0.95
        )
        assert direct == via_report


class TestCacheSafety:
    def test_distinct_defects_sharing_an_id_stay_distinct(self, setup):
        """The observation cache must key on defect objects: two defects
        with the same defect_id but different observing gates must not
        serve each other's module sets."""
        circuit, partition, _, patterns = setup
        gates = circuit.gate_names
        a = BridgingFault(
            defect_id="dup", current_ua=30.0, observing_gates=(gates[0],),
            net_a=gates[0], net_b=gates[1],
        )
        b = BridgingFault(
            defect_id="dup", current_ua=30.0, observing_gates=(gates[50],),
            net_a=gates[50], net_b=gates[51],
        )
        engine = CoverageEngine(circuit)
        first = engine.detection_matrix(partition, [a], patterns)
        second = engine.detection_matrix(partition, [b], patterns)
        assert np.array_equal(first, detection_matrix(circuit, partition, [a], patterns))
        assert np.array_equal(second, detection_matrix(circuit, partition, [b], patterns))

    def test_in_place_pattern_mutation_invalidates_cache(self, setup):
        circuit, partition, defects, _ = setup
        engine = CoverageEngine(circuit)
        patterns = random_patterns(len(circuit.input_names), 80, seed=9)
        engine.detection_matrix(partition, defects, patterns)
        fresh = random_patterns(len(circuit.input_names), 80, seed=10)
        patterns[:] = fresh
        assert np.array_equal(
            engine.detection_matrix(partition, defects, patterns),
            detection_matrix(circuit, partition, defects, fresh),
        )

    def test_shared_cell_bound_to_mixed_arity_gates(self):
        """Leak tables are per (cell, arity): one cell explicitly bound
        to gates of different fanin counts must not truncate tables."""
        from repro.library.default_lib import generic_library
        from repro.netlist.builder import CircuitBuilder

        builder = CircuitBuilder("mixed")
        for name in ("a", "b", "c"):
            builder.input(name)
        builder.gate("g2", "AND", ["a", "b"], cell="NAND2")
        builder.gate("g3", "AND", ["a", "b", "c"], cell="NAND2")
        builder.output("g2")
        builder.output("g3")
        circuit = builder.build()
        sim = IDDQSimulator(circuit, generic_library())
        values = sim.simulate_values(random_patterns(3, 8, seed=1))
        assert np.array_equal(
            sim.gate_leakage_na(values), reference_gate_leakage_na(sim, values)
        )

    def test_engine_with_explicit_library_rejected(self, setup):
        from repro.errors import FaultSimError
        from repro.faultsim.atpg import generate_iddq_tests
        from repro.library.default_lib import generic_library

        circuit, partition, defects, _ = setup
        engine = CoverageEngine(circuit)
        with pytest.raises(FaultSimError):
            generate_iddq_tests(
                circuit, partition, defects,
                library=generic_library(), engine=engine,
            )


class TestPatternCache:
    def test_same_batch_simulated_once(self, setup):
        circuit, partition, defects, patterns = setup
        engine = CoverageEngine(circuit)
        engine.detection_matrix(partition, defects, patterns)
        values_first = engine.prepared_values(patterns)
        engine.detection_matrix(partition, defects, patterns)
        assert engine.prepared_values(patterns) is values_first

    def test_two_partitions_share_one_simulation(self, setup):
        circuit, partition, defects, patterns = setup
        engine = CoverageEngine(circuit)
        single = Partition.single_module(circuit)
        m_multi = engine.detection_matrix(partition, defects, patterns)
        m_single = engine.detection_matrix(single, defects, patterns)
        assert np.array_equal(
            m_single, detection_matrix(circuit, single, defects, patterns)
        )
        assert np.array_equal(
            m_multi, detection_matrix(circuit, partition, defects, patterns)
        )


class TestStateReuse:
    """The one sim-state slot: an equal batch (by shape, dtype and
    values) hits, any other batch replaces it, and every result stays
    exact across the switches."""

    def test_one_slot_compared_by_content(self, setup):
        circuit, *_ = setup
        engine = CoverageEngine(circuit)
        num_inputs = len(circuit.input_names)
        a = random_patterns(num_inputs, 24, seed=10)
        b = random_patterns(num_inputs, 48, seed=11)
        first = engine.prepared_values(a)
        assert engine.prepared_values(a.copy()) is first  # equal content hits
        assert engine.prepared_values(a.astype(np.int64)) is not first  # dtype
        engine.prepared_values(b)
        engine.prepared_values(a)  # the slot now holds b: re-simulated
        assert engine.state_stats == {"full": 4, "hits": 1}

    def test_patched_and_hit_states_stay_exact(self, setup):
        circuit, partition, defects, _ = setup
        engine = CoverageEngine(circuit)
        num_inputs = len(circuit.input_names)
        batches = [random_patterns(num_inputs, 16, seed=s) for s in (20, 21)]
        flipped = batches[0].copy()
        flipped[:, 2] ^= 1
        batches.append(flipped)
        batches.append(batches[0])  # revisit
        for batch in batches:
            got = engine.detection_matrix(partition, defects, batch)
            want = detection_matrix(circuit, partition, defects, batch)
            assert np.array_equal(got, want)
