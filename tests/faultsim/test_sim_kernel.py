"""The logic-simulation kernel against its references.

:func:`repro.faultsim.logic_sim.run_schedule` (the fused schedule) must
reproduce the per-gate :class:`~oracles.sim.ReferenceLogicSimulator`
(``TestKernelEquivalence``) and the per-(level, op) kernel
:func:`~oracles.sim.run_level_schedule` (``TestLevelKernelEquivalence``)
bit for bit, pinned nets included; the fused plan must obey the fusion
legality rule; and the engines built on the kernel must match their
one-shot references over an ATPG-style walk.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles.faultsim import (
    ReferenceStuckAtSimulator,
    detection_matrix,
    evaluate_coverage,
)
from oracles.sim import ReferenceLogicSimulator, level_simulate
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts
from repro.faultsim.logic_sim import LogicSimulator
from repro.faultsim.patterns import exhaustive_patterns, random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator


def _generated(
    seed: int, gates: int = 120, depth: int = 9, inputs: int = 10, outputs: int = 6
):
    return generate_iscas_like(
        GeneratorConfig(
            name=f"bk{seed}",
            num_gates=gates,
            num_inputs=inputs,
            num_outputs=outputs,
            depth=depth,
            seed=seed,
        )
    )


class TestKernelEquivalence:
    """The fused kernel reproduces the per-gate reference bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_packed_words_match_reference(self, seed):
        circuit = _generated(seed)
        patterns = random_patterns(len(circuit.input_names), 130, seed=seed)
        fast = LogicSimulator(circuit).simulate(patterns)
        slow = ReferenceLogicSimulator(circuit).simulate(patterns)
        for name in circuit.all_names:
            assert np.array_equal(
                fast.packed[fast.row_of[name]], slow.packed[slow.row_of[name]]
            ), f"node {name}"

    def test_c17_exhaustive(self, c17_circuit):
        patterns = exhaustive_patterns(5)
        fast = LogicSimulator(c17_circuit).simulate_outputs(patterns)
        slow = ReferenceLogicSimulator(c17_circuit).simulate_outputs(patterns)
        assert np.array_equal(fast, slow)

    def test_pinned_nets_survive(self):
        circuit = _generated(4)
        patterns = random_patterns(len(circuit.input_names), 77, seed=4)
        sim = LogicSimulator(circuit)
        gate = circuit.gate_names[len(circuit.gate_names) // 2]
        values = sim.simulate(patterns, pinned={gate: 1})
        assert np.all(values.node_bits(gate) == 1)
        # A pinned net's effect matches the reference stuck-at path.
        reference = ReferenceStuckAtSimulator(circuit)
        fast = StuckAtSimulator(circuit)
        faults = enumerate_stuck_at_faults(circuit)[:40]
        assert np.array_equal(
            fast.detection_matrix(faults, patterns),
            reference.detection_matrix(faults, patterns),
        )

    def test_word_boundary_pattern_counts(self, c17_circuit):
        slowsim = ReferenceLogicSimulator(c17_circuit)
        fastsim = LogicSimulator(c17_circuit)
        for count in (1, 63, 64, 65, 129):
            patterns = random_patterns(5, count, seed=count)
            assert np.array_equal(
                fastsim.simulate_outputs(patterns),
                slowsim.simulate_outputs(patterns),
            )


class TestLevelKernelEquivalence:
    """The fused kernel reproduces the per-(level, op) kernel bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_packed_words_match_reference(self, seed):
        circuit = _generated(seed)
        patterns = random_patterns(len(circuit.input_names), 130, seed=seed)
        fast = LogicSimulator(circuit).simulate(patterns)
        assert np.array_equal(fast.packed, level_simulate(circuit, patterns).packed)

    def test_c17_exhaustive(self, c17_circuit):
        patterns = exhaustive_patterns(5)
        fast = LogicSimulator(c17_circuit).simulate_outputs(patterns)
        by_level = level_simulate(c17_circuit, patterns)
        assert np.array_equal(fast, by_level.unpack(c17_circuit.output_names))

    def test_pinned_nets_survive(self):
        circuit = _generated(4)
        patterns = random_patterns(len(circuit.input_names), 77, seed=4)
        gate = circuit.gate_names[len(circuit.gate_names) // 2]
        values = LogicSimulator(circuit).simulate(patterns, pinned={gate: 1})
        by_level = level_simulate(circuit, patterns, pinned={gate: 1})
        assert np.all(by_level.node_bits(gate) == 1)
        assert np.array_equal(values.packed, by_level.packed)

    def test_word_boundary_pattern_counts(self, c17_circuit):
        fastsim = LogicSimulator(c17_circuit)
        for count in (1, 63, 64, 65, 129):
            patterns = random_patterns(5, count, seed=count)
            assert np.array_equal(
                fastsim.simulate(patterns).packed,
                level_simulate(c17_circuit, patterns).packed,
            )


class TestFusedSchedule:
    def test_legality_and_coverage(self):
        circuit = _generated(11, gates=200, depth=12)
        cg = circuit.compiled
        fs = cg.fused_schedule()
        # Every logic gate appears exactly once across the fused groups.
        all_dst = np.concatenate([g.dst for g in fs.groups])
        assert len(all_dst) == cg.num_gates
        assert len(np.unique(all_dst)) == cg.num_gates
        # Fusion legality: each gate's batch is strictly later than
        # every fanin producer's batch.
        batch = fs.batch_of_node
        for node in cg.node_of_slot:
            for fanin in cg.fanin_indices[
                cg.fanin_indptr[node] : cg.fanin_indptr[node + 1]
            ]:
                if batch[fanin] >= 0:
                    assert batch[fanin] < batch[node]

    def test_fuses_across_levels(self):
        circuit = _generated(12, gates=260, depth=14)
        cg = circuit.compiled
        fs = cg.fused_schedule()
        assert len(fs.groups) <= len(cg.sim_groups)
        # Fanin segments stay unpadded: flattened length == CSR edges.
        edges = sum(len(g.fanins) for g in fs.groups)
        gate_nodes = cg.gate_node
        expected = int(
            (cg.fanin_indptr[gate_nodes + 1] - cg.fanin_indptr[gate_nodes]).sum()
        )
        assert edges == expected

    def test_schedule_cached(self):
        circuit = _generated(13)
        cg = circuit.compiled
        assert cg.fused_schedule() is cg.fused_schedule()
        assert cg.slot_closure() is cg.slot_closure()


class TestEngineWalk:
    """One engine over an ATPG-style single-column-flip walk stays
    exactly equal to the one-shot references at every step."""

    def test_detection_walk_matches_reference(self):
        circuit = _generated(20, gates=180, depth=12, inputs=14, outputs=8)
        evaluator = PartitionEvaluator(circuit)
        partition = chain_start_partition(
            evaluator, estimate_module_count(evaluator), random.Random(3)
        )
        defects = sample_bridging_faults(
            circuit, 6, seed=4, current_range_ua=(0.5, 6.0)
        ) + sample_gate_oxide_shorts(circuit, 4, seed=5, current_range_ua=(0.5, 6.0))
        num_inputs = len(circuit.input_names)
        walking = CoverageEngine(circuit)
        rng = random.Random(7)
        vector = np.asarray(
            [rng.randint(0, 1) for _ in range(num_inputs)], dtype=np.uint8
        )
        for step in range(12):
            vector = vector.copy()
            vector[rng.randrange(num_inputs)] ^= 1
            batch = np.tile(vector, (num_inputs + 1, 1))
            for bit in range(num_inputs):
                batch[bit + 1, bit] ^= 1
            defect = [defects[step % len(defects)]]
            got = walking.detection_matrix(partition, defect, batch)
            want = detection_matrix(circuit, partition, defect, batch)
            assert np.array_equal(got, want), f"step {step}"

    def test_coverage_report_after_walk_identical(self):
        circuit = _generated(21, gates=160, depth=11, inputs=12, outputs=8)
        evaluator = PartitionEvaluator(circuit)
        partition = chain_start_partition(
            evaluator, estimate_module_count(evaluator), random.Random(5)
        )
        defects = sample_bridging_faults(
            circuit, 8, seed=6, current_range_ua=(0.5, 6.0)
        )
        patterns = random_patterns(len(circuit.input_names), 50, seed=7)
        walking = CoverageEngine(circuit)
        walking.detection_matrix(partition, defects, patterns)
        stepped = patterns.copy()
        stepped[:, 2] ^= 1
        report = walking.evaluate_coverage(partition, defects, stepped)
        assert report == evaluate_coverage(circuit, partition, defects, stepped)


class TestStuckAtStatePooling:
    def test_pool_reused_across_batches_and_calls(self):
        circuit = _generated(30, gates=200, depth=12, inputs=12, outputs=8)
        sim = StuckAtSimulator(circuit)
        faults = enumerate_stuck_at_faults(circuit)
        patterns = random_patterns(len(circuit.input_names), 96, seed=8)
        first = sim.detection_matrix(faults, patterns)
        pool = sim._state_pool
        assert pool is not None
        second = sim.detection_matrix(faults, patterns)
        assert sim._state_pool is pool  # same buffer, no realloc
        assert np.array_equal(first, second)
        coverage = sim.coverage(faults, patterns)
        assert coverage == pytest.approx(float(first.any(axis=1).mean()))
