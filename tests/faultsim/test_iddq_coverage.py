"""Tests for the IDDQ computation and coverage evaluation."""

import numpy as np
import pytest

from oracles.faultsim import (
    defect_activation_bits,
    defective_module_iddq_ua,
    detection_matrix,
    evaluate_coverage,
)
from repro.faultsim.coverage import effective_thresholds_ua
from repro.faultsim.faults import BridgingFault
from repro.faultsim.iddq import IDDQSimulator
from repro.faultsim.patterns import exhaustive_patterns
from repro.partition.partition import Partition


@pytest.fixture(scope="module")
def c17_setup():
    from repro.netlist.benchmarks import c17

    circuit = c17()
    sim = IDDQSimulator(circuit)
    values = sim.simulate_values(exhaustive_patterns(5))
    return circuit, sim, values


class TestFaultFreeIDDQ:
    def test_gate_leakage_bounds(self, c17_setup, library):
        circuit, sim, values = c17_setup
        leak = sim.gate_leakage_na(values)
        cell = library.cell("NAND2")
        assert leak.shape == (32, 6)
        assert (leak >= cell.leakage_na_min - 1e-12).all()
        assert (leak <= cell.leakage_na_max + 1e-12).all()

    def test_module_iddq_partition_sums_to_whole(self, c17_setup):
        circuit, sim, values = c17_setup
        single = Partition.single_module(circuit)
        split = Partition(circuit, {g: g % 2 for g in range(6)})
        whole = sim.module_iddq_ua(single, values)[0]
        parts = sim.module_iddq_ua(split, values)
        assert np.allclose(parts[0] + parts[1], whole)

    def test_state_dependence(self, c17_setup):
        """IDDQ must vary across vectors (state-dependent leakage)."""
        circuit, sim, values = c17_setup
        series = sim.module_iddq_ua(Partition.single_module(circuit), values)[0]
        assert series.max() > series.min()


class TestDefectiveIDDQ:
    def test_defect_adds_current_when_active(self, c17_setup):
        circuit, sim, values = c17_setup
        partition = Partition.single_module(circuit)
        fault = BridgingFault(
            defect_id="b", current_ua=3.0, observing_gates=("10",),
            net_a="1", net_b="10",
        )
        clean = sim.module_iddq_ua(partition, values)[0]
        dirty = defective_module_iddq_ua(sim, fault, partition, values)[0]
        active = defect_activation_bits(fault, values).astype(bool)
        assert np.allclose(dirty[active], clean[active] + 3.0)
        assert np.allclose(dirty[~active], clean[~active])

    def test_observing_modules(self, c17_setup):
        circuit, sim, values = c17_setup
        partition = Partition(circuit, {g: g % 3 for g in range(6)})
        index = circuit.gate_index
        fault = BridgingFault(
            defect_id="b", current_ua=3.0, observing_gates=("10", "23"),
            net_a="10", net_b="23",
        )
        modules = sim.observing_modules(fault, partition)
        assert set(modules) == {
            partition.module_of(index["10"]),
            partition.module_of(index["23"]),
        }


class TestThresholds:
    def test_effective_threshold_raises_with_background(self, technology):
        background = {0: np.asarray([0.02, 0.05]), 1: np.asarray([0.5, 0.6])}
        thresholds = effective_thresholds_ua(background, technology)
        assert thresholds[0] == pytest.approx(1.0)  # 10 * 0.05 < 1 uA nominal
        assert thresholds[1] == pytest.approx(6.0)  # 10 * 0.6 dominates


class TestCoverage:
    def test_detection_matrix_agrees_with_report(self, c17_setup):
        circuit, sim, values = c17_setup
        partition = Partition.single_module(circuit)
        patterns = exhaustive_patterns(5)
        faults = [
            BridgingFault(
                defect_id=f"b{i}", current_ua=2.0 + i, observing_gates=("10",),
                net_a="1", net_b="10",
            )
            for i in range(3)
        ]
        matrix = detection_matrix(circuit, partition, faults, patterns)
        report = evaluate_coverage(circuit, partition, faults, patterns)
        assert matrix.shape == (3, 32)
        assert report.num_detected == int(matrix.any(axis=1).sum())

    def test_large_defect_detected_small_missed(self, c17_setup, technology):
        circuit, sim, values = c17_setup
        partition = Partition.single_module(circuit)
        patterns = exhaustive_patterns(5)
        big = BridgingFault(
            defect_id="big", current_ua=50.0, observing_gates=("10",),
            net_a="1", net_b="10",
        )
        tiny = BridgingFault(
            defect_id="tiny", current_ua=0.001, observing_gates=("10",),
            net_a="1", net_b="10",
        )
        report = evaluate_coverage(circuit, partition, [big, tiny], patterns)
        assert "big" in report.detected_ids
        assert "tiny" in report.undetected_ids
        assert report.coverage == pytest.approx(0.5)

    def test_never_activated_defect_missed(self, c17_setup):
        circuit, sim, values = c17_setup
        partition = Partition.single_module(circuit)
        # Bridge between a net and itself-through-buffer would never be
        # activated; emulate with identical nets via a constant pattern set.
        fault = BridgingFault(
            defect_id="same", current_ua=50.0, observing_gates=("10",),
            net_a="10", net_b="10",
        )
        patterns = exhaustive_patterns(5)
        report = evaluate_coverage(circuit, partition, [fault], patterns)
        assert report.num_detected == 0

    def test_summary_text(self, c17_setup):
        circuit, sim, values = c17_setup
        partition = Partition.single_module(circuit)
        report = evaluate_coverage(circuit, partition, [], exhaustive_patterns(5))
        assert report.coverage == 1.0
        assert "0/0" in report.summary()
