"""Tests for critical-path extraction."""

import numpy as np
import pytest

from oracles.timing import LevelizedTiming
from repro.analysis.paths import extract_critical_path


class TestExtraction:
    def test_c17_uniform_delays(self, c17_paper):
        delays = np.full(6, 0.55)
        path = extract_critical_path(c17_paper, delays)
        assert path.delay == pytest.approx(3 * 0.55)
        assert len(path.gates) == 3
        # Path must be a real connected chain ending at an output gate.
        for src, dst in zip(path.gates, path.gates[1:]):
            assert src in c17_paper.gate(dst).fanins
        assert path.gates[-1] in ("O2", "O3")

    def test_path_delay_matches_levelized_timing(self, small_circuit):
        rng = np.random.default_rng(5)
        delays = rng.uniform(0.3, 1.5, len(small_circuit.gate_names))
        path = extract_critical_path(small_circuit, delays)
        reference = LevelizedTiming(small_circuit).critical_path_delay(delays)
        assert path.delay == pytest.approx(reference)

    def test_path_delay_is_sum_of_gate_delays(self, small_circuit):
        rng = np.random.default_rng(6)
        delays = rng.uniform(0.3, 1.5, len(small_circuit.gate_names))
        path = extract_critical_path(small_circuit, delays)
        index = small_circuit.gate_index
        total = sum(delays[index[g]] for g in path.gates)
        assert total == pytest.approx(path.delay)

    def test_starts_at_primary_input(self, small_circuit):
        delays = np.ones(len(small_circuit.gate_names))
        path = extract_critical_path(small_circuit, delays)
        assert path.start_input in small_circuit.input_names

    def test_weighting_redirects_path(self, c17_paper):
        """Making one output gate very slow must pull the path there."""
        index = c17_paper.gate_index
        delays = np.full(6, 0.5)
        delays[index["O3"]] = 50.0
        path = extract_critical_path(c17_paper, delays)
        assert path.gates[-1] == "O3"

    def test_shape_validated(self, c17_paper):
        with pytest.raises(ValueError):
            extract_critical_path(c17_paper, np.ones(3))

    def test_render(self, c17_paper):
        path = extract_critical_path(c17_paper, np.full(6, 1.0))
        text = path.render()
        assert "->" in text
