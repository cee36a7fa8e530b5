"""Tests for the benchmark catalog."""

import pytest

from repro.errors import NetlistError
from repro.netlist.benchmarks import (
    C17_PAPER_OPTIMUM,
    ISCAS85_PROFILES,
    TABLE1_CIRCUITS,
    c17,
    c17_paper_naming,
    load_iscas85,
    table1_circuits,
)
from repro.netlist.gate import GateType
from repro.netlist.generate import generate_iscas_like


class TestC17:
    def test_exact_structure(self):
        circuit = c17()
        assert len(circuit) == 6
        assert all(circuit.gate(n).gate_type is GateType.NAND for n in circuit.gate_names)
        assert circuit.gate("16").fanins == ("2", "11")
        assert circuit.gate("23").fanins == ("16", "19")

    def test_paper_naming_isomorphic_to_standard(self):
        standard = c17()
        paper = c17_paper_naming()
        mapping = {
            "1": "I1", "2": "I2", "3": "I3", "6": "I4", "7": "I5",
            "10": "g1", "11": "g2", "16": "g3", "19": "g4", "22": "O2", "23": "O3",
        }
        for std_name, paper_name in mapping.items():
            std_gate = standard.gate(std_name)
            paper_gate = paper.gate(paper_name)
            assert std_gate.gate_type == paper_gate.gate_type
            assert tuple(mapping[f] for f in std_gate.fanins) == paper_gate.fanins

    def test_paper_optimum_covers_all_gates(self):
        circuit = c17_paper_naming()
        union = set().union(*C17_PAPER_OPTIMUM)
        assert union == set(circuit.gate_names)
        assert not set(C17_PAPER_OPTIMUM[0]) & set(C17_PAPER_OPTIMUM[1])


class TestCatalog:
    def test_profiles_cover_table1(self):
        for name in TABLE1_CIRCUITS:
            assert name in ISCAS85_PROFILES

    @pytest.mark.parametrize("name", ["c432", "c880", "c1908", "c2670"])
    def test_standins_match_profile(self, name):
        profile = ISCAS85_PROFILES[name]
        circuit = load_iscas85(name)
        assert len(circuit.gate_names) == profile.num_gates
        assert len(circuit.input_names) == profile.num_inputs
        assert circuit.depth == profile.depth

    def test_c6288_is_multiplier(self):
        circuit = load_iscas85("c6288")
        assert len(circuit.input_names) == 32
        assert len(circuit.output_names) == 32
        assert circuit.name == "c6288"

    def test_loader_cached(self):
        assert load_iscas85("c880") is load_iscas85("c880")

    def test_loader_cache_ignores_name_case(self):
        assert load_iscas85("C432") is load_iscas85("c432")
        assert load_iscas85("C17") is c17()

    def test_unknown_name_reported_as_given(self):
        with pytest.raises(NetlistError, match="'C9999'"):
            load_iscas85("C9999")

    def test_generator_resolved_at_call_time(self, monkeypatch):
        """A wrapper bound in the catalogue module sees stand-in builds."""
        import repro.netlist.benchmarks as benchmarks

        built = []

        def spy(config):
            built.append(config.name)
            return generate_iscas_like(config)

        monkeypatch.setattr(benchmarks, "generate_iscas_like", spy)
        uncached = benchmarks._load_circuit.__wrapped__
        assert uncached("c432").name == "c432"
        assert built == ["c432"]

    def test_unknown_circuit_rejected(self):
        with pytest.raises(NetlistError, match="unknown ISCAS85"):
            load_iscas85("c9999")

    def test_table1_circuits_ordered(self):
        circuits = table1_circuits()
        assert tuple(circuits) == TABLE1_CIRCUITS
