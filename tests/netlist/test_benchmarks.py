"""Tests for the benchmark catalog and its shipped stand-ins."""

from functools import lru_cache

import pytest

import standins
from repro.errors import NetlistError
from repro.netlist.benchmarks import (
    C17_PAPER_OPTIMUM,
    DATA_DIR,
    ISCAS85_PROFILES,
    TABLE1_CIRCUITS,
    c17,
    c17_paper_naming,
    load_iscas85,
    standin_config,
    table1_circuits,
)
from repro.netlist.gate import GateType
from repro.netlist.generate import generate_iscas_like
from repro.runtime.fingerprint import fingerprint_circuit


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

    def test_loader_never_calls_generator(self, monkeypatch):
        """Stand-ins load from their files, not from the generator."""
        import repro.netlist.benchmarks as benchmarks
        import repro.netlist.generate as generate

        def refuse(config):
            raise AssertionError(f"generator called for {config.name}")

        monkeypatch.setattr(generate, "generate_iscas_like", refuse)
        uncached = benchmarks._load_circuit.__wrapped__
        for name in standins.STANDINS:
            fresh, cached = uncached(name), load_iscas85(name)
            assert fresh is not cached
            assert fingerprint_circuit(fresh) == fingerprint_circuit(cached)
            assert fresh.output_names == cached.output_names

    def test_missing_standin_file_is_a_netlist_error(self, monkeypatch, tmp_path):
        import repro.netlist.benchmarks as benchmarks

        monkeypatch.setattr(benchmarks, "DATA_DIR", tmp_path)
        with pytest.raises(NetlistError, match="c432.bench"):
            benchmarks._load_circuit.__wrapped__("c432")

    def test_unknown_circuit_rejected(self):
        with pytest.raises(NetlistError, match="unknown ISCAS85"):
            load_iscas85("c9999")

    def test_table1_circuits_ordered(self):
        circuits = table1_circuits()
        assert tuple(circuits) == TABLE1_CIRCUITS


@lru_cache(maxsize=None)
def _generated(name):
    return generate_iscas_like(standin_config(name))


class TestShippedStandins:
    """The files under ``data/`` are what the generator writes; rewrite
    them with ``PYTHONPATH=src python tests/netlist/standins.py``."""

    def test_every_generated_profile_ships(self):
        shipped = sorted(path.stem for path in DATA_DIR.glob("*.bench"))
        assert shipped == sorted(standins.STANDINS)
        assert set(standins.STANDINS) | {"c6288"} == set(ISCAS85_PROFILES)

    @pytest.mark.parametrize("name", standins.STANDINS)
    def test_file_matches_generator_bytes(self, name):
        expected = standins.render(name).encode()
        assert (DATA_DIR / f"{name}.bench").read_bytes() == expected

    @pytest.mark.parametrize("name", standins.STANDINS)
    def test_parsed_equals_generated(self, name):
        parsed, generated = load_iscas85(name), _generated(name)
        assert fingerprint_circuit(parsed) == fingerprint_circuit(generated)
        assert parsed.all_names == generated.all_names
        assert parsed.levels == generated.levels

    def test_shuffled_lines_parse_to_the_same_gates(self):
        circuit = load_iscas85("c880")
        shuffled = standins.shuffled("c880", seed=3)
        assert shuffled.all_names != circuit.all_names
        assert {g.name: g for g in shuffled} == {g.name: g for g in circuit}
        assert shuffled.output_names == circuit.output_names

    def test_header_names_the_generator_and_the_rewrite(self):
        text = (DATA_DIR / "c432.bench").read_text()
        head = text[: text.index("INPUT(")]
        assert "generate_iscas_like" in head and "seed=2155" in head
        assert "tests/netlist/standins.py" in head
