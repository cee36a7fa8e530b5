"""Tests for the ISCAS .bench reader/writer, including a round-trip
property over randomly generated circuits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BenchFormatError
from repro.netlist.bench import parse_bench, write_bench
from repro.netlist.benchmarks import DATA_DIR
from repro.netlist.gate import GateType
from repro.netlist.generate import GeneratorConfig, generate_iscas_like


class TestParse:
    def test_parse_c17_text(self, c17_circuit):
        assert len(c17_circuit) == 6
        gate = c17_circuit.gate("22")
        assert gate.gate_type is GateType.NAND
        assert gate.fanins == ("10", "16")

    def test_comments_and_blank_lines_skipped(self):
        text = """
        # a comment
        INPUT(a)   # trailing comment

        OUTPUT(g)
        g = NOT(a)
        """
        circuit = parse_bench(text)
        assert len(circuit) == 1

    def test_case_insensitive_functions(self):
        text = "INPUT(a)\nOUTPUT(g)\ng = nand(a, h)\nh = Not(a)\n"
        circuit = parse_bench(text)
        assert circuit.gate("g").gate_type is GateType.NAND
        assert circuit.gate("h").gate_type is GateType.NOT

    def test_buff_and_inv_aliases(self):
        text = "INPUT(a)\nOUTPUT(g)\nb = BUFF(a)\ng = INV(b)\n"
        circuit = parse_bench(text)
        assert circuit.gate("b").gate_type is GateType.BUF
        assert circuit.gate("g").gate_type is GateType.NOT

    def test_unknown_function_rejected(self):
        with pytest.raises(BenchFormatError, match="unknown gate function"):
            parse_bench("INPUT(a)\nOUTPUT(g)\ng = MAJ(a, a, a)\n")

    def test_garbage_line_rejected_with_lineno(self):
        with pytest.raises(BenchFormatError, match="line 2"):
            parse_bench("INPUT(a)\nthis is not bench\n")

    def test_double_definition_rejected(self):
        text = "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\ng = BUF(a)\n"
        with pytest.raises(BenchFormatError, match="defined twice"):
            parse_bench(text)

    def test_arity_violation_rejected(self):
        with pytest.raises(BenchFormatError, match="line 3"):
            parse_bench("INPUT(a)\nOUTPUT(g)\ng = NAND(a)\n")

    def test_undefined_driver_rejected(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nOUTPUT(g)\ng = NOT(phantom)\n")


class TestSharedNames:
    """Every fanin and output reference is the driving gate's own name object,
    so name-keyed dicts downstream match by identity."""

    @staticmethod
    def assert_shared(circuit):
        for gate in circuit:
            for fanin in gate.fanins:
                assert fanin is circuit.gate(fanin).name
        for out in circuit.output_names:
            assert out is circuit.gate(out).name

    def test_parsed_standin(self):
        self.assert_shared(parse_bench((DATA_DIR / "c880.bench").read_text()))

    def test_nets_used_before_defined(self):
        text = (
            "OUTPUT(out_net)\n"
            "out_net = AND(left_net, right_net)\n"
            "left_net = NOT(in_a)\n"
            "right_net = NAND(in_a, in_b)\n"
            "INPUT(in_a)\n"
            "INPUT(in_b)\n"
        )
        circuit = parse_bench(text)
        assert circuit.gate_names == ("out_net", "left_net", "right_net")
        self.assert_shared(circuit)


class TestWrite:
    def test_round_trip_c17(self, c17_circuit):
        text = write_bench(c17_circuit, header="round trip")
        again = parse_bench(text, name=c17_circuit.name)
        assert again.gate_names == c17_circuit.gate_names
        assert again.input_names == c17_circuit.input_names
        assert again.output_names == c17_circuit.output_names
        for name in c17_circuit.gate_names:
            assert again.gate(name).fanins == c17_circuit.gate(name).fanins
            assert again.gate(name).gate_type == c17_circuit.gate(name).gate_type

    def test_header_in_output(self, c17_circuit):
        text = write_bench(c17_circuit, header="hello\nworld")
        assert "# hello" in text
        assert "# world" in text

    @settings(max_examples=20, deadline=None)
    @given(
        num_gates=st.integers(8, 60),
        num_inputs=st.integers(2, 8),
        depth=st.integers(2, 8),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_property(self, num_gates, num_inputs, depth, seed):
        """write(parse(write(c))) is structurally identical for arbitrary
        generated circuits."""
        config = GeneratorConfig(
            name="rt",
            num_gates=num_gates,
            num_inputs=num_inputs,
            num_outputs=2,
            depth=min(depth, num_gates),
            seed=seed,
        )
        circuit = generate_iscas_like(config)
        once = parse_bench(write_bench(circuit), name="rt")
        assert once.gate_names == circuit.gate_names
        assert once.output_names == circuit.output_names
        for name in circuit.gate_names:
            assert once.gate(name).fanins == circuit.gate(name).fanins
            assert once.gate(name).gate_type == circuit.gate(name).gate_type
        assert write_bench(once) == write_bench(circuit)
