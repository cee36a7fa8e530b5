"""End-to-end flow tests."""

import pytest

from repro.config import EvolutionParams, SynthesisConfig
from repro.errors import BenchFormatError, ConstraintError, OptimizationError
from repro.flow.synthesis import synthesize_iddq_testable
from repro.netlist.bench import parse_bench


@pytest.fixture(scope="module")
def quick_config():
    return SynthesisConfig(
        evolution=EvolutionParams(
            mu=3,
            children_per_parent=2,
            monte_carlo_per_parent=1,
            generations=12,
            convergence_window=12,
        )
    )


@pytest.fixture(scope="module")
def design(quick_config):
    from repro.netlist.generate import GeneratorConfig, generate_iscas_like

    circuit = generate_iscas_like(
        GeneratorConfig(
            name="flow200",
            num_gates=200,
            num_inputs=16,
            num_outputs=10,
            depth=12,
            seed=21,
        )
    )
    return synthesize_iddq_testable(circuit, config=quick_config, seed=5)


class TestDesign:
    def test_feasible(self, design):
        assert design.evaluation.feasible
        assert design.num_modules >= 1
        assert design.sensor_area_total > 0

    def test_partition_covers_circuit(self, design):
        design.partition.check_invariants()

    def test_sensorized_netlist(self, design):
        sensorized = design.sensorized
        assert len(sensorized.sensors) == design.num_modules
        assert set(sensorized.rail_of_gate) == set(design.circuit.gate_names)

    def test_report_renders(self, design):
        text = design.report()
        assert "IDDQ-testable design" in text
        assert "module" in text
        assert "Rs[ohm]" in text

    def test_bench_export_parses(self, design):
        again = parse_bench(design.to_bench(), name="again")
        assert set(design.circuit.gate_names) <= set(again.gate_names)

    def test_overheads_reported(self, design):
        assert design.delay_overhead >= 0
        assert design.test_time_overhead >= design.delay_overhead


class TestSeeding:
    def test_seed_override_reproducible(self, quick_config, small_circuit):
        a = synthesize_iddq_testable(small_circuit, config=quick_config, seed=9)
        b = synthesize_iddq_testable(small_circuit, config=quick_config, seed=9)
        assert a.evaluation.cost == pytest.approx(b.evaluation.cost)
        assert a.partition.canonical() == b.partition.canonical()

    def test_shared_evaluator_reused(self, quick_config, small_circuit, small_evaluator):
        design = synthesize_iddq_testable(
            small_circuit, config=quick_config, seed=9, evaluator=small_evaluator
        )
        assert design.evaluation.feasible


class TestFailure:
    def test_impossible_constraints_raise(self, quick_config, c17_paper):
        """A technology whose budget a single gate already violates can
        never be partitioned feasibly."""
        import dataclasses

        from repro.library.default_lib import generic_technology

        impossible = dataclasses.replace(
            generic_technology(), iddq_threshold_ua=1e-4
        )
        with pytest.raises(ConstraintError, match="no feasible partition"):
            synthesize_iddq_testable(
                c17_paper, technology=impossible, config=quick_config, seed=1
            )


def _not_chain(length: int) -> str:
    lines = ["INPUT(n0)", f"OUTPUT(n{length})"]
    lines += [f"n{i + 1} = NOT(n{i})" for i in range(length)]
    return "\n".join(lines) + "\n"


class TestDegenerateCircuits:
    def test_zero_gates_raise(self, quick_config):
        circuit = parse_bench("INPUT(a)\nOUTPUT(a)\n", name="wire")
        assert not circuit.gate_names
        with pytest.raises(OptimizationError):
            synthesize_iddq_testable(circuit, config=quick_config, seed=1)

    def test_no_outputs_raise(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nb = NOT(a)\n", name="sink")

    @pytest.mark.parametrize("length", [1, 1000])
    def test_not_chain_synthesises(self, quick_config, length):
        circuit = parse_bench(_not_chain(length), name=f"chain{length}")
        design = synthesize_iddq_testable(circuit, config=quick_config, seed=1)
        assert design.evaluation.feasible
        design.partition.check_invariants()
        assert design.num_modules >= 1
        assert len(design.sensorized.rail_of_gate) == length
