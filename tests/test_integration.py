"""Cross-subsystem integration tests: the full paper pipeline.

netlist -> estimators -> partition -> evolution -> sensors -> fault sim.
"""

import numpy as np
import pytest

from repro.config import EvolutionParams, SynthesisConfig
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts
from repro.faultsim.logic_sim import LogicSimulator
from repro.faultsim.patterns import random_patterns
from repro.faultsim.testtime import test_application_time as application_time
from repro.flow.synthesis import synthesize_iddq_testable
from repro.netlist.benchmarks import load_iscas85
from repro.partition.partition import Partition


@pytest.fixture(scope="module")
def c880_design():
    config = SynthesisConfig(
        evolution=EvolutionParams(
            mu=4,
            children_per_parent=3,
            monte_carlo_per_parent=1,
            generations=20,
            convergence_window=15,
        )
    )
    return synthesize_iddq_testable(load_iscas85("c880"), config=config, seed=13)


class TestFullPipeline:
    def test_design_feasible_and_discriminable(self, c880_design):
        evaluation = c880_design.evaluation
        assert evaluation.feasible
        for module in evaluation.modules:
            assert module.discriminability >= c880_design.technology.discriminability

    def test_rail_constraint_respected(self, c880_design):
        for module in c880_design.evaluation.modules:
            assert not module.sensor.rs_clamped
            assert (
                module.sensor.rail_perturbation_v
                <= c880_design.technology.rail_limit_v + 1e-9
            )

    def test_partitioned_coverage_at_least_single_sensor(self, c880_design):
        circuit = c880_design.circuit
        defects = sample_bridging_faults(
            circuit, 40, seed=1, current_range_ua=(0.5, 6.0)
        ) + sample_gate_oxide_shorts(circuit, 20, seed=2, current_range_ua=(0.5, 6.0))
        patterns = random_patterns(len(circuit.input_names), 128, seed=3)
        engine = CoverageEngine(circuit)
        single = engine.evaluate_coverage(
            Partition.single_module(circuit), defects, patterns
        )
        partitioned = engine.evaluate_coverage(
            c880_design.partition, defects, patterns
        )
        assert partitioned.coverage >= single.coverage
        assert partitioned.worst_threshold_ua <= single.worst_threshold_ua

    def test_test_time_consistent_with_evaluation(self, c880_design):
        report = application_time(c880_design.evaluation, num_vectors=500)
        assert report.overhead == pytest.approx(
            c880_design.evaluation.test_time_overhead, rel=1e-6
        )

    def test_sensorized_netlist_functionally_transparent(self, c880_design):
        """In normal mode the inserted test logic must not disturb the
        original outputs."""
        base = c880_design.circuit
        extended = c880_design.sensorized.circuit
        patterns_base = random_patterns(len(base.input_names), 64, seed=4)
        sim_base = LogicSimulator(base).simulate_outputs(patterns_base)

        ext_inputs = list(extended.input_names)
        patterns_ext = np.zeros((64, len(ext_inputs)), dtype=np.uint8)
        for column, name in enumerate(base.input_names):
            patterns_ext[:, ext_inputs.index(name)] = patterns_base[:, column]
        patterns_ext[:, ext_inputs.index("bic_ctrl")] = 1  # normal mode
        sim_ext = LogicSimulator(extended).simulate(patterns_ext)
        original_outputs = sim_ext.unpack(base.output_names)
        assert (original_outputs == sim_base).all()

    def test_monitor_flags_failing_module(self, c880_design):
        extended = c880_design.sensorized.circuit
        fail_net = c880_design.sensorized.sensors[0].fail_net
        ext_inputs = list(extended.input_names)
        pattern = np.zeros((1, len(ext_inputs)), dtype=np.uint8)
        pattern[0, ext_inputs.index("bic_ctrl")] = 1
        pattern[0, ext_inputs.index(fail_net)] = 1
        sim = LogicSimulator(extended)
        out = sim.simulate(pattern)
        fail_out = out.unpack([c880_design.sensorized.fail_output])
        assert fail_out[0, 0] == 1


class TestCostOrderingSanity:
    def test_optimised_beats_random(self, c880_design):
        """The evolution result must beat a random partition of the same
        module count under the full cost function."""
        import random

        from repro.optimize.random_search import random_partition
        from repro.partition.evaluator import PartitionEvaluator

        evaluator = PartitionEvaluator(c880_design.circuit)
        rand = random_partition(
            evaluator, c880_design.num_modules, random.Random(17)
        )
        random_eval = evaluator.evaluate(rand)
        assert c880_design.evaluation.cost < random_eval.cost
