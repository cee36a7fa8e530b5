"""Kernel benchmarks: the computations whose efficiency the paper's
method depends on (§3 estimators, §4.2 incremental evaluation).

These use real pytest-benchmark statistics (many rounds), unlike the
whole-experiment benches.
"""

import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.analysis.separation import SeparationMatrix
from repro.analysis.transition_times import TransitionTimes
from repro.config import EvolutionParams
from repro.faultsim.logic_sim import LogicSimulator
from repro.faultsim.patterns import random_patterns
from repro.netlist.benchmarks import TABLE1_CIRCUITS, _load_circuit, load_iscas85
from repro.netlist.compiled import compile_circuit
from repro.optimize.evolution import evolve_partition
from repro.optimize.standard import standard_partition
from repro.optimize.start import chain_start_partition, estimate_module_count, start_population
from repro.partition.evaluator import PartitionEvaluator
from test_lazy_setup import ENTRY_MODULES


@pytest.fixture(scope="module")
def c7552_evaluator():
    return PartitionEvaluator(load_iscas85("c7552"))


@pytest.fixture(scope="module")
def c7552_state(c7552_evaluator):
    rng = random.Random(0)
    k = estimate_module_count(c7552_evaluator)
    partition = chain_start_partition(c7552_evaluator, k, rng)
    return c7552_evaluator.new_state(partition)


def test_transition_time_sets_c7552(benchmark):
    """T(g) for all 3512 gates of the largest Table 1 circuit."""
    circuit = load_iscas85("c7552")
    result = benchmark(lambda: TransitionTimes.compute(circuit))
    assert result.depth == circuit.depth


def test_full_evaluation_c7552(benchmark, c7552_evaluator, c7552_state):
    """From-scratch cost evaluation of one partition."""
    partition = c7552_state.partition

    def evaluate():
        return c7552_evaluator.evaluate(partition).cost

    cost = benchmark(evaluate)
    assert cost > 0


def test_incremental_move_c7552(benchmark, c7552_evaluator, c7552_state):
    """One gate move + full cost readout on the incremental state —
    the §4.2 operation the evolution strategy performs thousands of
    times ("evaluated very efficiently")."""
    state = c7552_state.copy()
    n = len(c7552_evaluator.circuit.gate_names)
    rng = random.Random(1)

    def move_and_cost():
        gate = rng.randrange(n)
        targets = [
            m for m in state.partition.module_ids if m != state.partition.module_of(gate)
        ]
        state.move_gate(gate, targets[0])
        return state.penalized_cost(1e4)

    cost = benchmark(move_and_cost)
    assert cost > 0


def test_degraded_timing_c7552(benchmark, c7552_evaluator, c7552_state):
    """Vectorised longest path with degraded delays (the c2 kernel)."""
    delays = c7552_state.delay_degraded

    def longest_path():
        return c7552_evaluator.timing.critical_path_delay(delays)

    value = benchmark(longest_path)
    assert value >= c7552_evaluator.nominal_delay_ns


def test_separation_delta_c7552(benchmark, c7552_evaluator, c7552_state):
    """Incremental separation delta for one gate against a module."""
    matrix = c7552_evaluator.separation
    group = np.fromiter(
        c7552_state.partition.gates_of(c7552_state.partition.module_ids[0]),
        dtype=np.int64,
    )

    value = benchmark(lambda: matrix.sum_to_group(7, group))
    assert value >= 0


def test_logic_sim_throughput_c7552(benchmark):
    """Bit-parallel logic simulation: 1024 vectors through 3512 gates."""
    circuit = load_iscas85("c7552")
    sim = LogicSimulator(circuit)
    patterns = random_patterns(len(circuit.input_names), 1024, seed=5)

    out = benchmark(lambda: sim.simulate_outputs(patterns))
    assert out.shape == (1024, len(circuit.output_names))


def test_compile_graph_c7552(benchmark):
    """One-off compilation of the circuit DAG into the CSR kernel."""
    circuit = load_iscas85("c7552")

    compiled = benchmark(lambda: compile_circuit(circuit))
    assert compiled.num_gates == len(circuit.gate_names)


def test_table1_setup(benchmark):
    """A pass's circuit set-up: uncached load plus compile of the six
    Table-1 circuits (five parsed stand-ins and the c6288 multiplier).
    Recorded in DESIGN §8.5; no floor."""
    load = _load_circuit.__wrapped__

    def set_up():
        return [compile_circuit(load(name)) for name in TABLE1_CIRCUITS]

    graphs = benchmark(set_up)
    assert [g.num_gates for g in graphs] == [
        len(load_iscas85(name).gate_names) for name in TABLE1_CIRCUITS
    ]


def test_pipeline_import(benchmark):
    """A fresh interpreter importing the workloads' entry modules: the
    import share of a pass's set-up, compiling from source when the
    environment sets ``PYTHONDONTWRITEBYTECODE``.  Prints how many
    ``repro`` modules it loads.  Recorded in DESIGN §8.5; no floor."""
    source = (
        "import importlib, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))\n"
    )

    def run():
        done = subprocess.run(
            [sys.executable, "-c", source], capture_output=True, text=True, check=True
        )
        return int(done.stdout)

    loaded = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    print(f"\nentry modules load {loaded} repro modules")


def test_standard_partition_c7552(benchmark, c7552_evaluator):
    """One §5 standard partition of c7552 at the estimated K, the call
    each Table-1 row makes once.  Recorded in DESIGN §8.5; no floor."""
    k = estimate_module_count(c7552_evaluator)
    c7552_evaluator.separation  # the matrix build is timed separately
    partition = benchmark(lambda: standard_partition(c7552_evaluator, k))
    assert partition.num_modules == k


def test_separation_matrix_build_c7552(benchmark):
    """Batched all-sources capped BFS — the §3.3 S(gi, gj) matrix."""
    circuit = load_iscas85("c7552")
    circuit.compiled  # compilation timed separately above

    matrix = benchmark(lambda: SeparationMatrix(circuit, 10))
    assert matrix.matrix.shape == (len(circuit.gate_names),) * 2
    tracemalloc.start()
    try:
        SeparationMatrix(circuit, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"\nseparation build traced peak: {peak / matrix.matrix.nbytes:.2f}x "
          f"the {matrix.matrix.nbytes / 2**20:.1f} MiB matrix")


def test_start_population_c7552(benchmark, c7552_evaluator):
    """The campaign's per-seed ES set-up on the largest Table 1 circuit:
    μ=8 chain start partitions, and each one's state and first cost."""
    k = estimate_module_count(c7552_evaluator)

    def set_up():
        starts = start_population(c7552_evaluator, k, 8, random.Random(1995))
        return [
            c7552_evaluator.new_state(partition).penalized_cost(1e4)
            for partition in starts
        ]

    costs = benchmark(set_up)
    assert len(costs) == 8 and min(costs) > 0


def test_evolution_short_run_c7552(benchmark, c7552_evaluator):
    """A short §4 evolution run on the largest Table 1 circuit — the
    end-to-end consumer of every kernel above (run once, seconds-long)."""
    params = EvolutionParams(
        mu=3, children_per_parent=2, monte_carlo_per_parent=1, generations=4,
        convergence_window=10,
    )

    def run():
        rng = random.Random(3)
        k = estimate_module_count(c7552_evaluator)
        starts = start_population(c7552_evaluator, k, params.mu, rng)
        return evolve_partition(c7552_evaluator, params=params, seed=3, starts=starts)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.best.cost > 0
