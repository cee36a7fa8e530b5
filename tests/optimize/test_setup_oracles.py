"""Chain start and standard partitions reproduce their oracles exactly.

The shipped implementations gather over the compiled CSR arrays and
sum integers; the references in ``tests/oracles`` are the set-and-list
chain builder and the float64 standard partitioner they replaced.  A
seeded chain start must consume the same draws, so the RNG state after
the call is compared too, and must build each module's set in the same
order: the IDDQ simulator sums leakage in set iteration order.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import standard as standard_oracle
from oracles import start as start_oracle
from repro.netlist.benchmarks import c17, load_iscas85
from repro.netlist.builder import CircuitBuilder
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.optimize.standard import standard_partition
from repro.optimize.start import chain_start_partition, start_population
from repro.partition.evaluator import PartitionEvaluator

#: Four disconnected 5-gate chains: a module bigger than one chain runs
#: out of free neighbours and must fall back to the level order.
CHAINS = "chains"


def _disjoint_chains(copies: int = 4, length: int = 5):
    builder = CircuitBuilder(CHAINS)
    outputs = []
    for c in range(copies):
        previous = f"i{c}"
        builder.input(previous)
        for k in range(length):
            name = f"c{c}g{k}"
            builder.gate(name, "NOT" if k % 2 else "BUF", [previous])
            previous = name
        outputs.append(previous)
    return builder.outputs(outputs).build()


@functools.lru_cache(maxsize=None)
def _evaluator(key: str) -> PartitionEvaluator:
    if key == "c17":
        circuit = c17()
    elif key == CHAINS:
        circuit = _disjoint_chains()
    elif key.startswith("gen"):
        seed = int(key[3:])
        circuit = generate_iscas_like(
            GeneratorConfig(
                name=key,
                num_gates=20 + 7 * (seed % 13),
                num_inputs=3 + seed % 5,
                num_outputs=2 + seed % 3,
                depth=3 + seed % 6,
                seed=seed,
            )
        )
    else:
        circuit = load_iscas85(key)
    return PartitionEvaluator(circuit)


CIRCUITS = st.one_of(
    st.sampled_from(["c17", CHAINS, "c880"]),
    st.integers(0, 40).map(lambda seed: f"gen{seed}"),
)
FIXED = ["c17", CHAINS, "gen3", "c880"]


def _module_counts(data, n: int) -> int:
    return data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="K")


def _assert_same_partition(fast, oracle) -> None:
    assert np.array_equal(fast.module_of_array(), oracle.module_of_array())
    assert fast._modules == oracle._modules
    assert fast._next_id == oracle._next_id
    # Same iteration order, module by module and within each set.
    assert list(fast._modules) == list(oracle._modules)
    for module, gates in oracle._modules.items():
        assert list(fast._modules[module]) == list(gates)


def _assert_same_chain_start(key: str, num_modules: int, seed: int) -> None:
    evaluator = _evaluator(key)
    fast_rng, oracle_rng = random.Random(seed), random.Random(seed)
    fast = chain_start_partition(evaluator, num_modules, fast_rng)
    oracle = start_oracle.chain_start_partition(evaluator, num_modules, oracle_rng)
    _assert_same_partition(fast, oracle)
    assert fast_rng.getstate() == oracle_rng.getstate()


def _assert_same_standard(key: str, num_modules: int) -> None:
    evaluator = _evaluator(key)
    fast = standard_partition(evaluator, num_modules)
    oracle = standard_oracle.standard_partition(evaluator, num_modules)
    assert np.array_equal(fast.module_of_array(), oracle.module_of_array())


class TestChainStartOracle:
    @settings(max_examples=60, deadline=None)
    @given(key=CIRCUITS, seed=st.integers(0, 2**64), data=st.data())
    def test_matches_oracle(self, key, seed, data):
        n = len(_evaluator(key).circuit.gate_names)
        _assert_same_chain_start(key, _module_counts(data, n), seed)

    @pytest.mark.parametrize("key", FIXED)
    @pytest.mark.parametrize("extreme", ["one", "all"])
    def test_extreme_module_counts(self, key, extreme):
        n = len(_evaluator(key).circuit.gate_names)
        for seed in range(3):
            _assert_same_chain_start(key, 1 if extreme == "one" else n, seed)

    @pytest.mark.parametrize("key", ["c17", "gen5", "c880", "c7552"])
    def test_population_is_consecutive_calls(self, key):
        """μ starts from one RNG equal μ consecutive oracle calls: the
        evaluator's cached gate lists are reused, never mutated."""
        evaluator = _evaluator(key)
        n = len(evaluator.circuit.gate_names)
        num_modules = min(9, n)
        for seed in range(2):
            fast_rng, oracle_rng = random.Random(seed), random.Random(seed)
            starts = start_population(evaluator, num_modules, 4, fast_rng)
            for fast in starts:
                _assert_same_partition(
                    fast,
                    start_oracle.chain_start_partition(
                        evaluator, num_modules, oracle_rng
                    ),
                )
            assert fast_rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize("num_modules", [1, 2, 3])
    def test_no_free_neighbour_fallback(self, num_modules):
        """Modules of 7+ gates exhaust a 5-gate chain's neighbours and
        reseed from the level order while half built."""
        for seed in range(20):
            _assert_same_chain_start(CHAINS, num_modules, seed)


class TestStandardOracle:
    @settings(max_examples=40, deadline=None)
    @given(key=CIRCUITS, data=st.data())
    def test_matches_oracle(self, key, data):
        n = len(_evaluator(key).circuit.gate_names)
        _assert_same_standard(key, _module_counts(data, n))

    @pytest.mark.parametrize("key", FIXED)
    def test_extreme_module_counts(self, key):
        n = len(_evaluator(key).circuit.gate_names)
        for num_modules in (1, 2, n - 1, n):
            _assert_same_standard(key, max(1, num_modules))
