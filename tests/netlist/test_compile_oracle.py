"""The whole-graph compile reproduces the row-by-row reference.

``tests/oracles/compile.py`` keeps the compile that built every CSR row,
level group and simulation batch one node or gate at a time.  Every
field of every :class:`CompiledGraph` must match it: values, dtypes and
shapes, down to each :class:`LevelGroup` and :class:`SimGroup`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import standins
from oracles import compile as compile_oracle
from repro.netlist.benchmarks import ISCAS85_PROFILES, c17, c17_paper_naming, load_iscas85
from repro.netlist.compiled import CompiledGraph, compile_circuit
from repro.netlist.generate import GeneratorConfig, generate_iscas_like


def assert_same(expected, actual, where: str = "graph") -> None:
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), where
        assert actual.dtype == expected.dtype, where
        assert actual.shape == expected.shape, where
        assert np.array_equal(actual, expected), where
    elif isinstance(expected, tuple):
        assert isinstance(actual, tuple) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{i}]")
    elif dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected), where
        for field in dataclasses.fields(expected):
            assert_same(
                getattr(expected, field.name),
                getattr(actual, field.name),
                f"{where}.{field.name}",
            )
    else:
        assert type(actual) is type(expected) and actual == expected, where


def assert_matches_oracle(circuit) -> None:
    expected = compile_oracle.compile_circuit(circuit)
    actual = compile_circuit(circuit)
    assert isinstance(actual, CompiledGraph)
    assert_same(expected, actual, circuit.name)


@pytest.mark.parametrize("name", sorted(ISCAS85_PROFILES))
def test_catalogue(name):
    assert_matches_oracle(load_iscas85(name))


@pytest.mark.parametrize("build", [c17, c17_paper_naming], ids=["c17", "c17_paper"])
def test_c17(build):
    assert_matches_oracle(build())


@pytest.mark.parametrize("name", ["c432", "c880", "c7552"])
@pytest.mark.parametrize("seed", [0, 1])
def test_shuffled_declarations(name, seed):
    """Nets used before they are defined: file order is no longer
    topological, so the level and schedule sorts must not rely on it."""
    assert_matches_oracle(standins.shuffled(name, seed))


@st.composite
def generator_configs(draw):
    num_gates = draw(st.integers(2, 160))
    return GeneratorConfig(
        name="compile-prop",
        num_gates=num_gates,
        num_inputs=draw(st.integers(1, 16)),
        num_outputs=draw(st.integers(1, 10)),
        depth=draw(st.integers(1, min(num_gates, 20))),
        seed=draw(st.integers(0, 2**32)),
        locality_window=draw(st.integers(1, 6)),
    )


@settings(max_examples=40, deadline=None)
@given(config=generator_configs())
def test_generated_circuits(config):
    assert_matches_oracle(generate_iscas_like(config))
