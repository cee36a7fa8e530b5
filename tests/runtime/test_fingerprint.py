"""Fingerprint stability and sensitivity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CostWeights, EvolutionParams, SynthesisConfig
from repro.library.default_lib import generic_library, generic_technology
from repro.netlist.builder import CircuitBuilder
from repro.netlist.benchmarks import c17
from repro.runtime import fingerprint as fp


def _two_gate_circuit(name="tiny", and_first=True, out="y"):
    b = CircuitBuilder(name).input("a").input("b")
    b.gate("g1", "and" if and_first else "or", ["a", "b"])
    b.gate(out, "not", ["g1"])
    return b.output(out).build()


class TestCircuitFingerprint:
    def test_stable_across_instances(self):
        assert fp.fingerprint_circuit(c17()) == fp.fingerprint_circuit(c17())

    def test_cached_on_instance(self):
        circuit = c17()
        first = fp.fingerprint_circuit(circuit)
        assert circuit.__dict__["_runtime_fingerprint"] == first

    def test_gate_type_changes_fingerprint(self):
        assert fp.fingerprint_circuit(
            _two_gate_circuit(and_first=True)
        ) != fp.fingerprint_circuit(_two_gate_circuit(and_first=False))

    def test_net_name_changes_fingerprint(self):
        # Names are part of the contract: faults/defects reference nets
        # by name, so a renamed net must invalidate cached artifacts.
        assert fp.fingerprint_circuit(
            _two_gate_circuit(out="y")
        ) != fp.fingerprint_circuit(_two_gate_circuit(out="z"))


class TestValueFingerprint:
    def test_type_tags_disambiguate(self):
        assert fp.fingerprint_value(1) != fp.fingerprint_value(1.0)
        assert fp.fingerprint_value(1) != fp.fingerprint_value("1")
        assert fp.fingerprint_value(True) != fp.fingerprint_value(1)

    def test_float_exactness(self):
        x = 0.1 + 0.2
        assert fp.fingerprint_value(x) == fp.fingerprint_value(float(repr(x)))
        assert fp.fingerprint_value(x) != fp.fingerprint_value(0.3)

    def test_array_dtype_and_shape_matter(self):
        a = np.arange(6, dtype=np.int32)
        assert fp.fingerprint_value(a) != fp.fingerprint_value(a.astype(np.int64))
        assert fp.fingerprint_value(a) != fp.fingerprint_value(a.reshape(2, 3))
        assert fp.fingerprint_value(a) == fp.fingerprint_value(a.copy())

    def test_dataclass_configs(self):
        assert fp.fingerprint_value(SynthesisConfig()) == fp.fingerprint_value(
            SynthesisConfig()
        )
        assert fp.fingerprint_value(CostWeights()) != fp.fingerprint_value(
            CostWeights(area=10.0)
        )
        assert fp.fingerprint_value(SynthesisConfig()) != fp.fingerprint_value(
            SynthesisConfig(evolution=EvolutionParams(mu=4))
        )

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fp.fingerprint_value(object())


class TestDomainFingerprints:
    def test_library_and_technology(self):
        assert fp.fingerprint_library(generic_library()) == fp.fingerprint_library(
            generic_library()
        )
        assert fp.fingerprint_technology(
            generic_technology()
        ) == fp.fingerprint_technology(generic_technology())

    def test_combine_orders_and_kinds(self):
        a, b = fp.fingerprint_value(1), fp.fingerprint_value(2)
        assert fp.combine("k", 1, a, b) != fp.combine("k", 1, b, a)
        assert fp.combine("k", 1, a) != fp.combine("k", 2, a)
        assert fp.combine("k", 1, a) != fp.combine("other", 1, a)
