"""Exact current bounds decide the targeted IDDQ search.

:meth:`CoverageEngine.search_class` sorts a defect into *futile* (no
vector is ever detected), *activation-only* (detection equals
activation) or *walk* (neither bound decides).  These tests check the
two decided classes against the one-shot reference detector on random
batches, the margin around each bound, and that the bound-decided
search returns the step-by-step walk's vector and leaves a shared RNG
stream where that walk leaves it.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultsim import atpg
from repro.faultsim.atpg import _search_activating_vector, _targeted_search
from repro.faultsim.coverage import detection_matrix
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import (
    BridgingFault,
    StuckOnTransistor,
    sample_bridging_faults,
    sample_gate_oxide_shorts,
)
from repro.faultsim.iddq import IDDQSimulator
from repro.faultsim.patterns import random_patterns
from repro.library.default_lib import generic_technology
from repro.netlist.bench import parse_bench
from repro.netlist.benchmarks import load_iscas85
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition
from repro.runtime.parallel import defect_stream_seed


def _current_bounds(engine, partition, defect) -> tuple[float, float]:
    """(ceiling, floor): below the ceiling a current is futile, at or
    above the floor activation-only (before the margin)."""
    tech = engine.technology
    bounds = [
        engine.sim.module_leak_bounds_ua(partition, m)
        for m in engine.sim.observing_modules(defect, partition)
    ]
    ceiling = tech.iddq_threshold_ua - max(hi for _, hi in bounds)
    floor = min(
        max(tech.iddq_threshold_ua, tech.discriminability * hi) - lo
        for lo, hi in bounds
    )
    return ceiling, floor


def _walk(engine, partition, defect, rng, num_inputs, restarts, flip_budget):
    """The step-by-step walk through the engine's detection matrix."""
    return _search_activating_vector(
        lambda ds, ps: engine.detection_matrix(partition, ds, ps),
        defect,
        rng,
        num_inputs,
        restarts,
        flip_budget,
    )


def _same(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b)
    )


# ------------------------------------------------------------ the bounds
class TestBoundsDecideDetection:
    @settings(max_examples=30, deadline=None)
    @given(
        gates=st.integers(40, 200),
        circuit_seed=st.integers(0, 10_000),
        modules=st.integers(1, 4),
        threshold=st.floats(0.02, 1.0),
        discriminability=st.floats(1.5, 10.0),
        fractions=st.tuples(*[st.floats(0.05, 0.95)] * 3),
    )
    def test_futile_never_detected_activation_only_equals_activation(
        self, gates, circuit_seed, modules, threshold, discriminability, fractions
    ):
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="bounds", num_gates=gates, num_inputs=10, num_outputs=6,
                depth=8, seed=circuit_seed,
            )
        )
        rng = random.Random(circuit_seed)
        assignment = {
            g: rng.randrange(modules) for g in range(len(circuit.gate_names))
        }
        assignment.update({m: m for m in range(modules)})
        partition = Partition(circuit, assignment)
        tech = replace(
            generic_technology(),
            iddq_threshold_ua=threshold,
            discriminability=discriminability,
        )
        engine = CoverageEngine(circuit, technology=tech)
        sampled = sample_bridging_faults(
            circuit, 6, seed=circuit_seed
        ) + sample_gate_oxide_shorts(circuit, 6, seed=circuit_seed + 1)

        # Place each defect's current in one of the three bands.
        placed, expected = [], []
        for i, defect in enumerate(sampled):
            ceiling, floor = _current_bounds(engine, partition, defect)
            band, fraction = i % 3, fractions[i % 3]
            if band == 0 and ceiling > 0:
                current, kind = ceiling * fraction, "futile"
            elif band == 1 and floor > max(ceiling, 0.0):
                lower = max(ceiling, 0.0)
                current, kind = lower + (floor - lower) * fraction, "walk"
            else:
                current, kind = max(floor, 0.0) + threshold * fraction, "activation"
            placed.append(replace(defect, current_ua=current))
            expected.append(kind)
        assert [engine.search_class(partition, d) for d in placed] == expected

        sim = IDDQSimulator(circuit)
        for batch_seed in range(3):
            patterns = random_patterns(10, 96, seed=circuit_seed + batch_seed)
            detected = detection_matrix(
                circuit, partition, placed, patterns, technology=tech
            )
            values = sim.simulate_values(patterns)
            for row, defect, kind in zip(detected, placed, expected):
                if kind == "futile":
                    assert not row.any()
                elif kind == "activation":
                    active = sim.defect_activation_bits(defect, values)
                    assert np.array_equal(row, active.astype(bool))

    @pytest.mark.parametrize(
        "bound, offset, kind",
        [
            ("ceiling", -1e-6, "futile"),
            ("ceiling", -1e-12, "walk"),
            ("ceiling", 0.0, "walk"),
            ("floor", 0.0, "walk"),
            ("floor", 1e-12, "walk"),
            ("floor", 1e-6, "activation"),
        ],
    )
    def test_currents_within_the_margin_take_the_walk(
        self, small_circuit, bound, offset, kind
    ):
        engine = CoverageEngine(small_circuit)
        partition = Partition.single_module(small_circuit)
        defect = sample_bridging_faults(small_circuit, 1, seed=3)[0]
        ceiling, floor = _current_bounds(engine, partition, defect)
        assert 0 < ceiling < floor
        # Offsets scale with the threshold, the size of every compared sum.
        current = (ceiling if bound == "ceiling" else floor) + offset * (
            engine.technology.iddq_threshold_ua
        )
        defect = replace(defect, current_ua=current)
        assert engine.search_class(partition, defect) == kind


# ------------------------------------------------------------ the search
# Six inputs; ``z`` is 1 only when all six are, and ``nna`` always
# equals ``a``.
_HARD = """
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(z)
OUTPUT(nna)
n1 = AND(a, b)
n2 = AND(n1, c)
n3 = AND(n2, d)
n4 = AND(n3, e)
z = AND(n4, f)
na = NOT(a)
nna = NOT(na)
"""


class TestSharedStream:
    @pytest.fixture(scope="class")
    def hard(self):
        circuit = parse_bench(_HARD, name="hard")
        engine = CoverageEngine(circuit)
        partition = Partition.single_module(circuit)
        defects = {
            "futile": StuckOnTransistor(
                defect_id="small", current_ua=0.5, observing_gates=("z",),
                gate="z", active_output=1,
            ),
            "found": StuckOnTransistor(
                defect_id="rare", current_ua=5.0, observing_gates=("z",),
                gate="z", active_output=1,
            ),
            "never": BridgingFault(
                defect_id="equal", current_ua=5.0, observing_gates=("nna",),
                net_a="a", net_b="nna",
            ),
        }
        return engine, partition, defects

    @pytest.mark.parametrize("batch_rows", [1, atpg._WALK_BATCH_ROWS])
    def test_stream_ends_where_the_walk_leaves_it(self, hard, monkeypatch, batch_rows):
        # One-step batches put most hits past the first batch.
        monkeypatch.setattr(atpg, "_WALK_BATCH_ROWS", batch_rows)
        engine, partition, defects = hard
        assert engine.search_class(partition, defects["futile"]) == "futile"
        assert engine.search_class(partition, defects["found"]) == "activation"
        assert engine.search_class(partition, defects["never"]) == "activation"
        found = 0
        for seed in range(8):
            fast, slow = random.Random(seed), random.Random(seed)
            for name in ("futile", "found", "never", "found"):
                a = _targeted_search(engine, partition, defects[name], fast, 6, 3, 6)
                b = _walk(engine, partition, defects[name], slow, 6, 3, 6)
                assert _same(a, b), (seed, name)
                assert fast.getstate() == slow.getstate(), (seed, name)
                found += a is not None
        assert found  # the rare defect is found on some streams

    @pytest.mark.parametrize("restarts, flip_budget", [(0, 6), (3, 0)])
    def test_empty_walks_draw_as_the_walk(self, hard, restarts, flip_budget):
        engine, partition, defects = hard
        for defect in defects.values():
            fast, slow = random.Random(5), random.Random(5)
            assert _targeted_search(
                engine, partition, defect, fast, 6, restarts, flip_budget
            ) is None
            assert _walk(engine, partition, defect, slow, 6, restarts, flip_budget) is None
            assert fast.getstate() == slow.getstate()


# ------------------------------------------------ the campaign's searches
@pytest.mark.parametrize("seed", [1995, 7])
@pytest.mark.parametrize("name", ["c1908", "c6288"])
def test_campaign_searches_equal_the_walk(name, seed):
    """Every defect the quick campaign's ATPG stage searches, in both
    modes: per-defect streams and one shared stream."""
    circuit = load_iscas85(name)
    evaluator = PartitionEvaluator(circuit)
    partition = chain_start_partition(
        evaluator, estimate_module_count(evaluator), random.Random(seed)
    )
    defects = sample_bridging_faults(
        circuit, 30, seed=seed + 1, current_range_ua=(0.5, 8.0)
    ) + sample_gate_oxide_shorts(
        circuit, 15, seed=seed + 2, current_range_ua=(0.5, 8.0)
    )
    engine = CoverageEngine(circuit)
    n = len(circuit.input_names)
    pool = random_patterns(n, 32, seed=seed)
    detected = engine.detection_matrix(partition, defects, pool).any(axis=1)
    missed = np.flatnonzero(~detected)
    assert missed.size
    fast, slow = random.Random(seed), random.Random(seed)
    for d in missed.tolist():
        own = random.Random(defect_stream_seed(seed, d))
        a = _targeted_search(engine, partition, defects[d], own, n, 2, 8)
        b = _walk(
            engine, partition, defects[d], random.Random(defect_stream_seed(seed, d)),
            n, 2, 8,
        )
        assert _same(a, b), d
        a = _targeted_search(engine, partition, defects[d], fast, n, 2, 8)
        b = _walk(engine, partition, defects[d], slow, n, 2, 8)
        assert _same(a, b), d
        assert fast.getstate() == slow.getstate(), d
