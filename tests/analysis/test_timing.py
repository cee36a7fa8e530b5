"""Tests for critical-path timing, including a differential check of the
levelised numpy longest path against a naive implementation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.current import GateElectricals
from repro.analysis.timing import (
    IncrementalTiming,
    LevelizedTiming,
    critical_path_delay,
    levelized_timing,
    nominal_gate_delays,
)
from repro.netlist.builder import CircuitBuilder
from repro.netlist.gate import GateType
from repro.netlist.generate import GeneratorConfig, generate_iscas_like


def naive_longest_path(circuit, delays_by_name):
    arrival = {}
    for name in circuit.topological_order:
        gate = circuit.gate(name)
        if gate.gate_type.is_input:
            arrival[name] = 0.0
        else:
            arrival[name] = (
                max(arrival[f] for f in gate.fanins) + delays_by_name[name]
            )
    return max(v for k, v in arrival.items() if not circuit.gate(k).gate_type.is_input)


class TestChain:
    def test_inverter_chain(self):
        builder = CircuitBuilder("chain").input("a")
        previous = "a"
        for i in range(4):
            builder.gate(f"n{i}", GateType.NOT, [previous])
            previous = f"n{i}"
        circuit = builder.output(previous).build()
        delays = np.asarray([0.35] * 4)
        assert critical_path_delay(circuit, delays) == pytest.approx(4 * 0.35)

    def test_delays_shape_checked(self, c17_circuit):
        timing = LevelizedTiming(c17_circuit)
        with pytest.raises(ValueError, match="shape"):
            timing.arrival_times(np.zeros(3))


class TestC17:
    def test_c17_critical_path(self, c17_circuit, library):
        electricals = GateElectricals.compute(c17_circuit, library)
        delays = nominal_gate_delays(electricals)
        nand2_delay = library.cell("NAND2").delay_ns
        assert critical_path_delay(c17_circuit, delays) == pytest.approx(3 * nand2_delay)

    def test_degraded_delays_increase_path(self, c17_circuit, library):
        electricals = GateElectricals.compute(c17_circuit, library)
        timing = LevelizedTiming(c17_circuit)
        base = timing.critical_path_delay(electricals.delay_ns)
        degraded = timing.critical_path_delay(electricals.delay_ns * 1.07)
        assert degraded == pytest.approx(base * 1.07)


class TestDifferentialProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        num_gates=st.integers(5, 100),
        num_inputs=st.integers(2, 6),
        depth=st.integers(2, 12),
        seed=st.integers(0, 100_000),
    )
    def test_levelized_equals_naive(self, num_gates, num_inputs, depth, seed):
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="lp",
                num_gates=num_gates,
                num_inputs=num_inputs,
                num_outputs=2,
                depth=min(depth, num_gates),
                seed=seed,
            )
        )
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0.2, 2.0, len(circuit.gate_names))
        delays_by_name = {
            name: delays[i] for i, name in enumerate(circuit.gate_names)
        }
        fast = LevelizedTiming(circuit).critical_path_delay(delays)
        slow = naive_longest_path(circuit, delays_by_name)
        assert fast == pytest.approx(slow)


class TestLevelizedCache:
    def test_one_shot_structure_cached_on_compiled_graph(self, c17_circuit):
        assert levelized_timing(c17_circuit) is levelized_timing(c17_circuit)
        assert levelized_timing(c17_circuit) is c17_circuit.compiled._levelized_timing

    def test_one_shot_delay_uses_cache(self, c17_circuit, library):
        electricals = GateElectricals.compute(c17_circuit, library)
        delays = nominal_gate_delays(electricals)
        first = critical_path_delay(c17_circuit, delays)
        # Second call must hit the cached structure and agree exactly.
        assert critical_path_delay(c17_circuit, delays) == first


def _engines(circuit):
    ref = LevelizedTiming(circuit)
    return ref, IncrementalTiming(circuit.compiled, ref)


def _checked_update(ref, inc, arrival, new_delays, seeds):
    """Run one maintained update and assert the full contract: bit
    identity with a fresh reference pass, and exact undo through the
    returned ``(touched, old)`` journal."""
    before = arrival.copy()
    touched, old = inc.update(arrival, new_delays, seeds)
    assert np.array_equal(arrival, ref.arrival_times(new_delays))
    undone = arrival.copy()
    undone[touched] = old
    assert np.array_equal(undone, before)


class TestIncrementalUpdate:
    """Random delay-perturbation sequences through the maintained-arrival
    engine — every dispatch strategy must be bit-identical to a fresh
    :meth:`LevelizedTiming.arrival_times` pass and exactly undoable."""

    @settings(max_examples=15, deadline=None)
    @given(
        num_gates=st.integers(20, 120),
        num_inputs=st.integers(2, 6),
        depth=st.integers(3, 12),
        seed=st.integers(0, 100_000),
    )
    def test_random_perturbation_sequences(self, num_gates, num_inputs, depth, seed):
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="inc",
                num_gates=num_gates,
                num_inputs=num_inputs,
                num_outputs=2,
                depth=min(depth, num_gates),
                seed=seed,
            )
        )
        ref, inc = _engines(circuit)
        n = inc.num_gates
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0.2, 2.0, n)
        arrival = inc.full_arrival(delays)
        assert np.array_equal(arrival, ref.arrival_times(delays))
        for _ in range(6):
            k = int(rng.integers(1, n + 1))
            seeds = rng.integers(0, n, size=k)  # duplicates on purpose
            new_delays = delays.copy()
            new_delays[seeds] = rng.uniform(0.2, 2.0, size=k)
            _checked_update(ref, inc, arrival, new_delays, seeds)
            delays = new_delays

    def test_each_dispatch_strategy(self):
        """Force the cone walk and the full gate-space sweep in turn on
        one engine, and count which one each update took."""
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="disp",
                num_gates=120,
                num_inputs=5,
                num_outputs=3,
                depth=10,
                seed=7,
            )
        )
        ref, inc = _engines(circuit)
        n = inc.num_gates
        rng = np.random.default_rng(0)
        delays = rng.uniform(0.2, 2.0, n)
        arrival = inc.full_arrival(delays)

        def perturb(seeds):
            nonlocal delays
            new_delays = delays.copy()
            new_delays[seeds] = new_delays[seeds] * 1.5 + 0.1
            mark = obs.METRICS.counters()
            _checked_update(ref, inc, arrival, new_delays, seeds)
            delays = new_delays
            return obs.METRICS.delta_since(mark)

        saved = obs.enabled_state()
        obs.enable(metrics=True)
        try:
            # Cone walk: one seed.
            seeds = np.array([n // 2], dtype=np.int64)
            assert seeds.size * IncrementalTiming.CONE_DIVISOR < n
            assert perturb(seeds) == {"timing.update.cone": 1}
            # Full sweep: the gates of the deepest levels, just enough of
            # them to skip the cone walk.
            late = np.argsort(inc.gate_level, kind="stable")
            seeds = late[-(n // IncrementalTiming.CONE_DIVISOR + 1) :]
            assert perturb(seeds) == {"timing.update.full": 1}
            # Full sweep: every gate is a seed.
            assert perturb(np.arange(n, dtype=np.int64)) == {"timing.update.full": 1}
        finally:
            obs.enable(trace=saved[0], metrics=saved[1])


class TestRetimeBatch:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_sequential_updates(self, seed):
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="rb",
                num_gates=90,
                num_inputs=4,
                num_outputs=3,
                depth=8,
                seed=seed % 997,
            )
        )
        ref, inc = _engines(circuit)
        n = inc.num_gates
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0.2, 2.0, n)
        arrival = inc.full_arrival(delays)
        cols = np.unique(rng.integers(0, n, size=int(rng.integers(1, max(2, n // 3)))))
        count = int(rng.integers(1, 8))
        fresh = rng.uniform(0.2, 2.0, (count, cols.size))
        keep_base = rng.random((count, cols.size)) < 0.25
        overrides = np.where(keep_base, delays[cols][None, :], fresh)
        snap = (arrival.copy(), delays.copy())
        result = inc.retime_batch(arrival, delays, cols, overrides)
        # The batch is read-only on the maintained state.
        assert np.array_equal(arrival, snap[0])
        assert np.array_equal(delays, snap[1])
        for i in range(count):
            cand = delays.copy()
            cand[cols] = overrides[i]
            assert result[i] == float(ref.arrival_times(cand).max())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_full_cone_hands_back_arrivals(self, seed):
        """Whole delay rows: each row's stacked arrivals, in gate order,
        equal a full sweep of its delays bit for bit, and rows equal to
        the base hand back nothing.  Gates are declared out of level
        order, so the sweep's level-major order differs from gate
        order."""
        generated = generate_iscas_like(
            GeneratorConfig(
                name="fc",
                num_gates=90,
                num_inputs=4,
                num_outputs=3,
                depth=8,
                seed=seed % 997,
            )
        )
        gates = list(generated)
        random.Random(seed).shuffle(gates)
        builder = CircuitBuilder("fc-shuffled")
        for gate in gates:
            builder.add(gate)
        circuit = builder.outputs(generated.output_names).build()
        ref, inc = _engines(circuit)
        n = inc.num_gates
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0.2, 2.0, n)
        arrival = inc.full_arrival(delays)
        cols = np.arange(n, dtype=np.int64)
        rows = rng.uniform(0.2, 2.0, (int(rng.integers(2, 8)), n))
        rows[0] = delays
        d_bic, stacked = inc.retime_batch(
            arrival, delays, cols, rows, return_arrivals=True
        )
        assert np.array_equal(
            d_bic, inc.retime_batch(arrival, delays, cols, rows)
        )
        for i, row in enumerate(rows):
            got = inc.stacked_arrival(stacked, i)
            want = ref.arrival_times(row)
            assert got.tobytes() == want.tobytes()
            assert d_bic[i] == float(want.max())
        unchanged = inc.retime_batch(
            arrival, delays, cols, rows[:1], return_arrivals=True
        )
        assert unchanged[1] is None
        assert unchanged[0][0] == float(arrival.max())

    def test_late_columns_hand_back_arrivals(self):
        """Columns confined to the deepest levels, whose changes reach
        few gates: every row's stacked arrivals still equal a full sweep
        of its delays byte for byte."""
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="pc",
                num_gates=150,
                num_inputs=5,
                num_outputs=3,
                depth=12,
                seed=3,
            )
        )
        ref, inc = _engines(circuit)
        n = inc.num_gates
        rng = np.random.default_rng(1)
        delays = rng.uniform(0.2, 2.0, n)
        arrival = inc.full_arrival(delays)
        late = np.argsort(inc.gate_level, kind="stable")[-8:]
        cols = np.sort(late[: late.size // 2])
        overrides = rng.uniform(0.2, 2.0, (5, cols.size))
        d_bic, stacked = inc.retime_batch(
            arrival, delays, cols, overrides, return_arrivals=True
        )
        assert np.array_equal(d_bic, inc.retime_batch(arrival, delays, cols, overrides))
        for i in range(5):
            cand = delays.copy()
            cand[cols] = overrides[i]
            want = ref.arrival_times(cand)
            assert inc.stacked_arrival(stacked, i).tobytes() == want.tobytes()
            assert d_bic[i] == float(want.max())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_union_column_set_merges_heterogeneous_candidates(self, seed):
        """The merged-batch contract (``trial_blocks`` overrides every
        gate of every row): heterogeneous candidates share one union
        column set, each row overriding only its own disjoint slice
        (base-delay entries are per-row no-ops), and every row scores
        exactly as if it had been submitted alone with just its own
        columns."""
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="uc",
                num_gates=100,
                num_inputs=5,
                num_outputs=3,
                depth=9,
                seed=seed % 997,
            )
        )
        ref, inc = _engines(circuit)
        n = inc.num_gates
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0.2, 2.0, n)
        arrival = inc.full_arrival(delays)
        # Disjoint "memberships" over a shared union column set; one
        # candidate per slice, plus one all-base row mixed in.
        perm = rng.permutation(n)[: 3 * (n // 4) // 3 * 3]
        slices = np.array_split(perm, 3)
        cols = np.sort(perm)
        count = len(slices) + 1
        overrides = np.tile(delays[cols], (count, 1))
        for i, part in enumerate(slices):
            pos = np.searchsorted(cols, np.sort(part))
            overrides[i, pos] = rng.uniform(0.2, 2.0, part.size)
        result = inc.retime_batch(arrival, delays, cols, overrides)
        for i in range(len(slices)):
            cand = delays.copy()
            cand[cols] = overrides[i]
            assert result[i] == float(ref.arrival_times(cand).max())
            # ... and identically when submitted alone with only its
            # own columns (the per-group call the merge replaces).
            own = np.sort(slices[i])
            alone = inc.retime_batch(
                arrival,
                delays,
                own,
                overrides[i, np.searchsorted(cols, own)][None, :],
            )
            assert alone[0] == result[i]
        # The all-base row reduces to the maintained maximum.
        assert result[-1] == float(arrival.max())

    def test_all_base_overrides_short_circuit(self):
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="nb", num_gates=60, num_inputs=4, num_outputs=2, depth=6, seed=11
            )
        )
        ref, inc = _engines(circuit)
        rng = np.random.default_rng(2)
        delays = rng.uniform(0.2, 2.0, inc.num_gates)
        arrival = inc.full_arrival(delays)
        cols = np.arange(0, inc.num_gates, 3, dtype=np.int64)
        overrides = np.tile(delays[cols], (4, 1))
        result = inc.retime_batch(arrival, delays, cols, overrides)
        assert np.all(result == float(arrival.max()))
