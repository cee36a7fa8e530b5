"""Incremental-timing kernel benchmarks: the maintained arrival vector
and the stacked retime vs one full sweep per candidate.

Every optimiser candidate needs the exact degraded critical path
``D_BIC`` (paper §3.2), and at the natural K a single gate move
re-degrades two ~400-gate modules.  Three datapoints on the largest
Table 1 circuit (C7552 stand-in), each timed twice:

* **committed-move retime** — the arrival refresh after a committed
  move (seeds: both touched modules) as the maintained
  :meth:`IncrementalTiming.update` vs a plain full sweep + global diff.
  Recorded without a floor: at natural-K seed sizes the update takes
  its full gate-space sweep, so both legs do the same work (~0.95x
  observed) — a cost incurred once per *accepted* move and repaid
  hundreds of times over by the batched trial path below.
* **natural-K trial retime** — scoring a whole (source, target)
  neighborhood: one :meth:`IncrementalTiming.retime_batch` stacked
  sweep vs the per-candidate loop (build the candidate delay vector,
  full sweep, ``max()``).  Carries the ≥3x floor.
* **batched C-candidate retime** — the same candidates through C
  sequential maintained ``update`` + exact-undo round trips, isolating
  what batching alone buys.

The per-candidate sweep is reconstructed in-bench from
:class:`LevelizedTiming`'s level/edge lists (gate-space segment sweep)
and checked bit-identical against the production sweep before timing.
Results land in ``BENCH_timing.json`` via the bench-smoke job.
"""

import random
import time

import numpy as np
import pytest

from repro.netlist.benchmarks import load_iscas85
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator

#: Cross-test scratch (pytest runs the file top to bottom).
_RECORDED: dict = {}

#: Asserted floors — see module docstring.
NATURAL_K_TRIAL_FLOOR = 3.0
BATCH_RETIME_FLOOR = 2.0

PENALTY = 1.0e4


class _LegacySweep:
    """One full sweep, reconstructed from :class:`LevelizedTiming`'s
    per-level edge lists: every gate starts at its own delay, then each
    level adds one gate-space segment-batched ``maximum.reduceat`` into
    its fed gates."""

    def __init__(self, timing):
        self.num_gates = timing.num_gates
        self.levels = []
        for level in timing._levels:
            counts = np.bincount(level.dst_pos, minlength=len(level.gate_idx))
            fed = counts > 0
            starts = (np.cumsum(counts) - counts)[fed]
            self.levels.append((level.gate_idx[fed], level.src, starts))

    def arrival_times(self, delays: np.ndarray) -> np.ndarray:
        arrival = delays.copy()
        for fed, src, starts in self.levels:
            if src.size:
                arrival[fed] += np.maximum.reduceat(arrival[src], starts)
        return arrival


@pytest.fixture(scope="module")
def c7552():
    return load_iscas85("c7552")


@pytest.fixture(scope="module")
def setup(c7552):
    """Shared benchmark state: the maintained arrival vector, a
    natural-K (source, target) candidate neighborhood, and the legacy
    sweep checked bit-identical against the production one."""
    evaluator = PartitionEvaluator(c7552)
    start = chain_start_partition(
        evaluator, estimate_module_count(evaluator), random.Random(9)
    )
    state = evaluator.new_state(start)
    state.penalized_cost(PENALTY)

    inc = evaluator.timing.incremental
    delays = state.delay_degraded.copy()
    arrival = inc.full_arrival(delays)

    legacy = _LegacySweep(evaluator.timing)
    assert np.array_equal(
        legacy.arrival_times(delays), evaluator.timing.arrival_times(delays)
    ), "legacy sweep reconstruction drifted from the production sweep"

    source, target = start.module_ids[0], start.module_ids[1]
    src_members = start.gates_array(source)
    tgt_members = start.gates_array(target)
    cols = np.concatenate([src_members, tgt_members])
    count = min(192, src_members.size)
    rng = np.random.default_rng(42)
    # Candidate delay overrides shaped like a re-degradation of both
    # touched modules (the values don't affect the sweep cost).
    overrides = delays[cols][None, :] * rng.uniform(0.97, 1.07, (count, cols.size))
    return {
        "inc": inc,
        "legacy": legacy,
        "delays": delays,
        "arrival": arrival,
        "cols": cols,
        "overrides": overrides,
    }


def _best_of(run, setup_fn=lambda: None, rounds: int = 5) -> float:
    """Best wall time of ``run(setup_fn())`` with setup untimed."""
    best = float("inf")
    for _ in range(rounds):
        arg = setup_fn()
        t0 = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------- committed-move retime
def test_committed_move_retime_legacy(benchmark, setup):
    delays, cols = setup["delays"], setup["cols"]
    legacy = setup["legacy"]
    new_delays = delays.copy()
    new_delays[cols] = setup["overrides"][0]

    def step(_):
        fresh = legacy.arrival_times(new_delays)
        changed = np.nonzero(fresh != setup["arrival"])[0]
        _RECORDED["committed_sink"] = (changed.size, float(fresh.max()))

    def run():
        _RECORDED["committed_legacy"] = _best_of(step, rounds=20)

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\ncommitted-move retime legacy: "
        f"{_RECORDED['committed_legacy'] * 1e6:.1f} us"
    )


def test_committed_move_retime_maintained(benchmark, setup):
    """Recorded without a floor — natural-K commits seed enough gates
    that the update takes its full sweep, the legacy leg's work (see
    module docstring)."""
    inc, delays, cols = setup["inc"], setup["delays"], setup["cols"]
    new_delays = delays.copy()
    new_delays[cols] = setup["overrides"][0]

    def prep():
        return setup["arrival"].copy()

    def step(arr):
        inc.update(arr, new_delays, cols)
        _RECORDED["committed_dbic"] = float(arr.max())

    def run():
        _RECORDED["committed_maintained"] = _best_of(step, prep, rounds=20)

    benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = _RECORDED["committed_legacy"] / _RECORDED["committed_maintained"]
    print(
        f"\ncommitted-move retime maintained: "
        f"{_RECORDED['committed_maintained'] * 1e6:.1f} us ({ratio:.2f}x)"
    )


# ----------------------------------------------------- natural-K trial retime
def test_natural_k_trial_retime_legacy(benchmark, setup):
    delays, cols, overrides = setup["delays"], setup["cols"], setup["overrides"]
    legacy = setup["legacy"]

    def step(_):
        out = np.empty(len(overrides), dtype=np.float64)
        for i in range(len(overrides)):
            cand = delays.copy()
            cand[cols] = overrides[i]
            out[i] = legacy.arrival_times(cand).max()
        _RECORDED["trial_legacy_dbic"] = out

    def run():
        _RECORDED["trial_legacy"] = _best_of(step, rounds=3)

    benchmark.pedantic(run, rounds=1, iterations=1)
    per = _RECORDED["trial_legacy"] / len(overrides) * 1e6
    print(f"\nnatural-K trial retime legacy: {per:.1f} us/candidate")


def test_natural_k_trial_retime_batched(benchmark, setup):
    inc, delays, cols = setup["inc"], setup["delays"], setup["cols"]
    arrival, overrides = setup["arrival"], setup["overrides"]

    def step(_):
        _RECORDED["trial_batched_dbic"] = inc.retime_batch(
            arrival, delays, cols, overrides
        )

    def run():
        _RECORDED["trial_batched"] = _best_of(step, rounds=5)

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.array_equal(
        _RECORDED["trial_batched_dbic"], _RECORDED["trial_legacy_dbic"]
    ), "batched trial retime drifted from the legacy full-sweep path"
    speedup = _RECORDED["trial_legacy"] / _RECORDED["trial_batched"]
    per = _RECORDED["trial_batched"] / len(overrides) * 1e6
    print(
        f"\nnatural-K trial retime batched: {per:.1f} us/candidate "
        f"({speedup:.2f}x, floor {NATURAL_K_TRIAL_FLOOR}x)"
    )
    assert speedup >= NATURAL_K_TRIAL_FLOOR, (
        f"natural-K trial retime speedup {speedup:.2f}x < {NATURAL_K_TRIAL_FLOOR}x"
    )


# -------------------------------------------------- batched C-candidate retime
def test_batched_retime_sequential(benchmark, setup):
    """C maintained update + exact-undo round trips — the maintained
    arrival vector without batching."""
    inc, delays, cols, overrides = (
        setup["inc"],
        setup["delays"],
        setup["cols"],
        setup["overrides"],
    )

    def prep():
        return setup["arrival"].copy()

    def step(arr):
        out = np.empty(len(overrides), dtype=np.float64)
        for i in range(len(overrides)):
            cand = delays.copy()
            cand[cols] = overrides[i]
            touched, old = inc.update(arr, cand, cols)
            out[i] = arr.max()
            arr[touched] = old  # exact undo
        _RECORDED["seq_dbic"] = out

    def run():
        _RECORDED["batch_sequential"] = _best_of(step, prep, rounds=3)

    benchmark.pedantic(run, rounds=1, iterations=1)
    per = _RECORDED["batch_sequential"] / len(overrides) * 1e6
    print(f"\nsequential maintained retime: {per:.1f} us/candidate")


def test_batched_retime_stacked(benchmark, setup):
    inc, delays, cols = setup["inc"], setup["delays"], setup["cols"]
    arrival, overrides = setup["arrival"], setup["overrides"]

    def step(_):
        _RECORDED["stacked_dbic"] = inc.retime_batch(
            arrival, delays, cols, overrides
        )

    def run():
        _RECORDED["batch_stacked"] = _best_of(step, rounds=5)

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.array_equal(_RECORDED["stacked_dbic"], _RECORDED["seq_dbic"]), (
        "stacked retime drifted from sequential maintained updates"
    )
    speedup = _RECORDED["batch_sequential"] / _RECORDED["batch_stacked"]
    print(
        f"\nstacked retime: "
        f"{_RECORDED['batch_stacked'] / len(overrides) * 1e6:.1f} us/candidate "
        f"({speedup:.2f}x, floor {BATCH_RETIME_FLOOR}x)"
    )
    assert speedup >= BATCH_RETIME_FLOOR, (
        f"batched retime speedup {speedup:.2f}x < {BATCH_RETIME_FLOOR}x"
    )
