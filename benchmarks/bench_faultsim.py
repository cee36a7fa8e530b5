"""Fault-simulation benchmarks: the test-engine half of the paper.

Each benchmark runs the fault-parallel engine against its executable
reference on the largest Table 1 circuit (C7552 stand-in), asserting
bit-identical results while the JSON records the speedups the engines
exist for:

* uncollapsed single-stuck-at detection matrix / coverage (256 random
  vectors) — serial re-simulation per fault vs collapsed, batched,
  fault-dropping simulation;
* the IDDQ detection matrix over a sampled defect population — one-shot
  rebuild-everything reference vs the cached vectorised
  :class:`CoverageEngine`;
* a short IDDQ test-generation run — per-step simulator rebuilds vs the
  persistent engine, whose current bounds decide most searches without
  a step-by-step walk.

Speedup floors asserted here (10x stuck-at coverage, 5x ATPG) are the
acceptance bars for the fault-parallel engine; observed ratios are much
higher: ~50x stuck-at, and ~170x ATPG on a 2-vCPU VM (~13x there when
every search walked step by step).
"""

import random
import time

import numpy as np
import pytest

from oracles.faultsim import (
    ReferenceStuckAtSimulator,
    detection_matrix as reference_detection_matrix,
    reference_generate_iddq_tests,
)
from repro.faultsim.atpg import generate_iddq_tests
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.netlist.benchmarks import load_iscas85
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator

#: Cross-test scratch: reference results/timings recorded by the
#: baseline benchmarks, consumed by the engine benchmarks that follow
#: (pytest runs the file top to bottom).
_RECORDED: dict = {}


@pytest.fixture(scope="module")
def c7552():
    return load_iscas85("c7552")


@pytest.fixture(scope="module")
def stuck_setup(c7552):
    faults = enumerate_stuck_at_faults(c7552)
    patterns = random_patterns(len(c7552.input_names), 256, seed=11)
    return faults, patterns


@pytest.fixture(scope="module")
def iddq_setup(c7552):
    evaluator = PartitionEvaluator(c7552)
    partition = chain_start_partition(
        evaluator, estimate_module_count(evaluator), random.Random(5)
    )
    defects = sample_bridging_faults(
        c7552, 110, seed=6, current_range_ua=(0.5, 8.0)
    ) + sample_gate_oxide_shorts(c7552, 50, seed=7, current_range_ua=(0.5, 8.0))
    patterns = random_patterns(len(c7552.input_names), 256, seed=8)
    return partition, defects, patterns


@pytest.fixture(scope="module")
def atpg_setup(c7552):
    evaluator = PartitionEvaluator(c7552)
    partition = chain_start_partition(
        evaluator, estimate_module_count(evaluator), random.Random(9)
    )
    defects = sample_bridging_faults(
        c7552, 40, seed=10, current_range_ua=(0.5, 5.0)
    ) + sample_gate_oxide_shorts(c7552, 20, seed=11, current_range_ua=(0.5, 5.0))
    kwargs = dict(seed=12, random_vectors=64, restarts=3, flip_budget=12)
    return partition, defects, kwargs


def _timed_once(benchmark, label, func):
    """Single benchmarked round, also recorded under ``label``."""

    def run():
        start = time.perf_counter()
        result = func()
        _RECORDED[label] = (time.perf_counter() - start, result)
        return result

    return benchmark.pedantic(run, rounds=1, iterations=1)


# --------------------------------------------------------------- stuck-at
def test_stuck_at_serial_baseline_c7552(benchmark, c7552, stuck_setup):
    """Serial-fault reference: one full re-simulation per fault."""
    faults, patterns = stuck_setup
    sim = ReferenceStuckAtSimulator(c7552)
    matrix = _timed_once(
        benchmark, "stuck_serial", lambda: sim.detection_matrix(faults, patterns)
    )
    assert matrix.shape == (len(faults), 256)


def test_stuck_at_detection_matrix_c7552(benchmark, c7552, stuck_setup):
    """Fault-parallel detection matrix — bit-identical to the baseline."""
    faults, patterns = stuck_setup
    sim = StuckAtSimulator(c7552)
    matrix = _timed_once(
        benchmark, "stuck_fast", lambda: sim.detection_matrix(faults, patterns)
    )
    assert np.array_equal(matrix, _RECORDED["stuck_serial"][1])


def test_stuck_at_coverage_c7552(benchmark, c7552, stuck_setup):
    """Chunked, fault-dropping coverage — >= 10x over the serial baseline."""
    faults, patterns = stuck_setup
    sim = StuckAtSimulator(c7552)
    coverage = _timed_once(
        benchmark, "stuck_coverage", lambda: sim.coverage(faults, patterns)
    )
    serial_time, serial_matrix = _RECORDED["stuck_serial"]
    assert coverage == float(serial_matrix.any(axis=1).mean())
    speedup = serial_time / _RECORDED["stuck_coverage"][0]
    assert speedup >= 10.0, f"stuck-at coverage speedup {speedup:.1f}x < 10x"


# ------------------------------------------------------------------- IDDQ
def test_iddq_detection_reference_c7552(benchmark, c7552, iddq_setup):
    """One-shot reference: rebuilds simulator and leak tables per call."""
    partition, defects, patterns = iddq_setup
    matrix = _timed_once(
        benchmark,
        "iddq_reference",
        lambda: reference_detection_matrix(c7552, partition, defects, patterns),
    )
    assert matrix.shape == (len(defects), 256)


def test_iddq_detection_engine_c7552(benchmark, c7552, iddq_setup):
    """CoverageEngine detection matrix — identical booleans, cached prep."""
    partition, defects, patterns = iddq_setup
    engine = CoverageEngine(c7552)
    matrix = _timed_once(
        benchmark,
        "iddq_engine",
        lambda: engine.detection_matrix(partition, defects, patterns),
    )
    assert np.array_equal(matrix, _RECORDED["iddq_reference"][1])


# ------------------------------------------------------------------- ATPG
def test_iddq_atpg_reference_c7552(benchmark, c7552, atpg_setup):
    """Pre-engine test generation: full rebuild per hill-climb step."""
    partition, defects, kwargs = atpg_setup
    tests = _timed_once(
        benchmark,
        "atpg_reference",
        lambda: reference_generate_iddq_tests(c7552, partition, defects, **kwargs),
    )
    assert tests.num_vectors > 0


def test_iddq_atpg_engine_c7552(benchmark, c7552, atpg_setup):
    """Engine-backed test generation — identical set, >= 5x faster."""
    partition, defects, kwargs = atpg_setup
    tests = _timed_once(
        benchmark,
        "atpg_engine",
        lambda: generate_iddq_tests(c7552, partition, defects, **kwargs),
    )
    reference_time, reference_tests = _RECORDED["atpg_reference"]
    assert np.array_equal(tests.patterns, reference_tests.patterns)
    assert tests.detected_ids == reference_tests.detected_ids
    assert tests.coverage == reference_tests.coverage
    speedup = reference_time / _RECORDED["atpg_engine"][0]
    assert speedup >= 5.0, f"ATPG speedup {speedup:.1f}x < 5x"
