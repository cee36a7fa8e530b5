"""Parallel-runtime benchmarks: the execution-layer half of DESIGN §9.

Two claims are measured (and floored) here:

* **Sharded detection-matrix build** — the 4-worker sharded stuck-at
  detection matrix on C7552 versus the single-process build.  The
  matrices must be bit-identical; the >=2x speedup floor is asserted
  when the machine actually has >= 4 CPUs (a single-core container can
  verify correctness but not parallel wall-clock — the ratio is still
  recorded in the JSON either way).
* **Campaign caching** — a quick two-circuit campaign run twice against
  one cache directory: the cold run must build (0 hits), the warm run
  must serve every separation/detection/test-set/optimizer artifact
  from the cache (hits == entries, the manifest-level acceptance
  criterion) and finish faster than the cold run.
* **Disabled-telemetry overhead** — the instrumented-but-off cost of
  the observability layer (DESIGN §11-§12) on the serial
  detection-matrix build routed through the executor, so the
  tracer/metrics call sites *and* the heartbeat hooks
  (``live.note_task`` / ``clear_task``, DESIGN §12) are all crossed:
  instrumentation call count x measured per-call disabled cost must
  stay <= 3% of the op's wall clock.
"""

import os
import tempfile
import time

import numpy as np
import pytest

from repro import obs
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.netlist.benchmarks import load_iscas85
from repro.runtime.campaign import CampaignConfig, run_campaign
from repro.runtime.parallel import sharded_detection_matrix

#: Cross-test scratch (pytest runs the file top to bottom).
_RECORDED: dict = {}

_WORKERS = 4


@pytest.fixture(scope="module")
def c7552():
    return load_iscas85("c7552")


@pytest.fixture(scope="module")
def stuck_setup(c7552):
    faults = enumerate_stuck_at_faults(c7552)
    patterns = random_patterns(len(c7552.input_names), 256, seed=11)
    return faults, patterns


def _timed_once(benchmark, label, func):
    def run():
        start = time.perf_counter()
        result = func()
        _RECORDED[label] = (time.perf_counter() - start, result)
        return result

    return benchmark.pedantic(run, rounds=1, iterations=1)


# ------------------------------------------------------------- sharded build
def test_detection_matrix_serial_c7552(benchmark, c7552, stuck_setup):
    """Single-process baseline for the sharded build."""
    faults, patterns = stuck_setup
    sim = StuckAtSimulator(c7552)
    matrix = _timed_once(
        benchmark, "serial", lambda: sim.detection_matrix(faults, patterns)
    )
    assert matrix.shape == (len(faults), 256)


def test_detection_matrix_sharded_4workers_c7552(benchmark, c7552, stuck_setup):
    """4-worker sharded build: bit-identical, >=2x with >=4 real CPUs."""
    faults, patterns = stuck_setup
    matrix = _timed_once(
        benchmark,
        "sharded",
        lambda: sharded_detection_matrix(c7552, faults, patterns, jobs=_WORKERS),
    )
    serial_seconds, serial_matrix = _RECORDED["serial"]
    sharded_seconds = _RECORDED["sharded"][0]
    assert np.array_equal(matrix, serial_matrix), "sharded build must be bit-identical"
    ratio = serial_seconds / sharded_seconds
    cpus = os.cpu_count() or 1
    print(
        f"\nC7552 detection matrix: serial {serial_seconds:.2f}s, "
        f"{_WORKERS} workers {sharded_seconds:.2f}s -> {ratio:.1f}x "
        f"({cpus} CPUs)"
    )
    if cpus >= _WORKERS:
        assert ratio >= 2.0, (
            f"4-worker sharded build only {ratio:.2f}x over serial "
            f"(floor 2x on a {cpus}-CPU machine)"
        )
    else:
        print(f"(speedup floor skipped: {cpus} < {_WORKERS} CPUs)")


# -------------------------------------------------------- disabled overhead
def _count_instrumentation_calls(func) -> int:
    """Run ``func`` once with the telemetry entry points replaced by
    counting no-ops; returns how many times the op would have touched
    the (disabled) tracer/metrics singletons or the (disabled)
    heartbeat hooks."""
    from repro.obs import live
    from repro.obs.core import _NULL_SPAN, Metrics, Tracer

    calls = 0

    def counting_inc(self, name, value=1):
        nonlocal calls
        calls += 1

    def counting_span(self, name, **attrs):
        nonlocal calls
        calls += 1
        return _NULL_SPAN

    def counting_instant(self, name, **attrs):
        nonlocal calls
        calls += 1

    def counting_note(index, attempt):
        nonlocal calls
        calls += 1

    def counting_clear():
        nonlocal calls
        calls += 1

    saved = (Metrics.inc, Tracer.span, Tracer.instant,
             live.note_task, live.clear_task)
    Metrics.inc, Tracer.span, Tracer.instant = (
        counting_inc, counting_span, counting_instant,
    )
    live.note_task, live.clear_task = counting_note, counting_clear
    try:
        func()
    finally:
        (Metrics.inc, Tracer.span, Tracer.instant,
         live.note_task, live.clear_task) = saved
    return calls


def _disabled_call_cost() -> float:
    """Per-call seconds of a counter bump (the registry always counts)
    or a disabled span / heartbeat note, whichever is worse (fresh
    instances, so an enabled environment cannot skew the
    measurement)."""
    from repro.obs import live
    from repro.obs.core import Metrics, Tracer

    metrics = Metrics(enabled=False)
    tracer = Tracer(enabled=False)
    rounds = 100_000
    start = time.perf_counter()
    for _ in range(rounds):
        metrics.inc("bench.disabled", 1)
    inc_cost = (time.perf_counter() - start) / rounds
    start = time.perf_counter()
    for _ in range(rounds):
        with tracer.span("bench.disabled", attr=1):
            pass
    span_cost = (time.perf_counter() - start) / rounds
    live.stop_heartbeat()
    live.note_task(0, 0)  # settle the cached-interval fast path
    start = time.perf_counter()
    for _ in range(rounds):
        live.note_task(0, 0)
        live.clear_task()
    note_cost = (time.perf_counter() - start) / (2 * rounds)
    return max(inc_cost, span_cost, note_cost)


def test_disabled_telemetry_overhead_floor(benchmark, c7552, stuck_setup):
    """Instrumented-but-off must cost <= 3% of the serial build.

    Timing two runs against each other would drown the signal in
    run-to-run noise, so the bound is computed analytically: the number
    of instrumentation call sites the op actually crosses, times the
    measured worst-case per-call cost of a disabled bump/span/heartbeat
    note, over the op's own wall clock.  The op runs through the serial
    executor so the heartbeat hooks in the task loop are on the
    measured path.
    """
    from repro.obs import live
    from repro.runtime.executor import Executor

    assert not obs.TRACER.enabled and not obs.METRICS.enabled, (
        "overhead floor must run with telemetry off (unset REPRO_TRACE/"
        "REPRO_METRICS)"
    )
    assert live.resolve_heartbeat() == 0.0, (
        "overhead floor must run with heartbeats off (unset REPRO_HEARTBEAT)"
    )
    faults, patterns = stuck_setup
    sim = StuckAtSimulator(c7552)

    def op():
        return Executor(1).map(
            lambda state, task: sim.detection_matrix(faults, patterns), [0]
        )

    _timed_once(benchmark, "overhead_op", op)
    op_seconds = _RECORDED["overhead_op"][0]
    calls = _count_instrumentation_calls(op)
    per_call = _disabled_call_cost()
    overhead = calls * per_call / op_seconds
    print(
        f"\ndisabled telemetry: {calls} calls x {per_call * 1e9:.0f}ns "
        f"/ {op_seconds:.2f}s op = {100 * overhead:.3f}% overhead"
    )
    assert overhead <= 0.03, (
        f"disabled instrumentation costs {100 * overhead:.2f}% of the "
        f"serial detection build (floor 3%)"
    )


# ------------------------------------------------------------------ campaign
@pytest.fixture(scope="module")
def campaign_cache():
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as cache_dir:
        yield cache_dir


def _campaign_config(cache_dir):
    return CampaignConfig(
        circuits=("c432", "c880"), jobs=1, cache_dir=cache_dir, quick=True
    )


def test_campaign_cold(benchmark, campaign_cache):
    """First campaign run: every artifact is built and stored."""
    manifest = _timed_once(
        benchmark, "cold", lambda: run_campaign(_campaign_config(campaign_cache))
    )
    assert manifest["totals"]["hits"] == 0
    assert manifest["totals"]["misses"] == manifest["totals"]["entries"]


def test_campaign_warm(benchmark, campaign_cache):
    """Second run: everything served from cache, faster than cold."""
    manifest = _timed_once(
        benchmark, "warm", lambda: run_campaign(_campaign_config(campaign_cache))
    )
    cold_seconds = _RECORDED["cold"][0]
    warm_seconds = _RECORDED["warm"][0]
    totals = manifest["totals"]
    # The cache-hit floor: every stage of every circuit is a hit.
    assert totals["hits"] == totals["entries"], (
        f"warm campaign rebuilt {totals['misses']} artifacts"
    )
    assert totals["misses"] == 0
    print(
        f"\ncampaign: cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s "
        f"({totals['hits']}/{totals['entries']} cached)"
    )
    assert warm_seconds < cold_seconds, "warm campaign must beat the cold run"
