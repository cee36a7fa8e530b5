"""Cross-process aggregation and executor telemetry.

Worker snapshots must merge into a parent trace that is a
deterministic function of the task list — identical counters and
``task:<index>`` attribution at any worker count — and fault-injected
runs must account every retry/timeout/restart in the metrics registry.
"""

from __future__ import annotations

import warnings

import pytest

from repro import obs
from repro.runtime.executor import MAX_POOL_RESTARTS, Executor
from repro.runtime.faults import FaultPlan


def traced_square(state, task):
    obs.METRICS.inc("worker.calls")
    obs.METRICS.inc("worker.value", task)
    with obs.TRACER.span("worker.compute", task=task):
        return task * task


def _merged_run(jobs: int, n: int = 8):
    obs.TRACER.reset()
    obs.METRICS.reset()
    obs.enable(trace=True, metrics=True)
    result = Executor(jobs).map(traced_square, range(n))
    assert result == [t * t for t in range(n)]
    counters = obs.METRICS.counters()
    sites = sorted(
        {e[5] for e in obs.TRACER.events() if e[1] == "worker.compute"}
    )
    return counters, sites


class TestDeterministicMerge:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_counters_and_sites_invariant_to_worker_count(self, jobs):
        counters, sites = _merged_run(jobs)
        assert counters["worker.calls"] == 8
        assert counters["worker.value"] == sum(range(8))
        assert counters["executor.tasks"] == 8
        # One snapshot per task, attributed by task index — not pid.
        assert sites == sorted(f"task:{i}" for i in range(8))

    def test_serial_records_locally(self):
        counters, sites = _merged_run(1)
        assert counters["worker.calls"] == 8
        assert sites == ["main"]  # no process boundary, no re-attribution

    def test_counts_merge_before_on_result(self):
        # The gather merges each task's counts, in task order, before
        # on_result sees the task's value.
        calls = []
        Executor(2).map(
            traced_square,
            range(4),
            on_result=lambda i, value: calls.append(
                obs.METRICS.counters().get("worker.calls")
            ),
        )
        assert calls == [1, 2, 3, 4]

    def test_map_span_wraps_the_run(self):
        obs.enable(trace=True)
        Executor(2).map(traced_square, range(4))
        (span,) = [e for e in obs.TRACER.events() if e[1] == "executor.map"]
        assert span[6]["tasks"] == 4

    def test_disabled_ships_no_snapshots(self):
        # With tracing and reporting off the workers' counts still
        # reach the parent's registry; no span events do.
        result = Executor(2).map(traced_square, range(4))
        assert result == [0, 1, 4, 9]
        assert obs.TRACER.events() == []
        counters = obs.METRICS.counters()
        assert counters["worker.calls"] == 4
        assert counters["worker.value"] == sum(range(4))
        assert counters["executor.tasks"] == 4


class TestFaultCounters:
    def test_transient_error_counts_one_retry(self):
        executor = Executor(
            2, task_retries=1, fault_plan=FaultPlan.parse("task:1:error")
        )
        executor.map(traced_square, range(6))
        counters = obs.METRICS.counters()
        assert counters["executor.retries"] == 1
        assert "executor.timeouts" not in counters
        assert "executor.pool_restarts" not in counters

    def test_crash_counts_restart_and_recovery(self):
        executor = Executor(2, fault_plan=FaultPlan.parse("task:2:crash"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            executor.map(traced_square, range(8))
        counters = obs.METRICS.counters()
        assert counters["executor.pool_restarts"] == 1
        assert "executor.retries" not in counters  # crashes charge no budget
        assert counters["executor.tasks_recovered"] >= 1

    def test_hang_counts_timeout_and_retry(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
        executor = Executor(
            2,
            task_timeout=0.5,
            task_retries=1,
            fault_plan=FaultPlan.parse("task:0:hang"),
        )
        executor.map(traced_square, range(4))
        counters = obs.METRICS.counters()
        assert counters["executor.timeouts"] == 1
        assert counters["executor.retries"] == 1

    def test_serial_fallback_counts(self):
        executor = Executor(2, fault_plan=FaultPlan.parse("task:2:crash:10"))
        with pytest.warns(RuntimeWarning, match="serial"):
            executor.map(traced_square, range(5))
        counters = obs.METRICS.counters()
        assert counters["executor.serial_fallbacks"] == 1
        assert counters["executor.pool_restarts"] == MAX_POOL_RESTARTS
