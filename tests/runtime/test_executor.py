"""Executor determinism, ordering, fallback and job resolution."""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro.obs import live
from repro.runtime import faults
from repro.runtime.executor import (
    Executor,
    resolve_jobs,
    resolve_task_retries,
    resolve_task_timeout,
)


def square(state, task):
    return task * task


def with_state(state, task):
    return state + task


def make_state(base):
    return base


def failing(state, task):
    if task == 2:
        raise ValueError("task 2 exploded")
    return task


def attr_failing(state, task):
    raise AttributeError("genuine task bug")


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_bad_count(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_jobs(-1)

    def test_zero_means_all_cores(self, monkeypatch):
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == max(1, os.cpu_count() or 1)


@pytest.mark.parametrize(
    "name, resolve",
    [
        ("REPRO_JOBS", resolve_jobs),
        ("REPRO_TASK_TIMEOUT", resolve_task_timeout),
        ("REPRO_TASK_RETRIES", resolve_task_retries),
        ("REPRO_HEARTBEAT", live.resolve_heartbeat),
        ("REPRO_STALL_AFTER", live.resolve_stall_after),
        ("REPRO_FAULT_HANG_SECONDS", faults.hang_seconds),
    ],
)
def test_malformed_env_knob_names_its_variable(monkeypatch, name, resolve):
    monkeypatch.setenv(name, "abc")
    with pytest.raises(ValueError, match=f"{name} must be"):
        resolve()


class TestMap:
    def test_serial_order(self):
        assert Executor(1).map(square, range(5)) == [0, 1, 4, 9, 16]

    def test_parallel_order_matches_serial(self):
        tasks = list(range(17))
        assert Executor(2).map(square, tasks) == Executor(1).map(square, tasks)

    def test_state_factory_runs_per_worker(self):
        factory = partial(make_state, 10)
        assert Executor(2).map(with_state, [1, 2, 3], state_factory=factory) == [
            11,
            12,
            13,
        ]

    def test_empty_tasks(self):
        assert Executor(2).map(square, []) == []

    def test_single_task_stays_in_process(self):
        pid_before = os.getpid()

        def observe(state, task):
            return os.getpid()

        # One task short-circuits to the serial path (local function is
        # fine precisely because nothing is pickled).
        assert Executor(4).map(observe, [0]) == [pid_before]

    def test_task_error_propagates(self):
        with pytest.raises(ValueError, match="task 2 exploded"):
            Executor(2).map(failing, [1, 2, 3])

    def test_task_error_does_not_trigger_serial_fallback(self):
        # A bug inside fn must surface once — not emit the
        # pool-unavailable warning and re-run the whole task list.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="task 2 exploded"):
                Executor(2).map(failing, [1, 2, 3])

    def test_task_attribute_error_is_not_mistaken_for_infra(self):
        # AttributeError is in the infrastructure catch list (lambda
        # pickling); one raised *by a task* must still propagate as-is.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AttributeError, match="genuine task bug"):
                Executor(2).map(attr_failing, [1, 2])

    def test_unpicklable_fn_falls_back_to_serial(self):
        # A lambda cannot cross the process boundary; the executor must
        # degrade to the serial path (with a warning) rather than fail.
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = Executor(2).map(lambda state, t: t + 1, [1, 2, 3])
        assert result == [2, 3, 4]
