"""The deterministic, fault-tolerant shard/submit/gather process pool.

One small abstraction carries every parallel workload in the tree:
sharded stuck-at detection-matrix builds, defect-parallel IDDQ ATPG and
multi-seed optimiser fan-outs all go through :meth:`Executor.map`.

Determinism rules (the contract every consumer is tested against):

1. **Pure tasks.**  ``fn(state, task)`` must be a deterministic function
   of the worker state (as built by ``state_factory``) and the task —
   no dependence on wall clock, worker identity or sibling tasks.
   Purity is also what makes recovery free: a re-dispatched task
   returns the same value, so failure handling cannot change results.
2. **Ordered gather.**  Results come back in *task order*, regardless
   of which worker finished first — and regardless of how many retry
   or recovery rounds it took to fill each slot — so any
   order-sensitive reduction (matrix concatenation, best-of tie-breaks)
   sees the serial order.
3. **Serial fallback is the reference.**  With ``jobs <= 1`` the exact
   same ``fn``/``state_factory`` run in-process; the parallel path must
   produce identical results at any failure point, which is what the
   equivalence and fault-injection suites pin.

Failure model (DESIGN.md §10):

* **Task exceptions** ship back as *values* carrying a pickle-safe
  ``(type, message, traceback)`` triple — a non-picklable exception
  cannot poison the result queue — and are retried up to
  ``task_retries`` times (default 0: a bug in ``fn`` surfaces once)
  with deterministic exponential backoff (``retry_backoff * 2^attempt``,
  no jitter).
* **Worker death** (``BrokenProcessPool``) keeps every completed
  result; only unfinished tasks are re-dispatched on a fresh pool.
  After :data:`MAX_POOL_RESTARTS` failed pools the survivors run on
  the in-process serial path.  Pool-level recovery does not consume
  per-task retry budget (the culprit is unknowable).
* **Hangs**: with ``task_timeout`` set, a task past its deadline raises
  :class:`~repro.errors.TaskTimeoutError` (or is re-dispatched while
  retry budget remains); the stalled pool is torn down and its worker
  processes terminated so a hung task cannot stall the gather forever.
* **Stalls** (DESIGN.md §12): before the hard deadline tears anything
  down, a *soft* threshold (``stall_after`` argument >
  ``REPRO_STALL_AFTER`` > half the hard deadline > off) grades the
  binary alive/killed signal: a task the gather has waited on past the
  threshold emits one ``executor.stall`` instant and bumps
  ``ExecutorStats.stalls``, enriched with the culprit worker's last
  heartbeat (pid, RSS high-water, open span stack) when the heartbeat
  channel is on.  Stall detection is pure observation — the wait
  continues unchanged toward the deadline or the result.

Live health (DESIGN.md §12): with ``REPRO_HEARTBEAT=<seconds>`` set,
every worker (and the serial path) runs a daemon thread appending
crash-safe JSONL records — current task, open spans, RSS, CPU — to
``hb-<pid>.jsonl`` under ``REPRO_HEARTBEAT_DIR`` (the parent creates
and exports a default so forked workers inherit it).  The channel is
write-only side traffic: results, ordering and bit-identity are
untouched, which the heartbeat determinism suite pins.
* **Pool-infrastructure failures** (a sandbox that forbids ``fork``,
  unpicklable ``fn``/state under spawn) degrade to the serial path with
  a warning — but only genuinely infrastructural errors take that exit:
  exceptions raised *inside* a task can never be mistaken for them,
  because the narrow catches sit where task exceptions cannot appear.

Worker count resolution: explicit argument > ``REPRO_JOBS`` environment
variable > serial (1); the value ``0`` means "all cores"
(``os.cpu_count()``).  ``task_timeout``/``task_retries``/``retry_backoff``
resolve the same way via ``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``
/ ``REPRO_RETRY_BACKOFF``.  The pool start method is the platform
default (fork on Linux — worker state passed through the initializer is
then inherited without pickling).  Deterministic fault injection for
all of the above lives in :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from dataclasses import asdict, dataclass

from repro import obs
from repro.errors import TaskError, TaskTimeoutError
from repro.obs import live
from repro.runtime.faults import FaultPlan, inject_task_fault

__all__ = [
    "Executor",
    "ExecutorStats",
    "executor_stats_snapshot",
    "resolve_jobs",
    "resolve_task_retries",
    "resolve_task_timeout",
]

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variables supplying the default failure-handling knobs.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

#: Pool restarts per :meth:`Executor.map` before the survivors run
#: serially (bounds recovery under a persistently crashing pool).
MAX_POOL_RESTARTS = 2

T = TypeVar("T")
R = TypeVar("R")

#: Per-worker state, built once by the initializer.
_WORKER_STATE = None

#: True inside pool workers — gates crash/hang fault injection so the
#: in-process serial reference can never be killed or stalled.
_IN_WORKER = False

#: Sentinel for a result slot not yet filled.
_PENDING = object()


@dataclass
class ExecutorStats:
    """Public recovery bookkeeping, cumulative across :meth:`Executor.map`
    calls on one executor.

    Every count was previously computed and discarded inside the gather
    loop; surfacing it makes recovery behaviour assertable by tests and
    visible to operators.  The same counts are mirrored into the
    :data:`repro.obs.METRICS` registry (``executor.*``) when metrics are
    enabled — this dataclass is the always-on, executor-local view.

    Attributes:
        retries: task re-dispatches charged to the per-task retry budget
            (transient exceptions and timeouts with budget remaining).
        timeouts: tasks that ran past ``task_timeout`` (whether or not
            budget remained to retry them).
        pool_restarts: fresh pools built after a worker death or a
            deadline teardown.
        serial_fallbacks: times a ``map`` degraded to the in-process
            serial path (pool infrastructure failure or restart budget
            exhausted).
        tasks_recovered: completed-or-failed task slots stranded by a
            broken pool and re-dispatched on a later pool (no retry
            budget charged — the culprit is unknowable).
        stalls: tasks the gather waited on past the *soft* ``stall_after``
            threshold — the graded early-warning tier below ``timeouts``
            (a stalled task may still finish, time out, or both).
    """

    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    serial_fallbacks: int = 0
    tasks_recovered: int = 0
    stalls: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


#: Process-wide accumulation across every :class:`Executor` instance.
#: The campaign aggregates this into its manifest ``totals`` — the
#: stage drivers build executors internally, so without a global view
#: their recovery counts would be discarded with the executor objects.
_GLOBAL_STATS = ExecutorStats()


def executor_stats_snapshot() -> dict:
    """A copy of the process-wide cumulative :class:`ExecutorStats`
    counts (take one before and after a region and subtract to get the
    region's recovery profile)."""
    return _GLOBAL_STATS.as_dict()


class _TaskResult:
    """A successful task value plus its telemetry snapshot.

    Only built in workers when the parent asked for capture; the parent
    unwraps it during the gather, merges the snapshot under the task's
    stable site and hands callers the bare value — consumers of
    :meth:`Executor.map` never see the carrier.
    """

    __slots__ = ("value", "snapshot")

    def __init__(self, value, snapshot):
        self.value = value
        self.snapshot = snapshot


class _TaskError:
    """A task-raised exception, shipped back as a *value*.

    Wrapping keeps genuine task failures distinguishable from
    pool-infrastructure errors, and the payload is always picklable:
    the original exception rides along only if it survives a pickle
    round-trip, otherwise the ``(type name, message, traceback)``
    triple stands in — so a non-picklable exception degrades to a
    readable report instead of poisoning the result queue.
    """

    def __init__(self, exception: BaseException):
        self.type_name = type(exception).__name__
        self.message = str(exception)
        self.traceback = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exception))
        except Exception:  # noqa: BLE001 - any pickling failure degrades
            self.exception = None
        else:
            self.exception = exception

    def reraise(self) -> None:
        if self.exception is not None:
            raise self.exception
        raise TaskError(
            f"task raised {self.type_name}: {self.message}\n"
            f"(original exception is not picklable; worker traceback follows)\n"
            f"{self.traceback}"
        )


class _PoolUnavailable(Exception):
    """Internal: the pool infrastructure (not any task) is unusable."""

    def __init__(self, cause: BaseException):
        super().__init__(str(cause))
        self.cause = cause


def _init_worker(state_factory) -> None:
    global _WORKER_STATE, _IN_WORKER
    _IN_WORKER = True
    _WORKER_STATE = state_factory() if state_factory is not None else None


def _invoke(fn, task, index, attempt, plan_spec, obs_spec):
    """Run one task in a worker; ``obs_spec`` is the parent's
    ``(trace, metrics)`` enablement, forwarded with the task so
    programmatic enabling reaches workers that did not inherit an
    environment flag.  On success the captured telemetry rides back
    with the value; a failed attempt's capture is discarded, keeping
    the merged telemetry a deterministic one-snapshot-per-task set.
    """
    token = obs.begin_task_capture(*obs_spec) if obs_spec else None
    live.note_task(index, attempt)
    started = time.perf_counter()
    try:
        with obs.TRACER.span(
            "executor.task", index=index, attempt=attempt, pid=os.getpid()
        ):
            if plan_spec:
                inject_task_fault(
                    FaultPlan.parse(plan_spec), index, attempt, _IN_WORKER
                )
            value = fn(_WORKER_STATE, task)
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        live.clear_task()
        if token is not None:
            obs.end_task_capture(token)
        return _TaskError(exc)
    live.clear_task()
    if token is None:
        return value
    obs.METRICS.inc("executor.task_seconds", time.perf_counter() - started)
    obs.METRICS.inc("executor.tasks")
    return _TaskResult(value, obs.end_task_capture(token))


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > 1 (serial).

    From either source, ``0`` means "all cores" (``os.cpu_count()``) so
    campaign scripts can say ``REPRO_JOBS=0`` portably; negative counts
    are rejected.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}"
                ) from exc
    if jobs is None:
        return 1
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def resolve_task_timeout(timeout: float | None = None) -> float | None:
    """Per-task deadline in seconds: argument > ``REPRO_TASK_TIMEOUT`` >
    ``None`` (no deadline)."""
    if timeout is None:
        env = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
        if env:
            try:
                timeout = float(env)
            except ValueError as exc:
                raise ValueError(
                    f"{TASK_TIMEOUT_ENV} must be a number, got {env!r}"
                ) from exc
    if timeout is not None and timeout <= 0:
        raise ValueError(f"task timeout must be > 0 seconds, got {timeout}")
    return timeout


def resolve_task_retries(retries: int | None = None) -> int:
    """Per-task retry budget: argument > ``REPRO_TASK_RETRIES`` > 0."""
    if retries is None:
        env = os.environ.get(TASK_RETRIES_ENV, "").strip()
        if env:
            try:
                retries = int(env)
            except ValueError as exc:
                raise ValueError(
                    f"{TASK_RETRIES_ENV} must be an integer, got {env!r}"
                ) from exc
    if retries is None:
        return 0
    if retries < 0:
        raise ValueError(f"task retries must be >= 0, got {retries}")
    return retries


def _resolve_retry_backoff(backoff: float | None = None) -> float:
    """Backoff base in seconds: argument > ``REPRO_RETRY_BACKOFF`` > 0."""
    if backoff is None:
        env = os.environ.get(RETRY_BACKOFF_ENV, "").strip()
        backoff = float(env) if env else 0.0
    if backoff < 0:
        raise ValueError(f"retry backoff must be >= 0, got {backoff}")
    return backoff


def _terminate_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Kill a stalled/broken pool's workers so a hung task cannot block
    interpreter exit (best-effort; touches executor internals)."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass
    for process in processes:
        process.join(timeout=5.0)


class Executor:
    """Shard/submit/gather over a process pool (see module docstring)."""

    def __init__(
        self,
        jobs: int | None = None,
        *,
        task_timeout: float | None = None,
        task_retries: int | None = None,
        retry_backoff: float | None = None,
        stall_after: float | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.task_timeout = resolve_task_timeout(task_timeout)
        self.task_retries = resolve_task_retries(task_retries)
        self.retry_backoff = _resolve_retry_backoff(retry_backoff)
        self.stall_after = live.resolve_stall_after(stall_after, self.task_timeout)
        self.heartbeat = live.resolve_heartbeat()
        self.heartbeat_dir: str | None = None
        if self.heartbeat > 0:
            # Pin the run directory now and export it: forked/spawned
            # workers inherit the environment, so every hb-<pid>.jsonl
            # of this run lands in one place the stall detector (and
            # any external watcher) can read.
            directory = os.environ.get(live.HEARTBEAT_DIR_ENV, "").strip()
            if not directory:
                directory = tempfile.mkdtemp(prefix="repro-hb-")
                os.environ[live.HEARTBEAT_DIR_ENV] = directory
            self.heartbeat_dir = directory
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self.stats = ExecutorStats()

    @property
    def serial(self) -> bool:
        return self.jobs <= 1

    def map(
        self,
        fn: Callable[[object, T], R],
        tasks: Iterable[T],
        state_factory: Callable[[], object] | None = None,
        on_result: Callable[[int, R], None] | None = None,
    ) -> list[R]:
        """Run ``fn(state, task)`` for every task; results in task order.

        ``fn`` and ``state_factory`` must be module-level callables (or
        ``functools.partial`` of one) so they survive pickling; the
        state factory runs once per worker.  Serial mode builds the
        state once in-process and loops.  Failure semantics are the
        module-docstring contract: completed results survive worker
        death, task exceptions retry up to ``task_retries``, hangs past
        ``task_timeout`` raise :class:`~repro.errors.TaskTimeoutError`.
        ``on_result(index, value)`` (internal: the campaign's progress
        ledger) runs in the parent once per task, as soon as the gather
        holds that task's final value.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        results: list = [_PENDING] * len(tasks)

        def deliver(index: int, value) -> None:
            if results[index] is _PENDING and on_result is not None:
                on_result(index, value)
            results[index] = value

        with obs.TRACER.span(
            "executor.map", tasks=len(tasks), jobs=self.jobs
        ) as span:
            if self.serial or len(tasks) == 1:
                span.set(mode="serial")
                self._run_serial(
                    fn, tasks, state_factory, range(len(tasks)), deliver
                )
                return results
            try:
                pickle.dumps((fn, state_factory))
            except Exception as exc:  # noqa: BLE001 - anything unpicklable
                # fn/state can't cross the process boundary at all: nothing
                # was dispatched, so the serial run is the first execution.
                self._warn_fallback(exc)
                self._run_serial(
                    fn, tasks, state_factory, range(len(tasks)), deliver
                )
                return results
            self._run_parallel(fn, tasks, state_factory, deliver)
            return results

    # ---------------------------------------------------------------- internal
    def _record(self, field: str, count: int = 1) -> None:
        """Bump one recovery counter in all three views at once: this
        executor's :class:`ExecutorStats`, the process-wide accumulator
        (what :func:`executor_stats_snapshot` reports) and the metrics
        registry (``executor.<field>``)."""
        setattr(self.stats, field, getattr(self.stats, field) + count)
        setattr(_GLOBAL_STATS, field, getattr(_GLOBAL_STATS, field) + count)
        obs.METRICS.inc(f"executor.{field}", count)

    def _warn_fallback(self, cause: BaseException) -> None:
        self._record("serial_fallbacks")
        obs.TRACER.instant(
            "executor.serial_fallback",
            cause=f"{type(cause).__name__}: {cause}",
        )
        warnings.warn(
            f"process pool unavailable ({type(cause).__name__}: {cause}); "
            "falling back to the serial executor",
            RuntimeWarning,
            stacklevel=3,
        )

    def _backoff(self, attempt: int) -> None:
        """Deterministic exponential backoff before a retry round."""
        delay = self.retry_backoff * (2 ** max(0, attempt - 1))
        if delay > 0:
            time.sleep(delay)

    def _run_serial(self, fn, tasks, state_factory, indices, deliver) -> None:
        """Run ``indices`` in order, in-process, delivering each value.

        Applies the same transient-error retry budget as the parallel
        path (``error``-kind injected faults fire here too, so retry
        logic is testable without a pool); crash/hang injection never
        fires in-process.  A map nested inside a pool task (a campaign
        circuit task's stage drivers) fires no task faults and leaves
        the heartbeat naming that pool task: ``task:<i>`` addresses the
        tasks the parent dispatched.
        """
        state = state_factory() if state_factory is not None else None
        outer = not _IN_WORKER
        plan = self.fault_plan if outer else None
        for i in indices:
            attempt = 0
            while True:
                if outer:
                    live.note_task(i, attempt)
                try:
                    with obs.TRACER.span("executor.task", index=i,
                                         attempt=attempt):
                        if plan:
                            inject_task_fault(plan, i, attempt, in_worker=False)
                        value = fn(state, tasks[i])
                    break
                except Exception:
                    if attempt >= self.task_retries:
                        if outer:
                            live.clear_task()
                        raise
                    attempt += 1
                    self._record("retries")
                    obs.TRACER.instant("executor.retry", task=i, attempt=attempt)
                    self._backoff(attempt)
            if outer:
                live.clear_task()
            deliver(i, value)

    def _run_parallel(self, fn, tasks, state_factory, deliver) -> None:
        attempts = [0] * len(tasks)
        pending = list(range(len(tasks)))
        restarts = 0
        stranded: set[int] = set()
        while pending:
            try:
                (completed, failed, timed_out, unfinished, broken,
                 snapshots) = self._run_round(
                    fn, tasks, state_factory, pending, attempts, deliver
                )
            except _PoolUnavailable as infra:
                # Fork forbidden / unpicklable payload: completed
                # earlier-round results are kept.
                self._warn_fallback(infra.cause)
                self._run_serial(fn, tasks, state_factory, pending, deliver)
                return
            for i in completed:
                if i in stranded:
                    self._record("tasks_recovered")
            # Merge successful-attempt snapshots in task order: exactly
            # one per task ever merges, so the aggregated telemetry is
            # deterministic at any worker count or failure pattern.
            for i in sorted(snapshots):
                obs.merge_task_snapshot(snapshots[i], i)
            next_pending: list[int] = []
            retried = 0
            for i, error in failed.items():
                attempts[i] += 1
                if attempts[i] > self.task_retries:
                    error.reraise()
                self._record("retries")
                obs.TRACER.instant("executor.retry", task=i, attempt=attempts[i])
                retried = max(retried, attempts[i])
                next_pending.append(i)
            if timed_out is not None:
                attempts[timed_out] += 1
                self._record("timeouts")
                obs.TRACER.instant("executor.timeout", task=timed_out,
                                   attempt=attempts[timed_out])
                if attempts[timed_out] > self.task_retries:
                    raise TaskTimeoutError(
                        f"task {timed_out} exceeded the {self.task_timeout}s "
                        f"deadline on attempt {attempts[timed_out]}"
                    )
                self._record("retries")
                retried = max(retried, attempts[timed_out])
                next_pending.append(timed_out)
            for i in unfinished:
                # Advance the attempt (per-attempt fault injection must
                # see progress) but charge no retry budget: the worker
                # death that stranded these tasks names no culprit.
                attempts[i] += 1
                stranded.add(i)
                next_pending.append(i)
            if broken or timed_out is not None:
                restarts += 1
                if restarts > MAX_POOL_RESTARTS:
                    self._warn_fallback(
                        RuntimeError(
                            f"process pool failed {restarts} times; running "
                            f"{len(next_pending)} remaining task(s) serially"
                        )
                    )
                    self._run_serial(
                        fn, tasks, state_factory, sorted(next_pending), deliver
                    )
                    recovered = len(stranded.intersection(next_pending))
                    self._record("tasks_recovered", recovered)
                    return
                self._record("pool_restarts")
                obs.TRACER.instant(
                    "executor.pool_restart",
                    round=restarts,
                    pending=len(next_pending),
                    broken=broken,
                )
            if retried:
                self._backoff(retried)
            pending = sorted(next_pending)

    def _await_result(self, future, index: int):
        """``future.result`` with the soft stall tier layered under the
        hard deadline.

        The wait is sliced so that crossing ``stall_after`` (measured
        from when the gather starts waiting on this future — the same
        clock the hard deadline uses) can emit one ``executor.stall``
        instant, then the wait resumes unchanged: same timeout
        semantics, same :class:`FuturesTimeout` at the deadline, same
        result otherwise.  With neither threshold set this is a plain
        blocking ``result()``.
        """
        stall_after = self.stall_after
        deadline = self.task_timeout
        if stall_after is None and deadline is None:
            return future.result()
        start = time.monotonic()
        stalled = stall_after is None  # nothing to fire when soft tier off
        while True:
            waited = time.monotonic() - start
            if deadline is not None and waited >= deadline:
                raise FuturesTimeout()
            slices = []
            if deadline is not None:
                slices.append(deadline - waited)
            if not stalled:
                slices.append(max(stall_after - waited, 0.0))
            try:
                return future.result(timeout=min(slices) if slices else None)
            except FuturesTimeout:
                if not stalled and time.monotonic() - start >= stall_after:
                    stalled = True
                    self._note_stall(index, time.monotonic() - start)
                # Loop re-checks the hard deadline; if only the soft
                # slice expired the wait simply continues.

    def _note_stall(self, index: int, waited: float) -> None:
        """Grade a long wait: bump ``stalls`` and emit one
        ``executor.stall`` instant, enriched with the culprit worker's
        freshest heartbeat (pid / RSS high-water / open spans) when the
        heartbeat channel is on.  Observation only — the caller's wait
        is not shortened, lengthened or resolved by this."""
        self._record("stalls")
        attrs: dict = {
            "task": index,
            "waited": round(waited, 3),
            "stall_after": self.stall_after,
        }
        if self.heartbeat_dir:
            beat = live.task_heartbeat(self.heartbeat_dir, index)
            if beat is not None:
                attrs["pid"] = beat.get("pid")
                attrs["rss_kb"] = beat.get("rss_kb")
                spans = beat.get("spans")
                if spans:
                    attrs["spans"] = ">".join(spans)
        obs.TRACER.instant("executor.stall", **attrs)

    def _run_round(self, fn, tasks, state_factory, indices, attempts, deliver):
        """One pool lifetime: submit ``indices``, gather what finishes,
        delivering each value the moment it is gathered.

        Returns ``(completed, failed, timed_out, unfinished, broken,
        snapshots)``: the delivered indices, task-raised
        :class:`_TaskError` by index, the index of the first task past
        its deadline (or ``None``), the indices whose fate is unknown
        (worker died / round abandoned), whether the pool broke, and
        the telemetry snapshots of the completed tasks by index.  Raises
        :class:`_PoolUnavailable` only for errors no task can produce
        (fork failure, payload pickling) — a bug inside ``fn`` can
        never take that exit.  Any exception leaving the gather (a
        task's ``InjectedKill``, a ``KeyboardInterrupt``) terminates
        the pool's workers first.
        """
        workers = min(self.jobs, len(indices))
        plan_spec = self.fault_plan.spec if self.fault_plan else ""
        obs_spec = obs.enabled_state() if any(obs.enabled_state()) else None
        completed: set[int] = set()
        failed: dict[int, _TaskError] = {}
        snapshots: dict[int, dict | None] = {}
        unfinished: list[int] = []
        timed_out: int | None = None
        broken = False

        def harvest(i: int, value) -> None:
            if isinstance(value, _TaskError):
                failed[i] = value
                return
            if isinstance(value, _TaskResult):
                snapshots[i] = value.snapshot
                value = value.value
            completed.add(i)
            deliver(i, value)

        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(state_factory,),
            )
        except OSError as exc:
            raise _PoolUnavailable(exc) from exc
        try:
            try:
                futures = {
                    i: pool.submit(
                        _invoke, fn, tasks[i], i, attempts[i], plan_spec, obs_spec
                    )
                    for i in indices
                }
            except (OSError, RuntimeError) as exc:
                # Worker spawn failed (sandboxed fork) — no task ran.
                raise _PoolUnavailable(exc) from exc
            for i in indices:
                future = futures[i]
                if broken or timed_out is not None:
                    # Round already abandoned: harvest without waiting.
                    if future.done():
                        try:
                            value = future.result(timeout=0)
                        except Exception:  # noqa: BLE001 - infra error
                            unfinished.append(i)
                            continue
                        harvest(i, value)
                    else:
                        unfinished.append(i)
                    continue
                try:
                    value = self._await_result(future, i)
                except FuturesTimeout:
                    timed_out = i
                except BrokenProcessPool:
                    broken = True
                    unfinished.append(i)
                except (pickle.PicklingError, AttributeError, TypeError) as exc:
                    # Only submission/result *pickling* errors surface as
                    # future exceptions — fn's own exceptions come back
                    # as _TaskError values — so this cannot shadow a
                    # genuine task bug.
                    raise _PoolUnavailable(exc) from exc
                else:
                    harvest(i, value)
        except BaseException:
            broken = True  # terminate below: no worker outlives the raise
            raise
        finally:
            # Before shutdown, which drops the pool's process table.
            if broken or timed_out is not None:
                _terminate_pool_processes(pool)
            pool.shutdown(wait=False, cancel_futures=True)
        return completed, failed, timed_out, unfinished, broken, snapshots
