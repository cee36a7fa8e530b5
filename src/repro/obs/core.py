"""Tracer and Metrics: the process-local observability primitives.

Two singletons carry all runtime telemetry.  :data:`METRICS` is the
one place a runtime count is stored: :meth:`Metrics.inc` always counts
(one dict update), and the campaign's manifest totals, its status
ledger, traces and the Prometheus file all read their counts from it.
Its ``enabled`` flag only decides what is *reported* per entry: the
campaign manifest's per-entry ``metrics`` deltas and the heartbeat's
``counters``.  :data:`TRACER` is **disabled by default** and a no-op
in that state: a disabled ``span(...)`` returns a shared reusable null
context manager — no event objects, no clock reads, no allocation
beyond the call's own kwargs.  The invariant the whole subsystem is
tested against (DESIGN.md §11): **instrumentation may change how long
a run takes to describe, never what it computes** — every number and
artifact is bit-identical with telemetry on or off.

Enablement: ``REPRO_TRACE`` / ``REPRO_METRICS`` environment variables
(read at import and by every pool worker) or :func:`enable` for
programmatic switching (the campaign CLI's ``--trace``).
The environment is the cross-process channel: a forked or spawned
worker inherits it, so instrumentation in worker code lights up without
plumbing; the executor additionally forwards the parent's programmatic
state with each task (see :func:`begin_task_capture`).

Span model:

* ``with TRACER.span("detection_matrix", circuit="c7552"):`` records a
  *complete* span — name, monotonic start, duration, nesting depth and
  free-form attributes — when the block exits, including exits via an
  exception (the span is closed and tagged ``error=<type name>``).
* ``TRACER.instant("store.quarantine", path=...)`` records a point
  event — the structured replacement for silent ``RuntimeWarning``
  degradation paths.
* Timestamps are ``time.monotonic_ns()``: on Linux that clock is
  system-wide, so spans recorded in pool workers on the same box order
  correctly against the parent's.

Cross-process aggregation: a worker wraps each task in
:func:`begin_task_capture` / :func:`end_task_capture`, which swap in
fresh buffers and hand back a compact picklable snapshot (events +
counter deltas).  The parent merges snapshots with
:func:`merge_task_snapshot` under a stable ``task:<index>`` site — task
indices, unlike worker pids, are deterministic at any worker count, so
a merged trace is reproducible modulo timing fields.  Counters merge by
summation (commutative).
"""

from __future__ import annotations

import os
import time
from typing import Iterator, Mapping

__all__ = [
    "METRICS",
    "METRICS_ENV",
    "Metrics",
    "TRACER",
    "TRACE_ENV",
    "Tracer",
    "begin_task_capture",
    "end_task_capture",
    "enable",
    "enabled_state",
    "env_number",
    "merge_task_snapshot",
    "trace_enabled",
    "metrics_enabled",
]

#: Environment variables enabling tracing / metrics (1/true/yes/on).
TRACE_ENV = "REPRO_TRACE"
METRICS_ENV = "REPRO_METRICS"

#: Site label of events recorded in the current process (as opposed to
#: events merged in from worker task snapshots).
LOCAL_SITE = "main"


def _env_on(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


def env_number(name: str, value=None, kind: type = float):
    """``value`` unless it is ``None``, else the environment variable
    ``name`` read as ``kind`` (``int`` or ``float``), else ``None``.

    A malformed variable raises :class:`ValueError` naming it; each
    caller checks the range of what it gets.
    """
    if value is not None:
        return value
    env = os.environ.get(name, "").strip()
    if not env:
        return None
    try:
        return kind(env)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {env!r}") from exc


# ---------------------------------------------------------------------- metrics
class Metrics:
    """A counter registry, process-local.

    Counters are monotonically increasing ints or floats (:meth:`inc`).
    Names are dotted strings (``"store.hits.separation"``); there is no
    label system — encode dimensions in the name, which keeps a bump to
    one dict update and the snapshot format to one flat dict.
    ``enabled`` is the reporting flag (see the module docstring); it
    does not gate counting.
    """

    __slots__ = ("enabled", "_counters")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._counters: dict[str, int | float] = {}

    def inc(self, name: str, value: int | float = 1) -> None:
        """Bump counter ``name``."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + value

    def counters(self, prefix: str = "") -> dict[str, int | float]:
        """A copy of the counters, optionally filtered by name prefix."""
        if not prefix:
            return dict(self._counters)
        return {k: v for k, v in self._counters.items() if k.startswith(prefix)}

    def mark(self) -> dict[str, int | float]:
        """An opaque mark for :meth:`delta_since` (a counter snapshot)."""
        return dict(self._counters)

    def delta_since(self, mark: Mapping[str, int | float]) -> dict[str, int | float]:
        """Counter increments since ``mark``, dropping zero deltas."""
        out: dict[str, int | float] = {}
        for name, value in self._counters.items():
            delta = value - mark.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def merge(self, counters: Mapping[str, int | float]) -> None:
        """Fold another registry's counters in by summation."""
        own = self._counters
        for name, value in counters.items():
            own[name] = own.get(name, 0) + value

    def reset(self) -> None:
        self._counters.clear()


# ----------------------------------------------------------------------- tracer
class _NullSpan:
    """The shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Attribute setter no-op (mirrors :meth:`_Span.set`)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself on exit (normal or exceptional)."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (cache hit, counts)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._depth = tracer._depth
        tracer._depth = self._depth + 1
        tracer._stack.append(self.name)
        self._start = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.monotonic_ns()
        tracer = self._tracer
        tracer._depth = self._depth
        if tracer._stack:  # guarded: a reset() inside the span clears it
            tracer._stack.pop()
        if exc_type is not None:
            # The span closes even when the block raises — tagged, so
            # the trace shows where the exception unwound through.
            self.attrs["error"] = exc_type.__name__
        tracer._events.append(
            ("span", self.name, self._start, end - self._start,
             self._depth, LOCAL_SITE, self.attrs or None)
        )
        return False


class Tracer:
    """Span/instant recorder (see module docstring).

    Events are compact tuples
    ``(kind, name, ts_ns, dur_ns, depth, site, attrs)`` — ``kind`` is
    ``"span"`` or ``"instant"`` (``dur_ns`` 0), ``site`` is
    :data:`LOCAL_SITE` for events recorded here and ``task:<index>``
    for events merged from worker snapshots.
    """

    __slots__ = ("enabled", "_events", "_depth", "_stack")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._events: list[tuple] = []
        self._depth = 0
        self._stack: list[str] = []

    def span(self, name: str, **attrs):
        """A context manager timing the enclosed block.

        Returns the shared null span while disabled — callers never
        branch on the enabled flag themselves.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Record a point event (no-op when disabled)."""
        if not self.enabled:
            return
        self._events.append(
            ("instant", name, time.monotonic_ns(), 0, self._depth,
             LOCAL_SITE, attrs or None)
        )

    def events(self) -> list[tuple]:
        """A snapshot copy of the recorded events, in record order."""
        return list(self._events)

    def open_spans(self) -> list[str]:
        """Names of the currently open (unclosed) spans, outermost
        first.  This is the live view the heartbeat channel
        (:mod:`repro.obs.live`) samples from its writer thread: reading
        a list snapshot is GIL-atomic, so no locking is needed, and a
        beat taken mid-``__enter__``/``__exit__`` merely sees the stack
        a moment earlier or later."""
        return list(self._stack)

    def spans(self, name: str | None = None) -> Iterator[tuple]:
        for event in self._events:
            if event[0] == "span" and (name is None or event[1] == name):
                yield event

    def merge(self, events: list[tuple], site: str) -> None:
        """Fold worker events in, re-attributed to ``site`` (their own
        local-site label must not collide with the parent's)."""
        self._events.extend(
            (kind, name, ts, dur, depth,
             site if evsite == LOCAL_SITE else evsite, attrs)
            for kind, name, ts, dur, depth, evsite, attrs in events
        )

    def reset(self) -> None:
        self._events.clear()
        self._depth = 0
        self._stack.clear()


#: The process-wide singletons all instrumentation talks to.
TRACER = Tracer(enabled=_env_on(TRACE_ENV))
METRICS = Metrics(enabled=_env_on(METRICS_ENV))


def trace_enabled() -> bool:
    return TRACER.enabled


def metrics_enabled() -> bool:
    return METRICS.enabled


def enable(trace: bool | None = None, metrics: bool | None = None) -> None:
    """Programmatically flip the singletons (``None`` leaves a flag
    untouched).  Used by the campaign CLI and tests; prefer the
    environment variables for anything that spawns workers, so the
    setting crosses the process boundary by inheritance."""
    if trace is not None:
        TRACER.enabled = trace
    if metrics is not None:
        METRICS.enabled = metrics


def enabled_state() -> tuple[bool, bool]:
    """The ``(trace, metrics)`` flags, e.g. to forward with a task."""
    return TRACER.enabled, METRICS.enabled


# ------------------------------------------------------- cross-process capture
def begin_task_capture(trace: bool, metrics: bool) -> tuple:
    """Start capturing telemetry for one task in a pool worker.

    Swaps fresh buffers into the singletons (so the snapshot contains
    exactly this task's events/counters, not residue from earlier tasks
    on the same worker) and applies the parent's enablement — the
    parent may have been enabled programmatically, which fork/spawn
    environment inheritance alone would miss.  Returns an opaque token
    for :func:`end_task_capture`.  Workers run tasks sequentially, so
    the buffer swap needs no locking.
    """
    saved = (
        TRACER.enabled, TRACER._events, TRACER._depth, TRACER._stack,
        METRICS.enabled, METRICS._counters,
    )
    TRACER.enabled = trace
    TRACER._events = []
    TRACER._depth = 0
    TRACER._stack = []
    METRICS.enabled = metrics
    METRICS._counters = {}
    return saved


def end_task_capture(token: tuple) -> dict | None:
    """Finish a task capture; returns the picklable snapshot (or
    ``None`` when nothing was recorded) and restores the pre-capture
    buffers."""
    events = TRACER._events
    counters = METRICS._counters
    (TRACER.enabled, TRACER._events, TRACER._depth, TRACER._stack,
     METRICS.enabled, METRICS._counters) = token
    if not events and not counters:
        return None
    return {"events": events, "counters": counters}


def merge_task_snapshot(snapshot: Mapping | None, task_index: int) -> None:
    """Fold one worker task snapshot into the parent singletons under
    the stable site label ``task:<index>``.

    Only snapshots of *successful* attempts are merged (the executor
    discards failed-attempt captures), so the merged telemetry is a
    deterministic function of the task list at any worker count:
    exactly one snapshot per task, folded in gather order.
    """
    if not snapshot:
        return
    events = snapshot.get("events")
    if events:
        TRACER.merge(events, f"task:{task_index}")
    counters = snapshot.get("counters")
    if counters:
        METRICS.merge(counters)
