"""Runtime telemetry: spans, counters and cross-process aggregation.

The unified observability subsystem (DESIGN.md §11).  Everything in
``src/`` reports through the two process-local singletons here:

>>> from repro.obs import METRICS, TRACER
>>> with TRACER.span("detection_matrix", circuit="c7552"):
...     METRICS.inc("backend.full_pass")

``METRICS`` always counts and is the one store of every runtime count;
``REPRO_METRICS=1`` (or :func:`enable`) only adds per-entry counter
deltas to campaign manifests and counters to heartbeats.  Tracing is
off by default and near-zero-cost in that state; enable it with
``REPRO_TRACE=1`` (the environment crosses the worker boundary),
:func:`enable`, or the campaign CLI's ``--trace``.  Workers in
:meth:`repro.runtime.executor.Executor.map` capture their
spans/counters per task and ship a compact snapshot back piggybacked on
the task result; the parent merges them under stable ``task:<index>``
sites.  Export with :func:`export_chrome_trace` (Perfetto /
``chrome://tracing``) or :func:`export_prometheus`; summarize a trace
file with ``python -m repro.experiments trace-report``.

The subsystem-wide invariant: instrumentation may change how long a run
takes to describe, **never what it computes** — the equivalence suites
run bit-identical with telemetry on.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "core": (
            "METRICS",
            "METRICS_ENV",
            "TRACE_ENV",
            "TRACER",
            "Metrics",
            "Tracer",
            "begin_task_capture",
            "enable",
            "enabled_state",
            "end_task_capture",
            "merge_task_snapshot",
            "metrics_enabled",
            "trace_enabled",
        ),
        "live": (
            "live",
            "HeartbeatWriter",
            "ProgressLedger",
            "read_heartbeats",
            "render_status",
            "resolve_heartbeat",
            "resolve_stall_after",
            "task_heartbeat",
            "write_status",
        ),
        "report": ("load_trace_events", "render_trace_report", "summarize_trace"),
        "sinks": (
            "chrome_trace_dict",
            "export_chrome_trace",
            "export_prometheus",
            "prometheus_text",
        ),
    },
)
