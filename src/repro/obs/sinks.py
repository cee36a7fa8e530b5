"""Structured sinks: Chrome trace-event export and a Prometheus
textfile exporter.

Two on-disk formats for one in-memory registry:

* :func:`export_chrome_trace` — the Chrome trace-event JSON format
  (``chrome://tracing`` / Perfetto): spans as ``"ph": "X"`` complete
  events, instants as ``"ph": "i"`` (among them the structured records
  of the degradation paths: store write failures, quarantines, campaign
  stage failures), one process with one named thread per *site*
  (``main`` plus ``task:<n>`` for worker-attributed events), so a
  campaign's sharded stages render as parallel swimlanes.  Counters
  ride in ``otherData`` (ignored by viewers, kept for ``trace-report``).
* :func:`export_prometheus` — the Prometheus text exposition format for
  the node-exporter *textfile collector*: the same counters the Chrome
  trace serializes, rendered as ``repro_<name>_total`` counter samples,
  written by atomic rename as the collector contract requires, so a
  scraper reads a campaign's counts without a trace file round-trip.

Timestamps are rebased to the earliest event so traces start near zero;
Chrome wants microseconds (floats are allowed — nanosecond precision
survives as fractions).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

from repro.obs.core import METRICS, TRACER, Metrics, Tracer

__all__ = [
    "chrome_trace_dict",
    "export_chrome_trace",
    "export_prometheus",
    "prometheus_text",
]


def _rebase(events: list[tuple]) -> int:
    return min((e[2] for e in events), default=0)


def _site_tids(events: list[tuple]) -> dict[str, int]:
    """Stable site -> tid mapping: ``main`` is tid 0, task sites follow
    in numeric order, anything else alphabetically after."""
    sites = {site for _, _, _, _, _, site, _ in events}
    sites.discard("main")

    def order(site: str):
        if site.startswith("task:"):
            suffix = site.split(":", 1)[1]
            if suffix.isdigit():
                return (0, int(suffix), site)
        return (1, 0, site)

    tids = {"main": 0}
    for n, site in enumerate(sorted(sites, key=order), start=1):
        tids[site] = n
    return tids


def chrome_trace_dict(
    tracer: Tracer | None = None, metrics: Metrics | None = None
) -> dict:
    """The Chrome trace-event document as a dict (see module docstring)."""
    tracer = tracer if tracer is not None else TRACER
    metrics = metrics if metrics is not None else METRICS
    events = tracer.events()
    base = _rebase(events)
    tids = _site_tids(events)
    trace_events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "repro"}},
    ]
    for site, tid in sorted(tids.items(), key=lambda item: item[1]):
        trace_events.append(
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": site}}
        )
    for kind, name, ts, dur, depth, site, attrs in events:
        record: dict = {
            "name": name,
            "cat": "repro",
            "pid": 1,
            "tid": tids[site],
            "ts": (ts - base) / 1000.0,
        }
        if kind == "span":
            record["ph"] = "X"
            record["dur"] = dur / 1000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"
        if attrs:
            record["args"] = {k: str(v) for k, v in attrs.items()}
        trace_events.append(record)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"counters": metrics.counters()},
    }


def export_chrome_trace(
    path: str | Path,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace_dict(tracer, metrics)
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------- prometheus
#: Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; we map every
#: other character of a dotted counter name to "_".
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    sanitized = _PROM_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prom_value(value) -> str:
    if isinstance(value, bool):  # bool is an int subclass — be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(
    metrics: Metrics | None = None, prefix: str = "repro_"
) -> str:
    """The registry as Prometheus text exposition format.

    Counters get the conventional ``_total`` suffix; one ``# TYPE``
    line per sample family.  No timestamps — the textfile collector
    forbids them (mtime is the freshness signal).
    """
    metrics = metrics if metrics is not None else METRICS
    lines: list[str] = []
    for name, value in sorted(metrics.counters().items()):
        prom = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def export_prometheus(
    path: str | Path,
    metrics: Metrics | None = None,
    prefix: str = "repro_",
) -> Path:
    """Write the textfile-collector file by atomic rename (the collector
    may scrape at any moment; a torn file would drop every sample)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = prometheus_text(metrics, prefix)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path
