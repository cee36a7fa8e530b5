"""The live half of the observability layer (DESIGN.md §12).

PR 8's telemetry is post-hoc: span snapshots ride back on *completed*
task results, so a hung, slow or leaking worker is invisible until the
hard ``task_timeout`` kills it.  This module adds the channels that
report while the run is still going, under the same standing invariant
as the rest of :mod:`repro.obs`: **live health may change what you can
see, never what the run computes** — every record is written to side
files by side threads, nothing feeds back into task results or the
ordered gather.

Three pieces:

* **Worker heartbeats** — with ``REPRO_HEARTBEAT=<seconds>`` set, every
  executor process (pool workers *and* the in-process serial path)
  runs a daemon thread appending one crash-safe JSONL record per
  interval to ``hb-<pid>.jsonl`` in the run directory
  (``REPRO_HEARTBEAT_DIR``; the parent executor creates and exports a
  default so forked workers inherit it).  Each record carries the
  current task index/attempt and its elapsed time, the open span stack
  from the tracer, RSS high-water and CPU time via
  ``resource.getrusage``, and a counter snapshot when metrics are on.
  Records are flushed and fsynced per beat, so a crash leaves at most
  one torn final line — which every reader skips.
* **Heartbeat reading** — :func:`read_heartbeats` /
  :func:`task_heartbeat` give the parent (and any external watcher) the
  last known state per worker; the executor's stall detector uses this
  to enrich ``executor.stall`` instants with the culprit's pid, RSS and
  open spans.
* **Progress ledger** — :class:`ProgressLedger` maintains
  ``status.json`` for a campaign: per-stage ok/failed/resumed/pending
  counts, an EWMA of executed-stage seconds and the ETA derived from
  it, rewritten by atomic rename after every stage entry so the file
  *always* parses, mid-run or post-kill.  :func:`render_status` is the
  human renderer behind ``python -m repro.experiments status`` and
  ``campaign --watch``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.obs.core import METRICS, TRACER, env_number

__all__ = [
    "HEARTBEAT_DIR_ENV",
    "HEARTBEAT_ENV",
    "STALL_AFTER_ENV",
    "HeartbeatWriter",
    "ProgressLedger",
    "heartbeat_record",
    "max_rss_mb",
    "note_task",
    "read_heartbeats",
    "render_status",
    "resolve_heartbeat",
    "resolve_stall_after",
    "stop_heartbeat",
    "task_heartbeat",
    "write_status",
]

#: Heartbeat interval in seconds; unset or 0 disables the channel.
HEARTBEAT_ENV = "REPRO_HEARTBEAT"

#: Run directory receiving the per-worker ``hb-<pid>.jsonl`` files.
HEARTBEAT_DIR_ENV = "REPRO_HEARTBEAT_DIR"

#: Soft stall threshold in seconds (see :mod:`repro.runtime.executor`).
STALL_AFTER_ENV = "REPRO_STALL_AFTER"

#: Schema version stamped into status.json.
STATUS_SCHEMA = 1


def resolve_heartbeat(interval: float | None = None) -> float:
    """Heartbeat interval: argument > ``REPRO_HEARTBEAT`` > 0 (off)."""
    interval = env_number(HEARTBEAT_ENV, interval)
    if interval is None:
        return 0.0
    if interval < 0:
        raise ValueError(f"heartbeat interval must be >= 0, got {interval}")
    return interval


def resolve_stall_after(
    stall_after: float | None = None, task_timeout: float | None = None
) -> float | None:
    """Soft stall threshold: argument > ``REPRO_STALL_AFTER`` > half the
    hard ``task_timeout`` (so the graded signal exists whenever the
    binary one does) > ``None`` (off)."""
    stall_after = env_number(STALL_AFTER_ENV, stall_after)
    if stall_after is None:
        return task_timeout / 2.0 if task_timeout is not None else None
    if stall_after <= 0:
        raise ValueError(f"stall threshold must be > 0 seconds, got {stall_after}")
    return stall_after


# ------------------------------------------------------------------ heartbeat
def _getrusage() -> tuple[int, float]:
    """(RSS high-water in KiB, CPU seconds) of this process; (0, 0.0)
    where the ``resource`` module is unavailable (non-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only dependency
        return 0, 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS — normalize to KiB.
    rss = int(usage.ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover
        rss //= 1024
    return rss, usage.ru_utime + usage.ru_stime


def max_rss_mb() -> float:
    """This process's RSS high-water mark in MiB (0.0 where the
    ``resource`` module is unavailable)."""
    return round(_getrusage()[0] / 1024.0, 2)


def heartbeat_record(
    task: int | None,
    attempt: int | None,
    task_started: float | None,
    seq: int,
) -> dict:
    """One heartbeat record (the DESIGN §12 schema).

    ``task_started`` is a ``time.monotonic()`` stamp; the record carries
    the derived ``task_elapsed`` instead of the raw stamp because only
    elapsed time is comparable across processes.
    """
    rss_kb, cpu_s = _getrusage()
    record: dict = {
        "ts": time.time(),
        "pid": os.getpid(),
        "seq": seq,
        "task": task,
        "attempt": attempt,
        "task_elapsed": (
            None if task_started is None else time.monotonic() - task_started
        ),
        "rss_kb": rss_kb,
        "cpu_s": cpu_s,
        "spans": TRACER.open_spans(),
    }
    if METRICS.enabled:
        record["counters"] = METRICS.counters()
    return record


class HeartbeatWriter:
    """The per-process heartbeat thread: appends one record per
    interval to ``hb-<pid>.jsonl`` until stopped.

    The writer is bound to the pid that created it — after a fork the
    inherited instance is dead weight (its thread did not survive) and
    :func:`note_task` replaces it.  ``note_task``/``clear_task`` update
    the shared current-task cell with plain attribute assignments
    (GIL-atomic; the beat thread only reads).
    """

    def __init__(self, directory: str | Path, interval: float):
        self.pid = os.getpid()
        self.interval = interval
        self.path = Path(directory) / f"hb-{self.pid}.jsonl"
        self.task: int | None = None
        self.attempt: int | None = None
        self.task_started: float | None = None
        self._seq = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._handle = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        except OSError:
            # A read-only or vanished run directory must never take the
            # worker down — the channel simply stays dark (same posture
            # as the campaign journal's degradation path).
            self._handle = None
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._handle is not None and not self._stop.is_set()

    def note_task(self, index: int, attempt: int) -> None:
        self.task = index
        self.attempt = attempt
        self.task_started = time.monotonic()

    def clear_task(self) -> None:
        self.task = None
        self.attempt = None
        self.task_started = None

    def beat(self) -> None:
        """Write one record now (also called by the thread each tick).
        Append + flush + fsync per beat: a crash can tear at most the
        final line, never an earlier record."""
        with self._lock:
            handle = self._handle
            if handle is None:
                return
            record = heartbeat_record(
                self.task, self.attempt, self.task_started, self._seq
            )
            self._seq += 1
            try:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            except (OSError, ValueError):
                self._stop.set()
                self._handle = None
                try:
                    handle.close()
                except OSError:
                    pass

    def _run(self) -> None:
        self.beat()  # an immediate first record: liveness without latency
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self) -> None:
        self._stop.set()
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


#: The process-local writer; ``None`` until the first task under an
#: enabled channel, replaced after fork (pid mismatch).
_WRITER: HeartbeatWriter | None = None

#: Cached resolved interval (``None`` = not yet resolved).  Workers
#: resolve once from the inherited environment; the disabled fast path
#: in :func:`note_task` is then one global load and a compare.
_INTERVAL: float | None = None


def note_task(index: int, attempt: int) -> None:
    """Mark task ``index`` (attempt ``attempt``) as running in this
    process, starting the heartbeat writer on first use.  Near-free
    when the channel is off (the default): one cached-global check."""
    global _WRITER, _INTERVAL
    if _INTERVAL == 0.0 and _WRITER is None:
        return
    if _INTERVAL is None:
        try:
            _INTERVAL = resolve_heartbeat()
        except ValueError:
            _INTERVAL = 0.0
        if _INTERVAL == 0.0:
            return
    writer = _WRITER
    if writer is None or writer.pid != os.getpid() or not writer.alive:
        if _INTERVAL == 0.0:
            return
        directory = os.environ.get(HEARTBEAT_DIR_ENV, "").strip() or (
            Path(tempfile.gettempdir()) / "repro-heartbeats"
        )
        writer = _WRITER = HeartbeatWriter(directory, _INTERVAL)
        # First use in this process: beat synchronously so the channel
        # shows the task immediately (liveness without waiting a tick,
        # and the stall detector's enrichment finds the attribution).
        writer.note_task(index, attempt)
        writer.beat()
        return
    writer.note_task(index, attempt)


def clear_task() -> None:
    """Mark this process as idle (between tasks)."""
    writer = _WRITER
    if writer is not None and writer.pid == os.getpid():
        writer.clear_task()


def stop_heartbeat() -> None:
    """Stop the process-local writer and forget the cached interval —
    test isolation hook (environment changes re-resolve on next use)."""
    global _WRITER, _INTERVAL
    if _WRITER is not None and _WRITER.pid == os.getpid():
        _WRITER.stop()
    _WRITER = None
    _INTERVAL = None


# ------------------------------------------------------------------- reading
def read_heartbeats(directory: str | Path) -> list[dict]:
    """The last well-formed record of every ``hb-*.jsonl`` file in
    ``directory``, newest first.  Torn tail lines (a crash mid-append)
    and unreadable files are skipped — reading must never throw on a
    directory that is being written to."""
    directory = Path(directory)
    records: list[dict] = []
    try:
        paths = sorted(directory.glob("hb-*.jsonl"))
    except OSError:
        return []
    for path in paths:
        try:
            lines = path.read_text().splitlines()
        except OSError:
            continue
        for line in reversed(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a mid-append crash
            if isinstance(record, dict):
                records.append(record)
            break
    records.sort(key=lambda r: r.get("ts", 0.0), reverse=True)
    return records


def task_heartbeat(directory: str | Path | None, index: int) -> dict | None:
    """The freshest heartbeat record claiming task ``index``, if any —
    the stall detector's enrichment source."""
    if directory is None:
        return None
    for record in read_heartbeats(directory):
        if record.get("task") == index:
            return record
    return None


# ------------------------------------------------------------ progress ledger
def write_status(status: dict, path: str | Path) -> None:
    """Write ``status`` atomically (temp + rename): a reader polling the
    file mid-run must always see one complete JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(status, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


class ProgressLedger:
    """Maintains a campaign's ``status.json`` (DESIGN §12.3).

    The ledger knows the full (circuit, stage) grid up front; every
    state change — stage started, stage finished, run finalized —
    rewrites the whole document by atomic rename.  Throughput is an
    EWMA over *executed* stage seconds (resumed entries complete in
    microseconds and would poison the estimate); the ETA is that EWMA
    times the number of stages still pending, an estimate that
    self-corrects as resumed entries drain instantly.
    """

    #: EWMA smoothing factor for executed-stage seconds.
    ALPHA = 0.3

    def __init__(
        self,
        path: str | Path,
        pairs: Sequence[tuple[str, str]],
        stage_order: Sequence[str],
        manifest: str | None = None,
    ):
        self.path = Path(path)
        self.pairs = list(pairs)
        self.stage_order = list(stage_order)
        self.manifest = manifest
        self.states: dict[tuple[str, str], str] = {
            pair: "pending" for pair in self.pairs
        }
        self.current: tuple[str, str] | None = None
        self.current_started: float | None = None
        self.ewma_seconds: float | None = None
        self.executor: dict | None = None
        self.totals: dict | None = None
        self.done = False
        self.started_unix = time.time()
        self._started_clock = time.perf_counter()
        self.write()

    # ------------------------------------------------------------- updates
    def stage_started(self, circuit: str, stage: str) -> None:
        self.current = (circuit, stage)
        self.current_started = time.time()
        self.write()

    def stage_finished(
        self,
        circuit: str,
        stage: str,
        status: str,
        seconds: float,
        executor: dict | None = None,
    ) -> None:
        """Record one manifest entry; ``status`` is ok/failed/resumed."""
        self.states[(circuit, stage)] = status
        if self.current == (circuit, stage):
            self.current = None
            self.current_started = None
        if status != "resumed":
            if self.ewma_seconds is None:
                self.ewma_seconds = seconds
            else:
                self.ewma_seconds = (
                    self.ALPHA * seconds + (1.0 - self.ALPHA) * self.ewma_seconds
                )
        if executor is not None:
            self.executor = executor
        self.write()

    def finalize(
        self, totals: dict | None = None, executor: dict | None = None
    ) -> None:
        """Mark the run done; ``totals`` is the saved manifest's totals
        dict, embedded verbatim so the final status converges to the
        manifest without re-deriving anything."""
        self.done = True
        self.current = None
        self.current_started = None
        if totals is not None:
            self.totals = totals
        if executor is not None:
            self.executor = executor
        self.write()

    # ------------------------------------------------------------ document
    def as_dict(self) -> dict:
        counts = {"ok": 0, "failed": 0, "resumed": 0, "pending": 0}
        per_stage: dict[str, dict] = {
            stage: {"ok": 0, "failed": 0, "resumed": 0, "pending": 0}
            for stage in self.stage_order
        }
        for (circuit, stage), state in self.states.items():
            bucket = state if state in counts else "pending"
            counts[bucket] += 1
            per_stage.setdefault(
                stage, {"ok": 0, "failed": 0, "resumed": 0, "pending": 0}
            )[bucket] += 1
        total = len(self.states)
        done = total - counts["pending"]
        eta = (
            None
            if self.ewma_seconds is None or self.done
            else self.ewma_seconds * counts["pending"]
        )
        status: dict = {
            "schema": STATUS_SCHEMA,
            "state": "done" if self.done else "running",
            "manifest": self.manifest,
            "stage_order": self.stage_order,
            "started_unix": self.started_unix,
            "updated_unix": time.time(),
            "elapsed_seconds": time.perf_counter() - self._started_clock,
            "counts": dict(counts, total=total, done=done),
            "per_stage": per_stage,
            "current": (
                None
                if self.current is None
                else {
                    "circuit": self.current[0],
                    "stage": self.current[1],
                    "started_unix": self.current_started,
                }
            ),
            "ewma_stage_seconds": self.ewma_seconds,
            "eta_seconds": eta,
        }
        if self.executor is not None:
            status["executor"] = self.executor
        if self.totals is not None:
            status["totals"] = self.totals
        return status

    def write(self) -> None:
        try:
            write_status(self.as_dict(), self.path)
        except OSError:
            # Same degradation posture as the journal: the ledger is a
            # side channel and must never take the campaign down.
            pass


def render_status(status: dict) -> str:
    """Human-readable one-screen rendering of a status document."""
    counts = status.get("counts", {})
    total = counts.get("total", 0)
    done = counts.get("done", 0)
    state = status.get("state", "?")
    width = 24
    filled = int(round(width * done / total)) if total else 0
    bar = "#" * filled + "." * (width - filled)
    lines = [
        f"campaign {state}: [{bar}] {done}/{total} stages "
        f"(ok {counts.get('ok', 0)}, failed {counts.get('failed', 0)}, "
        f"resumed {counts.get('resumed', 0)}, pending {counts.get('pending', 0)})"
    ]
    current = status.get("current")
    if current:
        lines.append(
            f"  running: {current.get('circuit')}/{current.get('stage')}"
        )
    ewma = status.get("ewma_stage_seconds")
    eta = status.get("eta_seconds")
    elapsed = status.get("elapsed_seconds")
    pace = []
    if elapsed is not None:
        pace.append(f"elapsed {elapsed:.1f}s")
    if ewma is not None:
        pace.append(f"~{ewma:.2f}s/stage")
    if eta is not None:
        pace.append(f"ETA {eta:.1f}s")
    if pace:
        lines.append("  " + ", ".join(pace))
    per_stage = status.get("per_stage", {})
    for stage in status.get("stage_order", sorted(per_stage)):
        row = per_stage.get(stage)
        if not row:
            continue
        lines.append(
            f"  {stage:12s} ok {row.get('ok', 0):3d}  "
            f"failed {row.get('failed', 0):3d}  "
            f"resumed {row.get('resumed', 0):3d}  "
            f"pending {row.get('pending', 0):3d}"
        )
    executor = status.get("executor")
    if executor and any(executor.values()):
        health = ", ".join(
            f"{name} {value}" for name, value in sorted(executor.items()) if value
        )
        lines.append(f"  executor: {health}")
    return "\n".join(lines)
