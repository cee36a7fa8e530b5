"""The live observability layer (DESIGN.md §12): worker heartbeats,
stall detection, the campaign progress ledger and the Prometheus sink.

Two invariant families:

* **Determinism** — heartbeats and stall detection are pure
  observation: every computed result is bit-identical with the channel
  on or off, at any worker count, including under fault plans.
* **Crash safety** — heartbeat files and status.json must parse at any
  interruption point: torn tail lines are skipped, status.json is
  atomic-renamed, and a dark channel (unwritable directory) never
  takes a worker down.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import TaskTimeoutError
from repro.obs import live
from repro.obs.live import (
    HeartbeatWriter,
    ProgressLedger,
    heartbeat_record,
    read_heartbeats,
    render_status,
    resolve_heartbeat,
    resolve_stall_after,
    task_heartbeat,
    write_status,
)
from repro.obs.sinks import export_prometheus, prometheus_text
from repro.runtime.executor import Executor
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import sharded_detection_matrix


def square(state, task):
    return task * task


def slow_square(state, task):
    time.sleep(0.8)
    return task * task


# ---------------------------------------------------------------- resolvers
class TestResolvers:
    def test_heartbeat_defaults_off(self):
        assert resolve_heartbeat() == 0.0

    def test_heartbeat_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(live.HEARTBEAT_ENV, "5")
        assert resolve_heartbeat(0.25) == 0.25
        assert resolve_heartbeat() == 5.0

    def test_heartbeat_rejects_garbage_and_negative(self, monkeypatch):
        monkeypatch.setenv(live.HEARTBEAT_ENV, "soon")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            resolve_heartbeat()
        with pytest.raises(ValueError, match=">= 0"):
            resolve_heartbeat(-1.0)

    def test_stall_defaults_to_half_timeout(self):
        assert resolve_stall_after(task_timeout=10.0) == 5.0
        assert resolve_stall_after() is None

    def test_stall_argument_and_env(self, monkeypatch):
        assert resolve_stall_after(2.0, task_timeout=10.0) == 2.0
        monkeypatch.setenv(live.STALL_AFTER_ENV, "3")
        assert resolve_stall_after(task_timeout=10.0) == 3.0

    def test_stall_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="> 0"):
            resolve_stall_after(0.0)


# ---------------------------------------------------------------- heartbeat
class TestHeartbeatWriter:
    def test_record_schema(self):
        record = heartbeat_record(3, 1, time.monotonic() - 0.5, 7)
        assert record["task"] == 3
        assert record["attempt"] == 1
        assert record["seq"] == 7
        assert record["pid"] == os.getpid()
        assert record["task_elapsed"] == pytest.approx(0.5, abs=0.2)
        assert record["rss_kb"] > 0
        assert record["cpu_s"] >= 0.0
        assert record["spans"] == []
        assert "counters" not in record  # metrics are off

    def test_record_carries_open_spans_and_counters(self):
        obs.enable(trace=True, metrics=True)
        obs.METRICS.inc("demo.count")
        with obs.TRACER.span("outer"):
            with obs.TRACER.span("inner"):
                record = heartbeat_record(None, None, None, 0)
        assert record["spans"] == ["outer", "inner"]
        assert record["counters"]["demo.count"] == 1
        assert record["task"] is None and record["task_elapsed"] is None

    def test_writer_appends_parseable_records(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, interval=10.0)
        try:
            writer.note_task(2, 0)
            writer.beat()
        finally:
            writer.stop()
        lines = (tmp_path / f"hb-{os.getpid()}.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) >= 2  # the immediate first beat + the manual one
        assert records[-1]["task"] == 2
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_writer_survives_unwritable_directory(self, tmp_path):
        # A file where the run directory should be: mkdir/open fail.
        # (chmod tricks don't work under root, which ignores modes.)
        target = tmp_path / "occupied"
        target.write_text("")
        writer = HeartbeatWriter(target / "run", interval=10.0)
        assert not writer.alive
        writer.beat()  # must be a no-op, not a crash
        writer.stop()

    def test_reader_skips_torn_tail(self, tmp_path):
        path = tmp_path / "hb-123.jsonl"
        good = json.dumps({"ts": 1.0, "pid": 123, "task": 5})
        path.write_text(good + "\n" + '{"ts": 2.0, "pid": 123, "tas')
        records = read_heartbeats(tmp_path)
        assert len(records) == 1
        assert records[0]["task"] == 5

    def test_reader_newest_first_and_task_lookup(self, tmp_path):
        (tmp_path / "hb-1.jsonl").write_text(
            json.dumps({"ts": 10.0, "pid": 1, "task": 0}) + "\n"
        )
        (tmp_path / "hb-2.jsonl").write_text(
            json.dumps({"ts": 20.0, "pid": 2, "task": 4}) + "\n"
        )
        records = read_heartbeats(tmp_path)
        assert [r["pid"] for r in records] == [2, 1]
        assert task_heartbeat(tmp_path, 4)["pid"] == 2
        assert task_heartbeat(tmp_path, 9) is None
        assert task_heartbeat(None, 0) is None

    def test_reader_on_missing_directory(self, tmp_path):
        assert read_heartbeats(tmp_path / "nope") == []

    def test_note_task_disabled_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path))
        live.note_task(0, 0)
        live.clear_task()
        assert list(tmp_path.glob("hb-*.jsonl")) == []

    def test_note_task_starts_writer_and_stop_resets(self, tmp_path, monkeypatch):
        monkeypatch.setenv(live.HEARTBEAT_ENV, "30")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path))
        live.stop_heartbeat()  # re-resolve under this environment
        live.note_task(1, 0)
        path = tmp_path / f"hb-{os.getpid()}.jsonl"
        assert path.is_file()
        live.stop_heartbeat()
        # The creation-time synchronous beat carries the attribution.
        record = json.loads(path.read_text().splitlines()[-1])
        assert record["task"] == 1 and record["attempt"] == 0


# -------------------------------------------------------------- determinism
class TestHeartbeatDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_detection_matrix_bit_identical(
        self, small_circuit, jobs, tmp_path, monkeypatch
    ):
        from repro.faultsim.patterns import random_patterns
        from repro.faultsim.stuck_at import enumerate_stuck_at_faults

        faults = enumerate_stuck_at_faults(small_circuit)[:48]
        patterns = random_patterns(len(small_circuit.input_names), 64, seed=3)
        baseline = sharded_detection_matrix(
            small_circuit, faults, patterns, jobs=jobs
        )
        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.05")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path))
        live.stop_heartbeat()
        beating = sharded_detection_matrix(
            small_circuit, faults, patterns, jobs=jobs
        )
        assert np.array_equal(baseline, beating)
        if jobs >= 2:
            # Pool workers actually produced heartbeat files (the serial
            # and jobs=1 shortcut paths bypass the executor entirely).
            assert list(tmp_path.glob("hb-*.jsonl"))

    def test_executor_map_with_heartbeats(self, tmp_path, monkeypatch):
        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.05")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path))
        live.stop_heartbeat()
        assert Executor(2).map(square, range(8)) == [t * t for t in range(8)]
        records = read_heartbeats(tmp_path)
        assert records
        assert all(r["pid"] != os.getpid() for r in records)

    def test_serial_executor_heartbeats(self, tmp_path, monkeypatch):
        monkeypatch.setenv(live.HEARTBEAT_ENV, "30")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path))
        live.stop_heartbeat()
        assert Executor(1).map(square, range(3)) == [0, 1, 4]
        records = read_heartbeats(tmp_path)
        assert len(records) == 1 and records[0]["pid"] == os.getpid()


# -------------------------------------------------------------------- stalls
class TestStallDetection:
    def test_stall_fires_before_hard_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.1")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path))
        live.stop_heartbeat()
        obs.enable(trace=True)
        executor = Executor(
            2,
            task_timeout=1.5,
            fault_plan=FaultPlan.parse("task:0:hang"),
        )
        assert executor.stall_after == pytest.approx(0.75)
        with pytest.raises(TaskTimeoutError):
            executor.map(square, range(4))
        counters = obs.METRICS.counters()
        assert counters["executor.stalls"] == 1
        assert counters["executor.timeouts"] == 1
        events = obs.TRACER.events()
        stall = [n for n, e in enumerate(events) if e[1] == "executor.stall"]
        hard = [n for n, e in enumerate(events) if e[1] == "executor.timeout"]
        assert stall and hard and stall[0] < hard[0]
        attrs = events[stall[0]][6]
        assert attrs["task"] == 0
        assert attrs["waited"] >= 0.75
        # Enriched from the hung worker's heartbeat: the beat thread
        # keeps beating while the main thread sleeps.
        assert attrs["pid"] is not None and attrs["pid"] != os.getpid()
        assert attrs["rss_kb"] > 0

    def test_stall_without_heartbeat_channel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
        obs.enable(trace=True)
        executor = Executor(
            2,
            task_timeout=1.5,
            stall_after=0.4,
            fault_plan=FaultPlan.parse("task:0:hang"),
        )
        with pytest.raises(TaskTimeoutError):
            executor.map(square, range(4))
        assert obs.METRICS.counters()["executor.stalls"] == 1
        stall = [e for e in obs.TRACER.events() if e[1] == "executor.stall"]
        assert len(stall) == 1
        assert "pid" not in stall[0][6]  # nothing to enrich from

    def test_stall_is_observation_only(self):
        # A slow-but-finishing task stalls once and still returns its
        # result: no retry, no timeout, same values as the fast path.
        obs.enable(trace=True)
        executor = Executor(2, stall_after=0.2)
        assert executor.map(slow_square, range(2)) == [0, 1]
        counters = obs.METRICS.counters()
        assert counters["executor.stalls"] >= 1
        assert "executor.timeouts" not in counters
        assert "executor.retries" not in counters

    def test_no_stall_under_threshold(self):
        executor = Executor(2, stall_after=30.0, task_timeout=60.0)
        assert executor.map(square, range(4)) == [0, 1, 4, 9]
        assert "executor.stalls" not in obs.METRICS.counters()

    def test_global_snapshot_accumulates(self):
        # The registry outlives the executor and counts one stall per
        # executor.stall instant.
        obs.enable(trace=True)
        mark = obs.METRICS.mark()
        Executor(2, stall_after=0.2).map(slow_square, range(2))
        stalls = [e for e in obs.TRACER.events() if e[1] == "executor.stall"]
        assert stalls
        assert obs.METRICS.delta_since(mark)["executor.stalls"] == len(stalls)


# ------------------------------------------------------------------- ledger
class TestProgressLedger:
    PAIRS = [("c432", "separation"), ("c432", "stuck-at"),
             ("c880", "separation"), ("c880", "stuck-at")]
    STAGES = ["separation", "stuck-at"]

    def test_document_always_parses(self, tmp_path):
        path = tmp_path / "status.json"
        ledger = ProgressLedger(path, self.PAIRS, self.STAGES, manifest="m.json")
        status = json.loads(path.read_text())
        assert status["schema"] == live.STATUS_SCHEMA
        assert status["state"] == "running"
        assert status["counts"] == {
            "ok": 0, "failed": 0, "resumed": 0, "pending": 4,
            "total": 4, "done": 0,
        }
        ledger.stage_started("c432", "separation")
        status = json.loads(path.read_text())
        assert status["current"] == {
            "circuit": "c432", "stage": "separation",
            "started_unix": status["current"]["started_unix"],
        }
        ledger.stage_finished("c432", "separation", "ok", 2.0)
        ledger.stage_finished("c432", "stuck-at", "failed", 4.0)
        status = json.loads(path.read_text())
        assert status["counts"]["ok"] == 1
        assert status["counts"]["failed"] == 1
        assert status["counts"]["pending"] == 2
        assert status["current"] is None
        assert status["per_stage"]["separation"]["ok"] == 1
        assert status["per_stage"]["stuck-at"]["failed"] == 1

    def test_ewma_and_eta(self, tmp_path):
        ledger = ProgressLedger(
            tmp_path / "s.json", self.PAIRS, self.STAGES
        )
        ledger.stage_finished("c432", "separation", "ok", 10.0)
        assert ledger.ewma_seconds == 10.0
        ledger.stage_finished("c432", "stuck-at", "ok", 20.0)
        assert ledger.ewma_seconds == pytest.approx(0.3 * 20.0 + 0.7 * 10.0)
        # Resumed entries complete instantly and must not poison pace.
        ledger.stage_finished("c880", "separation", "resumed", 0.0)
        assert ledger.ewma_seconds == pytest.approx(13.0)
        status = ledger.as_dict()
        assert status["eta_seconds"] == pytest.approx(13.0 * 1)

    def test_finalize_embeds_totals(self, tmp_path):
        path = tmp_path / "s.json"
        ledger = ProgressLedger(path, self.PAIRS[:1], self.STAGES)
        ledger.stage_finished("c432", "separation", "ok", 1.0)
        totals = {"entries": 1, "executor": {"stalls": 2}}
        ledger.finalize(totals)
        status = json.loads(path.read_text())
        assert status["state"] == "done"
        assert status["totals"] == totals
        assert status["eta_seconds"] is None

    def test_write_failure_is_swallowed(self, tmp_path):
        ledger = ProgressLedger(tmp_path / "s.json", self.PAIRS, self.STAGES)
        occupied = tmp_path / "occupied"
        occupied.write_text("")  # a file where the parent dir should be
        ledger.path = occupied / "deeper" / "s.json"
        ledger.stage_finished("c432", "separation", "ok", 1.0)  # no raise

    def test_write_status_atomic_no_tmp_left(self, tmp_path):
        path = tmp_path / "status.json"
        write_status({"a": 1}, path)
        write_status({"a": 2}, path)
        assert json.loads(path.read_text()) == {"a": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["status.json"]

    def test_render_status(self, tmp_path):
        ledger = ProgressLedger(
            tmp_path / "s.json", self.PAIRS, self.STAGES
        )
        ledger.stage_finished("c432", "separation", "ok", 1.0)
        ledger.stage_started("c432", "stuck-at")
        ledger.executor = {"stalls": 1, "retries": 0}
        text = render_status(ledger.as_dict())
        assert "1/4 stages" in text
        assert "running: c432/stuck-at" in text
        assert "separation" in text and "stuck-at" in text
        assert "executor: stalls 1" in text
        assert "ETA" in text


# --------------------------------------------------------------- prometheus
class TestPrometheusSink:
    def test_text_format(self):
        obs.enable(metrics=True)
        obs.METRICS.inc("executor.stalls", 2)
        obs.METRICS.inc("store.hits.detection-matrix")
        text = prometheus_text()
        assert "# TYPE repro_executor_stalls_total counter" in text
        assert "repro_executor_stalls_total 2" in text
        assert "repro_store_hits_detection_matrix_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text() == ""

    def test_export_atomic(self, tmp_path):
        obs.enable(metrics=True)
        obs.METRICS.inc("demo")
        path = tmp_path / "node" / "repro.prom"
        export_prometheus(path)
        assert "repro_demo_total 1" in path.read_text()
        assert [p.name for p in path.parent.iterdir()] == ["repro.prom"]
