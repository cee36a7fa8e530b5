"""Sinks and the trace report: Chrome trace export, summarizer."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ExperimentError
from repro.obs.report import load_trace_events, render_trace_report, summarize_trace
from repro.obs.sinks import chrome_trace_dict, export_chrome_trace


def _record_sample():
    obs.enable(trace=True, metrics=True)
    with obs.TRACER.span("outer", stage="demo"):
        with obs.TRACER.span("inner"):
            pass
        obs.TRACER.instant("degraded", error="disk full")
    obs.METRICS.inc("sample.count", 3)
    obs.merge_task_snapshot(
        {
            "events": [("span", "worker.op", 100, 50, 0, "main", None)],
            "counters": {"sample.count": 2},
        },
        task_index=1,
    )


class TestChromeTrace:
    def test_export_loads_and_attributes_sites(self, tmp_path):
        _record_sample()
        path = export_chrome_trace(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names[0] == "main"
        assert "task:1" in thread_names.values()
        spans = [e for e in events if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"outer", "inner", "worker.op"}
        worker_tid = next(
            tid for tid, name in thread_names.items() if name == "task:1"
        )
        assert any(s["tid"] == worker_tid for s in spans)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and instants[0]["s"] == "t"
        assert instants[0]["args"] == {"error": "disk full"}
        # Timestamps rebased: the earliest event sits at ts 0.
        assert min(e["ts"] for e in spans + instants) == 0.0
        assert document["otherData"]["counters"]["sample.count"] == 5

    def test_task_lanes_order_numerically(self):
        obs.enable(trace=True)
        for index in (10, 2, 1):
            obs.merge_task_snapshot(
                {"events": [("span", "op", 0, 1, 0, "main", None)]}, index
            )
        document = chrome_trace_dict()
        names = [
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert names == ["main", "task:1", "task:2", "task:10"]


class TestReport:
    def test_summarize_self_time_and_sites(self, tmp_path):
        document = {
            "traceEvents": [
                {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
                 "args": {"name": "main"}},
                {"ph": "X", "pid": 1, "tid": 0, "name": "parent",
                 "ts": 0.0, "dur": 100.0},
                {"ph": "X", "pid": 1, "tid": 0, "name": "child",
                 "ts": 10.0, "dur": 30.0},
                {"ph": "X", "pid": 1, "tid": 0, "name": "child",
                 "ts": 50.0, "dur": 20.0},
                {"ph": "i", "pid": 1, "tid": 0, "name": "tick", "ts": 5.0},
            ],
            "otherData": {"counters": {"n": 4}},
        }
        summary = summarize_trace(document)
        assert summary["names"]["parent"] == {
            "count": 1, "total_us": 100.0, "self_us": 50.0,
        }
        assert summary["names"]["child"]["total_us"] == 50.0
        assert summary["sites"]["main"]["busy_us"] == 100.0
        assert summary["sites"]["main"]["instants"] == 1
        assert summary["counters"] == {"n": 4}

    def test_render_report_end_to_end(self, tmp_path):
        _record_sample()
        path = export_chrome_trace(tmp_path / "trace.json")
        text = render_trace_report(path)
        assert "outer" in text
        assert "task:1" in text
        assert "sample.count" in text

    def test_trace_report_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        _record_sample()
        path = export_chrome_trace(tmp_path / "trace.json")
        assert main(["trace-report", str(path)]) == 0
        assert "span" in capsys.readouterr().out

    def test_trace_report_cli_degrades_gracefully(self, tmp_path, capsys):
        # Operator errors (missing, empty, truncated, non-trace input)
        # are one readable line on stderr and exit 1 — not a traceback.
        from repro.experiments.__main__ import main

        missing = tmp_path / "nope.json"
        assert main(["trace-report", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "trace-report: cannot read" in err
        assert "Traceback" not in err

        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["trace-report", str(empty)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

        truncated = tmp_path / "trunc.json"
        truncated.write_text('{"traceEvents": [{"ph": "X"')
        assert main(["trace-report", str(truncated)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"foo": 1}')
        assert main(["trace-report", str(wrong)]) == 1
        assert "traceEvents" in capsys.readouterr().err

    def test_bad_trace_files_rejected(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ExperimentError, match="cannot read"):
            load_trace_events(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ExperimentError, match="not valid JSON"):
            load_trace_events(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"foo": 1}')
        with pytest.raises(ExperimentError, match="traceEvents"):
            load_trace_events(wrong)

    def test_bare_event_list_accepted(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"ph": "X", "pid": 1, "tid": 0, "name": "a", '
                        '"ts": 0, "dur": 5}]')
        summary = summarize_trace(load_trace_events(path))
        assert summary["names"]["a"]["count"] == 1
