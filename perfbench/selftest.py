"""Fast self-test of the benchmark harness.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  It
checks the ``BENCHMARK.json`` grammar against the metric table, the
self-time arithmetic on nested wrapped calls, a wrapped call inside a
forked pool worker reaching the parent's rollup, and all three
workloads end to end, untraced and traced, on c432 and c880.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path, path
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(run.WORKLOADS) and len(set(names)) == len(names), names
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    names = []
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
        names.append(metric["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert len(names) == len(set(names)), "metric names must be unique"
    table = [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in layers.PER_LAYER]
    assert spec["per_layer"] == table, "BENCHMARK.json per_layer must match layers.PER_LAYER"
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, _, _, moves, workloads in layers.PER_LAYER:
        assert moves is None or moves in e2e, (name, moves)
        assert set(workloads) <= set(run.WORKLOADS), (name, workloads)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# ------------------------------------------------------- nested self time
def outer():
    time.sleep(0.02)
    inner()
    inner()


def inner():
    time.sleep(0.01)


def worker_work(n):
    time.sleep(0.03)
    return n


def pool_task(_state, n):
    return worker_work(n)


TOY_WRAPS = (
    ("toy.outer", "__main__:outer"),
    ("toy.inner", "__main__:inner"),
    ("toy.worker", "__main__:worker_work"),
)


def check_nested_self_time() -> None:
    from repro import obs

    obs.TRACER.reset()
    obs.METRICS.reset()
    obs.enable(trace=True, metrics=True)
    undo = layers.install("selftest", TOY_WRAPS)
    try:
        start = time.monotonic_ns()
        outer()
        end = time.monotonic_ns()
    finally:
        layers.uninstall(undo)
        obs.enable(trace=False, metrics=False)
    spans = {name: [] for name in ("bench:toy.outer", "bench:toy.inner")}
    for kind, name, _ts, dur, *_ in obs.TRACER.events():
        if kind == "span":
            spans[name].append(dur)
    rollup = layers.attribute(obs.TRACER.events(), (start, end))
    (outer_ns,) = spans["bench:toy.outer"]
    assert len(spans["bench:toy.inner"]) == 2
    assert abs(rollup["wall"]["toy.outer"] * 1e9 - (outer_ns - sum(spans["bench:toy.inner"]))) < 1
    assert abs(rollup["wall"]["toy.inner"] * 1e9 - sum(spans["bench:toy.inner"])) < 1
    assert 0.019 < rollup["wall"]["toy.outer"] < 0.05, rollup
    assert 0.019 < rollup["wall"]["toy.inner"] < 0.05, rollup
    assert rollup["other_s"] >= 0
    total = sum(rollup["wall"].values()) + rollup["other_s"]
    assert abs(total - rollup["wall_s"]) < 1e-9
    assert obs.METRICS.counters()["bench.calls.toy.inner"] == 2


def check_pool_attribution() -> None:
    """Synthetic map: worker time is shared out in wall terms."""
    events = [
        ("span", "bench:A", 0, 100, 0, "main", None),
        ("span", "executor.map", 10, 80, 1, "main", {"tasks": 2, "jobs": 2}),
        ("span", "executor.task", 12, 68, 0, "task:0", None),
        ("span", "bench:B", 20, 40, 1, "task:0", None),
        ("span", "executor.task", 15, 70, 0, "task:1", None),
    ]
    rollup = layers.attribute(events, (0, 100))
    wall = {k: round(v * 1e9, 6) for k, v in rollup["wall"].items()}
    assert wall == {"A": 69.0, "B": 20.0, layers.IDLE_LAYER: 11.0}, wall
    assert abs(rollup["other_s"]) < 1e-15
    assert round(rollup["busy"]["B"] * 1e9, 6) == 40.0


def check_forked_worker() -> None:
    from repro import obs
    from repro.runtime.executor import Executor

    obs.TRACER.reset()
    obs.METRICS.reset()
    obs.enable(trace=True, metrics=True)
    undo = layers.install("selftest", TOY_WRAPS)
    try:
        start = time.monotonic_ns()
        results = Executor(2).map(pool_task, [1, 2, 3, 4])
        end = time.monotonic_ns()
    finally:
        layers.uninstall(undo)
        obs.enable(trace=False, metrics=False)
    assert results == [1, 2, 3, 4], results
    assert obs.METRICS.counters()["bench.calls.toy.worker"] == 4
    rollup = layers.attribute(obs.TRACER.events(), (start, end))
    assert rollup["busy"]["toy.worker"] >= 4 * 0.03 - 1e-3, rollup
    assert rollup["wall"]["toy.worker"] > 0, rollup
    assert rollup["wall"][layers.IDLE_LAYER] >= -1e-9, rollup
    total = sum(rollup["wall"].values()) + rollup["other_s"]
    assert abs(total - rollup["wall_s"]) < 1e-9


def check_workloads() -> None:
    workdir = ROOT / ".perfbench" / "selftest"
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(ROOT, workdir, workload, run.BOUNDS_SEED, 1, trace,
                                      circuits=("c432", "c880"))
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            names = set(result["metrics"])
            if not trace:
                assert names == {"wall_s", "setup_s", "peak_rss_mb"}, names
                continue
            assert names == {name for name, *_ in layers.PER_LAYER}, names
            values = {k: v["value"] for k, v in result["metrics"].items()}
            report = run.bypass_report(workload, values)
            assert all("holds" in line for line in report), report


def main() -> int:
    checks = [check_benchmark_json, check_nested_self_time, check_pool_attribution,
              check_forked_worker, check_workloads]
    for check in checks:
        started = time.monotonic()
        check()
        print(f"ok  {check.__name__}  ({time.monotonic() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
