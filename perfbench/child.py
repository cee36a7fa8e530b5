"""One workload pass in a fresh process; started by ``run.py``.

Usage: ``python3 perfbench/child.py --spec JSON --out RESULT.json`` from
the root of a checkout, with ``src`` on ``PYTHONPATH``.  The spec names
the workload, circuits, seed, jobs, cache directory and whether to
trace.  The pass builds the circuits (set-up), runs the workload through
the package's public API (the timed part), checks each operation and
writes one JSON result.  ``PERFBENCH_T0`` carries the parent's
``time.time()`` just before the process was started, so set-up time
includes interpreter start and imports.

Untraced passes also sample the host's speed during set-up, while each
Table-1 row runs and while a campaign runs: every ``SAMPLE_EVERY_S`` a
timer signal times a fixed piece of interpreter work (dict updates,
integer arithmetic, like the imports, stand-in generation and ES loops
those stretches spend their time in).  Each stretch's time is reported
without the samples, with the mean sample time beside it, and
``run.py`` scales it by ``PROBE_REF_S`` over that mean.  Other tenants
of a shared host slow the program by up to ~80% in phases of seconds to
minutes; on a 2-vCPU VM the scaling cut the spread of a Table-1 row's
time from 16% to 5.5%, where probes between rows (numpy, memory-bound
or interpreter work) reached only 10-12%.  A campaign's samples run in
its main process, which mostly waits for the pool workers, and track
the CPUs those workers share with other tenants.  The samples are the
benchmark's own code, so a change to the package does not move them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import signal
import sys
import time
from pathlib import Path

SAMPLE_EVERY_S = 0.05
SAMPLE_ITERATIONS = 4000
#: Mean sample time on a reference host; a scaled time is host seconds
#: times ``PROBE_REF_S / mean sample``.  About the median on the 2-vCPU
#: VM the bounds were set on.
PROBE_REF_S = 0.00075


class SpeedSampler:
    """Times ``SAMPLE_ITERATIONS`` of fixed interpreter work every
    ``SAMPLE_EVERY_S`` of wall time, from a SIGALRM handler in the main
    thread, while a ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def _work() -> float:
        start = time.perf_counter()
        total, counts = 0, {}
        for i in range(SAMPLE_ITERATIONS):
            counts[i & 255] = counts.get(i & 255, 0) + i
            total += i * 3
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        self.samples.append(self._work())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(self._work())


def _peak_rss_mb() -> float:
    """Largest max RSS of this process and its reaped children (pool
    workers are joined first so they count)."""
    import multiprocessing
    import resource

    for child in multiprocessing.active_children():
        child.join(10)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _table1(spec: dict, sample: bool) -> dict:
    """Traced passes do not ``sample`` the host's speed."""
    from dataclasses import asdict

    from repro.experiments.table1 import run_table1

    rows, errors, row_s = [], [], []
    for name in spec["circuits"]:
        # One call per circuit is the same work as one call for all six
        # (each circuit gets its own evaluator and the same seed) and
        # lets a failure count against one row only.
        sampler = SpeedSampler() if sample else contextlib.nullcontext()
        start = time.perf_counter()
        with sampler:
            try:
                row = run_table1((name,), seed=spec["seed"], quick=True).rows[0]
            except Exception as exc:  # noqa: BLE001 - counted as a failed row
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                row = None
        seconds = time.perf_counter() - start
        if sample:
            row_s.append([name, seconds - sum(sampler.samples),
                          sum(sampler.samples) / len(sampler.samples)])
        if row is None:
            continue
        rows.append(asdict(row))
        if not row.area_standard > row.area_evolution:
            errors.append(
                f"{name}: standard area {row.area_standard:.6g} is not above "
                f"evolution area {row.area_evolution:.6g}"
            )
    return {
        "attempted": len(spec["circuits"]),
        "failed": len(errors),
        "errors": errors,
        "row_s": row_s,
        "digest": json.dumps(rows, sort_keys=True),
        "quality": {
            "sensor_area": sum(r["area_evolution"] for r in rows),
            "standard_area": sum(r["area_standard"] for r in rows),
        },
    }


def _campaign(spec: dict) -> tuple[dict, dict]:
    from repro.runtime.campaign import CampaignConfig, run_campaign

    manifest = run_campaign(
        CampaignConfig(
            circuits=tuple(spec["circuits"]),
            jobs=spec["jobs"],
            cache_dir=spec["cache_dir"],
            seed=spec["seed"],
            quick=True,
        )
    )
    entries = manifest["entries"]
    errors = []
    for entry in entries:
        where = f"{entry['circuit']}/{entry['stage']}"
        if entry["status"] != "ok":
            errors.append(f"{where}: {entry.get('error')}")
        elif spec["expect_hits"] and not entry["hit"]:
            errors.append(f"{where}: cache miss on a warm run")
    by_stage: dict[str, list[dict]] = {}
    for entry in entries:
        if entry["status"] == "ok":
            by_stage.setdefault(entry["stage"], []).append(entry["meta"])

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    quality = {
        "partition_cost": sum(m["cost"] for m in by_stage.get("optimize", [])),
        "stuckat_coverage": mean([m["coverage"] for m in by_stage.get("stuck-at", [])]),
        "iddq_coverage": mean([m["coverage"] for m in by_stage.get("atpg", [])]),
        "iddq_vectors": sum(m["vectors"] for m in by_stage.get("atpg", [])),
    }
    digest = json.dumps(
        [[e["circuit"], e["stage"], e["meta"]] for e in entries], sort_keys=True
    )
    return (
        {
            "attempted": len(entries),
            "failed": len(errors),
            "errors": errors,
            "digest": digest,
            "quality": quality,
        },
        manifest,
    )


def run(spec: dict) -> dict:
    t0 = float(os.environ["PERFBENCH_T0"])
    trace = bool(spec.get("trace"))
    sampler = contextlib.nullcontext() if trace else SpeedSampler()
    with sampler:
        import numpy

        from repro import obs
        from repro.netlist.benchmarks import load_iscas85

        from layers import PIPELINE_MODULES, attribute, install

        # Import the whole pipeline during set-up in both modes, so that
        # the traced and untraced runs time the same work.
        for module in PIPELINE_MODULES:
            importlib.import_module(module)
        if trace:
            obs.enable(trace=True, metrics=True)
            install(spec["workload"])
        for name in spec["circuits"]:
            load_iscas85(name).compiled
    setup_s = time.time() - t0
    result: dict = {"setup_s": setup_s, "numpy": numpy.__version__}
    if not trace:
        result["setup_s"] -= sum(sampler.samples)
        result["setup_sample_s"] = sum(sampler.samples) / len(sampler.samples)
    if spec.get("setup_only"):
        return result

    manifest = None
    start_ns = time.monotonic_ns()
    if spec["workload"] == "table1-quick":
        outcome = _table1(spec, sample=not trace)
    else:
        sampler = contextlib.nullcontext() if trace else SpeedSampler()
        with sampler:
            outcome, manifest = _campaign(spec)
        if not trace:
            outcome["wall_sample_s"] = sum(sampler.samples) / len(sampler.samples)
            outcome["sampled_s"] = sum(sampler.samples)
    end_ns = time.monotonic_ns()
    result.update(outcome)
    result["wall_s"] = (end_ns - start_ns) / 1e9 - outcome.get("sampled_s", 0.0)
    if outcome.get("row_s"):
        # Host seconds in rows, without the speed samples.
        result["wall_s"] = sum(seconds for _, seconds, _ in outcome["row_s"])
    result["peak_rss_mb"] = _peak_rss_mb()
    if trace:
        result["attribution"] = attribute(obs.TRACER.events(), (start_ns, end_ns))
        result["counters"] = obs.METRICS.counters()
        stage_s: dict[str, float] = {}
        for entry in (manifest or {}).get("entries", []):
            stage_s[entry["stage"]] = stage_s.get(entry["stage"], 0.0) + entry["seconds"]
        result["stage_s"] = stage_s
        if spec.get("trace_out"):
            from repro.obs.sinks import export_chrome_trace

            export_chrome_trace(spec["trace_out"])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    args = parser.parse_args()
    result = run(json.loads(args.spec))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
