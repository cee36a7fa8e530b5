"""End-to-end benchmark of the PART-IDDQ pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload table1-quick --seed 1995 --seconds 15 --trace 0

Workloads (closed loop, one client, one run at a time, each pass in a
fresh child process):

* ``table1-quick`` -- ``run_table1`` on the paper's six Table-1 circuits
  at quick budgets.  The paper's headline experiment; optimiser and
  estimator-build bound, no fault simulation, store or pool.
* ``campaign-cold`` -- ``run_campaign`` on the same circuits, all four
  stages, ``jobs = min(2, nproc)``, on an empty cache.  The only
  workload with fault simulation, the process pool and store writes.
* ``campaign-warm`` -- the same campaign again, in a fresh process,
  against the cache a cold run filled (the fill is not timed).  Store
  reads, fingerprints and set-up; the optimiser and fault simulation
  do nothing.

``BENCHMARK.json`` lists the first two for regression runs; a warm
pass is under a second, so host-speed drift on a shared machine moves
its median by more than the largest bound allowed.  ``campaign-warm``
stays runnable here for its checks and its traced layers.

``--seed`` becomes the Table-1 / campaign seed (bounds were set at
1995; confirm later claims on the held-out seed 7); the timed passes of
one run cycle through it and the next ``SEEDS_PER_RUN - 1`` seeds, and
results must repeat exactly between passes at one seed.  With ``--trace 0``
the passes run untraced and the last line of output reports the
end-to-end metrics; with ``--trace 1`` one untraced and two traced
passes run and it reports the per-layer metrics of ``layers.py``.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any output
check fails.

On a shared host other tenants slow the program by up to ~80% for
seconds to minutes at a time, so medians of host seconds over a run's
passes spread past the bounds.  ``wall_s`` and ``setup_s`` are
therefore seconds at a reference host speed: each timed stretch is
scaled by the host speed sampled while it ran (see ``child.py``).
Table 1's ``wall_s`` sums each circuit's median scaled row time over
passes; a campaign's is the median scaled pass; ``setup_s`` is the
median scaled set-up.  Unscaled host seconds are printed too and kept
in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import PROBE_REF_S  # noqa: E402
from layers import (  # noqa: E402
    COLD, LAYERS, PER_LAYER, SETUP_LAYERS, TABLE1, WARM, layer_metrics,
)

WORKLOADS = (TABLE1, COLD, WARM)
TABLE1_CIRCUITS = ("c1908", "c2670", "c3540", "c5315", "c6288", "c7552")
BOUNDS_SEED = 1995
HELD_OUT_SEED = 7
#: Every run stops starting new passes this long after it began, so it
#: ends well inside the 180 s a run may take.
BUDGET_S = 150.0
#: Passes per run, at least.  A warm pass is short, so more of them
#: make its median steady.  Table 1 takes four, so that with three
#: seeds a run also repeats one.
MIN_PASSES = {TABLE1: 4, COLD: 3, WARM: 6}
#: Set-up samples per run, at least; set-up-only passes (~2 s each)
#: make up what the timed passes do not give.
MIN_SETUP_SAMPLES = 4
SEEDS_PER_RUN = 3
#: One BLAS/OpenMP thread per process: two pool workers with default
#: OpenBLAS threading would oversubscribe a 2-CPU machine.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Units of each workload's deterministic results.
QUALITY_UNITS = {"sensor_area": "area", "standard_area": "area", "partition_cost": "cost",
                 "stuckat_coverage": "fraction", "iddq_coverage": "fraction",
                 "iddq_vectors": "count"}
#: Counters that measure time, not work; they may differ between runs.
TIMING_COUNTERS = ("executor.task_seconds",)


class Runner:
    """Starts child passes for one benchmark run and keeps their files."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = f"{src}{os.pathsep}{path}" if path else src
        self.env["PYTHONHASHSEED"] = "0"
        self.env.update(THREAD_ENV)
        for name in ("REPRO_TRACE", "REPRO_METRICS", "REPRO_JOBS", "REPRO_CACHE_DIR",
                     "REPRO_FAULT_PLAN", "REPRO_HEARTBEAT"):
            self.env.pop(name, None)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def cache_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def pass_(self, spec: dict) -> dict:
        """One child pass; returns its result, or a failed stand-in."""
        self.count += 1
        out = self.workdir / f"pass-{self.count}.json"
        log = self.workdir / f"pass-{self.count}.log"
        cmd = [sys.executable, str(HERE / "child.py"), "--spec", json.dumps(spec),
               "--out", str(out)]
        env = dict(self.env, PERFBENCH_T0=repr(time.time()))
        with log.open("w") as handle:
            proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdout=handle,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.time_left() + 20.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # Pool workers share the child's session; none may outlive it.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode == 0 and out.exists():
            return json.loads(out.read_text())
        tail = log.read_text()[-2000:]
        print(f"pass {self.count} ({spec['workload']}) failed, exit {proc.returncode}:\n{tail}",
              file=sys.stderr)
        attempted = len(spec["circuits"]) * (1 if spec["workload"] == TABLE1 else 4)
        return {"attempted": attempted, "failed": attempted,
                "errors": [f"child exit {proc.returncode}"], "crashed": True}


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Seed of a run's pass ``index``.  Table-1 and cold-campaign passes
    cycle through ``SEEDS_PER_RUN`` consecutive seeds from ``seed``: the
    partitions a seed leads to change the work by up to ~20% a circuit,
    so a run's median over several seeds moves less between runs.  Warm
    passes read the cache a run at ``seed`` filled."""
    return seed if workload == WARM else seed + index % SEEDS_PER_RUN


def make_spec(workload: str, circuits, seed: int, jobs: int, **extra) -> dict:
    return dict({"workload": workload, "circuits": list(circuits), "seed": seed,
                 "jobs": jobs, "cache_dir": None, "expect_hits": False}, **extra)


class Checks:
    """Output checks; each one is an operation that passes or fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add_passes(self, passes) -> None:
        for result in passes:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.notes += result.get("errors", [])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")


def _same(results, key: str) -> bool:
    values = [r.get(key) for r in results if not r.get("crashed")]
    return len(values) == len(results) and all(v == values[0] for v in values)


def _work_counters(result: dict) -> dict:
    return {k: v for k, v in result.get("counters", {}).items() if k not in TIMING_COUNTERS}


def _fill(runner: Runner, circuits, seed: int, jobs: int, checks: Checks) -> tuple[str, dict]:
    """The untimed cold run that a warm run reads from."""
    cache = runner.cache_dir()
    fill = runner.pass_(make_spec(COLD, circuits, seed, jobs, cache_dir=cache))
    checks.add_passes([fill])
    return cache, fill


def _spec_for(workload: str, circuits, seed: int, jobs: int, runner: Runner, cache):
    if workload == TABLE1:
        return make_spec(TABLE1, circuits, seed, jobs)
    if workload == COLD:
        return make_spec(COLD, circuits, seed, jobs, cache_dir=runner.cache_dir())
    return make_spec(WARM, circuits, seed, jobs, cache_dir=cache, expect_hits=True)


def end_to_end(runner: Runner, workload: str, circuits, seed: int, jobs: int,
               seconds: float) -> tuple[dict, Checks, dict]:
    checks = Checks()
    cache = fill = None
    if workload == WARM:
        cache, fill = _fill(runner, circuits, seed, jobs, checks)
    passes: list[dict] = []
    started = time.monotonic()
    while len(passes) < MIN_PASSES[workload] or time.monotonic() - started < seconds:
        if passes and runner.time_left() < 2 * max(p.get("wall_s", 0) + 3 for p in passes):
            break
        spec = _spec_for(workload, circuits, pass_seed(workload, seed, len(passes)), jobs,
                         runner, cache)
        passes.append(dict(runner.pass_(spec), seed=spec["seed"]))
    checks.add_passes(passes)
    setup = [p for p in passes if "setup_s" in p]
    while len(setup) < MIN_SETUP_SAMPLES and runner.time_left() > 15:
        probe = runner.pass_(make_spec(workload, circuits, seed, jobs, setup_only=True))
        checks.check("setup_s" in probe, "set-up pass completed")
        if "setup_s" in probe:
            setup.append(probe)
    ok = [p for p in passes if not p.get("crashed")]
    checks.check(len(ok) >= MIN_PASSES[workload],
                 f"at least {MIN_PASSES[workload]} passes completed")
    by_seed: dict[int, list[dict]] = {}
    for result in passes:
        by_seed.setdefault(result["seed"], []).append(result)
    checks.check(all(_same(group, "digest") for group in by_seed.values()),
                 "results repeat exactly across passes with one seed")
    if fill is not None:
        checks.check(_same([fill] + passes, "digest"),
                     "warm manifest meta equals the cold run's")
    metrics = {}
    host = {}
    if ok and setup:
        metrics = {
            "wall_s": wall_s(workload, ok),
            "setup_s": statistics.median(p["setup_s"] * PROBE_REF_S / p["setup_sample_s"]
                                         for p in setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
        }
        host = {"wall_s": statistics.median(p["wall_s"] for p in ok),
                "setup_s": statistics.median(p["setup_s"] for p in setup)}
    record = {"passes": passes, "setup_samples": [p["setup_s"] for p in setup],
              "host": host, "quality": ok[0]["quality"] if ok else {}}
    return metrics, checks, record


def wall_s(workload: str, passes) -> float:
    """Host seconds scaled to the reference speed.  Table 1: each row's
    median over passes, summed over circuits.  A campaign: the median of
    its passes."""
    if workload != TABLE1:
        return statistics.median(p["wall_s"] * PROBE_REF_S / p["wall_sample_s"]
                                 for p in passes)
    rows: dict[str, list[float]] = {}
    for result in passes:
        for name, seconds, sample in result["row_s"]:
            rows.setdefault(name, []).append(seconds * PROBE_REF_S / sample)
    return sum(statistics.median(times) for times in rows.values())


def traced(runner: Runner, workload: str, circuits, seed: int, jobs: int,
           trace_dir: Path) -> tuple[dict, Checks, dict]:
    checks = Checks()
    cache = fill = None
    if workload == WARM:
        cache, fill = _fill(runner, circuits, seed, jobs, checks)
    plain = runner.pass_(_spec_for(workload, circuits, seed, jobs, runner, cache))
    runs = [
        runner.pass_(dict(_spec_for(workload, circuits, seed, jobs, runner, cache),
                          trace=True,
                          trace_out=str(trace_dir / f"trace-{workload}-{i}.json")))
        for i in range(2)
    ]
    checks.add_passes([plain] + runs)
    checks.check(_same([plain] + runs, "digest"),
                 "traced results equal the untraced run's")
    checks.check(all(_work_counters(r) == _work_counters(runs[0]) for r in runs[1:])
                 and not any(r.get("crashed") for r in runs),
                 "program counters repeat exactly across two traced runs")
    if fill is not None:
        checks.check(_same([fill, plain] + runs, "digest"),
                     "warm manifest meta equals the cold run's")
    metrics: dict[str, float] = {}
    if "attribution" in runs[0] and "wall_s" in plain:
        metrics = layer_metrics(runs[0], plain["wall_s"], jobs)
        attr = runs[0]["attribution"]
        layer_sum = sum(attr["wall"].values()) + attr["other_s"]
        checks.check(all(v >= -1e-6 for v in attr["wall"].values())
                     and all(v >= -1e-6 for v in attr["setup"].values())
                     and attr["other_s"] >= -1e-6,
                     "self times are non-negative")
        checks.check(abs(layer_sum - attr["wall_s"]) <= 1e-6 * max(1.0, attr["wall_s"]),
                     "layer self times plus other_s add up to the traced wall time")
    return metrics, checks, {"untraced": plain, "traced": runs}


BYPASS = {
    TABLE1: ("faultsim.", "backend.", "runtime."),
    WARM: ("optimize.es", "optimize.standard", "optimize.portfolio", "optimize.annealing",
           "optimize.kl", "partition.trial_", "partition.penalized_cost",
           "partition.move_gates", "faultsim."),
}
_BYPASS_EXEMPT = ("runtime.campaign.stage_s.", "runtime.executor.busy_frac")
#: The evolution strategy and the gain kernels it drives.
ES_LAYERS = ("optimize.es_s", "partition.trial_moves_s", "partition.trial_swaps_s",
             "partition.penalized_cost_s", "partition.move_gates_s",
             "analysis.retime_batch_s")


def bypass_report(workload: str, metrics: dict) -> list[str]:
    """The traced run's predictions: layers this workload should not
    touch, and on Table 1 the share of the ES and its gain kernels."""
    lines = []
    prefixes = BYPASS.get(workload, ())
    touched = sorted(
        name for name, value in metrics.items()
        if name.startswith(prefixes) and not name.startswith(_BYPASS_EXEMPT)
        and name.endswith("_s") and value > 0
    )
    if prefixes and touched:
        lines.append(f"bypass prediction violated: {', '.join(touched)}")
    elif prefixes:
        lines.append(f"bypass prediction holds: {', '.join(prefixes)} read zero")
    if workload == TABLE1:
        group = sum(metrics[name] for name in ES_LAYERS)
        wall = sum(metrics[f"{layer}_s"] for layer in LAYERS
                   if layer not in SETUP_LAYERS) + metrics["other_s"]
        rest = max(metrics[f"{layer}_s"] for layer in LAYERS
                   if f"{layer}_s" not in ES_LAYERS and layer not in SETUP_LAYERS)
        verdict = "holds" if group > rest else "violated"
        lines.append(f"ES and gain kernels take {100 * group / wall:.1f}% of traced wall "
                     f"time; largest-share prediction {verdict}")
    return lines


def environment(root: Path, seed: int, jobs: int, record: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    numpy_version = next((p.get("numpy") for p in _all_passes(record) if p.get("numpy")),
                         "unknown")
    return {"seed": seed, "bounds_seed": BOUNDS_SEED, "held_out_seed": HELD_OUT_SEED,
            "nproc": os.cpu_count(), "jobs": jobs, "threads": THREAD_ENV,
            "python": platform.python_version(), "numpy": numpy_version, "commit": commit}


def _all_passes(record: dict):
    yield from record.get("passes", [])
    if "untraced" in record:
        yield record["untraced"]
        yield from record["traced"]


def run_workload(root: Path, workdir: Path, workload: str, seed: int, seconds: float,
                 trace: bool, circuits=TABLE1_CIRCUITS) -> dict:
    jobs = min(2, os.cpu_count() or 1)
    workdir.mkdir(exist_ok=True)
    runner = Runner(root, Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir)),
                    time.monotonic() + BUDGET_S)
    try:
        if trace:
            metrics, checks, record = traced(runner, workload, circuits, seed, jobs, workdir)
        else:
            metrics, checks, record = end_to_end(runner, workload, circuits, seed, jobs,
                                                 seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    units = {name: unit for name, unit, *_ in PER_LAYER} if trace else {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    correct = checks.failed == 0 and set(metrics) == set(units)
    env = environment(root, seed, jobs, record)
    summary = {
        "workload": workload, "env": env, "attempted": checks.attempted,
        "failed": checks.failed, "notes": checks.notes, "metrics": metrics,
        "record": record,
    }
    (workdir / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1, default=str))
    print(f"== {workload}  seed={seed}  trace={int(trace)}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name in units:
        if name in metrics:
            print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    if not trace:
        for name, value in record.get("host", {}).items():
            print(f"  {name + ' (host seconds, unscaled)':<40} {value:>14.6g} s")
        for name, value in sorted(record.get("quality", {}).items()):
            print(f"  {name:<40} {value:>14.6g} {QUALITY_UNITS[name]}")
    print(f"  {'failed_frac':<40} {checks.failed / max(1, checks.attempted):>14.6g} "
          f"(of {checks.attempted} attempted)")
    for note in checks.notes + (bypass_report(workload, metrics) if trace else []):
        print(f"  {note}")
    return {
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed or (0 if correct else 1),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end PART-IDDQ benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=BOUNDS_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long each workload keeps starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a pass in flight is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench"
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {w: run_workload(root, workdir, w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
