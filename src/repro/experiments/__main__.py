"""CLI for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table1 [--full]
    python -m repro.experiments all [--full]
    python -m repro.experiments campaign [--circuits c432,c880]
        [--stages separation,stuck-at,atpg,optimize] [--jobs N]
        [--cache-dir DIR] [--out manifest.json] [--resume MANIFEST]
        [--trace TRACE.json] [--prom FILE.prom] [--watch [SECONDS]]
        [--heartbeat SECONDS] [--stall-after SECONDS]
        [--task-timeout SECONDS] [--task-retries N] [--seed S] [--full]
    python -m repro.experiments status RUN [--watch [SECONDS]]
    python -m repro.experiments trace-report TRACE.json

``all`` continues past a failing experiment, prints a per-experiment
pass/fail summary and exits non-zero if any failed.  ``campaign`` runs
pipeline stages x circuits through the artifact cache and process pool
and writes a JSON manifest of artifacts, cache hits and timings
(see :mod:`repro.runtime.campaign`).  With ``--out`` the campaign also
journals entries to ``<out>.partial.jsonl`` as they complete and
maintains a live ``<out>.status.json`` progress ledger; ``--resume``
takes a previous manifest (or that journal) and skips stages already
recorded as succeeded.  ``--trace`` turns on runtime telemetry (spans +
counters, workers included) and writes a Chrome trace-event file
loadable in Perfetto / ``chrome://tracing``; ``--prom`` maintains a
Prometheus textfile for the node-exporter textfile collector.
``--heartbeat`` / ``--stall-after`` set the worker heartbeat interval
and the soft stall threshold (the environment channel
``REPRO_HEARTBEAT`` / ``REPRO_STALL_AFTER``, so they reach pool
workers); ``--watch`` renders the status ledger to stderr while the
campaign runs.  ``status`` renders a run's status.json once — or
repeatedly with ``--watch`` until the run reports done — for watching
a campaign started elsewhere.  ``trace-report`` summarizes a trace
file in the terminal.  A campaign with failed stages exits 1 (the
manifest still records every entry).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.catalog import experiment_names, run_experiment


def _run_all(full: bool) -> int:
    """Run every experiment, continuing on error; non-zero exit on any
    failure."""
    outcomes: list[tuple[str, Exception | None]] = []
    for name in experiment_names():
        try:
            result = run_experiment(name, quick=not full)
        except Exception as exc:  # noqa: BLE001 - sweep must survive any failure
            traceback.print_exc()
            print(f"== {name} == FAILED: {exc}")
            outcomes.append((name, exc))
        else:
            print(result.render())
            outcomes.append((name, None))
        print()
    failed = [name for name, exc in outcomes if exc is not None]
    print(f"== summary: {len(outcomes) - len(failed)}/{len(outcomes)} passed ==")
    for name, exc in outcomes:
        status = "FAIL" if exc is not None else "ok"
        detail = f"  ({type(exc).__name__}: {exc})" if exc is not None else ""
        print(f"  {status:4s} {name}{detail}")
    return 1 if failed else 0


def _run_campaign(args) -> int:
    from repro.runtime.campaign import (
        CampaignConfig,
        render_manifest,
        run_campaign,
        status_path,
    )

    # Executor knobs travel by environment so they reach pool workers
    # spawned anywhere below the campaign (same channel REPRO_JOBS uses).
    if args.task_timeout is not None:
        os.environ["REPRO_TASK_TIMEOUT"] = str(args.task_timeout)
    if args.task_retries is not None:
        os.environ["REPRO_TASK_RETRIES"] = str(args.task_retries)
    if args.heartbeat is not None:
        os.environ["REPRO_HEARTBEAT"] = str(args.heartbeat)
    if args.stall_after is not None:
        os.environ["REPRO_STALL_AFTER"] = str(args.stall_after)
    if args.watch is not None and not args.out:
        print("campaign: --watch needs --out (it polls <out>.status.json)",
              file=sys.stderr)
        return 2
    config = CampaignConfig(
        circuits=tuple(c.strip() for c in args.circuits.split(",") if c.strip()),
        stages=tuple(s.strip() for s in args.stages.split(",") if s.strip()),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        seed=args.seed,
        quick=not args.full,
        out=args.out,
        resume=args.resume,
        trace=args.trace,
        prom=args.prom,
    )
    watcher = (
        _start_watcher(status_path(args.out), args.watch)
        if args.watch is not None
        else None
    )
    try:
        manifest = run_campaign(config)
    finally:
        if watcher is not None:
            watcher()
    print(render_manifest(manifest))
    return 1 if manifest["totals"].get("failed") else 0


def _start_watcher(path, interval: float):
    """Start the ``--watch`` thread: poll ``path`` and render it to
    stderr whenever it changes.  Returns the stop function.  Side
    channel only — rendering failures must never touch the campaign."""
    import threading

    from repro.obs.live import render_status

    stop = threading.Event()

    def watch() -> None:
        last = None
        while not stop.wait(interval):
            try:
                status = json.loads(Path(path).read_text())
            except (OSError, json.JSONDecodeError):
                continue
            stamp = status.get("updated_unix")
            if stamp == last:
                continue
            last = stamp
            print(render_status(status), file=sys.stderr, flush=True)

    thread = threading.Thread(target=watch, name="repro-watch", daemon=True)
    thread.start()

    def stopper() -> None:
        stop.set()
        thread.join(timeout=interval + 1.0)

    return stopper


def _resolve_status_path(run: str) -> Path:
    """Map a ``status`` argument to the status file it names: a run
    directory, the status file itself, or a manifest path whose
    ``<manifest>.status.json`` companion exists."""
    path = Path(run)
    if path.is_dir():
        return path / "status.json"
    if path.name.endswith("status.json"):
        return path
    companion = Path(f"{run}.status.json")
    if companion.exists():
        return companion
    return path


def _run_status(args) -> int:
    from repro.obs.live import render_status

    path = _resolve_status_path(args.run)
    interval = args.watch
    while True:
        try:
            status = json.loads(path.read_text())
        except OSError as exc:
            print(f"status: cannot read {path}: {exc}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"status: {path} is not valid JSON: {exc}", file=sys.stderr)
            return 1
        print(render_status(status))
        if interval is None or status.get("state") == "done":
            return 0
        time.sleep(interval)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("name", help="experiment id (see 'list')")
    run.add_argument("--full", action="store_true", help="full (slow) budgets")
    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--full", action="store_true", help="full (slow) budgets")
    campaign = sub.add_parser(
        "campaign",
        help="run pipeline stages x circuits through the artifact cache "
        "and process pool, writing a JSON manifest",
    )
    campaign.add_argument(
        "--circuits",
        default="c432,c880",
        help="comma-separated ISCAS85 circuit names (default: c432,c880)",
    )
    campaign.add_argument(
        "--stages",
        default="separation,stuck-at,atpg,optimize",
        help="comma-separated stage names, executed in order",
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool workers (default: $REPRO_JOBS, then serial)",
    )
    campaign.add_argument(
        "--cache-dir",
        default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR, then "
        "~/.cache/repro-part-iddq)",
    )
    campaign.add_argument(
        "--out",
        default=None,
        help="manifest JSON path (also enables the <out>.partial.jsonl "
        "journal written as stages complete)",
    )
    campaign.add_argument(
        "--resume",
        default=None,
        metavar="MANIFEST",
        help="previous manifest (or .partial.jsonl journal) whose "
        "succeeded entries are skipped",
    )
    campaign.add_argument(
        "--trace",
        default=None,
        metavar="TRACE.json",
        help="enable runtime telemetry and write a Chrome trace-event "
        "file here (load in Perfetto or chrome://tracing; summarize "
        "with the trace-report subcommand)",
    )
    campaign.add_argument(
        "--prom",
        default=None,
        metavar="FILE.prom",
        help="enable metrics and maintain a Prometheus textfile here "
        "(node-exporter textfile collector format, rewritten "
        "atomically after every stage)",
    )
    campaign.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task deadline for pool workers "
        "(default: $REPRO_TASK_TIMEOUT, then none)",
    )
    campaign.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="per-task retry budget (default: $REPRO_TASK_RETRIES, then 0)",
    )
    campaign.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="worker heartbeat interval (sets $REPRO_HEARTBEAT; "
        "default: that variable, then off)",
    )
    campaign.add_argument(
        "--stall-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="soft stall threshold before the hard task timeout "
        "(sets $REPRO_STALL_AFTER; default: that variable, then "
        "half the task timeout)",
    )
    campaign.add_argument(
        "--watch",
        type=float,
        nargs="?",
        const=2.0,
        default=None,
        metavar="SECONDS",
        help="render <out>.status.json to stderr while the campaign "
        "runs, polling every SECONDS (default 2); requires --out",
    )
    campaign.add_argument("--seed", type=int, default=1995)
    campaign.add_argument("--full", action="store_true", help="full (slow) budgets")
    status = sub.add_parser(
        "status",
        help="render a campaign run's status.json (a run directory, a "
        "manifest path, or the status file itself)",
    )
    status.add_argument(
        "run",
        help="run to inspect: a status.json path, a manifest path with "
        "a <manifest>.status.json companion, or a directory holding "
        "status.json",
    )
    status.add_argument(
        "--watch",
        type=float,
        nargs="?",
        const=2.0,
        default=None,
        metavar="SECONDS",
        help="re-render every SECONDS until the run reports done",
    )
    trace_report = sub.add_parser(
        "trace-report",
        help="summarize a Chrome trace-event file written by "
        "campaign --trace (per-span totals, per-worker attribution, "
        "runtime counters)",
    )
    trace_report.add_argument("trace", help="trace JSON path")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ExperimentError as exc:
        # An unknown experiment or stage, or an unreadable resume file,
        # is an operator error, not a crash: one readable line, exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "list":
        for name in experiment_names():
            print(name)
        return 0
    if args.command == "run":
        result = run_experiment(args.name, quick=not args.full)
        print(result.render())
        return 0
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "trace-report":
        from repro.obs.report import render_trace_report

        try:
            print(render_trace_report(args.trace))
        except ExperimentError as exc:
            # Empty, truncated or non-trace input is an operator error,
            # not a crash: one readable line, exit 1.
            print(f"trace-report: {exc}", file=sys.stderr)
            return 1
        return 0
    return _run_all(args.full)


if __name__ == "__main__":
    sys.exit(main())
