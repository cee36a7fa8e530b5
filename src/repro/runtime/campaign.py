"""The campaign runner: experiments x circuits through cache + executor.

``python -m repro.experiments campaign`` drives the paper's pipeline
stages — separation matrix, stuck-at detection matrix, IDDQ ATPG,
partition optimisation — over a list of benchmark circuits, memoizing
every stage in the artifact store and spreading the work across the
process pool: one task per circuit when several circuits have stages
to run, otherwise each stage sharded.  The run writes a JSON **manifest**
recording, per (circuit, stage): its status, whether it was served from
cache, wall-clock seconds and stage-specific metadata — the
machine-readable receipt the benchmarks and CI assert against (e.g. "a
second run serves separation/detection/test-set artifacts from the
cache").  An entry carries no artifact cache key: a key can move (a
schema bump, a new key recipe in :mod:`repro.runtime.artifacts`)
while every manifest field stays the same.

Failure model (DESIGN.md §10): each (circuit, stage) runs inside its
own try/except — one failure quarantines that entry (``"status":
"failed"`` with the error string in the manifest) while every other
entry, including downstream stages of other circuits, still runs.
With an output path configured, entries are journaled incrementally to
``<manifest>.partial.jsonl`` the moment each stage completes, so a
killed campaign leaves a durable record; ``resume=<manifest-or-journal>``
skips entries already recorded as succeeded (copied into the new
manifest with ``"resumed": true``) and re-executes only the rest —
restarted on the same cache directory, the campaign completes from
where it died with bit-identical artifacts.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.errors import ExperimentError
from repro.obs import live
from repro.runtime.artifacts import (
    cached_detection_matrix,
    cached_iddq_test_set,
    cached_portfolio,
    cached_separation_matrix,
)
from repro.runtime.executor import Executor, resolve_jobs
from repro.runtime.faults import FaultPlan, InjectedKill
from repro.runtime.store import ArtifactStore

__all__ = [
    "CampaignConfig",
    "load_resume_entries",
    "render_manifest",
    "run_campaign",
    "save_manifest",
    "status_path",
    "STAGES",
]

#: Stage execution order — later stages reuse earlier artifacts (the
#: optimiser and ATPG stages consume the cached separation matrix).
STAGES: tuple[str, ...] = ("separation", "stuck-at", "atpg", "optimize")

#: Schema 2 adds per-entry "status" (ok | failed), optional "error" /
#: "resumed" fields and the failed/resumed totals.  Schema 3 adds the
#: optional per-entry "metrics" dict — the runtime counter deltas the
#: stage produced (cache hits by kind, executor retries/restarts,
#: summed worker task seconds), present only when metrics reporting is
#: on (``--trace`` / ``REPRO_METRICS``); with reporting off, a schema-3
#: manifest is field-for-field a schema-2 manifest.  Schema 4 adds the
#: always-present ``totals["executor"]`` recovery profile (retries,
#: timeouts, pool restarts, serial fallbacks, tasks recovered, stalls)
#: — a count of recovery *events* that a deterministic fault plan
#: repeats exactly, except ``tasks_recovered``: how many tasks a broken
#: pool strands depends on how far the others had got.  Both
#: ``totals["store"]`` and ``totals["executor"]`` are deltas of the
#: :data:`repro.obs.METRICS` registry over the run (circuit tasks'
#: counts included), zero-filled to the keys of :data:`_TOTALS`.
MANIFEST_SCHEMA = 4


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: circuits x stages, budgets, cache and pool knobs.

    ``out`` is the manifest path; setting it enables the incremental
    ``<out>.partial.jsonl`` journal and the atomic manifest write at
    the end.  ``resume`` names a previous manifest (or journal) whose
    succeeded entries are skipped.  ``trace`` names a Chrome
    trace-event output path; setting it turns on span tracing *and*
    metrics reporting for the run (workers included — the executor
    forwards the flags with every task) and writes the merged,
    worker-attributed trace there at the end.  ``prom`` names a
    Prometheus textfile (node-exporter textfile collector format);
    setting it turns on metrics reporting and rewrites the file after
    every stage and at the end.
    Telemetry never changes computed results: the manifest is identical
    modulo ``seconds`` and the per-entry ``metrics`` dicts.

    With ``out`` set the run also maintains ``<out>.status.json`` (the
    :class:`repro.obs.live.ProgressLedger` document — atomic-renamed
    after every stage, so it always parses) and, when the heartbeat
    channel is on without an explicit ``REPRO_HEARTBEAT_DIR``, pins the
    heartbeat run directory to ``<out>.hb`` so the run's worker files
    land next to its manifest.
    """

    circuits: tuple[str, ...] = ("c432", "c880")
    stages: tuple[str, ...] = STAGES
    jobs: int | None = None
    cache_dir: str | None = None
    seed: int = 1995
    quick: bool = True
    out: str | None = None
    resume: str | None = None
    trace: str | None = None
    prom: str | None = None

    def __post_init__(self) -> None:
        if not self.circuits:
            raise ExperimentError("campaign needs at least one circuit")
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ExperimentError(
                f"unknown campaign stage(s) {unknown}; known: {list(STAGES)}"
            )


@dataclass
class _Context:
    """Per-circuit lazy state shared between stages."""

    circuit: object
    config: CampaignConfig
    store: ArtifactStore
    jobs: int
    evaluator: object | None = None
    partition: object | None = None
    extra: dict = field(default_factory=dict)


def _quick(config: CampaignConfig, quick_value, full_value):
    return quick_value if config.quick else full_value


def _get_evaluator(ctx: _Context):
    """Evaluator with the separation matrix served through the cache."""
    if ctx.evaluator is None:
        from repro.library.default_lib import generic_technology
        from repro.partition.evaluator import PartitionEvaluator

        technology = generic_technology()
        separation, hit = cached_separation_matrix(
            ctx.store, ctx.circuit, technology.separation_cap
        )
        ctx.extra["separation_hit"] = hit
        ctx.evaluator = PartitionEvaluator(
            ctx.circuit, technology=technology, separation=separation
        )
    return ctx.evaluator


def _get_partition(ctx: _Context):
    if ctx.partition is None:
        from repro.optimize.start import chain_start_partition, estimate_module_count

        evaluator = _get_evaluator(ctx)
        ctx.partition = chain_start_partition(
            evaluator,
            estimate_module_count(evaluator),
            random.Random(ctx.config.seed),
        )
    return ctx.partition


# ------------------------------------------------------------------- stages
def _stage_separation(ctx: _Context) -> dict:
    from repro.library.default_lib import generic_technology

    cap = generic_technology().separation_cap
    matrix, hit = cached_separation_matrix(ctx.store, ctx.circuit, cap)
    return {"hit": hit, "meta": {"cap": cap, "gates": int(matrix.matrix.shape[0])}}


def _stage_stuck_at(ctx: _Context) -> dict:
    from repro.faultsim.patterns import random_patterns
    from repro.faultsim.stuck_at import enumerate_stuck_at_faults

    config = ctx.config
    faults = enumerate_stuck_at_faults(ctx.circuit)
    patterns = random_patterns(
        len(ctx.circuit.input_names),
        _quick(config, 64, 256),
        seed=config.seed,
    )
    matrix, hit = cached_detection_matrix(
        ctx.store, ctx.circuit, faults, patterns, jobs=ctx.jobs
    )
    coverage = float(matrix.any(axis=1).mean())
    return {
        "hit": hit,
        "meta": {
            "faults": len(faults),
            "patterns": int(patterns.shape[0]),
            "coverage": coverage,
        },
    }


def _stage_atpg(ctx: _Context) -> dict:
    from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts

    config = ctx.config
    partition = _get_partition(ctx)
    defects = sample_bridging_faults(
        ctx.circuit,
        _quick(config, 30, 120),
        seed=config.seed + 1,
        current_range_ua=(0.5, 8.0),
    ) + sample_gate_oxide_shorts(
        ctx.circuit,
        _quick(config, 15, 60),
        seed=config.seed + 2,
        current_range_ua=(0.5, 8.0),
    )
    tests, hit = cached_iddq_test_set(
        ctx.store,
        ctx.circuit,
        partition,
        defects,
        seed=config.seed,
        random_vectors=_quick(config, 32, 128),
        restarts=_quick(config, 2, 4),
        flip_budget=_quick(config, 8, 24),
        jobs=ctx.jobs,
    )
    return {
        "hit": hit,
        "meta": {
            "defects": len(defects),
            "vectors": tests.num_vectors,
            "coverage": tests.coverage,
        },
    }


def _stage_optimize(ctx: _Context) -> dict:
    from repro.config import EvolutionParams
    from repro.optimize.annealing import AnnealingParams

    config = ctx.config
    evaluator = _get_evaluator(ctx)
    evolution = EvolutionParams(
        generations=_quick(config, 6, 120),
        convergence_window=_quick(config, 4, 30),
    )
    annealing = (
        AnnealingParams(
            initial_temperature=5.0,
            cooling=0.7,
            steps_per_temperature=8,
            min_temperature=0.05,
        )
        if config.quick
        else AnnealingParams()
    )
    # A fixed two-seed population: the winner (and the cache key) must
    # not depend on --jobs, only on the campaign seed; workers merely
    # decide how the fixed seed list is scheduled.
    seeds = [config.seed, config.seed + 1]
    partition, meta, hit = cached_portfolio(
        ctx.store,
        evaluator,
        seeds,
        evolution_params=evolution,
        annealing_params=annealing,
        kl_passes=1,
        jobs=ctx.jobs,
    )
    return {"hit": hit, "meta": dict(meta, modules=partition.num_modules)}


_STAGE_RUNNERS = {
    "separation": _stage_separation,
    "stuck-at": _stage_stuck_at,
    "atpg": _stage_atpg,
    "optimize": _stage_optimize,
}


# ----------------------------------------------------------- journal / resume
def journal_path(out: str | Path) -> Path:
    """The incremental journal companion of a manifest path."""
    return Path(f"{out}.partial.jsonl")


def status_path(out: str | Path) -> Path:
    """The live ``status.json`` companion of a manifest path."""
    return Path(f"{out}.status.json")


def _journal_append(path: Path | None, entry: dict) -> None:
    """Durably append one manifest entry; best-effort (a full or
    read-only disk must not kill the campaign that is producing the
    results the journal is meant to protect).

    The line goes out in one ``os.write`` on an ``O_APPEND``
    descriptor, so circuit tasks appending from several workers never
    interleave their lines.
    """
    if path is None:
        return
    line = (json.dumps(entry, sort_keys=True) + "\n").encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        obs.TRACER.instant(
            "campaign.journal_degraded",
            path=str(path),
            error=f"{type(exc).__name__}: {exc}",
        )
        warnings.warn(
            f"campaign journal append failed ({type(exc).__name__}: {exc}); "
            "continuing without checkpoint",
            RuntimeWarning,
            stacklevel=3,
        )


def load_resume_entries(path: str | Path) -> dict[tuple[str, str], dict]:
    """Succeeded entries of a previous run, keyed by (circuit, stage).

    Accepts a finished manifest (JSON dict with ``entries``) or the
    ``.partial.jsonl`` journal a killed run left behind (one entry per
    line; a torn final line — the kill arriving mid-append — is
    ignored).  Only entries with ``status == "ok"`` are resumable;
    failed ones re-execute.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ExperimentError(f"cannot read resume manifest {path}: {exc}") from exc
    entries: list[dict] = []
    if path.suffix == ".jsonl":
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail line from a mid-append kill
    else:
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"resume manifest {path} is not valid JSON: {exc}"
            ) from exc
        entries = list(manifest.get("entries", []))
    resumable: dict[tuple[str, str], dict] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        circuit, stage = entry.get("circuit"), entry.get("stage")
        # Schema-1 manifests predate "status"; their entries all succeeded.
        if circuit and stage and entry.get("status", "ok") == "ok":
            resumable[(circuit, stage)] = entry
    return resumable


# ------------------------------------------------------------------ campaign
def _run_stage(ctx: _Context, stage: str, key: str, plan: FaultPlan | None) -> dict:
    """One (circuit, stage) under the fault plan's stage site
    (``stage:<circuit>/<stage>:<kind>``).

    ``error`` models a stage bug (quarantined by the caller); ``kill``
    models the whole process dying — it raises :class:`InjectedKill`
    (a ``BaseException``) so the per-stage ``except Exception`` cannot
    absorb it and the run terminates mid-campaign, as a real SIGKILL
    would, leaving only the journal behind.
    """
    kind = plan.match("stage", key) if plan else None
    if kind == "kill":
        raise InjectedKill(f"injected campaign kill at stage {key}")
    if kind == "error":
        raise ExperimentError(f"injected stage fault at {key}")
    return _STAGE_RUNNERS[stage](ctx)


def _stage_entry(ctx: _Context, name: str, stage: str, error: str | None, plan) -> dict:
    """Run one stage under its span and return its manifest entry;
    ``error`` (a circuit that could not run) fails it unrun."""
    stage_started = time.perf_counter()
    stage_mark = obs.METRICS.mark()
    with obs.TRACER.span("campaign.stage", circuit=name, stage=stage) as span:
        if error is None:
            try:
                outcome = _run_stage(ctx, stage, f"{name}/{stage}", plan)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        span.set(status="failed" if error else "ok")
        if obs.TRACER.enabled:
            span.set(maxrss_mb=live.max_rss_mb())
    seconds = time.perf_counter() - stage_started
    entry = {"circuit": name, "stage": stage}
    if error is None:
        entry.update(status="ok", hit=outcome["hit"], seconds=seconds,
                     meta=outcome["meta"])
    else:
        entry.update(status="failed", hit=False, seconds=seconds, error=error,
                     meta={})
        # The structured twin of the manifest's "failed" entry: the
        # quarantine decision lands in the event log with the same
        # attribution as the spans around it.
        obs.TRACER.instant(
            "campaign.quarantine", circuit=name, stage=stage, error=error
        )
    if obs.METRICS.enabled:
        entry["metrics"] = obs.METRICS.delta_since(stage_mark)
    return entry


@dataclass(frozen=True)
class _CircuitJob:
    """What running a circuit needs besides a store.  It is a circuit
    task's worker state too, so it carries no circuit: a worker loads
    its circuit through ``load_iscas85``, whose cache it inherits under
    fork."""

    config: CampaignConfig
    store_root: str
    plan: FaultPlan | None
    resumed: dict
    journal: Path | None

    def __call__(self) -> "_CircuitJob":
        """The executor's state factory: a worker's state is the job."""
        return self


def _run_circuit(
    job: _CircuitJob, name: str, store: ArtifactStore, jobs: int,
    on_start=None, on_entry=None, error: str | None = None,
) -> list[dict]:
    """One circuit's stages in order, each entry journaled as it
    completes; returns the entries.  Both dispatch modes (DESIGN §9.5)
    run it: in the parent, where ``on_start(name, stage)`` and
    ``on_entry(entry)`` feed the progress ledger, and as a circuit task
    with the stage drivers at ``jobs=1``.  With ``error`` set, every
    stage left to run fails with it."""
    from repro.netlist.benchmarks import load_iscas85

    stages, resumed = job.config.stages, job.resumed
    circuit = None
    if error is None and not all((name, s) in resumed for s in stages):
        try:
            circuit = load_iscas85(name)
        except Exception as exc:
            error = f"circuit load failed: {type(exc).__name__}: {exc}"
    ctx = _Context(circuit=circuit, config=job.config, store=store, jobs=jobs)
    entries: list[dict] = []
    for stage in stages:
        previous = resumed.get((name, stage))
        if previous is not None:
            entry = dict(previous, resumed=True)
        else:
            if on_start is not None:
                on_start(name, stage)
            entry = _stage_entry(ctx, name, stage, error, job.plan)
        entries.append(entry)
        _journal_append(job.journal, entry)
        if on_entry is not None:
            on_entry(entry)
    return entries


def _circuit_task(job: _CircuitJob, name: str) -> list[dict]:
    """Pool task: one circuit's stages (its counts reach the parent's
    registry with the task's telemetry snapshot)."""
    store = ArtifactStore(job.store_root, fault_plan=job.plan)
    return _run_circuit(job, name, store, 1)


#: The counters the manifest totals report, by group (``store.hits`` ...).
_TOTALS = {
    "store": ("hits", "misses", "puts", "quarantined"),
    "executor": (
        "retries", "timeouts", "pool_restarts", "serial_fallbacks",
        "tasks_recovered", "stalls",
    ),
}


def _run_totals(mark: dict, group: str) -> dict:
    """One group of :data:`_TOTALS`: registry deltas since ``mark``."""
    delta = obs.METRICS.delta_since(mark)
    return {name: delta.get(f"{group}.{name}", 0) for name in _TOTALS[group]}


def _circuit_order(config: CampaignConfig, resumed: dict, jobs: int) -> list[int]:
    """Indices of the circuits to run one per worker, largest (by gate
    count) first.  Empty — every stage shards across the pool instead —
    unless ``jobs > 1`` and at least two circuits have stages to run.
    A circuit that fails to load is left to the parent."""
    from repro.netlist.benchmarks import load_iscas85

    sizes: dict[int, int] = {}
    for i, name in enumerate(config.circuits):
        if jobs > 1 and not all((name, s) in resumed for s in config.stages):
            try:
                sizes[i] = len(load_iscas85(name).gate_names)
            except Exception:
                pass
    return sorted(sizes, key=lambda i: (-sizes[i], i)) if len(sizes) > 1 else []


def run_campaign(config: CampaignConfig) -> dict:
    """Execute the campaign; returns the manifest dict.

    Each (circuit, stage) is quarantined: an exception marks that entry
    ``"status": "failed"`` (error string in the manifest) and the
    campaign moves on — downstream stages of the same circuit may fail
    in cascade, but other circuits are unaffected.  When ``config.out``
    is set, every entry is journaled to ``<out>.partial.jsonl`` the
    moment it completes and the manifest itself is written atomically
    at the end (journal removed after a fully successful save).

    With ``jobs > 1`` and at least two circuits to run, each circuit
    runs its stages in order as one pool task; otherwise the circuits
    run in turn in this process and each stage shards across the pool
    (DESIGN §9.5).  Entries are identical either way.
    """
    if config.trace:
        obs.enable(trace=True, metrics=True)
    if config.prom:
        obs.enable(metrics=True)
    store = ArtifactStore(config.cache_dir)
    jobs = resolve_jobs(config.jobs)
    plan = FaultPlan.from_env()
    if (
        config.out
        and live.resolve_heartbeat() > 0
        and not os.environ.get(live.HEARTBEAT_DIR_ENV, "").strip()
    ):
        # Pin the heartbeat run directory next to the manifest before
        # the first executor resolves (and exports) a tempdir default.
        os.environ[live.HEARTBEAT_DIR_ENV] = f"{config.out}.hb"
    run_mark = obs.METRICS.mark()
    ledger = (
        live.ProgressLedger(
            status_path(config.out),
            [(name, stage) for name in config.circuits
             for stage in config.stages],
            config.stages,
            manifest=config.out,
        )
        if config.out
        else None
    )

    def finished(entry: dict) -> None:
        if ledger is not None:
            status = "resumed" if entry.get("resumed") else entry["status"]
            ledger.stage_finished(
                entry["circuit"], entry["stage"], status,
                entry.get("seconds", 0.0),
                executor=_run_totals(run_mark, "executor"),
            )
        if config.prom:
            from repro.obs.sinks import export_prometheus

            export_prometheus(config.prom)

    resumed_entries = (
        load_resume_entries(config.resume) if config.resume else {}
    )
    journal = journal_path(config.out) if config.out else None
    if journal is not None:
        # Start a fresh journal: resume entries were loaded above, so a
        # leftover journal from the killed run (possibly the file named
        # by config.resume itself) is safe to truncate now.
        try:
            journal.unlink(missing_ok=True)
        except OSError:
            pass
    started = time.perf_counter()
    job = _CircuitJob(config, str(store.root), plan, resumed_entries, journal)
    on_start = ledger.stage_started if ledger is not None else None
    order = _circuit_order(config, resumed_entries, jobs)
    per_circuit: list[list[dict] | None] = [None] * len(config.circuits)
    for i, name in enumerate(config.circuits):
        if i not in order:
            per_circuit[i] = _run_circuit(
                job, name, store, jobs, on_start, finished
            )

    def gathered(task: int, entries: list[dict]) -> None:
        per_circuit[order[task]] = entries
        for entry in entries:
            finished(entry)

    if order:
        try:
            Executor(jobs).map(
                _circuit_task,
                [config.circuits[i] for i in order],
                state_factory=job,
                on_result=gathered,
            )
        except Exception as exc:
            # A circuit task that failed outside its stages (a task
            # fault or deadline past its retry budget): quarantine every
            # stage left to run of each circuit the map did not return.
            error = f"circuit task failed: {type(exc).__name__}: {exc}"
            for i in order:
                if per_circuit[i] is None:
                    per_circuit[i] = _run_circuit(
                        job, config.circuits[i], store, jobs, None, finished,
                        error,
                    )
    entries = [entry for block in per_circuit for entry in block]
    executed_ok = [
        e for e in entries if e["status"] == "ok" and not e.get("resumed")
    ]
    hits = sum(1 for e in executed_ok if e["hit"])
    failed = sum(1 for e in entries if e["status"] == "failed")
    resumed = sum(1 for e in entries if e.get("resumed"))
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "cache_dir": str(store.root),
        "jobs": jobs,
        "quick": config.quick,
        "seed": config.seed,
        "circuits": list(config.circuits),
        "stages": list(config.stages),
        "entries": entries,
        "totals": {
            "entries": len(entries),
            # hits/misses count only stages executed this run — resumed
            # entries were not touched, failed ones built nothing.
            "hits": hits,
            "misses": len(executed_ok) - hits,
            "failed": failed,
            "resumed": resumed,
            "seconds": time.perf_counter() - started,
            "store": _run_totals(run_mark, "store"),
            "executor": _run_totals(run_mark, "executor"),
        },
    }
    if config.out:
        save_manifest(manifest, config.out)
        if journal is not None:
            journal.unlink(missing_ok=True)
    if ledger is not None:
        ledger.finalize(manifest["totals"])
    if config.trace:
        from repro.obs.sinks import export_chrome_trace

        export_chrome_trace(config.trace)
    if config.prom:
        from repro.obs.sinks import export_prometheus

        export_prometheus(config.prom)
    return manifest


def save_manifest(manifest: dict, path: str | Path) -> None:
    """Write the manifest atomically (temp + rename, like ``store.put``)
    so a kill mid-save can never leave a torn manifest that a later
    ``--resume`` would misread."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def render_manifest(manifest: dict) -> str:
    """Human-readable campaign summary table."""
    from repro.flow.report import format_table

    rows = []
    for entry in manifest["entries"]:
        if entry.get("status", "ok") == "failed":
            cache = "FAILED"
        elif entry.get("resumed"):
            cache = "resumed"
        else:
            cache = "hit" if entry["hit"] else "miss"
        rows.append(
            [entry["circuit"], entry["stage"], cache, f"{entry['seconds']:.2f}s"]
        )
    totals = manifest["totals"]
    table = format_table(["circuit", "stage", "cache", "time"], rows)
    extra = ""
    if totals.get("failed"):
        extra += f", {totals['failed']} failed"
    if totals.get("resumed"):
        extra += f", {totals['resumed']} resumed"
    return (
        f"{table}\n"
        f"{totals['hits']}/{totals['entries']} stages from cache{extra}, "
        f"{totals['seconds']:.2f}s total (jobs={manifest['jobs']}, "
        f"cache={manifest['cache_dir']})"
    )
