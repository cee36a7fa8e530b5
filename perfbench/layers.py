"""Per-layer attribution for the traced benchmark run.

The benchmark changes nothing inside the package.  It wraps public
functions and methods of the pipeline's layers in ``repro.obs`` spans
(``bench:<layer>``) and reads the package's own spans and counters.
Wrappers are installed in the workload process before the executor
forks its pool, so pool workers inherit them, and their spans and
counters come back through the executor's task capture.

Self time is a span's duration minus the parts covered by nested layer
spans on the same lane.  Time inside a pool map is shared out in wall
terms: the worker-lane self times of the map's tasks are divided by the
number of workers, and what the workers leave of the map's wall time is
``runtime.executor.idle_s``.  Worker time outside any wrapped layer
belongs to the layer that called the map.  So the layer self times plus
``other_s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict

SPAN_PREFIX = "bench:"

#: (layer, "module:attribute") for every wrapped entry point.  Each is
#: called at most a few thousand times per run; hotter paths
#: (``move_gate``, ``run_cone``) are read from the package's counters.
WRAPS: tuple[tuple[str, str], ...] = (
    ("netlist.generate", "repro.netlist.generate:generate_iscas_like"),
    ("netlist.generate", "repro.netlist.multiplier:array_multiplier"),
    ("netlist.compile", "repro.netlist.compiled:compile_circuit"),
    ("partition.evaluator_build", "repro.partition.evaluator:PartitionEvaluator.__init__"),
    ("analysis.separation", "repro.analysis.separation:SeparationMatrix.__init__"),
    ("analysis.transition_times", "repro.analysis.transition_times:TransitionTimes.compute"),
    ("analysis.electricals", "repro.analysis.current:GateElectricals.compute"),
    ("analysis.timing_build", "repro.analysis.timing:levelized_timing"),
    ("optimize.start", "repro.optimize.start:start_population"),
    ("optimize.start", "repro.optimize.start:chain_start_partition"),
    ("optimize.es", "repro.optimize.evolution:EvolutionOptimizer.run"),
    ("optimize.standard", "repro.optimize.standard:standard_partition"),
    ("optimize.portfolio", "repro.optimize.portfolio:portfolio_partition"),
    ("optimize.annealing", "repro.optimize.annealing:anneal_partition"),
    ("optimize.kl", "repro.optimize.kl:kl_refine"),
    ("partition.trial_moves", "repro.partition.state:EvaluationState.trial_moves"),
    ("partition.trial_swaps", "repro.partition.state:EvaluationState.trial_swaps"),
    ("partition.penalized_cost", "repro.partition.state:EvaluationState.penalized_cost"),
    ("partition.move_gates", "repro.partition.state:EvaluationState.move_gates"),
    ("analysis.retime_batch", "repro.analysis.timing:IncrementalTiming.retime_batch"),
    ("faultsim.detection_matrix", "repro.runtime.parallel:sharded_detection_matrix"),
    ("faultsim.detection_matrix", "repro.faultsim.stuck_at:StuckAtSimulator.detection_matrix"),
    ("faultsim.atpg", "repro.faultsim.atpg:generate_iddq_tests"),
    ("faultsim.engine_build", "repro.faultsim.engine:CoverageEngine.__init__"),
    ("faultsim.engine_build", "repro.faultsim.stuck_at:StuckAtSimulator.__init__"),
    ("runtime.fingerprint", "repro.runtime.fingerprint:fingerprint_value"),
    ("runtime.fingerprint", "repro.runtime.fingerprint:fingerprint_circuit"),
    ("runtime.fingerprint", "repro.runtime.fingerprint:fingerprint_partition"),
    ("runtime.fingerprint", "repro.runtime.fingerprint:fingerprint_library"),
    ("runtime.fingerprint", "repro.runtime.fingerprint:fingerprint_technology"),
    ("runtime.fingerprint", "repro.runtime.fingerprint:combine"),
)

#: The workloads' entry points and every module that binds a wrapped
#: function by name; imported before wrapping so that their bindings
#: are replaced too.
PIPELINE_MODULES = (
    "repro.experiments.table1",
    "repro.runtime.campaign",
    "repro.runtime.artifacts",
    "repro.runtime.parallel",
    "repro.optimize.portfolio",
    "repro.netlist.benchmarks",
    "repro.faultsim.atpg",
)

#: The package's own spans that count as layers.
PROGRAM_SPANS = {
    "store.get": "runtime.store.get",
    "store.put": "runtime.store.put",
    "backend.full_pass": "backend.full_pass",
}

#: Layers measured while the workload's circuits are built, before the
#: timed part of a run; every other layer is measured inside it.
SETUP_LAYERS = ("netlist.generate", "netlist.compile")

IDLE_LAYER = "runtime.executor.idle"

#: Every self-time layer, in report order.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [layer for layer, _ in WRAPS] + list(PROGRAM_SPANS.values()) + [IDLE_LAYER]
    )
)


# ------------------------------------------------------------------ wrapping
def _circuit_name(args) -> str | None:
    """Best-effort circuit tag from a wrapped call's first arguments."""
    for arg in args[:2]:
        evaluator = getattr(arg, "evaluator", None)
        for candidate in (arg, getattr(arg, "circuit", None),
                          getattr(evaluator, "circuit", None)):
            if hasattr(candidate, "gate_names"):
                return candidate.name
    return None


def _make_wrapper(original, layer: str, workload: str, obs):
    tracer, metrics = obs.TRACER, obs.METRICS
    span_name = SPAN_PREFIX + layer
    calls = f"bench.calls.{layer}"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        metrics.inc(calls)
        with tracer.span(span_name, workload=workload, circuit=_circuit_name(args)):
            result = original(*args, **kwargs)
        if layer == "optimize.es":
            metrics.inc("bench.es.generations", result.generations_run)
            metrics.inc("bench.es.evaluations", result.evaluations)
        return result

    return wrapper


def install(workload: str, wraps=WRAPS) -> list[tuple[object, str, object]]:
    """Wrap every entry point in ``wraps``; returns the undo list.

    A function is replaced in its own module *and* under every other
    ``repro`` module name bound to it at import time (``table1`` binds
    ``standard_partition``, ``evaluator`` binds ``levelized_timing``), so
    the wrapper is what each caller resolves.  Methods are replaced on
    their class.
    """
    from repro import obs

    for module_name in PIPELINE_MODULES:
        importlib.import_module(module_name)
    undo: list[tuple[object, str, object]] = []
    for layer, target in wraps:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _make_wrapper(raw.__func__, layer, workload, obs)
                )
            else:
                wrapped = _make_wrapper(raw, layer, workload, obs)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = _make_wrapper(original, layer, workload, obs)
        for name, other in list(sys.modules.items()):
            if other is None or not (
                other is module or name == "repro" or name.startswith("repro.")
            ):
                continue
            for binding, value in list(vars(other).items()):
                if value is original:
                    undo.append((other, binding, original))
                    setattr(other, binding, wrapped)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------- attribution
def _lane_self(spans):
    """Self time per span of one lane, nested by interval.

    ``spans`` is a list of ``(start, end, layer)``; returns
    ``(self_by_index, parent_index_by_index)`` for the spans in the
    order given.  Sorted by start, widest first, so parents precede
    their children.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], spans[i][0] - spans[i][1]))
    own = [s[1] - s[0] for s in spans]
    parent: list[int | None] = [None] * len(spans)
    stack: list[int] = []
    for i in order:
        start, end, _ = spans[i]
        while stack and spans[stack[-1]][1] <= start:
            stack.pop()
        if stack:
            parent[i] = stack[-1]
            own[stack[-1]] -= end - start
        stack.append(i)
    return own, parent


def _outermost(spans, parent) -> list[int]:
    """Indices of the spans not nested in a span of their own layer."""
    out = []
    for i, (_, _, layer) in enumerate(spans):
        up = parent[i]
        while up is not None and spans[up][2] != layer:
            up = parent[up]
        if up is None:
            out.append(i)
    return out


def _main_layer(name: str, attrs) -> str | None:
    if name.startswith(SPAN_PREFIX):
        return name[len(SPAN_PREFIX):]
    if name == "executor.map" and (attrs or {}).get("mode") != "serial":
        return IDLE_LAYER
    return PROGRAM_SPANS.get(name)


def attribute(events, window_ns: tuple[int, int]) -> dict:
    """Roll traced events up into per-layer self seconds.

    Returns ``{"setup": {layer: s}, "wall": {layer: s}, "busy":
    {layer: s}, "other_s": s, "wall_s": s, "map_s": s}``: self times of
    spans that start before ``window_ns[0]`` (set-up) or inside the
    window (the timed run, worker time in wall terms), inclusive times
    inside the window summed over all processes, the traced wall time
    not attributed to any layer, the window length, and the inclusive
    seconds of pool-dispatched maps.
    """
    t0, t1 = window_ns
    main, workers = [], defaultdict(list)
    for kind, name, ts, dur, depth, site, attrs in events:
        if kind != "span":
            continue
        if site == "main":
            layer = _main_layer(name, attrs)
            if layer is not None:
                main.append((ts, ts + dur, layer, attrs))
        else:
            workers[site].append((ts, ts + dur, name, depth))
    lane = [(s, e, layer) for s, e, layer, _ in main]
    own, parent = _lane_self(lane)
    setup: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    for i in _outermost(lane, parent):
        start, end, layer = lane[i]
        if start >= t0:
            busy[layer] += end - start
    map_ns = 0
    for i, (start, end, layer, attrs) in enumerate(main):
        if start < t0:
            setup[layer] += own[i]
            continue
        wall[layer] += own[i]
        if layer != IDLE_LAYER:
            continue
        map_ns += end - start
        caller = main[parent[i]][2] if parent[i] is not None else None
        width = max(1, min(int(attrs.get("jobs", 1)), int(attrs.get("tasks", 1))))
        for site_spans in workers.values():
            lane = []
            for s, e, n, depth in site_spans:
                if not start <= s < e <= end:
                    continue
                if n == "executor.task" and depth == 0:
                    lane.append((s, e, caller or "other"))
                elif n.startswith(SPAN_PREFIX) or n in PROGRAM_SPANS:
                    lane.append((s, e, _main_layer(n, None)))
            lane_own, lane_parent = _lane_self(lane)
            for (_, _, worker_layer), ns in zip(lane, lane_own):
                share = ns / width
                wall[worker_layer] += share
                wall[IDLE_LAYER] -= share
            # Task spans stand for the caller, whose main-lane span
            # already covers the map.
            for j in _outermost(lane, lane_parent):
                s, e, worker_layer = lane[j]
                if lane_parent[j] is not None or worker_layer != (caller or "other"):
                    busy[worker_layer] += e - s
    other_ns = (t1 - t0) - sum(wall.values())
    other_from_workers = wall.pop("other", 0.0)
    return {
        "setup": {k: v / 1e9 for k, v in setup.items()},
        "wall": {k: v / 1e9 for k, v in wall.items()},
        "busy": {k: v / 1e9 for k, v in busy.items()},
        "other_s": (other_ns + other_from_workers) / 1e9,
        "wall_s": (t1 - t0) / 1e9,
        "map_s": map_ns / 1e9,
    }


# ------------------------------------------------------------ metric table
TABLE1, COLD, WARM = "table1-quick", "campaign-cold", "campaign-warm"
ALL = (TABLE1, COLD, WARM)

#: Every per-layer metric: (name, unit, better, end-to-end metric it
#: should move, workloads it should move it on).  ``BENCHMARK.json``
#: lists the same names, units and directions; ``result.*`` rows carry
#: each workload's deterministic results, which no time should move.
PER_LAYER: tuple[tuple[str, str, str, str | None, tuple[str, ...]], ...] = (
    ("netlist.generate_s", "s", "lower", "setup_s", ALL),
    ("netlist.compile_s", "s", "lower", "setup_s", ALL),
    ("partition.evaluator_build_s", "s", "lower", "wall_s", (TABLE1, WARM)),
    ("partition.evaluator_builds", "count", "lower", "wall_s", (TABLE1, WARM)),
    ("analysis.separation_s", "s", "lower", "wall_s", (TABLE1, COLD)),
    ("analysis.transition_times_s", "s", "lower", "wall_s", (TABLE1, WARM)),
    ("analysis.electricals_s", "s", "lower", "wall_s", (TABLE1, WARM)),
    ("analysis.timing_build_s", "s", "lower", "wall_s", (TABLE1, WARM)),
    ("optimize.start_s", "s", "lower", "wall_s", (TABLE1, WARM)),
    ("optimize.start_calls", "count", "lower", "wall_s", (TABLE1, WARM)),
    ("optimize.es_s", "s", "lower", "wall_s", (TABLE1, COLD)),
    ("optimize.es_generations", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimize.es_evaluations", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimize.es_evals_per_s", "1/s", "higher", "wall_s", (TABLE1, COLD)),
    ("optimize.standard_s", "s", "lower", "wall_s", (TABLE1,)),
    ("optimize.portfolio_s", "s", "lower", "wall_s", (COLD,)),
    ("optimize.annealing_s", "s", "lower", "wall_s", (COLD,)),
    ("optimize.kl_s", "s", "lower", "wall_s", (COLD,)),
    ("partition.trial_moves_s", "s", "lower", "wall_s", (TABLE1, COLD)),
    ("partition.trial_swaps_s", "s", "lower", "wall_s", (TABLE1, COLD)),
    ("partition.penalized_cost_s", "s", "lower", "wall_s", (TABLE1, COLD)),
    ("partition.penalized_cost_calls", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("partition.move_gates_s", "s", "lower", "wall_s", (TABLE1, COLD)),
    ("optimize.trial_moves.calls", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimize.trial_moves.candidates", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimize.trial_swaps.calls", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimize.trial_swaps.candidates", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimizer.batch.size", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimizer.batch.rescore", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("optimizer.batch.replay_mismatch", "count", "lower", "wall_s", (TABLE1, COLD)),
    ("analysis.retime_batch_s", "s", "lower", "wall_s", (TABLE1,)),
    ("timing.retime_batch.calls", "count", "lower", "wall_s", (TABLE1,)),
    ("timing.retime_batch.candidates", "count", "lower", "wall_s", (TABLE1,)),
    ("timing.retime_batch.full_cone", "count", "lower", "wall_s", (TABLE1,)),
    ("timing.retime_batch.partial_cone", "count", "lower", "wall_s", (TABLE1,)),
    ("timing.update.full", "count", "lower", "wall_s", (TABLE1,)),
    ("timing.update.cone", "count", "lower", "wall_s", (TABLE1,)),
    ("timing.update.block", "count", "lower", "wall_s", (TABLE1,)),
    ("faultsim.detection_matrix_s", "s", "lower", "wall_s", (COLD,)),
    ("faultsim.atpg_s", "s", "lower", "wall_s", (COLD,)),
    ("faultsim.engine_build_s", "s", "lower", "wall_s", (COLD,)),
    ("backend.full_pass", "count", "lower", "wall_s", (COLD,)),
    ("backend.full_pass_s", "s", "lower", "wall_s", (COLD,)),
    ("backend.run_cone", "count", "lower", "wall_s", (COLD,)),
    ("backend.run_cone.changed_rows", "count", "lower", "wall_s", (COLD,)),
    ("faultsim.engine.slot_hit_ratio", "fraction", "higher", "wall_s", (COLD,)),
    ("runtime.store.get_s", "s", "lower", "wall_s", (WARM,)),
    ("runtime.store.put_s", "s", "lower", "wall_s", (COLD,)),
    ("runtime.store.hits", "count", "higher", "wall_s", (WARM,)),
    ("runtime.store.misses", "count", "lower", "wall_s", (COLD,)),
    ("runtime.store.puts", "count", "lower", "wall_s", (COLD,)),
    ("runtime.store.hit_ratio", "fraction", "higher", "wall_s", (WARM,)),
    ("runtime.fingerprint_s", "s", "lower", "wall_s", (WARM,)),
    ("runtime.executor.map_s", "s", "lower", "wall_s", (COLD,)),
    ("runtime.executor.idle_s", "s", "lower", "wall_s", (COLD,)),
    ("runtime.executor.tasks", "count", "lower", "wall_s", (COLD,)),
    ("runtime.executor.task_s", "s", "lower", "wall_s", (COLD,)),
    ("runtime.executor.busy_frac", "fraction", "higher", "wall_s", (COLD,)),
    ("runtime.executor.retries", "count", "lower", "wall_s", (COLD,)),
    ("runtime.executor.timeouts", "count", "lower", "wall_s", (COLD,)),
    ("runtime.campaign.stage_s.separation", "s", "lower", "wall_s", (COLD, WARM)),
    ("runtime.campaign.stage_s.stuck-at", "s", "lower", "wall_s", (COLD, WARM)),
    ("runtime.campaign.stage_s.atpg", "s", "lower", "wall_s", (COLD, WARM)),
    ("runtime.campaign.stage_s.optimize", "s", "lower", "wall_s", (COLD, WARM)),
    ("other_s", "s", "lower", "wall_s", ALL),
    ("trace.overhead_frac", "fraction", "lower", None, ()),
    ("result.sensor_area", "area", "lower", None, (TABLE1,)),
    ("result.partition_cost", "cost", "lower", None, (COLD, WARM)),
    ("result.stuckat_coverage", "fraction", "higher", None, (COLD, WARM)),
    ("result.iddq_coverage", "fraction", "higher", None, (COLD, WARM)),
    ("result.iddq_vectors", "count", "lower", None, (COLD, WARM)),
)

#: Per-layer metrics read straight from a package counter.
_COUNTER_METRICS = {
    name: name
    for name in (
        "optimize.trial_moves.calls", "optimize.trial_moves.candidates",
        "optimize.trial_swaps.calls", "optimize.trial_swaps.candidates",
        "optimizer.batch.size", "optimizer.batch.rescore",
        "optimizer.batch.replay_mismatch",
        "timing.retime_batch.calls", "timing.retime_batch.candidates",
        "timing.retime_batch.full_cone", "timing.retime_batch.partial_cone",
        "timing.update.full", "timing.update.cone", "timing.update.block",
        "backend.full_pass", "backend.run_cone", "backend.run_cone.changed_rows",
    )
} | {
    "partition.evaluator_builds": "bench.calls.partition.evaluator_build",
    "optimize.start_calls": "bench.calls.optimize.start",
    "partition.penalized_cost_calls": "bench.calls.partition.penalized_cost",
    "optimize.es_generations": "bench.es.generations",
    "optimize.es_evaluations": "bench.es.evaluations",
    "runtime.store.hits": "store.hits",
    "runtime.store.misses": "store.misses",
    "runtime.store.puts": "store.puts",
    "runtime.executor.tasks": "executor.tasks",
    "runtime.executor.task_s": "executor.task_seconds",
    "runtime.executor.retries": "executor.retries",
    "runtime.executor.timeouts": "executor.timeouts",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced_wall_s: float, jobs: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass (see :data:`PER_LAYER`)."""
    attr, counters = traced["attribution"], traced["counters"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        seconds = attr["wall"].get(layer, 0.0)
        if layer in SETUP_LAYERS:
            seconds += attr["setup"].get(layer, 0.0)
        out[f"{layer}_s"] = seconds
    for name, counter in _COUNTER_METRICS.items():
        out[name] = counters.get(counter, 0)
    engine = [counters.get(f"engine.state.{k}", 0) for k in ("hits", "full", "patches")]
    out["faultsim.engine.slot_hit_ratio"] = _ratio(engine[0], sum(engine))
    out["optimize.es_evals_per_s"] = _ratio(
        out["optimize.es_evaluations"], attr["busy"].get("optimize.es", 0.0)
    )
    out["runtime.store.hit_ratio"] = _ratio(
        out["runtime.store.hits"], out["runtime.store.hits"] + out["runtime.store.misses"]
    )
    out["runtime.executor.map_s"] = attr["map_s"]
    out["runtime.executor.busy_frac"] = _ratio(
        out["runtime.executor.task_s"], jobs * attr["map_s"]
    )
    for stage in ("separation", "stuck-at", "atpg", "optimize"):
        out[f"runtime.campaign.stage_s.{stage}"] = traced["stage_s"].get(stage, 0.0)
    out["other_s"] = attr["other_s"]
    out["trace.overhead_frac"] = _ratio(attr["wall_s"], untraced_wall_s) - 1.0
    quality = traced["quality"]
    for key in ("sensor_area", "partition_cost", "stuckat_coverage",
                "iddq_coverage", "iddq_vectors"):
        out[f"result.{key}"] = quality.get(key, 0.0)
    return out
