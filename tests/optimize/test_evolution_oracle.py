"""The draw-then-score evolution strategy reproduces the per-child loop.

``tests/oracles/evolution.py`` keeps the loop the shipped ES replaced:
one trial, score and rollback per child (single-move children after the
rest of their parent's children are drawn), survivors rebuilt by copy
and replay.  The shipped generation draws every child first, scores
them in one ``trial_blocks`` call and lets survivors adopt their scored
rows; it must make the same draws and therefore give the same history,
evaluation count and best partition.  Structural tests pin the new
shape of a generation.
"""

import dataclasses
import functools
import random

import pytest

from oracles import evolution as evolution_oracle
from repro import obs
from repro.config import EvolutionParams
from repro.experiments.table1 import table1_params
from repro.library.default_lib import generic_technology
from repro.netlist.benchmarks import c17, load_iscas85
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.optimize.evolution import evolve_partition
from repro.optimize.start import chain_start_partition
from repro.partition import state as state_module
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition
from repro.partition.state import EvaluationState
from repro.sensors.degradation import FirstOrderDegradation

PARAMS = EvolutionParams(
    mu=3,
    children_per_parent=3,
    monte_carlo_per_parent=1,
    generations=12,
    convergence_window=8,
)


@functools.lru_cache(maxsize=None)
def _evaluator(key: str, time_resolved: bool = False, first_order: bool = False):
    if key == "c17":
        circuit = c17()
    elif key == "small":
        circuit = generate_iscas_like(
            GeneratorConfig(
                name="small120",
                num_gates=120,
                num_inputs=12,
                num_outputs=8,
                depth=10,
                seed=7,
            )
        )
    else:
        circuit = load_iscas85(key)
    return PartitionEvaluator(
        circuit,
        time_resolved_degradation=time_resolved,
        degradation=FirstOrderDegradation() if first_order else None,
    )


def _assert_same_run(evaluator, params, seed, starts=None):
    new = evolve_partition(evaluator, params, seed=seed, starts=starts)
    old = evolution_oracle.EvolutionOptimizer(evaluator, params, seed=seed).run(starts)
    assert new.history == old.history
    assert new.evaluations == old.evaluations
    assert new.generations_run == old.generations_run
    assert new.converged == old.converged
    assert new.best_cost == old.best_cost
    assert new.best.partition.canonical() == old.best.partition.canonical()


@pytest.mark.parametrize("key", ["c17", "small", "c432"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_oracle(key, seed):
    _assert_same_run(_evaluator(key), PARAMS, seed)


@pytest.mark.parametrize("time_resolved", [False, True])
@pytest.mark.parametrize("first_order", [False, True])
def test_matches_oracle_across_degradation_models(time_resolved, first_order):
    _assert_same_run(_evaluator("small", time_resolved, first_order), PARAMS, 5)


def test_matches_oracle_through_infeasible_partitions():
    """A tight technology makes coarse partitions infeasible, so the
    penalty decides selections."""
    evaluator = PartitionEvaluator(
        _evaluator("c432").circuit,
        technology=dataclasses.replace(
            generic_technology(), iddq_threshold_ua=0.08, min_rs_ohm=20.0
        ),
    )
    rng = random.Random(8)
    starts = [chain_start_partition(evaluator, k, rng) for k in (1, 2, 4)]
    _assert_same_run(evaluator, PARAMS, 8, starts=starts)


def test_matches_oracle_from_starts_of_different_k():
    evaluator = _evaluator("c432")
    rng = random.Random(4)
    starts = [chain_start_partition(evaluator, k, rng) for k in (2, 3, 5)]
    _assert_same_run(evaluator, PARAMS, 6, starts=starts)


def test_matches_oracle_at_a_single_module():
    """K=1 parents draw no moves at all (every row is empty)."""
    evaluator = _evaluator("c17")
    starts = [Partition.single_module(evaluator.circuit)]
    _assert_same_run(evaluator, PARAMS, 7, starts=starts)


def test_generation_is_one_kernel_call(monkeypatch):
    """Quick c880 run: ``penalized_cost`` runs only for the μ start
    states, ``trial_moves`` never runs, and each generation is scored by
    exactly one ``trial_blocks`` call over all μ·(λ+χ) children."""
    params = table1_params(True)
    calls = {"penalized_cost": 0, "trial_moves": 0}
    rows_per_call = []

    def counting(name):
        original = getattr(EvaluationState, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    kernel = EvaluationState.trial_blocks

    def counting_kernel(rows, penalty):
        rows_per_call.append(len(rows))
        return kernel(rows, penalty)

    for name in calls:
        monkeypatch.setattr(EvaluationState, name, counting(name))
    monkeypatch.setattr(EvaluationState, "trial_blocks", staticmethod(counting_kernel))
    result = evolve_partition(PartitionEvaluator(load_iscas85("c880")), params, seed=1995)
    children = params.mu * (params.children_per_parent + params.monte_carlo_per_parent)
    assert calls == {"penalized_cost": params.mu, "trial_moves": 0}
    assert rows_per_call == [children] * result.generations_run


def test_generation_is_one_stage1_pass_and_adopts_survivors(monkeypatch):
    """Quick c880 run: each generation runs the kernel's stage 1 once
    over all μ·(λ+χ) rows, survivors adopt their scored rows instead of
    replaying moves, and nothing in the run -- the select phase
    included -- takes an incremental timing update."""
    params = table1_params(True)
    passes = []
    stage1 = state_module._BlockRows.__init__

    def counting_stage1(self, rows, *args):
        passes.append(len(rows))
        stage1(self, rows, *args)

    def no_replay(self, gates, target_module):
        raise AssertionError("a survivor replayed its moves")

    monkeypatch.setattr(state_module._BlockRows, "__init__", counting_stage1)
    monkeypatch.setattr(EvaluationState, "move_gates", no_replay)
    saved = obs.enabled_state()
    obs.enable(metrics=True)
    try:
        mark = obs.METRICS.mark()
        result = evolve_partition(
            PartitionEvaluator(load_iscas85("c880")), params, seed=1995
        )
        delta = obs.METRICS.delta_since(mark)
    finally:
        obs.enable(trace=saved[0], metrics=saved[1])
    children = params.mu * (params.children_per_parent + params.monte_carlo_per_parent)
    assert passes == [children] * result.generations_run
    assert delta["optimize.trial_blocks.calls"] == result.generations_run
    assert [name for name in delta if name.startswith("timing.update.")] == []


def test_generation_spans():
    saved = obs.enabled_state()
    obs.enable(trace=True)
    obs.TRACER.reset()
    try:
        result = evolve_partition(_evaluator("small"), PARAMS, seed=2)
        names = [span[1] for span in obs.TRACER.spans()]
    finally:
        obs.enable(trace=saved[0], metrics=saved[1])
        obs.TRACER.reset()
    for name in ("es.draw", "es.score", "es.select"):
        assert names.count(name) == result.generations_run
