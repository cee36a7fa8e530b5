"""Golden digests of the reproduction's outputs.

Every digest is a :mod:`repro.runtime.fingerprint` hash of one output
the paper's pipeline computes from fixed inputs:

* ``table1/<circuit>`` -- the Table-1 quick row at seed 1995;
* ``circuit/<name>`` -- every ISCAS85 stand-in (structure and names);
* ``separation/<circuit>`` -- the capped separation matrix;
* ``start/c880/<i>`` and ``start/c880/rng`` -- the four chain start
  partitions of the c880 Table-1 run and the RNG state they leave;
* ``standard/<circuit>`` -- the standard partition at the estimated K;
* ``es/c880/history`` -- the whole quick evolution-strategy result on
  c880 (every generation record, the evaluation count, the generations
  run and the best partition);
* ``campaign/c432+c880`` -- the quick campaign's (circuit, stage,
  status, meta) entries on one worker;
* ``anneal/c880`` -- the annealing run of the quick campaign's
  portfolio on c880 at seeds 1995 and 7: its decision stream (gate,
  target, accepted, scored cost) and its result, from the portfolio's
  chain start under the campaign's quick schedule;
* ``figure/<name>`` -- the quick ``run_figure1``, ``run_figure2`` and
  ``run_figure45`` results at their default seeds (figure 4/5 runs the
  evolution strategy on c17 with first-order degradation, χ=2 and at
  most two moved gates);
* ``stuckat/c432`` and ``atpg/c432`` -- the stuck-at detection matrix
  and the IDDQ test set the quick campaign's ``stuck-at`` and ``atpg``
  stages build on c432, from the stages' own inputs at seed 1995.

``test_golden_pins.py`` recomputes them and compares with
``pins.json``.  A change that moves a digest on purpose re-records the
file and says why::

    PYTHONPATH=src python tests/golden/pins.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")
SEED = 1995
TABLE1_CIRCUITS = ("c432", "c880", "c1908")
SEPARATION_CIRCUITS = ("c880", "c1908")
START_CIRCUIT = "c880"
#: Start partitions of a quick Table-1 run (``EvolutionParams.mu``).
START_COUNT = 4
ES_CIRCUIT = "c880"
CAMPAIGN_CIRCUITS = ("c432", "c880")
ANNEAL_CIRCUIT = "c880"
ANNEAL_SEEDS = (SEED, 7)
FAULTSIM_CIRCUIT = "c432"


def table1_rows():
    from repro.experiments.table1 import run_table1

    return run_table1(TABLE1_CIRCUITS, seed=SEED, quick=True).rows


def es_result():
    """The quick Table-1 evolution strategy on :data:`ES_CIRCUIT`."""
    from repro.experiments.table1 import table1_params
    from repro.netlist.benchmarks import load_iscas85
    from repro.optimize.evolution import evolve_partition
    from repro.partition.evaluator import PartitionEvaluator

    evaluator = PartitionEvaluator(load_iscas85(ES_CIRCUIT))
    return evolve_partition(evaluator, table1_params(True), seed=SEED)


def campaign_entries() -> list:
    """(circuit, stage, status, meta) of every entry of the quick
    campaign on :data:`CAMPAIGN_CIRCUITS`, run on one worker with an
    empty cache."""
    import tempfile

    from repro.runtime.campaign import CampaignConfig, run_campaign

    with tempfile.TemporaryDirectory() as cache_dir:
        manifest = run_campaign(
            CampaignConfig(
                circuits=CAMPAIGN_CIRCUITS,
                jobs=1,
                cache_dir=cache_dir,
                seed=SEED,
                quick=True,
            )
        )
    return [
        [entry["circuit"], entry["stage"], entry["status"], entry["meta"]]
        for entry in manifest["entries"]
    ]


def anneal_runs() -> dict:
    """Per seed of :data:`ANNEAL_SEEDS`: the decision stream and result
    of :func:`anneal_partition` on :data:`ANNEAL_CIRCUIT`, started as
    ``portfolio_partition`` starts it, under the quick campaign's
    schedule."""
    from repro.netlist.benchmarks import load_iscas85
    from repro.optimize.annealing import anneal_partition
    from repro.optimize.start import chain_start_partition, estimate_module_count
    from repro.partition.evaluator import PartitionEvaluator
    from repro.runtime.campaign import QUICK_ANNEALING

    evaluator = PartitionEvaluator(load_iscas85(ANNEAL_CIRCUIT))
    runs = {}
    for seed in ANNEAL_SEEDS:
        start = chain_start_partition(
            evaluator, estimate_module_count(evaluator), random.Random(seed)
        )
        decisions: list = []
        result = anneal_partition(
            evaluator, QUICK_ANNEALING, seed=seed, start=start, _decisions=decisions
        )
        runs[seed] = {
            "decisions": decisions,
            "history": result.history,
            "evaluations": result.evaluations,
            "best_cost": result.best_cost,
            "best": result.best.partition.module_of_array(),
        }
    return runs


def figure_results() -> dict:
    """The quick figure 1, 2 and 4/5 experiments at their default seeds."""
    from repro.experiments.figure1 import run_figure1
    from repro.experiments.figure2 import run_figure2
    from repro.experiments.figure45 import run_figure45

    return {
        "figure1": run_figure1(quick=True),
        "figure2": run_figure2(quick=True),
        "figure45": run_figure45(quick=True),
    }


def faultsim_outputs():
    """``(detection matrix, IDDQ test set)`` of :data:`FAULTSIM_CIRCUIT`,
    built from the inputs the quick campaign's ``stuck-at`` and
    ``atpg`` stages use (same patterns, faults, defects, partition and
    ATPG budgets) on one worker with an empty cache."""
    import tempfile

    from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts
    from repro.faultsim.patterns import random_patterns
    from repro.faultsim.stuck_at import enumerate_stuck_at_faults
    from repro.netlist.benchmarks import load_iscas85
    from repro.runtime.artifacts import cached_detection_matrix, cached_iddq_test_set
    from repro.runtime.campaign import CampaignConfig, _Context, _get_partition
    from repro.runtime.store import ArtifactStore

    circuit = load_iscas85(FAULTSIM_CIRCUIT)
    with tempfile.TemporaryDirectory() as cache_dir:
        store = ArtifactStore(cache_dir)
        config = CampaignConfig(
            circuits=(FAULTSIM_CIRCUIT,), jobs=1, cache_dir=cache_dir, seed=SEED
        )
        patterns = random_patterns(len(circuit.input_names), 64, seed=SEED)
        matrix, _ = cached_detection_matrix(
            store, circuit, enumerate_stuck_at_faults(circuit), patterns, jobs=1
        )
        partition = _get_partition(_Context(circuit, config, store, jobs=1))
        defects = sample_bridging_faults(
            circuit, 30, seed=SEED + 1, current_range_ua=(0.5, 8.0)
        ) + sample_gate_oxide_shorts(
            circuit, 15, seed=SEED + 2, current_range_ua=(0.5, 8.0)
        )
        tests, _ = cached_iddq_test_set(
            store,
            circuit,
            partition,
            defects,
            seed=SEED,
            random_vectors=32,
            restarts=2,
            flip_budget=8,
            jobs=1,
        )
    return matrix, tests


def compute(rows=None) -> dict[str, str]:
    """Every golden digest, by key (``rows`` reuses a Table-1 run)."""
    from repro.netlist.benchmarks import ISCAS85_PROFILES, load_iscas85
    from repro.optimize.standard import standard_partition
    from repro.optimize.start import estimate_module_count, start_population
    from repro.partition.evaluator import PartitionEvaluator
    from repro.runtime.fingerprint import (
        fingerprint_circuit,
        fingerprint_partition,
        fingerprint_value,
    )

    digests: dict[str, str] = {}
    for row in rows if rows is not None else table1_rows():
        digests[f"table1/{row.circuit}"] = fingerprint_value(row)
    for name in ISCAS85_PROFILES:
        digests[f"circuit/{name}"] = fingerprint_circuit(load_iscas85(name))
    for name in SEPARATION_CIRCUITS:
        evaluator = PartitionEvaluator(load_iscas85(name))
        digests[f"separation/{name}"] = fingerprint_value(evaluator.separation.matrix)
        standard = standard_partition(evaluator, estimate_module_count(evaluator))
        digests[f"standard/{name}"] = fingerprint_partition(standard)
    evaluator = PartitionEvaluator(load_iscas85(START_CIRCUIT))
    rng = random.Random(SEED)
    starts = start_population(
        evaluator, estimate_module_count(evaluator), START_COUNT, rng
    )
    for i, partition in enumerate(starts):
        digests[f"start/{START_CIRCUIT}/{i}"] = fingerprint_partition(partition)
    digests[f"start/{START_CIRCUIT}/rng"] = fingerprint_value(rng.getstate())
    result = es_result()
    digests[f"es/{ES_CIRCUIT}/history"] = fingerprint_value(
        {
            "history": result.history,
            "evaluations": result.evaluations,
            "generations_run": result.generations_run,
            "converged": result.converged,
            "best_cost": result.best_cost,
            "best": result.best.partition.module_of_array(),
        }
    )
    digests["campaign/" + "+".join(CAMPAIGN_CIRCUITS)] = fingerprint_value(
        campaign_entries()
    )
    digests[f"anneal/{ANNEAL_CIRCUIT}"] = fingerprint_value(anneal_runs())
    for name, result in figure_results().items():
        digests[f"figure/{name}"] = fingerprint_value(result)
    matrix, tests = faultsim_outputs()
    digests[f"stuckat/{FAULTSIM_CIRCUIT}"] = fingerprint_value(matrix)
    digests[f"atpg/{FAULTSIM_CIRCUIT}"] = fingerprint_value(tests)
    return digests


def load() -> dict[str, str]:
    return json.loads(PINS_FILE.read_text())


def main() -> None:
    digests = compute()
    PINS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {PINS_FILE}")


if __name__ == "__main__":
    main()
