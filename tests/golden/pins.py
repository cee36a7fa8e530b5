"""Golden digests of the reproduction's outputs.

Every digest is a :mod:`repro.runtime.fingerprint` hash of one output
the paper's pipeline computes from fixed inputs:

* ``table1/<circuit>`` -- the Table-1 quick row at seed 1995;
* ``circuit/<name>`` -- every ISCAS85 stand-in (structure and names);
* ``separation/<circuit>`` -- the capped separation matrix;
* ``start/c880/<i>`` and ``start/c880/rng`` -- the four chain start
  partitions of the c880 Table-1 run and the RNG state they leave;
* ``standard/<circuit>`` -- the standard partition at the estimated K.

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


def table1_rows():
    from repro.experiments.table1 import run_table1

    return run_table1(TABLE1_CIRCUITS, seed=SEED, quick=True).rows


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
    return digests


def load() -> dict[str, str]:
    return json.loads(PINS_FILE.read_text())


def main() -> None:
    digests = compute()
    PINS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {PINS_FILE}")


if __name__ == "__main__":
    main()
