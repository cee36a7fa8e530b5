"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures (or times a
kernel the paper's claims rest on) and prints the paper-shaped rows, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the experiment
log.  Whole-experiment benchmarks run a single round (they are seconds
long and internally deterministic); kernel benchmarks use normal
statistics.
"""

import sys
from pathlib import Path

import pytest

# The executable references in ``tests/oracles`` are the baselines some
# benchmarks time against.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def run_once(benchmark, func):
    """Benchmark ``func`` with one round/iteration and return its value."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(func):
        return run_once(benchmark, func)

    return runner
