"""The evolution strategy's inlined sample draws the stdlib's stream.

``_sample`` replaces ``random.Random.sample`` in the mutation's boundary
draw and the Monte-Carlo block.  Every seeded ES run depends on it
returning the same sample and consuming exactly the same
``getrandbits`` draws, so this compares both, through the pool branch
and the selected-set branch and across the ``setsize`` switch between
them.  The suite runs on every supported Python, so a CPython change to
the sample's draw order fails here instead of silently changing the
partitions.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize.evolution import _sample


def _setsize(k: int) -> int:
    """Where ``random.Random.sample`` switches from the pool to the set."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _assert_same_stream(n: int, k: int, seed: int) -> None:
    population = [f"g{i}" for i in range(n)]
    rng, stdlib = random.Random(seed), random.Random(seed)
    assert _sample(population, k, rng) == stdlib.sample(population, k)
    assert rng.getstate() == stdlib.getstate()


def _sizes(n: int) -> set[int]:
    """k at 0, 1, 5, 6 and n, and on both sides of every k whose
    ``setsize`` equals n."""
    sizes = {0, 1, 5, 6, n}
    sizes |= {k + d for k in range(1, n + 1) if _setsize(k) == n for d in (-1, 0, 1)}
    return {k for k in sizes if 0 <= k <= n}


def test_every_length_up_to_600():
    for n in range(601):
        for k in _sizes(n):
            _assert_same_stream(n, k, seed=n * 1000 + k)


def test_both_branches_are_covered():
    """Both branches run across the lengths above (a population longer
    than ``setsize`` takes the set)."""
    branches = {n <= _setsize(k) for n in range(601) for k in _sizes(n)}
    assert branches == {True, False}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 600), seed=st.integers(0, 2**128))
def test_arbitrary_seeds(data, n, seed):
    k = data.draw(st.integers(0, n), label="k")
    _assert_same_stream(n, k, seed)


def test_continues_the_stream():
    """Draws made before and after the sample stay aligned."""
    rng, stdlib = random.Random(1995), random.Random(1995)
    population = list(range(400))
    for k in (3, 400, 60):
        assert rng.random() == stdlib.random()
        assert _sample(population, k, rng) == stdlib.sample(population, k)
    assert rng.getstate() == stdlib.getstate()


@pytest.mark.parametrize("k", [-1, 4])
def test_rejects_sizes_outside_the_population(k):
    with pytest.raises(ValueError):
        _sample([1, 2, 3], k, random.Random(0))
