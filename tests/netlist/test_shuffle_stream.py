"""The generator's inlined shuffle draws the stdlib's stream.

``_shuffle`` replaces ``random.Random.shuffle`` in the stand-in
generator.  Every ISCAS85 stand-in depends on it consuming exactly the
same ``getrandbits`` draws, so this compares the permutation and the
RNG state after the call.  The suite runs on every supported Python, so
a CPython change to the shuffle's draw order fails here instead of
silently changing the circuits.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.generate import _shuffle


def _assert_same_stream(length: int, seed: int) -> None:
    items, expected = list(range(length)), list(range(length))
    rng, stdlib = random.Random(seed), random.Random(seed)
    _shuffle(items, rng)
    stdlib.shuffle(expected)
    assert items == expected
    assert rng.getstate() == stdlib.getstate()


def test_every_length_up_to_2000():
    for length in range(2001):
        _assert_same_stream(length, seed=length)


@settings(max_examples=200, deadline=None)
@given(length=st.integers(0, 2000), seed=st.integers(0, 2**128))
def test_arbitrary_seeds(length, seed):
    _assert_same_stream(length, seed)


def test_continues_the_stream():
    """Draws made before and after the shuffle stay aligned."""
    rng, stdlib = random.Random(1995), random.Random(1995)
    for _ in range(3):
        assert rng.random() == stdlib.random()
        items, expected = list("abcdefghij" * 7), list("abcdefghij" * 7)
        _shuffle(items, rng)
        stdlib.shuffle(expected)
        assert items == expected
    assert rng.getstate() == stdlib.getstate()
