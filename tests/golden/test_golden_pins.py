"""End-to-end golden pins: the reproduction's outputs must not drift.

See ``pins.py`` for what each digest covers and how to re-record them.
"""

import pytest

import pins

PINNED = pins.load()


@pytest.fixture(scope="module")
def rows():
    return pins.table1_rows()


@pytest.fixture(scope="module")
def digests(rows):
    return pins.compute(rows)


def test_pinned_keys_complete(digests):
    assert set(digests) == set(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_digest_unchanged(digests, key):
    assert digests[key] == PINNED[key], f"golden digest {key} moved"


@pytest.mark.parametrize("circuit", pins.TABLE1_CIRCUITS)
def test_evolution_beats_standard(rows, circuit):
    """The paper's headline claim: standard partitioning needs more BIC
    sensor area than the evolution strategy at the same module count."""
    (row,) = [r for r in rows if r.circuit == circuit]
    assert row.area_evolution < row.area_standard
