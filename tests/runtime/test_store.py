"""Artifact-store round-trips, invalidation and robustness."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.analysis.separation import SeparationMatrix
from repro.netlist.benchmarks import load_iscas85
from repro.runtime import fingerprint as fp
from repro.runtime.artifacts import cached_separation_matrix
from repro.runtime.store import ArtifactStore, _payload_digest, default_cache_dir


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


KEY = fp.combine("test", 1, "payload")


class TestRoundTrip:
    def test_arrays_exact(self, store):
        arrays = {
            "f64": np.array([0.1, -1e300, 2.5e-308, np.inf]),
            "u64": np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
            "bools": np.array([[True, False], [False, True]]),
            "u8": np.arange(16, dtype=np.uint8).reshape(4, 4),
            "empty": np.empty((0, 3), dtype=np.int32),
        }
        store.put("test", KEY, arrays, {})
        loaded = store.get("test", KEY)
        assert set(loaded.arrays) == set(arrays)
        for name, expected in arrays.items():
            got = loaded.arrays[name]
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    def test_layouts_exact_with_verify(self, tmp_path):
        """0-d, empty, Fortran-ordered, strided, bool and bytes arrays
        round-trip exactly and pass digest verification."""
        arrays = {
            "scalar": np.asarray(7, dtype=np.int16),
            "empty": np.empty((0, 5), dtype=np.float32),
            "fortran": np.asfortranarray(np.arange(24.0).reshape(4, 6)),
            "strided": np.arange(30, dtype=np.int64)[::4],
            "bools": np.array([[True, False, True]]),
            "bytes": np.array([b"ab", b"", b"xyz"]),
        }
        store = ArtifactStore(tmp_path / "cache", verify=True)
        store.put("test", KEY, arrays, {"n": 1})
        loaded = store.get("test", KEY)
        assert loaded is not None and loaded.meta == {"n": 1}
        for name, expected in arrays.items():
            got = loaded.arrays[name]
            assert got.dtype == expected.dtype, name
            assert got.shape == expected.shape, name
            assert np.array_equal(got, expected), name

    def test_cold_separation_peak_below_one_and_a_half_matrices(self, tmp_path):
        """A cold c7552 separation build plus its ``put`` writes the
        matrix's own bytes: no second copy on top of the build."""
        circuit = load_iscas85("c7552")
        SeparationMatrix(circuit, cap=10)  # warm the compiled graph
        store = ArtifactStore(tmp_path / "cache")
        tracemalloc.start()
        try:
            separation, hit = cached_separation_matrix(store, circuit, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not hit
        assert peak < 1.5 * separation.matrix.nbytes

    def test_meta_exact(self, store):
        meta = {
            "pi": 3.141592653589793,
            "tiny": 5e-324,
            "n": 2**40,
            "ids": ["sa0:g1", "sa1:g2"],
            "nested": {"flag": True, "value": None},
        }
        store.put("test", KEY, {"x": np.zeros(1)}, meta)
        assert store.get("test", KEY).meta == meta

    def test_miss_returns_none_and_counts(self, store):
        mark = obs.METRICS.mark()
        assert store.get("test", KEY) is None
        delta = obs.METRICS.delta_since(mark)
        assert delta["store.misses"] == 1
        assert "store.hits" not in delta

    def test_fetch_memoizes(self, store):
        calls = []

        def build():
            calls.append(1)
            return {"x": np.arange(3)}, {"k": 1}

        first, hit1 = store.fetch("test", KEY, build)
        second, hit2 = store.fetch("test", KEY, build)
        assert (hit1, hit2) == (False, True)
        assert len(calls) == 1
        assert np.array_equal(first.arrays["x"], second.arrays["x"])
        assert first.meta == second.meta


#: One array of every kind the digest must hash without a copy.
DIGEST_CASES = {
    "u8": np.arange(6, dtype=np.uint8).reshape(2, 3),
    "f64": np.array([0.5, -2.0, np.inf]),
    "flags": np.array([True, False]),
    "names": np.array([b"g1", b"sa0"]),
    "scalar": np.array(7, dtype=np.int64),
    "empty": np.empty((0, 3), dtype=np.int32),
    "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
}


def _tobytes_digest(arrays, meta_json):
    """The digest as the store first computed it, one ``tobytes()``
    copy per array."""
    digest = hashlib.blake2b(digest_size=20)
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.tobytes())
    digest.update(meta_json.encode())
    return digest.hexdigest()


class TestPayloadDigest:
    @pytest.mark.parametrize("name", sorted(DIGEST_CASES))
    def test_view_hashes_the_tobytes_bytes(self, name):
        arrays = {name: DIGEST_CASES[name]}
        assert _payload_digest(arrays, "{}") == _tobytes_digest(arrays, "{}")

    def test_pinned_digest(self):
        # Stored files carry this digest: a change invalidates every cache.
        meta_json = json.dumps({"cap": 10}, sort_keys=True)
        assert _payload_digest(DIGEST_CASES, meta_json) == (
            "67aff19260dbc5e9918770435b99d654aaa067d7"
        )


class TestInvalidation:
    def test_different_fingerprint_misses(self, store):
        store.put("test", KEY, {"x": np.arange(3)}, {})
        other = fp.combine("test", 1, "other-payload")
        assert store.get("test", other) is None

    def test_schema_version_moves_key(self):
        assert fp.combine("separation", 1, "c") != fp.combine("separation", 2, "c")

    def test_kinds_are_disjoint(self, store):
        store.put("a", KEY, {"x": np.arange(3)}, {})
        assert store.get("b", KEY) is None


class TestRobustness:
    def test_corrupt_file_is_a_miss_and_quarantined(self, store):
        mark = obs.METRICS.mark()
        store.put("test", KEY, {"x": np.arange(3)}, {})
        path = store.path_for("test", KEY)
        path.write_bytes(b"not a zip file")
        assert store.get("test", KEY) is None
        # Moved aside (postmortem-able), never unlinked: a reader that
        # lost the atomic-replace race cannot delete a good rewrite.
        assert not path.exists()
        quarantined = sorted(store.quarantine_dir("test").glob("*.npz"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == b"not a zip file"
        assert obs.METRICS.delta_since(mark)["store.quarantined"] == 1

    def test_quarantine_names_are_collision_safe(self, store):
        mark = obs.METRICS.mark()
        for payload in (b"corrupt one", b"corrupt two"):
            store.put("test", KEY, {"x": np.arange(3)}, {})
            store.path_for("test", KEY).write_bytes(payload)
            assert store.get("test", KEY) is None
        quarantined = sorted(store.quarantine_dir("test").glob("*.npz"))
        assert len(quarantined) == 2
        assert {p.read_bytes() for p in quarantined} == {
            b"corrupt one",
            b"corrupt two",
        }
        assert obs.METRICS.delta_since(mark)["store.quarantined"] == 2

    def test_reserved_array_name_rejected(self, store):
        with pytest.raises(ValueError, match="reserved"):
            store.put("test", KEY, {"__meta__": np.zeros(1)}, {})

    def test_non_hex_key_rejected(self, store):
        with pytest.raises(ValueError, match="hex digest"):
            store.path_for("test", "../escape")

    def test_no_pickles_accepted(self, store):
        # The store never writes pickles (and loads with
        # allow_pickle=False), so object arrays are rejected up front.
        with pytest.raises(ValueError, match="object dtype"):
            store.put("test", KEY, {"x": np.array([object()])}, {})


class TestEnvironment:
    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        assert ArtifactStore().root == tmp_path / "envcache"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro-part-iddq"
