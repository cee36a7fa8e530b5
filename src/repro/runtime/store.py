"""The content-addressed on-disk artifact store.

Expensive artifacts — separation matrices, stuck-at detection matrices,
ATPG test sets, optimiser results — are memoized on disk, keyed by a
:mod:`~repro.runtime.fingerprint` digest of everything they depend on.

Layout (one file per artifact, ``npz`` container)::

    <root>/v1/<kind>/<key[:2]>/<key>.npz

* ``<root>`` comes from the constructor, the ``REPRO_CACHE_DIR``
  environment variable, or ``~/.cache/repro-part-iddq``;
* ``v1`` is the *store* layout version; each artifact kind additionally
  carries its own schema version inside the cache key (bump the kind's
  version in :mod:`repro.runtime.artifacts` to invalidate just that
  kind);
* the two-hex-char fan-out keeps directories small under large
  campaigns.

An artifact is a dict of numpy arrays plus a JSON-serialisable metadata
dict (stored inside the npz as one JSON string), written atomically
(temp file + rename), so concurrent writers of the *same* key are
harmless — last rename wins with identical bytes.  Round-trips are
**exact**: arrays keep dtype/shape/bytes, floats survive through JSON's
shortest-repr encoding.  A corrupt or truncated file is treated as a
miss and moved aside to ``<root>/quarantine/<kind>/`` under a
collision-safe name — never unlinked, so the bad bytes stay available
for a postmortem and a reader that lost the atomic-replace race cannot
delete a concurrently re-written good artifact.

Every lookup and write is counted in :data:`repro.obs.METRICS`:
``store.<hits|misses|puts>`` and the same per kind
(``store.hits.separation``), plus ``store.quarantined`` and
``store.put_errors``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro.runtime.faults import FaultPlan, corrupt_file

__all__ = ["Artifact", "ArtifactStore", "default_cache_dir"]

_LAYOUT = "v1"
_META_KEY = "__meta__"
_DIGEST_KEY = "__digest__"

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable turning on payload-digest verification on read.
CACHE_VERIFY_ENV = "REPRO_CACHE_VERIFY"


def _payload_digest(arrays: Mapping[str, np.ndarray], meta_json: str) -> str:
    """Canonical blake2b over the payload: sorted array names with
    dtype/shape/bytes, then the meta JSON string.  The bytes are fed as
    a flat ``uint8`` view of the contiguous array, not a copy."""
    digest = hashlib.blake2b(digest_size=20)
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.reshape(-1).view(np.uint8))
    digest.update(meta_json.encode())
    return digest.hexdigest()


def _write_npz(handle, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` as the container :func:`np.savez` writes (stored
    zip members ``<name>.npy``, zip64 headers), streaming each array's
    own bytes: ``np.savez`` copies every array while writing it.  An
    array is made contiguous only when it is not already."""
    with zipfile.ZipFile(handle, mode="w", compression=zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            if not (array.flags.c_contiguous or array.flags.f_contiguous):
                array = np.ascontiguousarray(array)
            header = np.lib.format.header_data_from_array_1_0(array)
            data = array.T if header["fortran_order"] else array
            with archive.open(f"{name}.npy", mode="w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(data.reshape(-1).view(np.uint8))


class _DigestMismatch(Exception):
    """Internal: stored payload digest does not match the bytes read."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-part-iddq``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-part-iddq"


@dataclass(frozen=True)
class Artifact:
    """One loaded artifact: named arrays plus JSON metadata."""

    kind: str
    key: str
    arrays: Mapping[str, np.ndarray]
    meta: Mapping[str, object]


def _count(kind: str, slot: str) -> None:
    """Bump ``store.<slot>`` and its per-kind ``store.<slot>.<kind>``."""
    obs.METRICS.inc(f"store.{slot}")
    obs.METRICS.inc(f"store.{slot}.{kind}")


class ArtifactStore:
    """Content-addressed npz artifact cache (see module docstring).

    ``verify`` enables payload-digest verification on every read
    (argument > ``REPRO_CACHE_VERIFY`` > off): each ``put`` embeds a
    canonical blake2b of arrays + metadata, and a read whose recomputed
    digest mismatches is quarantined and treated as a miss — catching
    corruption that still parses as a valid npz.  ``fault_plan``
    (default: ``REPRO_FAULT_PLAN``) lets the deterministic harness
    corrupt the artifact written by a chosen put ordinal
    (``put:<n>:corrupt``, see :mod:`repro.runtime.faults`).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        verify: bool | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        if verify is None:
            env = os.environ.get(CACHE_VERIFY_ENV, "").strip().lower()
            verify = env in ("1", "true", "yes", "on")
        self.verify = verify
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._put_ordinal = 0

    # ------------------------------------------------------------------ paths
    def path_for(self, kind: str, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"artifact key must be a hex digest, got {key!r}")
        return self.root / _LAYOUT / kind / key[:2] / f"{key}.npz"

    # -------------------------------------------------------------- quarantine
    def quarantine_dir(self, kind: str) -> Path:
        return self.root / "quarantine" / kind

    def _quarantine(self, path: Path, kind: str) -> Path | None:
        """Move a corrupt file to ``<root>/quarantine/<kind>/`` under a
        collision-safe name; returns the new path (``None`` if the file
        vanished or the move failed — quarantining is best-effort).

        Moving (not unlinking) keeps the bad bytes for a postmortem and
        closes the unlink race: a reader that opened a file mid
        ``os.replace`` must not *delete* the path, which by now may hold
        a freshly re-written good artifact — at worst that good file is
        set aside and rebuilt, never destroyed.
        """
        try:
            qdir = self.quarantine_dir(kind)
            qdir.mkdir(parents=True, exist_ok=True)
            for n in range(10_000):
                target = qdir / f"{path.stem}.{n}{path.suffix}"
                if target.exists():
                    continue
                path.rename(target)
                obs.METRICS.inc("store.quarantined")
                obs.TRACER.instant(
                    "store.quarantine", kind=kind, source=str(path),
                    quarantined_to=str(target),
                )
                return target
        except OSError:
            pass
        return None

    # ------------------------------------------------------------------ access
    def get(self, kind: str, key: str) -> Artifact | None:
        """Load an artifact, or ``None`` on miss (corrupt files —
        including digest mismatches when ``verify`` is on — count as
        misses and are quarantined)."""
        path = self.path_for(kind, key)
        with obs.TRACER.span("store.get", kind=kind, key=key[:8]) as span:
            if not path.is_file():
                _count(kind, "misses")
                span.set(outcome="miss")
                return None
            try:
                with np.load(path, allow_pickle=False) as payload:
                    arrays = {
                        name: payload[name]
                        for name in payload.files
                        if name not in (_META_KEY, _DIGEST_KEY)
                    }
                    meta_json = str(payload[_META_KEY])
                    meta = json.loads(meta_json)
                    if self.verify and _DIGEST_KEY in payload.files:
                        stored = str(payload[_DIGEST_KEY])
                        if _payload_digest(arrays, meta_json) != stored:
                            obs.METRICS.inc("store.digest_mismatches")
                            raise _DigestMismatch(path)
                        obs.METRICS.inc("store.digest_verified")
            except (OSError, ValueError, KeyError, json.JSONDecodeError,
                    zipfile.BadZipFile, _DigestMismatch) as exc:
                # A half-written, foreign or bit-rotted file: set it aside
                # and rebuild.
                self._quarantine(path, kind)
                _count(kind, "misses")
                span.set(outcome="corrupt", error=type(exc).__name__)
                return None
            _count(kind, "hits")
            span.set(outcome="hit")
            return Artifact(kind=kind, key=key, arrays=arrays, meta=meta)

    def put(
        self,
        kind: str,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, object] | None = None,
    ) -> Path:
        """Write an artifact atomically; returns its path."""
        if _META_KEY in arrays or _DIGEST_KEY in arrays:
            raise ValueError(
                f"array names {_META_KEY!r}/{_DIGEST_KEY!r} are reserved"
            )
        payload = {name: np.asarray(value) for name, value in arrays.items()}
        for name, value in payload.items():
            if value.dtype.kind == "O":
                raise ValueError(
                    f"array {name!r} has object dtype; artifacts must be "
                    "plain numeric/bool/bytes arrays (no pickles)"
                )
        meta_json = json.dumps(meta or {}, sort_keys=True)
        digest = _payload_digest(payload, meta_json)
        payload[_META_KEY] = np.asarray(meta_json)
        payload[_DIGEST_KEY] = np.asarray(digest)
        path = self.path_for(kind, key)
        with obs.TRACER.span("store.put", kind=kind, key=key[:8]):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    _write_npz(handle, payload)
                os.replace(tmp, path)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
        _count(kind, "puts")
        ordinal = self._put_ordinal
        self._put_ordinal += 1
        if self.fault_plan and self.fault_plan.match("put", ordinal) == "corrupt":
            corrupt_file(path)
        return path

    def fetch(
        self,
        kind: str,
        key: str,
        build: Callable[[], tuple[Mapping[str, np.ndarray], Mapping[str, object]]],
    ) -> tuple[Artifact, bool]:
        """Memoize: load ``(kind, key)`` or build, store and reload-shape it.

        Returns ``(artifact, hit)``.  The built payload is returned
        as-is (not re-read from disk) — the round-trip test suite pins
        write/read exactness separately.  A write that fails with
        ``OSError`` (read-only cache directory, disk full) degrades to
        compute-without-cache with a warning: the freshly built value
        is still returned, only the memoization is lost.
        """
        cached = self.get(kind, key)
        if cached is not None:
            return cached, True
        arrays, meta = build()
        try:
            self.put(kind, key, arrays, meta)
        except OSError as exc:
            obs.METRICS.inc("store.put_errors")
            obs.TRACER.instant(
                "store.degraded", kind=kind, key=key[:8],
                error=f"{type(exc).__name__}: {exc}",
            )
            warnings.warn(
                f"artifact store write failed for {kind}/{key[:8]} "
                f"({type(exc).__name__}: {exc}); continuing without cache",
                RuntimeWarning,
                stacklevel=2,
            )
        return (
            Artifact(
                kind=kind,
                key=key,
                arrays={n: np.asarray(v) for n, v in arrays.items()},
                meta=dict(meta),
            ),
            False,
        )
