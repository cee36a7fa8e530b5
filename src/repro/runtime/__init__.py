"""The parallel execution runtime (DESIGN.md §9).

Three pieces turn the per-stage kernels into a production pipeline:

* :mod:`~repro.runtime.fingerprint` + :mod:`~repro.runtime.store` — a
  content-addressed on-disk artifact cache.  Circuits, libraries and
  config dataclasses hash to stable digests; expensive artifacts
  (separation matrices, detection matrices, test sets, optimiser
  results) are memoized under ``REPRO_CACHE_DIR`` with exact-equality
  round-trips and schema-versioned keys.
* :mod:`~repro.runtime.executor` — a deterministic shard/submit/gather
  process pool (worker count via ``REPRO_JOBS``, serial in-process
  fallback) with ordered gather, so every parallel build is
  result-identical to its serial reference — including through worker
  crashes, hangs and transient task errors (per-task timeouts
  ``REPRO_TASK_TIMEOUT``, bounded retries ``REPRO_TASK_RETRIES``,
  partial-result recovery; DESIGN.md §10).
* :mod:`~repro.runtime.campaign` — the ``python -m repro.experiments
  campaign`` runner: stages x circuits through cache + pool, emitting a
  JSON manifest of artifacts, cache hits and timings, with per-stage
  failure quarantine, an incremental ``.partial.jsonl`` journal and
  ``--resume``.
* :mod:`~repro.runtime.faults` — the deterministic fault-injection
  harness (``REPRO_FAULT_PLAN``) that drives every recovery path above
  in tests and CI.

:mod:`~repro.runtime.parallel` holds the domain drivers (sharded
stuck-at detection, the IDDQ ATPG's targeted searches, multi-seed
portfolios) and :mod:`~repro.runtime.artifacts` the typed cache recipes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "store": ("Artifact", "ArtifactStore", "default_cache_dir"),
        "executor": ("Executor", "resolve_jobs", "resolve_task_retries", "resolve_task_timeout"),
        "faults": ("FaultPlan", "InjectedKill"),
        "fingerprint": (
            "combine",
            "fingerprint_circuit",
            "fingerprint_library",
            "fingerprint_partition",
            "fingerprint_technology",
            "fingerprint_value",
        ),
    },
)
