"""The determinism invariant: telemetry never changes what is computed.

Every result here is produced twice — instrumentation off, then on —
and compared bit-for-bit (arrays) or field-for-field modulo the
explicitly timing-valued fields (``seconds``, per-entry ``metrics``).
Also covers the one count store: the artifact store and the coverage
engine count into the metrics registry whether or not reporting is on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.runtime.campaign import CampaignConfig, run_campaign
from repro.runtime.parallel import sharded_detection_matrix
from repro.runtime.store import ArtifactStore


def _strip_timing(manifest: dict) -> dict:
    entries = []
    for entry in manifest["entries"]:
        entry = {k: v for k, v in entry.items() if k not in ("seconds", "metrics")}
        entries.append(entry)
    totals = {
        k: v for k, v in manifest["totals"].items() if k != "seconds"
    }
    return dict(
        manifest, entries=entries, totals=totals, cache_dir="<stripped>"
    )


class TestBitIdentity:
    def test_sharded_detection_matrix_with_trace_on(self, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)[:48]
        patterns = random_patterns(len(small_circuit.input_names), 64, seed=3)
        baseline = sharded_detection_matrix(
            small_circuit, faults, patterns, jobs=2
        )
        obs.enable(trace=True, metrics=True)
        traced = sharded_detection_matrix(
            small_circuit, faults, patterns, jobs=2
        )
        assert np.array_equal(baseline, traced)
        # The run actually recorded worker-attributed telemetry.
        assert any(
            e[5].startswith("task:") for e in obs.TRACER.events()
        )
        serial = StuckAtSimulator(small_circuit).detection_matrix(
            faults, patterns
        )
        assert np.array_equal(baseline, serial)

    def test_campaign_manifest_identical_modulo_timing(self, tmp_path):
        config = dict(
            circuits=("c432",), stages=("separation", "stuck-at"), jobs=2
        )
        plain = run_campaign(
            CampaignConfig(cache_dir=str(tmp_path / "cache-a"), **config)
        )
        traced = run_campaign(
            CampaignConfig(
                cache_dir=str(tmp_path / "cache-b"),
                trace=str(tmp_path / "trace.json"),
                **config,
            )
        )
        assert [e["status"] for e in plain["entries"]] == ["ok", "ok"]
        assert _strip_timing(plain) == _strip_timing(traced)
        # Entries carry metrics only in the traced run.
        assert all("metrics" not in e for e in plain["entries"])
        assert all("metrics" in e for e in traced["entries"])
        assert (tmp_path / "trace.json").is_file()

    def test_campaign_manifest_identical_with_heartbeats(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import live

        config = dict(
            circuits=("c432",), stages=("separation", "stuck-at"), jobs=2
        )
        plain = run_campaign(
            CampaignConfig(cache_dir=str(tmp_path / "cache-a"), **config)
        )
        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.05")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path / "hb"))
        live.stop_heartbeat()
        try:
            beating = run_campaign(
                CampaignConfig(cache_dir=str(tmp_path / "cache-b"), **config)
            )
        finally:
            live.stop_heartbeat()
        assert _strip_timing(plain) == _strip_timing(beating)
        assert list((tmp_path / "hb").glob("hb-*.jsonl"))

    def test_campaign_heartbeats_under_fault_plan_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import live

        monkeypatch.setenv("REPRO_FAULT_PLAN", "stage:c432/stuck-at:error")
        config = dict(circuits=("c432",), stages=("separation", "stuck-at"))
        plain = run_campaign(
            CampaignConfig(cache_dir=str(tmp_path / "cache-a"), **config)
        )
        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.05")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path / "hb"))
        live.stop_heartbeat()
        try:
            beating = run_campaign(
                CampaignConfig(cache_dir=str(tmp_path / "cache-b"), **config)
            )
        finally:
            live.stop_heartbeat()
        assert [e["status"] for e in plain["entries"]] == ["ok", "failed"]
        assert _strip_timing(plain) == _strip_timing(beating)

    def test_campaign_under_fault_plan_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "stage:c432/stuck-at:error")
        config = dict(circuits=("c432",), stages=("separation", "stuck-at"))
        plain = run_campaign(
            CampaignConfig(cache_dir=str(tmp_path / "cache-a"), **config)
        )
        traced = run_campaign(
            CampaignConfig(
                cache_dir=str(tmp_path / "cache-b"),
                trace=str(tmp_path / "trace.json"),
                **config,
            )
        )
        assert [e["status"] for e in plain["entries"]] == ["ok", "failed"]
        assert _strip_timing(plain) == _strip_timing(traced)
        # The quarantine decision is in the structured event log too.
        quarantines = [
            e for e in obs.TRACER.events() if e[1] == "campaign.quarantine"
        ]
        assert quarantines and quarantines[0][6]["stage"] == "stuck-at"


class TestUnifiedStatsViews:
    def test_store_stats_mirror_into_metrics(self, tmp_path):
        obs.enable(metrics=True)
        store = ArtifactStore(tmp_path / "cache")
        key = "ab" * 20
        assert store.get("demo", key) is None
        store.put("demo", key, {"x": np.arange(4)})
        assert store.get("demo", key) is not None
        # The counts in the registry, total and per kind.
        counters = obs.METRICS.counters("store.")
        assert counters["store.hits"] == 1
        assert counters["store.misses"] == 1
        assert counters["store.puts"] == 1
        assert counters["store.hits.demo"] == 1
        assert counters["store.misses.demo"] == 1
        assert counters["store.puts.demo"] == 1

    def test_engine_state_stats_mirror_into_metrics(self, c17_paper):
        obs.enable(metrics=True)
        engine = CoverageEngine(c17_paper)
        patterns = random_patterns(len(c17_paper.input_names), 8, seed=1)
        engine.prepared_values(patterns)
        engine.prepared_values(patterns)  # content hit on the revisit
        counters = obs.METRICS.counters("engine.state.")
        assert counters["engine.state.full"] == 1
        assert counters["engine.state.hits"] == 1

    def test_metrics_disabled_views_still_work(self, tmp_path):
        # Reporting off: counts arrive, span events and per-entry
        # manifest metrics do not.
        store = ArtifactStore(tmp_path / "cache")
        key = "cd" * 20
        store.get("demo", key)
        assert obs.METRICS.counters("store.") == {
            "store.misses": 1, "store.misses.demo": 1,
        }
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c17",), stages=("separation",), jobs=1,
                cache_dir=str(tmp_path / "campaign"),
            )
        )
        assert all("metrics" not in e for e in manifest["entries"])
        assert manifest["totals"]["store"] == {
            "hits": 0, "misses": 1, "puts": 1, "quarantined": 0,
        }
        assert obs.METRICS.counters("store.")["store.puts.separation"] == 1
        assert obs.TRACER.events() == []


class TestOneCountStore:
    def test_counts_equal_across_jobs_and_reporting(self, tmp_path, monkeypatch):
        # jobs 1 runs the stages in this process, jobs 2 one circuit
        # task per worker; reporting only adds per-entry metrics.
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        runs = []
        for n, (jobs, report) in enumerate([(1, False), (2, False), (2, True)]):
            obs.enable(metrics=report)
            mark = obs.METRICS.mark()
            manifest = run_campaign(
                CampaignConfig(
                    circuits=("c432", "c880"), jobs=jobs,
                    cache_dir=str(tmp_path / f"cache-{n}"),
                )
            )
            counts = obs.METRICS.delta_since(mark)
            # Timing-valued, and counted only in pool workers.
            counts.pop("executor.task_seconds", None)
            counts.pop("executor.tasks", None)
            totals = manifest["totals"]
            runs.append((counts, totals["store"], totals["executor"]))
        assert runs[0] == runs[1] == runs[2]
        counts, store, executor = runs[0]
        assert store == {"hits": 2, "misses": 8, "puts": 8, "quarantined": 0}
        assert not any(executor.values())
        assert counts["store.puts"] == 8
        assert counts["backend.full_pass"] > 0
