"""Artifact recipes, the campaign runner and the CLI."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro import obs
from repro.errors import ExperimentError
from repro.faultsim.atpg import generate_iddq_tests
from repro.faultsim.faults import sample_bridging_faults
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.analysis.separation import SeparationMatrix
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.runtime.artifacts import (
    cached_detection_matrix,
    cached_iddq_test_set,
    cached_separation_matrix,
)
from repro.runtime.campaign import (
    MANIFEST_SCHEMA,
    STAGES,
    CampaignConfig,
    _journal_append,
    load_resume_entries,
    run_campaign,
    status_path,
)
from repro.runtime.faults import PLAN_ENV
from repro.runtime.store import ArtifactStore

#: Two small circuits: enough for the circuit-parallel mode, which
#: needs at least two circuits with stages to run.
PAIR = ("c432", "c499")


def outcomes(manifest, *fields):
    return [tuple(e[f] for f in fields) for e in manifest["entries"]]


@pytest.fixture(scope="module")
def serial_pair(tmp_path_factory):
    """The fault-free ``jobs=1`` campaign over :data:`PAIR`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(PLAN_ENV, raising=False)
        cache = tmp_path_factory.mktemp("serial") / "cache"
        return run_campaign(CampaignConfig(circuits=PAIR, jobs=1, cache_dir=str(cache)))


@pytest.fixture
def clean_obs():
    saved = obs.enabled_state()
    obs.TRACER.reset()
    obs.METRICS.reset()
    yield
    obs.enable(trace=saved[0], metrics=saved[1])
    obs.TRACER.reset()
    obs.METRICS.reset()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestArtifactRecipes:
    def test_separation_round_trip_exact(self, store, small_circuit):
        fresh = SeparationMatrix(small_circuit, 8)
        built, hit1 = cached_separation_matrix(store, small_circuit, 8)
        reloaded, hit2 = cached_separation_matrix(store, small_circuit, 8)
        assert (hit1, hit2) == (False, True)
        assert np.array_equal(fresh.matrix, built.matrix)
        assert np.array_equal(fresh.matrix, reloaded.matrix)
        assert reloaded.matrix.dtype == np.uint8
        assert reloaded.cap == 8

    def test_separation_cap_invalidates(self, store, small_circuit):
        cached_separation_matrix(store, small_circuit, 8)
        _, hit = cached_separation_matrix(store, small_circuit, 9)
        assert not hit

    def test_detection_matrix_round_trip_exact(self, store, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)[:64]
        patterns = random_patterns(len(small_circuit.input_names), 50, seed=4)
        fresh = StuckAtSimulator(small_circuit).detection_matrix(faults, patterns)
        built, hit1 = cached_detection_matrix(store, small_circuit, faults, patterns)
        reloaded, hit2 = cached_detection_matrix(
            store, small_circuit, faults, patterns
        )
        assert (hit1, hit2) == (False, True)
        assert np.array_equal(fresh, built)
        assert np.array_equal(fresh, reloaded)

    def test_detection_matrix_invalidates_on_patterns(self, store, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)[:16]
        patterns = random_patterns(len(small_circuit.input_names), 20, seed=4)
        cached_detection_matrix(store, small_circuit, faults, patterns)
        changed = patterns.copy()
        changed[0, 0] ^= 1
        _, hit = cached_detection_matrix(store, small_circuit, faults, changed)
        assert not hit

    def test_detection_matrix_invalidates_on_circuit(
        self, store, small_circuit, c17_circuit
    ):
        patterns = random_patterns(len(small_circuit.input_names), 20, seed=4)
        faults = enumerate_stuck_at_faults(small_circuit)[:16]
        cached_detection_matrix(store, small_circuit, faults, patterns)
        c17_faults = enumerate_stuck_at_faults(c17_circuit)[:16]
        c17_patterns = random_patterns(len(c17_circuit.input_names), 20, seed=4)
        _, hit = cached_detection_matrix(store, c17_circuit, c17_faults, c17_patterns)
        assert not hit

    def test_test_set_round_trip_exact(self, store, small_circuit, small_evaluator):
        partition = chain_start_partition(
            small_evaluator, estimate_module_count(small_evaluator), random.Random(2)
        )
        defects = sample_bridging_faults(
            small_circuit, 15, seed=3, current_range_ua=(0.5, 5.0)
        )
        kwargs = dict(seed=5, random_vectors=8, restarts=1, flip_budget=4)
        fresh = generate_iddq_tests(small_circuit, partition, defects, **kwargs)
        built, hit1 = cached_iddq_test_set(
            store, small_circuit, partition, defects, **kwargs
        )
        reloaded, hit2 = cached_iddq_test_set(
            store, small_circuit, partition, defects, **kwargs
        )
        assert (hit1, hit2) == (False, True)
        for tests in (built, reloaded):
            assert np.array_equal(fresh.patterns, tests.patterns)
            assert fresh.detected_ids == tests.detected_ids
            assert fresh.undetected_ids == tests.undetected_ids
            assert fresh.random_detected == tests.random_detected
            assert fresh.targeted_detected == tests.targeted_detected

    def test_test_set_config_invalidates(
        self, store, small_circuit, small_evaluator
    ):
        partition = chain_start_partition(
            small_evaluator, estimate_module_count(small_evaluator), random.Random(2)
        )
        defects = sample_bridging_faults(
            small_circuit, 10, seed=3, current_range_ua=(0.5, 5.0)
        )
        kwargs = dict(seed=5, random_vectors=8, restarts=1, flip_budget=4)
        cached_iddq_test_set(store, small_circuit, partition, defects, **kwargs)
        _, hit_seed = cached_iddq_test_set(
            store, small_circuit, partition, defects, **dict(kwargs, seed=6)
        )
        assert not hit_seed


class TestCampaign:
    def test_second_run_serves_from_cache(self, tmp_path):
        config = CampaignConfig(
            circuits=("c432",), jobs=1, cache_dir=str(tmp_path / "cache")
        )
        cold = run_campaign(config)
        warm = run_campaign(config)
        assert cold["totals"]["hits"] == 0
        assert cold["totals"]["misses"] == len(cold["entries"]) == 4
        assert warm["totals"]["hits"] == len(warm["entries"]) == 4
        assert warm["totals"]["misses"] == 0
        by_stage = {e["stage"]: e for e in warm["entries"]}
        assert set(by_stage) == {"separation", "stuck-at", "atpg", "optimize"}
        assert all(e["hit"] for e in warm["entries"])

    def test_warm_run_hits_across_different_jobs(self, tmp_path):
        # Campaign artifacts must be invariant to --jobs: a cache built
        # serially serves a 2-worker run (and vice versa) because every
        # ATPG search draws from its own defect's stream and the
        # portfolio runs a fixed seed population.
        cache = str(tmp_path / "cache")
        cold = run_campaign(
            CampaignConfig(circuits=("c432",), jobs=1, cache_dir=cache)
        )
        warm = run_campaign(
            CampaignConfig(circuits=("c432",), jobs=2, cache_dir=cache)
        )
        assert cold["totals"]["misses"] == 4
        assert warm["totals"]["hits"] == 4
        assert warm["totals"]["misses"] == 0

    def test_unknown_stage_rejected(self):
        with pytest.raises(ExperimentError, match="unknown campaign stage"):
            CampaignConfig(stages=("separation", "nope"))

    def test_no_circuits_rejected(self):
        with pytest.raises(ExperimentError, match="at least one circuit"):
            CampaignConfig(circuits=())


class TestStageMaxRSS:
    def test_only_traced_stage_spans_read_max_rss(
        self, tmp_path, monkeypatch, clean_obs
    ):
        from repro.obs import live

        monkeypatch.delenv(PLAN_ENV, raising=False)
        reads = []
        real = live.max_rss_mb
        monkeypatch.setattr(live, "max_rss_mb", lambda: reads.append(1) or real())
        manifests = []
        for trace in (False, True):
            obs.enable(trace=trace)
            manifests.append(
                run_campaign(
                    CampaignConfig(
                        circuits=("c432",), stages=("separation", "stuck-at"),
                        jobs=1, cache_dir=str(tmp_path / f"cache-{trace}"),
                    )
                )
            )
            assert len(reads) == (2 if trace else 0)
        spans = list(obs.TRACER.spans("campaign.stage"))
        assert len(spans) == 2
        assert all(span[6]["maxrss_mb"] > 0 for span in spans)
        fields = ("circuit", "stage", "status", "hit", "meta")
        assert outcomes(manifests[0], *fields) == outcomes(manifests[1], *fields)


class TestCircuitParallel:
    """``jobs > 1`` with several circuits: one pool task per circuit,
    the stage drivers at ``jobs=1`` inside it (DESIGN §9.5)."""

    def test_entries_and_totals_equal_serial_run(
        self, serial_pair, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        # c499 is the larger circuit, so it is dispatched first; the
        # entries still follow config.circuits.
        parallel = run_campaign(
            CampaignConfig(circuits=PAIR, jobs=2, cache_dir=str(tmp_path / "cache"))
        )
        fields = ("circuit", "stage", "status", "hit", "meta")
        assert outcomes(parallel, *fields) == outcomes(serial_pair, *fields)
        assert outcomes(parallel, "circuit", "stage") == [
            (name, stage) for name in PAIR for stage in STAGES
        ]
        totals = dict(parallel["totals"], seconds=None)
        assert totals == dict(serial_pair["totals"], seconds=None)
        assert totals["store"]["puts"] == 8

    def test_trace_lanes_and_status(self, tmp_path, monkeypatch, clean_obs):
        from repro.obs import live

        monkeypatch.delenv(PLAN_ENV, raising=False)
        started = []
        monkeypatch.setattr(
            live.ProgressLedger, "stage_started",
            lambda self, circuit, stage: started.append((circuit, stage)),
        )
        out = tmp_path / "manifest.json"
        trace = tmp_path / "trace.json"
        manifest = run_campaign(
            CampaignConfig(
                circuits=PAIR, jobs=2, cache_dir=str(tmp_path / "cache"),
                out=str(out), trace=str(trace),
            )
        )
        # Each circuit's stages ran inside its own circuit task.
        lanes = {
            event[5] for event in obs.TRACER.spans("campaign.stage")
        }
        assert lanes == {"task:0", "task:1"}
        assert all(
            event[6]["maxrss_mb"] > 0 for event in obs.TRACER.spans("campaign.stage")
        )
        exported = json.loads(trace.read_text())["traceEvents"]
        assert {"task:0", "task:1"} <= {
            e["args"]["name"] for e in exported
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert all("metrics" in e for e in manifest["entries"])
        # The parent records a circuit only when its task returns, so
        # the ledger never names a running stage.
        assert started == []
        status = json.loads(status_path(out).read_text())
        assert status["state"] == "done"
        assert status["current"] is None
        assert status["counts"]["ok"] == status["counts"]["total"] == 8
        assert status["totals"] == manifest["totals"]

    def test_heartbeats_name_circuit_tasks(self, tmp_path, monkeypatch):
        from repro.obs import live

        monkeypatch.delenv(PLAN_ENV, raising=False)
        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.01")
        monkeypatch.setenv(live.HEARTBEAT_DIR_ENV, str(tmp_path / "hb"))
        live.stop_heartbeat()
        try:
            run_campaign(
                CampaignConfig(circuits=PAIR, jobs=2, cache_dir=str(tmp_path / "cache"))
            )
        finally:
            live.stop_heartbeat()
        # The stage drivers' nested maps (ATPG defects, portfolio seeds)
        # never take over the heartbeat's task field.
        tasks = set()
        for path in (tmp_path / "hb").glob("hb-*.jsonl"):
            for line in path.read_text().splitlines():
                try:
                    tasks.add(json.loads(line)["task"])
                except json.JSONDecodeError:
                    pass  # a torn final line from a worker's exit
        assert tasks & {0, 1} and tasks <= {None, 0, 1}


def _append_lines(journal, tag, count):
    for k in range(count):
        _journal_append(
            journal,
            {"circuit": tag, "stage": str(k), "status": "ok", "pad": "x" * 20000},
        )


def test_concurrent_journal_appends_stay_whole(tmp_path):
    import multiprocessing

    # More writers than cores, each line larger than a stdio buffer.
    tags = ("a", "b", "c", "d")
    journal = tmp_path / "run.partial.jsonl"
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_append_lines, args=(journal, tag, 25))
        for tag in tags
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert not writer.is_alive() and writer.exitcode == 0
    lines = journal.read_text().splitlines()
    assert len(lines) == 100
    assert sorted((e["circuit"], int(e["stage"])) for e in map(json.loads, lines)) == [
        (tag, k) for tag in tags for k in range(25)
    ]
    assert len(load_resume_entries(journal)) == 100


class TestCampaignCLI:
    def test_cli_writes_manifest(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "manifest.json"
        code = main(
            [
                "campaign",
                "--circuits", "c432",
                "--stages", "separation,stuck-at",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert [e["stage"] for e in manifest["entries"]] == [
            "separation",
            "stuck-at",
        ]
        assert all(e["status"] == "ok" for e in manifest["entries"])
        # A successful save removes the incremental journal.
        assert not out.with_name(out.name + ".partial.jsonl").exists()
        printed = capsys.readouterr().out
        assert "stages from cache" in printed


class TestCampaignStatus:
    """The live progress ledger (DESIGN.md §12): <out>.status.json."""

    def test_status_converges_to_manifest(self, tmp_path):
        out = tmp_path / "manifest.json"
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation", "stuck-at"),
                cache_dir=str(tmp_path / "cache"),
                out=str(out),
            )
        )
        status = json.loads((tmp_path / "manifest.json.status.json").read_text())
        assert status["state"] == "done"
        assert status["counts"]["ok"] == 2
        assert status["counts"]["pending"] == 0
        assert status["counts"]["total"] == len(manifest["entries"])
        # The final document embeds the manifest totals verbatim.
        assert status["totals"] == manifest["totals"]
        assert status["manifest"] == str(out)

    def test_manifest_executor_totals(self, tmp_path):
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation",),
                cache_dir=str(tmp_path / "cache"),
            )
        )
        assert manifest["schema"] == MANIFEST_SCHEMA == 4
        executor = manifest["totals"]["executor"]
        assert set(executor) == {
            "retries", "timeouts", "pool_restarts", "serial_fallbacks",
            "tasks_recovered", "stalls",
        }
        assert all(v == 0 for v in executor.values())

    def test_status_counts_resumed_entries(self, tmp_path):
        cache = str(tmp_path / "cache")
        out = tmp_path / "manifest.json"
        config = dict(
            circuits=("c432",), stages=("separation", "stuck-at"),
            cache_dir=cache, out=str(out),
        )
        run_campaign(CampaignConfig(**config))
        run_campaign(CampaignConfig(resume=str(out), **config))
        status = json.loads((tmp_path / "manifest.json.status.json").read_text())
        assert status["state"] == "done"
        assert status["counts"]["resumed"] == 2
        assert status["counts"]["pending"] == 0

    def test_heartbeat_dir_defaults_next_to_manifest(self, tmp_path, monkeypatch):
        from repro.obs import live

        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.05")
        monkeypatch.delenv(live.HEARTBEAT_DIR_ENV, raising=False)
        live.stop_heartbeat()
        out = tmp_path / "manifest.json"
        try:
            run_campaign(
                CampaignConfig(
                    circuits=("c432",),
                    stages=("separation", "stuck-at"),
                    jobs=2,
                    cache_dir=str(tmp_path / "cache"),
                    out=str(out),
                )
            )
        finally:
            live.stop_heartbeat()
        hb_dir = tmp_path / "manifest.json.hb"
        assert hb_dir.is_dir()
        assert list(hb_dir.glob("hb-*.jsonl"))

    def test_status_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation",),
                cache_dir=str(tmp_path / "cache"),
                out=str(out),
            )
        )
        # All three addressing modes: manifest path, status file, dir.
        assert main(["status", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "campaign done" in rendered
        assert "1/1 stages" in rendered
        assert main(["status", str(out) + ".status.json"]) == 0
        assert "campaign done" in capsys.readouterr().out

    def test_status_cli_missing_and_invalid(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["status", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err
        bad = tmp_path / "bad.status.json"
        bad.write_text("{torn")
        assert main(["status", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_campaign_watch_requires_out(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["campaign", "--circuits", "c432", "--watch"]) == 2
        assert "--watch needs --out" in capsys.readouterr().err
