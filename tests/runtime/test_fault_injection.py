"""The deterministic fault-injection harness and every recovery path.

Each test drives a :class:`FaultPlan` through the executor, store or
campaign and asserts the recovered results are bit-identical to the
fault-free (serial-reference) run — the DESIGN.md §10 contract.
"""

from __future__ import annotations

import json
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor, wait

import numpy as np
import pytest

from repro import obs
from repro.errors import (
    ExperimentError,
    FaultInjectionError,
    TaskError,
    TaskTimeoutError,
)
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import enumerate_stuck_at_faults
from repro.runtime.campaign import (
    MANIFEST_SCHEMA,
    STAGES,
    CampaignConfig,
    journal_path,
    load_resume_entries,
    run_campaign,
)
from repro.runtime.executor import Executor
from repro.runtime.faults import (
    FaultPlan,
    FaultSpec,
    InjectedKill,
    PLAN_ENV,
    corrupt_file,
)
from repro.runtime.parallel import sharded_detection_matrix
from repro.runtime.store import ArtifactStore

KEY = "deadbeef" * 5

#: Two small circuits for the circuit-parallel campaign mode.
PAIR = ("c432", "c499")


def square(state, task):
    return task * task


def outcomes(manifest, *fields):
    return [tuple(e[f] for f in fields) for e in manifest["entries"]]


class CallbackError(Exception):
    """Unpicklable on purpose: carries a lambda attribute."""

    def __init__(self, label, callback):
        super().__init__(label)
        self.callback = callback


def raise_unpicklable(state, task):
    raise CallbackError("stateful failure", lambda: None)


@pytest.fixture
def no_fault_env(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)


@pytest.fixture(scope="module")
def serial_pair(tmp_path_factory):
    """The fault-free ``jobs=1`` campaign over :data:`PAIR`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(PLAN_ENV, raising=False)
        cache = tmp_path_factory.mktemp("serial") / "cache"
        return run_campaign(CampaignConfig(circuits=PAIR, jobs=1, cache_dir=str(cache)))


# ---------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_parse_round_trip(self):
        spec = "task:3:crash;stage:c432/atpg:error;put:1:corrupt"
        plan = FaultPlan.parse(spec)
        assert plan.spec == spec
        assert plan.faults[0] == FaultSpec("task", "3", "crash", 1)
        assert FaultPlan.parse(plan.spec).faults == plan.faults

    def test_parse_is_cached(self):
        assert FaultPlan.parse("task:0:error") is FaultPlan.parse("task:0:error")

    def test_match_is_pure_and_attempt_bounded(self):
        plan = FaultPlan.parse("task:2:error:2;stage:c432/atpg:kill")
        assert plan.match("task", 2, attempt=0) == "error"
        assert plan.match("task", 2, attempt=1) == "error"
        assert plan.match("task", 2, attempt=2) is None  # times exhausted
        assert plan.match("task", 3, attempt=0) is None
        assert plan.match("stage", "c432/atpg") == "kill"
        assert plan.match("stage", "c432/optimize") is None

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(PLAN_ENV, "put:0:corrupt")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.match("put", 0) == "corrupt"

    @pytest.mark.parametrize(
        "spec",
        [
            "task:1",  # missing kind
            "disk:1:crash",  # unknown site
            "task:1:corrupt",  # kind invalid at site
            "task::crash",  # empty index
            "task:1:error:0",  # times < 1
            "task:1:error:soon",  # non-integer times
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse(spec)


# ----------------------------------------------------------- executor faults
class TestExecutorRecovery:
    def test_transient_error_retried_parallel(self):
        plan = FaultPlan.parse("task:1:error")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = Executor(2, task_retries=1, fault_plan=plan).map(
                square, range(6)
            )
        assert result == [0, 1, 4, 9, 16, 25]

    def test_transient_error_retried_serial(self):
        plan = FaultPlan.parse("task:1:error")
        result = Executor(1, task_retries=1, fault_plan=plan).map(square, range(6))
        assert result == [0, 1, 4, 9, 16, 25]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_without_retry_budget_raises(self, jobs):
        plan = FaultPlan.parse("task:1:error")
        with pytest.raises(FaultInjectionError, match="injected transient"):
            Executor(jobs, fault_plan=plan).map(square, range(6))

    def test_worker_crash_recovers_completed_results(self):
        # A crashed worker breaks the pool; completed results must
        # survive and only the stranded tasks re-dispatch — without
        # charging per-task retry budget (task_retries stays 0) and
        # without the serial-fallback warning.
        plan = FaultPlan.parse("task:2:crash")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = Executor(2, fault_plan=plan).map(square, range(8))
        assert result == [t * t for t in range(8)]

    @staticmethod
    def _pause_submit_after_task_2(monkeypatch) -> list:
        """Make ``pool.submit``, once, wait after submitting task 2 until
        that task's future is done: under ``task:2:crash`` its worker has
        died by then, so submitting task 3 raises ``BrokenProcessPool``."""
        original = ProcessPoolExecutor.submit
        paused = []

        def submit(pool, fn, *args, **kwargs):
            future = original(pool, fn, *args, **kwargs)
            index, attempt = args[2], args[3]
            if index == 2 and attempt == 0 and not paused:
                paused.append(index)
                wait([future], timeout=60)
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        return paused

    def test_worker_death_during_submission_restarts_the_pool(self, monkeypatch):
        # The pool breaks while the round is still submitting.  That is a
        # worker death like any other — one restart with the finished
        # results kept — not a pool that could not start (serial
        # fallback).
        paused = self._pause_submit_after_task_2(monkeypatch)
        executor = Executor(2, fault_plan=FaultPlan.parse("task:2:crash"))
        mark = obs.METRICS.mark()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = executor.map(square, range(8))
        assert result == [t * t for t in range(8)]
        assert paused == [2]
        delta = obs.METRICS.delta_since(mark)
        assert delta["executor.pool_restarts"] == 1
        assert "executor.serial_fallbacks" not in delta

    def test_unsubmitted_tasks_keep_their_attempt(self, monkeypatch):
        # Task 5 is never submitted in the broken round, so its first
        # run in the next round is still attempt 0 and its crash fires:
        # a second restart.
        self._pause_submit_after_task_2(monkeypatch)
        plan = FaultPlan.parse("task:2:crash;task:5:crash")
        executor = Executor(2, fault_plan=plan)
        mark = obs.METRICS.mark()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = executor.map(square, range(8))
        assert result == [t * t for t in range(8)]
        delta = obs.METRICS.delta_since(mark)
        assert delta["executor.pool_restarts"] == 2
        assert "executor.serial_fallbacks" not in delta

    def test_persistent_crash_falls_back_to_serial(self):
        # A pool that keeps dying is bounded by MAX_POOL_RESTARTS, then
        # the survivors run in-process (where crash injection is inert
        # by design: the serial path is the reference and must live).
        plan = FaultPlan.parse("task:2:crash:10")
        with pytest.warns(RuntimeWarning, match="serial"):
            result = Executor(2, fault_plan=plan).map(square, range(5))
        assert result == [0, 1, 4, 9, 16]

    def test_hang_past_deadline_is_redispatched(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
        plan = FaultPlan.parse("task:0:hang")
        result = Executor(
            2, task_timeout=0.5, task_retries=1, fault_plan=plan
        ).map(square, range(4))
        assert result == [0, 1, 4, 9]

    def test_hang_without_retry_budget_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
        plan = FaultPlan.parse("task:0:hang:5")
        with pytest.raises(TaskTimeoutError, match="deadline"):
            Executor(2, task_timeout=0.5, fault_plan=plan).map(square, range(4))

    def test_unpicklable_task_exception_ships_as_report(self):
        # The exception cannot cross the process boundary; its
        # (type, message, traceback) triple must — with no serial
        # fallback (the task genuinely failed, rerunning is wrong).
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TaskError, match="CallbackError"):
                Executor(2).map(raise_unpicklable, range(3))

    def test_knobs_resolve_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        executor = Executor(2)
        assert executor.task_timeout == 2.5
        assert executor.task_retries == 3


class TestOnResult:
    """``Executor.map``'s internal ``on_result`` hook (the campaign's
    progress ledger feed): once per task, with the final value."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fires_once_per_task(self, jobs):
        seen = []
        result = Executor(jobs).map(
            square, range(6), on_result=lambda i, value: seen.append((i, value))
        )
        assert result == [t * t for t in range(6)]
        assert sorted(seen) == list(enumerate(result))

    def test_fires_once_per_task_after_pool_restart(self):
        seen = []
        executor = Executor(2, fault_plan=FaultPlan.parse("task:2:crash"))
        mark = obs.METRICS.mark()
        result = executor.map(
            square, range(8), on_result=lambda i, value: seen.append((i, value))
        )
        assert obs.METRICS.delta_since(mark)["executor.pool_restarts"] == 1
        assert result == [t * t for t in range(8)]
        assert sorted(seen) == list(enumerate(result))


class TestShardedBitIdentity:
    def test_detection_matrix_identical_under_crash(
        self, small_circuit, monkeypatch
    ):
        faults = enumerate_stuck_at_faults(small_circuit)[:64]
        patterns = random_patterns(len(small_circuit.input_names), 32, seed=3)
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reference = sharded_detection_matrix(small_circuit, faults, patterns, jobs=1)
        monkeypatch.setenv(PLAN_ENV, "task:1:crash")
        recovered = sharded_detection_matrix(small_circuit, faults, patterns, jobs=2)
        assert np.array_equal(reference, recovered)

    def test_detection_matrix_identical_under_transient_error(
        self, small_circuit, monkeypatch
    ):
        faults = enumerate_stuck_at_faults(small_circuit)[:64]
        patterns = random_patterns(len(small_circuit.input_names), 32, seed=3)
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reference = sharded_detection_matrix(small_circuit, faults, patterns, jobs=1)
        monkeypatch.setenv(PLAN_ENV, "task:0:error")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "1")
        recovered = sharded_detection_matrix(small_circuit, faults, patterns, jobs=2)
        assert np.array_equal(reference, recovered)


# -------------------------------------------------------------- store faults
class TestStoreFaults:
    def test_injected_put_corruption_is_quarantined_and_rebuilt(self, tmp_path):
        store = ArtifactStore(
            tmp_path / "cache", fault_plan=FaultPlan.parse("put:0:corrupt")
        )
        mark = obs.METRICS.mark()
        store.put("test", KEY, {"x": np.arange(5)}, {})
        assert store.get("test", KEY) is None  # corrupt → miss
        assert obs.METRICS.delta_since(mark)["store.quarantined"] == 1
        # The rebuild's put (ordinal 1) is past the plan: cache heals.
        artifact, hit = store.fetch(
            "test", KEY, lambda: ({"x": np.arange(5)}, {})
        )
        assert not hit
        reloaded = store.get("test", KEY)
        assert reloaded is not None
        assert np.array_equal(reloaded.arrays["x"], np.arange(5))

    def test_digest_verification_catches_valid_zip_tamper(self, tmp_path):
        root = tmp_path / "cache"
        ArtifactStore(root).put("test", KEY, {"x": np.arange(4)}, {"n": 4})
        path = ArtifactStore(root).path_for("test", KEY)
        # Tamper with an array but keep the npz well-formed and the
        # stored digest stale — invisible without verification.
        with np.load(path, allow_pickle=False) as payload:
            data = {name: payload[name] for name in payload.files}
        data["x"] = data["x"] + 1
        np.savez(str(path), **data)
        unverified = ArtifactStore(root)
        tampered = unverified.get("test", KEY)
        assert tampered is not None
        assert np.array_equal(tampered.arrays["x"], np.arange(4) + 1)
        verifying = ArtifactStore(root, verify=True)
        mark = obs.METRICS.mark()
        assert verifying.get("test", KEY) is None
        assert obs.METRICS.delta_since(mark)["store.quarantined"] == 1

    def test_verify_resolves_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_VERIFY", "1")
        assert ArtifactStore(tmp_path).verify
        monkeypatch.delenv("REPRO_CACHE_VERIFY")
        assert not ArtifactStore(tmp_path).verify

    def test_corrupt_file_flips_bytes(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"\0" * 64)
        corrupt_file(path)
        assert path.read_bytes() != b"\0" * 64

    def test_unwritable_cache_degrades_to_compute(self, tmp_path, no_fault_env):
        # The cache root sits below a regular file, so every write
        # fails with an OSError (same shape as read-only / disk full):
        # fetch must warn and return the built value, not crash.
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        store = ArtifactStore(blocker / "cache")
        mark = obs.METRICS.mark()
        with pytest.warns(RuntimeWarning, match="without cache"):
            artifact, hit = store.fetch(
                "test", KEY, lambda: ({"x": np.arange(3)}, {"n": 3})
            )
        assert not hit
        assert np.array_equal(artifact.arrays["x"], np.arange(3))
        assert artifact.meta == {"n": 3}
        assert obs.METRICS.delta_since(mark)["store.put_errors"] == 1

    def test_campaign_survives_unwritable_cache(self, tmp_path, no_fault_env):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        config = CampaignConfig(
            circuits=("c432",),
            stages=("separation", "stuck-at"),
            jobs=1,
            cache_dir=str(blocker / "cache"),
        )
        with pytest.warns(RuntimeWarning, match="without cache"):
            manifest = run_campaign(config)
        assert all(e["status"] == "ok" for e in manifest["entries"])
        assert manifest["totals"]["failed"] == 0


# ----------------------------------------------------------- campaign faults
class TestCampaignFaults:
    def test_stage_fault_is_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "stage:c432/atpg:error")
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c432",), jobs=1, cache_dir=str(tmp_path / "cache")
            )
        )
        by_stage = {e["stage"]: e for e in manifest["entries"]}
        assert by_stage["atpg"]["status"] == "failed"
        assert "injected stage fault" in by_stage["atpg"]["error"]
        for stage in ("separation", "stuck-at", "optimize"):
            assert by_stage[stage]["status"] == "ok"
        totals = manifest["totals"]
        assert totals["failed"] == 1
        assert totals["hits"] == 0 and totals["misses"] == 3

    def test_stage_fault_does_not_leak_across_circuits(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(PLAN_ENV, "stage:c17/stuck-at:error")
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c17", "c432"),
                stages=("separation", "stuck-at"),
                jobs=1,
                cache_dir=str(tmp_path / "cache"),
            )
        )
        outcomes = {
            (e["circuit"], e["stage"]): e["status"] for e in manifest["entries"]
        }
        assert outcomes[("c17", "stuck-at")] == "failed"
        assert outcomes[("c17", "separation")] == "ok"
        assert outcomes[("c432", "separation")] == "ok"
        assert outcomes[("c432", "stuck-at")] == "ok"

    def test_unknown_circuit_quarantines_its_stages_only(
        self, tmp_path, no_fault_env
    ):
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c9999", "c432"),
                stages=("separation",),
                jobs=1,
                cache_dir=str(tmp_path / "cache"),
            )
        )
        outcomes = {e["circuit"]: e for e in manifest["entries"]}
        assert outcomes["c9999"]["status"] == "failed"
        assert "circuit load failed" in outcomes["c9999"]["error"]
        assert outcomes["c432"]["status"] == "ok"

    def test_kill_then_resume_converges_to_fault_free_run(
        self, tmp_path, monkeypatch
    ):
        def entry_key(manifest):
            return [
                (e["circuit"], e["stage"], e["status"], e["hit"], e["meta"])
                for e in manifest["entries"]
            ]

        monkeypatch.delenv(PLAN_ENV, raising=False)
        reference = run_campaign(
            CampaignConfig(
                circuits=("c432",), jobs=1, cache_dir=str(tmp_path / "ref-cache")
            )
        )
        cache = str(tmp_path / "cache")
        out = tmp_path / "manifest.json"
        monkeypatch.setenv(PLAN_ENV, "stage:c432/atpg:kill")
        with pytest.raises(InjectedKill):
            run_campaign(
                CampaignConfig(
                    circuits=("c432",), jobs=1, cache_dir=cache, out=str(out)
                )
            )
        journal = journal_path(out)
        assert journal.exists() and not out.exists()
        monkeypatch.delenv(PLAN_ENV)
        resumed = run_campaign(
            CampaignConfig(
                circuits=("c432",),
                jobs=1,
                cache_dir=cache,
                out=str(out),
                resume=str(journal),
            )
        )
        # Bit-identical outcome: same stages, statuses, cache-miss
        # pattern and stage metadata (coverage floats and all).
        assert entry_key(resumed) == entry_key(reference)
        # Only the two non-journaled stages re-executed: two artifact
        # puts (atpg test set, optimiser portfolio) vs four cold.
        assert reference["totals"]["store"]["puts"] == 4
        assert resumed["totals"]["store"]["puts"] == 2
        assert resumed["totals"]["resumed"] == 2
        assert [e.get("resumed", False) for e in resumed["entries"]] == [
            True,
            True,
            False,
            False,
        ]
        # Successful save writes the manifest and retires the journal.
        assert out.exists() and not journal.exists()
        saved = json.loads(out.read_text())
        assert saved["schema"] == MANIFEST_SCHEMA
        assert saved["totals"]["resumed"] == 2

    def test_resume_from_completed_manifest_executes_nothing(
        self, tmp_path, no_fault_env
    ):
        cache = str(tmp_path / "cache")
        out = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation", "stuck-at"),
                jobs=1,
                cache_dir=cache,
                out=str(out),
            )
        )
        resumed = run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation", "stuck-at"),
                jobs=1,
                cache_dir=cache,
                out=str(out),
                resume=str(out),
            )
        )
        assert resumed["totals"]["resumed"] == 2
        assert all(e["resumed"] for e in resumed["entries"])
        # Nothing executed: the store was never touched (not even for
        # hits) because resumed circuits are not loaded at all.
        store_totals = resumed["totals"]["store"]
        assert store_totals == {"hits": 0, "misses": 0, "puts": 0, "quarantined": 0}

    def test_failed_entries_are_not_resumable(self, tmp_path):
        journal = tmp_path / "run.partial.jsonl"
        lines = [
            json.dumps({"circuit": "c432", "stage": "separation", "status": "ok"}),
            json.dumps({"circuit": "c432", "stage": "atpg", "status": "failed"}),
            '{"circuit": "c432", "stage": "opt',  # torn tail from a kill
        ]
        journal.write_text("\n".join(lines) + "\n")
        resumable = load_resume_entries(journal)
        assert set(resumable) == {("c432", "separation")}

    def test_resume_accepts_schema1_manifests(self, tmp_path):
        # Pre-"status" manifests: every recorded entry succeeded.
        manifest = tmp_path / "old.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "entries": [
                        {"circuit": "c432", "stage": "separation", "hit": False}
                    ],
                }
            )
        )
        assert set(load_resume_entries(manifest)) == {("c432", "separation")}

    def test_resume_rejects_unreadable_manifest(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read"):
            load_resume_entries(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ExperimentError, match="not valid JSON"):
            load_resume_entries(bad)


class TestCircuitParallelFaults:
    """Faults in the circuit-parallel mode (two circuits, ``jobs=2``):
    stage sites fire in the worker running the circuit, ``task:<i>``
    addresses circuit tasks (DESIGN §10.5)."""

    def test_stage_error_fails_only_its_entry(
        self, serial_pair, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(PLAN_ENV, "stage:c499/stuck-at:error")
        manifest = run_campaign(
            CampaignConfig(circuits=PAIR, jobs=2, cache_dir=str(tmp_path / "cache"))
        )
        fields = ("circuit", "stage", "status", "hit", "meta")
        for got, want in zip(outcomes(manifest, *fields), outcomes(serial_pair, *fields)):
            if got[:2] == ("c499", "stuck-at"):
                assert got[2] == "failed"
            else:
                assert got == want
        assert manifest["totals"]["failed"] == 1

    def test_kill_stops_workers_and_resume_converges(
        self, serial_pair, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "cache")
        out = tmp_path / "manifest.json"
        # c499 is the larger circuit, so it is task 0: the gather meets
        # its kill while c432's task may still be running.
        monkeypatch.setenv(PLAN_ENV, "stage:c499/atpg:kill")
        # Pool workers of earlier tests may still be exiting.
        earlier = set(multiprocessing.active_children())
        with pytest.raises(InjectedKill):
            run_campaign(
                CampaignConfig(circuits=PAIR, jobs=2, cache_dir=cache, out=str(out))
            )
        leftover = [
            (child.name, child.pid, child.exitcode)
            for child in multiprocessing.active_children()
            if child not in earlier
        ]
        assert not leftover, f"workers of the killed run still listed: {leftover}"
        journal = journal_path(out)
        assert journal.exists() and not out.exists()
        monkeypatch.delenv(PLAN_ENV)
        resumed = run_campaign(
            CampaignConfig(
                circuits=PAIR, jobs=2, cache_dir=cache, out=str(out),
                resume=str(journal),
            )
        )
        fields = ("circuit", "stage", "status", "meta")
        assert outcomes(resumed, *fields) == outcomes(serial_pair, *fields)
        assert resumed["totals"]["resumed"] >= 2
        assert out.exists() and not journal.exists()

    def test_task_error_quarantines_its_circuit(
        self, serial_pair, tmp_path, monkeypatch
    ):
        # Task 0 is c499's circuit task; without retry budget the error
        # fails that circuit's entries and leaves c432's untouched.
        monkeypatch.setenv(PLAN_ENV, "task:0:error")
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        manifest = run_campaign(
            CampaignConfig(circuits=PAIR, jobs=2, cache_dir=str(tmp_path / "cache"))
        )
        fields = ("circuit", "stage", "status", "hit", "meta")
        for got, want in zip(outcomes(manifest, *fields), outcomes(serial_pair, *fields)):
            if got[0] == "c499":
                assert got[2] == "failed"
            else:
                assert got == want
        failed = [e for e in manifest["entries"] if e["status"] == "failed"]
        assert all("circuit task failed" in e["error"] for e in failed)
        assert manifest["totals"]["failed"] == len(STAGES)

    def test_task_crash_recovers(self, serial_pair, tmp_path, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "task:1:crash")
        manifest = run_campaign(
            CampaignConfig(circuits=PAIR, jobs=2, cache_dir=str(tmp_path / "cache"))
        )
        fields = ("circuit", "stage", "status", "meta")
        assert outcomes(manifest, *fields) == outcomes(serial_pair, *fields)
        assert manifest["totals"]["executor"]["pool_restarts"] == 1


class TestCampaignCLIFaults:
    def test_cli_kill_resume_round_trip(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "manifest.json"
        argv = [
            "campaign",
            "--circuits", "c432",
            "--stages", "separation,stuck-at",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out),
        ]
        monkeypatch.setenv(PLAN_ENV, "stage:c432/stuck-at:kill")
        with pytest.raises(InjectedKill):
            main(argv)
        journal = journal_path(out)
        assert journal.exists()
        monkeypatch.delenv(PLAN_ENV)
        code = main(argv + ["--resume", str(journal)])
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["totals"]["resumed"] == 1
        assert not journal.exists()
        assert "resumed" in capsys.readouterr().out

    def test_cli_exits_nonzero_on_failed_stage(self, tmp_path, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv(PLAN_ENV, "stage:c432/separation:error")
        code = main(
            [
                "campaign",
                "--circuits", "c432",
                "--stages", "separation",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 1
