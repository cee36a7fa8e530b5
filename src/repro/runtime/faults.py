"""Deterministic fault injection for the runtime (DESIGN.md §10.5).

A :class:`FaultPlan` names exactly *where* the runtime must fail — a
task index in an :class:`~repro.runtime.executor.Executor` round, a
``circuit/stage`` cell of a campaign, a put ordinal of an
:class:`~repro.runtime.store.ArtifactStore` — and *how*: worker crash
(``os._exit``), task hang (sleep past the deadline), transient
exception, artifact corruption, or a campaign kill.  Injection is a
pure function of ``(site, index, attempt)``: no clocks, no RNG, no
shared state, so the same plan fires identically in every process it
reaches (the spec string crosses the worker boundary with each task).

Spec grammar (``;``-joined, env ``REPRO_FAULT_PLAN``)::

    <site>:<index>:<kind>[:<times>]

    task:3:crash        crash the worker running task 3 (first attempt)
    task:5:error:2      raise FaultInjectionError on task 5, attempts 0-1
    task:0:hang         sleep REPRO_FAULT_HANG_SECONDS before task 0
    stage:c432/atpg:error   fail that campaign stage (quarantined entry)
    stage:c432/atpg:kill    kill the campaign there (InjectedKill)
    put:1:corrupt       flip bytes of the artifact written by put #1

``times`` bounds how many attempts fire (default 1), which is what
makes recovery terminate: a crash with ``times=1`` succeeds on the
re-dispatched attempt.  Crash and hang only fire inside pool workers —
the in-process serial path is the bit-identity reference and must stay
alive; transient ``error`` faults fire on both paths so retry logic is
testable without a pool.

The harness exists for the test suite and CI smoke: every recovery
path (crash mid-shard, hang past deadline, transient error with retry,
corrupt artifact, campaign kill + resume) is driven through a plan and
asserted bit-identical to the fault-free run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import FaultInjectionError
from repro.obs.core import env_number

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedKill",
    "corrupt_file",
    "inject_task_fault",
    "PLAN_ENV",
    "HANG_SECONDS_ENV",
]

#: Environment variable carrying the plan spec string.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment variable overriding the injected-hang sleep (seconds).
HANG_SECONDS_ENV = "REPRO_FAULT_HANG_SECONDS"

_DEFAULT_HANG_SECONDS = 30.0

#: Exit status of an injected worker crash (any non-zero code breaks
#: the pool; a recognizable one helps postmortems).
CRASH_EXIT_CODE = 87

#: Which kinds are meaningful at which site.
_SITE_KINDS = {
    "task": frozenset({"crash", "hang", "error"}),
    "stage": frozenset({"error", "kill"}),
    "put": frozenset({"corrupt"}),
}


class InjectedKill(BaseException):
    """An injected campaign kill, modelling SIGKILL for resume tests.

    Derives from ``BaseException`` so the campaign's per-stage
    quarantining ``except Exception`` cannot swallow it — the run dies
    with only the journal left behind, exactly like a real kill.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injection: fire ``kind`` at ``(site, index)`` for the first
    ``times`` attempts."""

    site: str
    index: str
    kind: str
    times: int = 1

    def render(self) -> str:
        base = f"{self.site}:{self.index}:{self.kind}"
        return base if self.times == 1 else f"{base}:{self.times}"


def _parse_one(part: str) -> FaultSpec:
    fields = part.split(":")
    if len(fields) not in (3, 4):
        raise FaultInjectionError(
            f"bad fault spec {part!r}: want site:index:kind[:times]"
        )
    site, index, kind = fields[0], fields[1], fields[2]
    if site not in _SITE_KINDS:
        raise FaultInjectionError(
            f"bad fault site {site!r} in {part!r}; known: {sorted(_SITE_KINDS)}"
        )
    if kind not in _SITE_KINDS[site]:
        raise FaultInjectionError(
            f"fault kind {kind!r} is not valid at site {site!r} "
            f"(valid: {sorted(_SITE_KINDS[site])})"
        )
    if not index:
        raise FaultInjectionError(f"bad fault spec {part!r}: empty index")
    times = 1
    if len(fields) == 4:
        try:
            times = int(fields[3])
        except ValueError as exc:
            raise FaultInjectionError(
                f"bad fault times {fields[3]!r} in {part!r}"
            ) from exc
        if times < 1:
            raise FaultInjectionError(f"fault times must be >= 1 in {part!r}")
    return FaultSpec(site=site, index=index, kind=kind, times=times)


_PARSE_CACHE: dict[str, "FaultPlan"] = {}


class FaultPlan:
    """A parsed, immutable set of :class:`FaultSpec` injections."""

    def __init__(self, faults: tuple[FaultSpec, ...] = ()):
        self.faults = tuple(faults)
        self.spec = ";".join(f.render() for f in self.faults)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; parses are cached (workers re-parse the
        same spec once per unique string, not once per task)."""
        cached = _PARSE_CACHE.get(spec)
        if cached is not None:
            return cached
        faults = tuple(
            _parse_one(part.strip())
            for part in spec.split(";")
            if part.strip()
        )
        plan = cls(faults)
        _PARSE_CACHE[spec] = plan
        return plan

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan from ``REPRO_FAULT_PLAN``, or ``None`` if unset."""
        spec = os.environ.get(PLAN_ENV, "").strip()
        return cls.parse(spec) if spec else None

    def match(self, site: str, index, attempt: int = 0) -> str | None:
        """The fault kind to fire at ``(site, index, attempt)``, if any."""
        key = str(index)
        for fault in self.faults:
            if fault.site == site and fault.index == key and attempt < fault.times:
                return fault.kind
        return None

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec!r})"


def hang_seconds() -> float:
    """Injected-hang sleep: ``REPRO_FAULT_HANG_SECONDS`` or 30s."""
    seconds = env_number(HANG_SECONDS_ENV)
    return _DEFAULT_HANG_SECONDS if seconds is None else seconds


def inject_task_fault(
    plan: FaultPlan, index: int, attempt: int, in_worker: bool
) -> None:
    """Fire the plan's fault for this task attempt, if any.

    Crash and hang fire only with ``in_worker=True`` — the serial path
    is the reference run and must neither die nor stall.  ``error``
    raises :class:`FaultInjectionError` on both paths (retryable).
    """
    kind = plan.match("task", index, attempt)
    if kind is None:
        return
    if kind == "crash" and in_worker:
        os._exit(CRASH_EXIT_CODE)
    elif kind == "hang" and in_worker:
        time.sleep(hang_seconds())
    elif kind == "error":
        raise FaultInjectionError(
            f"injected transient failure (task {index}, attempt {attempt})"
        )


def corrupt_file(path: Path | str) -> None:
    """Flip bytes at the head and middle of ``path`` (models a torn
    write that still exists on disk).  The head run clobbers the
    container magic so every reader fails to parse the file — a
    mid-file-only flip can land in a member the reader never checks."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        data = bytearray(b"\0")
    mid = len(data) // 2
    for i in list(range(min(16, len(data)))) + list(
        range(mid, min(mid + 16, len(data)))
    ):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))
