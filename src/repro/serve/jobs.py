"""Jobs: the unit of work a :class:`~repro.serve.service.ForecastService`
schedules.

A :class:`Job` wraps one :class:`~repro.api.RunSpec` with the service's
own concerns: priority, an optional deadline, gang width (how many fleet
GPUs a ``px x py`` decomposition needs *atomically*), the modeled service
time the scheduler plans with, and the lifecycle state machine

    QUEUED -> SCHEDULED -> RUNNING -> DONE
                                   -> FAILED   (rejected / errored)
                                   -> EVICTED  (crashed past max attempts)
              CACHED               (answered from the result cache)
              SHED                 (bounced by queue backpressure)

All timestamps are *modeled* seconds on the service clock — never wall
time — so a replayed workload is bit-for-bit deterministic.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..api import RunResult, RunSpec
from ..gpu.spec import DeviceSpec, Precision, TESLA_S1070
from ..perf.costmodel import modeled_run_seconds

__all__ = ["JobState", "Job"]


class JobState(str, enum.Enum):
    """Where a job is in its service lifecycle."""

    QUEUED = "queued"
    SCHEDULED = "scheduled"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    EVICTED = "evicted"
    CACHED = "cached"
    SHED = "shed"

TERMINAL_STATES = frozenset({
    JobState.DONE, JobState.FAILED, JobState.EVICTED, JobState.CACHED,
    JobState.SHED,
})


@dataclass
class Job:
    """One submission, tracked through the service."""

    index: int                     #: submission order (stable tiebreaker)
    spec: RunSpec                  #: the *normalized* run spec
    priority: int = 0              #: larger = more urgent
    deadline: float | None = None  #: max turnaround [modeled s], or None
    #: ensemble member index this job computes (repro.ensemble); None for
    #: ordinary submissions.  Metadata only — scheduling ignores it.
    member: int | None = None
    arrival: float = 0.0           #: modeled submission time
    gpus_needed: int = 1           #: gang width (px*py for multigpu)
    est_seconds: float = 0.0       #: modeled service time of one attempt
    spec_hash: str = ""            #: cache key (RunSpec.spec_hash)

    state: JobState = JobState.QUEUED
    attempts: int = 0              #: execution attempts started
    crashes: int = 0               #: attempts killed by an injected crash
    #: fraction of the run already safe in a modeled checkpoint (a
    #: checkpointing job's retry only pays for the remainder)
    progress: float = 0.0
    started_at: float | None = None    #: start of the *last* attempt
    finished_at: float | None = None
    gpu_ids: tuple[int, ...] = ()      #: fleet GPUs held while running
    result: RunResult | None = None
    error: str | None = None
    #: (t, event) log: scheduled / crashed / requeued / ... for reports
    log: list[tuple[float, str]] = field(default_factory=list)

    # ------------------------------------------------------ construction
    @classmethod
    def from_spec(
        cls,
        index: int,
        spec: RunSpec,
        *,
        arrival: float = 0.0,
        priority: int = 0,
        deadline: float | None = None,
        member: int | None = None,
        device: DeviceSpec = TESLA_S1070,
    ) -> "Job":
        """Build a job from a raw spec: normalize it, derive the gang
        width and the modeled service time, and stamp the cache key."""
        norm = spec.normalized()
        gpus = 1
        if norm.backend == "multigpu":
            px, py = norm.ranks
            gpus = px * py
        case_defaults = _grid_defaults(norm.workload)
        nx = norm.nx or case_defaults[0]
        ny = norm.ny or case_defaults[1]
        nz = norm.nz or case_defaults[2]
        precision = norm.precision or Precision.SINGLE
        est = modeled_run_seconds(
            nx, ny, nz, norm.steps, spec=device, precision=precision,
            ranks=norm.ranks, backend=norm.backend, include_ice=norm.ice)
        return cls(index=index, spec=norm, priority=priority,
                   deadline=deadline, member=member, arrival=arrival,
                   gpus_needed=gpus, est_seconds=est,
                   spec_hash=norm.spec_hash())

    # ----------------------------------------------------------- queries
    @property
    def wait(self) -> float | None:
        """Modeled seconds from arrival to the *first* execution start
        (0 for cache hits, None while still waiting)."""
        if self.state is JobState.CACHED:
            return 0.0
        if self.started_at is None:
            return None
        first_start = next((t for t, ev in self.log if ev == "start"),
                           self.started_at)
        return first_start - self.arrival

    @property
    def turnaround(self) -> float | None:
        """Modeled seconds from arrival to completion."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrival

    @property
    def deadline_missed(self) -> bool:
        return (self.deadline is not None
                and self.turnaround is not None
                and self.turnaround > self.deadline)

    def note(self, t: float, event: str) -> None:
        self.log.append((t, event))


def _grid_defaults(workload: str) -> tuple[int, int, int]:
    """Default mesh of each workload factory (used only to price jobs
    that do not override the grid)."""
    return {
        "warm-bubble": (24, 24, 20),
        "mountain-wave": (64, 16, 24),
        "real-case": (48, 40, 16),
        "shear-layer": (32, 4, 40),
        "vortex": (32, 32, 12),
    }.get(workload, (32, 32, 32))
