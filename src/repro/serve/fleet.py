"""The virtual GPU fleet: a pool of identical devices jobs are gang-
scheduled onto.

The paper's production setting is a shared cluster — 528 Tesla S1070
GPUs on TSUBAME 1.2 (Sec. VI), with the Sec. VII projection moving to
Fermi-class TSUBAME 2.0.  :class:`GpuFleet` models that resource:
``n_gpus`` devices of one :class:`~repro.gpu.spec.DeviceSpec`, each
either free or owned by exactly one job, with per-GPU modeled busy-time
accounting so a service run can report fleet utilization.

Allocation is *atomic*: :meth:`acquire` either hands over all requested
GPUs or none — the invariant gang scheduling rests on (a ``px x py``
job must never hold a partial allocation while waiting for the rest,
or two gang jobs deadlock the fleet).
"""
from __future__ import annotations

from ..gpu.spec import DeviceSpec, TESLA_S1070, device_spec

__all__ = ["GpuFleet"]


class GpuFleet:
    """``n_gpus`` identical devices with atomic gang allocation."""

    def __init__(self, n_gpus: int, spec: "DeviceSpec | str" = TESLA_S1070,
                 *, name: str | None = None):
        if n_gpus < 1:
            raise ValueError("a fleet needs at least one GPU")
        self.spec = device_spec(spec)
        self.n_gpus = n_gpus
        self.name = name or f"{n_gpus}x {self.spec.name}"
        #: gpu index -> owning job index (None = free)
        self._owner: list[int | None] = [None] * n_gpus
        #: modeled seconds each GPU has spent running jobs
        self.busy_s: list[float] = [0.0] * n_gpus
        self.peak_in_use = 0

    # ------------------------------------------------------ constructors
    @classmethod
    def tsubame12(cls) -> "GpuFleet":
        """The paper's full machine: 528 S1070 GPUs (Sec. VI)."""
        return cls(528, TESLA_S1070, name="TSUBAME 1.2 (528x S1070)")

    # -------------------------------------------------------- allocation
    @property
    def free_gpus(self) -> int:
        return sum(1 for owner in self._owner if owner is None)

    @property
    def in_use(self) -> int:
        return self.n_gpus - self.free_gpus

    def holding(self, job_index: int) -> tuple[int, ...]:
        """The GPUs currently owned by ``job_index``."""
        return tuple(g for g, owner in enumerate(self._owner)
                     if owner == job_index)

    def acquire(self, job_index: int, n: int) -> tuple[int, ...] | None:
        """Atomically allocate ``n`` GPUs to a job: all or nothing.

        Returns the GPU indices (lowest free first, so placements are
        deterministic) or None when fewer than ``n`` are free.
        """
        if n < 1:
            raise ValueError("a job needs at least one GPU")
        if self.holding(job_index):
            raise RuntimeError(f"job {job_index} already holds GPUs")
        free = [g for g, owner in enumerate(self._owner) if owner is None]
        if len(free) < n:
            return None
        taken = tuple(free[:n])
        for g in taken:
            self._owner[g] = job_index
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return taken

    def release(self, job_index: int, *, busy_seconds: float = 0.0,
                ) -> tuple[int, ...]:
        """Free every GPU held by ``job_index``, charging each for the
        modeled seconds the job occupied it."""
        held = self.holding(job_index)
        if not held:
            raise RuntimeError(f"job {job_index} holds no GPUs")
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be >= 0")
        for g in held:
            self._owner[g] = None
            self.busy_s[g] += busy_seconds
        return held

    # --------------------------------------------------------- reporting
    @property
    def total_busy_s(self) -> float:
        return sum(self.busy_s)

    def utilization(self, makespan: float) -> float:
        """Fraction of fleet capacity (n_gpus x makespan) spent running
        jobs over a service run of ``makespan`` modeled seconds."""
        if makespan <= 0:
            return 0.0
        return self.total_busy_s / (self.n_gpus * makespan)
