"""The modeled clock's one op-interval algebra.

Everything the repo reports about a virtual-device timeline — per-kind
and per-tag busy time (Fig. 9), how many ops were in flight when, and the
Fig. 11 aggregates with the paper's accounting rule ("the difference of
the overall and computation times is the communication time that was not
overlapped", Sec. V-A) — is computed here, once, by :meth:`OpStats.of`.
The overlap model (:mod:`repro.dist.overlap`), the perf doctor
(:mod:`repro.obs.doctor`) and the trace summary
(:mod:`repro.obs.exporters`) all consume the same :class:`OpStats`, so
their numbers cannot drift apart.

The module also owns the op-kind -> engine map that the device
(:class:`repro.gpu.device.GPUDevice`) schedules by and the critical-path
walk (:mod:`repro.obs.doctor.critical_path`) reconstructs from, and the
one vocabulary for *which* schedule ran: an :class:`Overlap` value and the
paper's four names for one (:data:`METHOD_NAMES`), read by the overlap
model, the doctor, the racecheck sweep, the ablation and the CLI choices.

Stdlib only and imports nothing from the package, so any layer can import
it at module top.  An *op* is anything with ``kind``, ``tag``, ``start``,
``end`` and ``duration``: a live :class:`~repro.gpu.device.Op` or a
:class:`~repro.obs.trace.DeviceOpRecord` read back from a trace.
"""
from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["SKEW_TAG", "engine_for", "OpStats",
           "Overlap", "METHOD_NAMES", "PAPER_METHOD"]


class Overlap(enum.Flag):
    """An overlap method: the subset of the paper's three
    communication/computation overlap optimisations (Sec. V-A) that is
    on.  Immutable; combine with ``|``, drop one with ``& ~``."""

    SERIAL = 0      #: none: whole kernels, blocking exchanges
    PIPELINE = 1    #: method 1: water-substance exchanges pipelined (Fig. 7)
    DIVIDE = 2      #: method 2: kernel division (Fig. 8)
    FUSE = 4        #: method 3: density + theta fused, inside the division
    ALL = PIPELINE | DIVIDE | FUSE


#: the paper's four optimisation levels by name, in increasing order
METHOD_NAMES: dict[str, Overlap] = {
    "serial": Overlap.SERIAL,
    "method1": Overlap.PIPELINE,
    "method1+2": Overlap.PIPELINE | Overlap.DIVIDE,
    "method1+2+3": Overlap.ALL,
}

#: the name of the configuration the paper ran (Figs. 10, 11)
PAPER_METHOD = "method1+2+3"

#: tag marking barrier arrival-skew stalls (see dist/overlap.py) —
#: charged to the mpi engine but not to communication proper
SKEW_TAG = "skew"


def engine_for(kind: str, copy_engines: int = 1) -> str:
    """The engine an op of ``kind`` occupies: kernels serialize on
    'compute', MPI transfers on the host-side 'mpi' engine, and copies
    split over the DMA engines by direction when there are two,
    otherwise share the single one (the S1070 of the paper)."""
    if kind == "kernel":
        return "compute"
    if kind == "mpi":
        return "mpi"
    if copy_engines >= 2:
        return "copy0" if kind == "h2d" else "copy1"
    return "copy0"


@dataclass
class OpStats:
    """Interval algebra of one device timeline; build with :meth:`of`."""

    makespan: float = 0.0
    op_count: int = 0
    busy_by_kind: dict[str, float] = field(default_factory=dict)
    busy_by_tag: dict[str, float] = field(default_factory=dict)
    #: k -> seconds with exactly k ops in flight; k=0 is idle time inside
    #: the makespan, so the values sum to the makespan
    profile: dict[int, float] = field(default_factory=dict)
    #: barrier arrival-skew stalls: 'mpi' ops tagged :data:`SKEW_TAG`
    skew: float = 0.0

    @classmethod
    def of(cls, ops: Iterable[Any], **extra: Any) -> "OpStats":
        """One duration sum and one start/end sweep over ``ops``
        (``extra`` feeds subclass fields)."""
        by_kind: dict[str, float] = defaultdict(float)
        by_tag: dict[str, float] = defaultdict(float)
        events: list[tuple[float, int]] = []
        makespan = skew = 0.0
        count = 0
        for op in ops:
            count += 1
            duration = op.duration
            by_kind[op.kind] += duration
            if op.tag:
                by_tag[op.tag] += duration
                if op.tag == SKEW_TAG and op.kind == "mpi":
                    skew += duration
            if duration > 0:
                events.append((op.start, +1))
                events.append((op.end, -1))
            if op.end > makespan:
                makespan = op.end

        profile: dict[int, float] = defaultdict(float)
        events.sort()
        active = 0
        prev_t = 0.0
        for t, d in events:
            if t > prev_t:
                profile[active] += t - prev_t
            active += d
            prev_t = t
        if makespan > prev_t:
            profile[0] += makespan - prev_t
        return cls(makespan=makespan, op_count=count,
                   busy_by_kind=dict(by_kind), busy_by_tag=dict(by_tag),
                   profile=dict(sorted(profile.items())), skew=skew, **extra)

    # ------------------------------------------------- Fig. 11 aggregates
    @property
    def compute(self) -> float:
        """Kernel busy time."""
        return self.busy_by_kind.get("kernel", 0.0)

    @property
    def mpi(self) -> float:
        """MPI busy time, skew excluded."""
        return self.busy_by_kind.get("mpi", 0.0) - self.skew

    @property
    def gpu_cpu(self) -> float:
        """H2D + D2H busy time."""
        return (self.busy_by_kind.get("h2d", 0.0)
                + self.busy_by_kind.get("d2h", 0.0))

    @property
    def communication(self) -> float:
        return self.mpi + self.gpu_cpu

    @property
    def exposed(self) -> float:
        """Not-computation time: the paper's exposed communication."""
        return max(0.0, self.makespan - self.compute)

    def _hidden(self, exposed: float) -> float:
        if not self.communication:
            return 0.0
        return max(0.0, 1.0 - exposed / self.communication)

    @property
    def hidden_fraction(self) -> float:
        """Fraction of communication hidden under computation with the
        paper's accounting: everything that is not computation counts
        as exposed communication, barrier skew included."""
        return self._hidden(self.exposed)

    @property
    def hidden_fraction_comm_only(self) -> float:
        """Same, excluding the barrier arrival-skew stalls — the right
        measure for the Sec. VII "communication completely hidden"
        claim."""
        return self._hidden(max(0.0, self.makespan - self.compute - self.skew))

    @property
    def overlapped(self) -> float:
        """Seconds with two or more ops in flight."""
        return sum(t for k, t in self.profile.items() if k >= 2)

    @property
    def overlap_fraction(self) -> float:
        """Fraction of the makespan with two or more ops in flight."""
        return self.overlapped / self.makespan if self.makespan > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "makespan_s": self.makespan,
            "compute_s": self.compute,
            "mpi_s": self.mpi,
            "gpu_cpu_s": self.gpu_cpu,
            "skew_s": self.skew,
            "communication_s": self.communication,
            "exposed_s": self.exposed,
            "hidden_fraction": self.hidden_fraction,
            "hidden_fraction_comm_only": self.hidden_fraction_comm_only,
        }
