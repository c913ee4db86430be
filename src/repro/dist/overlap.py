"""Performance model of the multi-GPU step: the paper's three
communication/computation overlap methods (Sec. V-A, Figs. 7-9, 11).

One representative (slowest) rank is scheduled on a virtual
:class:`~repro.gpu.device.GPUDevice` whose engines encode the paper's
concurrency: one compute engine (GT200 runs one kernel at a time), one DMA
engine (S1070), and an 'mpi' engine for the host-side network.

*What* is scheduled is a value, a :class:`Schedule`: for each group of the
five short-step variables (momentum x/y, vertical momentum via the
Helmholtz solve, density, potential temperature) the kernel
:class:`Piece` s and exchange :class:`Leg` s of one acoustic substep in
issue order, and the same for one of the 13 water substances of the long
step.  The paper's shapes are written once, as data: :data:`WHOLE` (a
single kernel followed by blocking communication, the non-overlapping
reference), :data:`DIVIDED` (method 2, Fig. 8), :data:`FUSED` (method 3)
and :data:`TRACER_BLOCKING` / :data:`TRACER_PIPELINED` (method 1, Fig. 7).
:func:`schedule_for` maps a method to its schedule by selection and
:meth:`OverlapModel.run` places whatever a schedule says — it reads no
method, flag or variable name, so a new schedule is a new entry.

Boundary kernels are narrow, so their per-point cost is inflated by the
device's latency-hiding saturation curve — reproducing the paper's
observation that "dividing the computation domain ... tends to degrade the
performance" while overlap still wins.

Message sizes use the 4-cell block overlap of Table I (the ``OVERLAP``
constant of :mod:`repro.dist.decomposition`), and the variables exchanged
per substep include the pressure/work fields the production code ships
with the five prognostics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..gpu.asuca_kernels import (
    ASUCA_KERNELS,
    DEFAULT_NS,
    FIG9_VARIABLES,
    KERNEL_TABLE,
    SHORT_STEP_VARIABLES,
    step_schedule,
    step_shape,
)
from ..gpu.device import Access, Event, GPUDevice, Op
from ..gpu.spec import Precision
from ..optimeline import METHOD_NAMES, SKEW_TAG, OpStats, Overlap
from .decomposition import OVERLAP
from .network import ClusterSpec, TSUBAME_1_2

__all__ = ["OverlapConfig", "VariableBreakdown", "StepTimeline", "OverlapModel",
           "Piece", "Leg", "Group", "Schedule", "WHOLE", "DIVIDED", "FUSED",
           "TRACER_BLOCKING", "TRACER_PIPELINED", "schedule_for",
           "method_timelines"]


@dataclass(frozen=True)
class OverlapConfig:
    """The overlap model's calibration constants.  Which of the paper's
    three optimizations run is not one of them: that is the
    :class:`~repro.optimeline.Overlap` value handed to
    :meth:`OverlapModel.step_timeline`."""

    exchange_width: int = OVERLAP    #: halo cells exchanged per side
    #: work fields shipped along with each prognostic exchange (pressure,
    #: packed metric terms); calibrated against the paper's Fig. 11 MPI bar
    extra_exchange_fields: float = 0.6
    #: slowdown of the narrow boundary kernels beyond the saturation curve
    #: (block-granularity padding of (64,4) blocks on 4-wide strips and
    #: per-launch overheads) — the paper's "reduced parallelism within each
    #: kernel"; calibrated against Fig. 11's 763 ms divided-compute bar
    boundary_factor: float = 3.0
    #: per-barrier inter-node arrival skew [s] paid when waiting for
    #: asynchronous exchanges at the end of each substep (528-GPU scale);
    #: calibrated against Fig. 11's 988 ms total
    sync_skew: float = 9.0e-3


@dataclass
class VariableBreakdown:
    """Per-call times of one short-step variable (one bar group of
    Fig. 9), all in seconds."""

    name: str
    whole: float          #: single (undivided) kernel
    inner: float          #: divided: interior kernel
    boundary_y: float
    boundary_x: float
    gpu_to_host: float
    mpi: float
    host_to_gpu: float

    @property
    def divided_compute(self) -> float:
        return self.inner + self.boundary_y + self.boundary_x

    @property
    def communication(self) -> float:
        return self.gpu_to_host + self.mpi + self.host_to_gpu


@dataclass
class StepTimeline(OpStats):
    """The :class:`~repro.optimeline.OpStats` of one long step on the
    slowest rank (the Fig. 11 bars), plus the device it was scheduled
    on."""

    device: GPUDevice = field(repr=False, default=None)


# ------------------------------------------------------- the schedule value
@dataclass(frozen=True)
class Group:
    """Fig. 9 variables scheduled together.  One name is a variable by
    itself; two are method 3's fusion."""

    names: tuple[str, ...]           #: members, in issue order
    label: str                       #: owner of a kernel issued once for all
    steps: tuple["Piece | Leg", ...]  #: placed in this order

    def place(self, dev: GPUDevice, streams, rows) -> None:
        """Place the steps on ``dev``, costed by the members' ``rows``."""
        done: dict[str, list[Op]] = {}
        for step in self.steps:
            stream = streams[step.stream]
            if step.after is not None:
                last = done[step.after][-1]
                stream.wait_event(Event(last.end, op=last))
            done[step.name] = step.place(dev, stream, self, rows, done)


@lru_cache(maxsize=None)
def _accesses(owner: str, mode: str, buffers: tuple[str, ...]) -> tuple[Access, ...]:
    return tuple(Access(f"{owner}:{b}", mode) for b in buffers)


@dataclass(frozen=True)
class Piece:
    """One kernel of a group's schedule: op ``<owner>:<name>``."""

    name: str
    stream: int                 #: index into the model's three streams
    time: str                   #: the :class:`VariableBreakdown` field ...
    factor: float = 1.0         #: ... times this is a member's cost
    #: 'each': one kernel per member.  'sum' / 'first': one kernel for the
    #: group, owned by its label, at all members' costs added / the first
    #: member's
    per: str = "each"
    reads: tuple[str, ...] = ()   #: buffers read, of every member covered
    writes: tuple[str, ...] = ()  #: buffers written, of the owner
    after: str | None = None    #: step whose last op this one waits on

    def place(self, dev, stream, group, rows, done) -> list[Op]:
        costs = [self.factor * getattr(row, self.time) for row in rows]
        kernels = {     # per -> (owner, seconds, members covered)
            "each": [(n, t, (n,)) for n, t in zip(group.names, costs)],
            "sum": [(group.label, sum(costs), group.names)],
            "first": [(group.label, costs[0], group.names)],
        }[self.per]
        return [dev.schedule(
            f"{owner}:{self.name}", "kernel", stream, t, tag="compute",
            accesses=[*(a for m in covers for a in _accesses(m, "r", self.reads)),
                      *_accesses(owner, "w", self.writes)])
            for owner, t, covers in kernels]


@dataclass(frozen=True)
class Leg:
    """The one halo-exchange chain, D2H -> MPI -> H2D, once per member:
    ops ``<member>:d2h<name>`` etc. through the host buffer
    ``<member>:host<name>``."""

    name: str                   #: '' | '_y' | '_x'
    stream: int
    share: float = 1.0          #: of the member's three transfer times
    sends: tuple[str, ...] = ()      #: buffers staged to the host
    fills: tuple[str, ...] = ()      #: buffers the received data lands in
    mpi_reads: tuple[str, ...] = ()  #: what the MPI reads besides its host
    after: str | None = None    #: step whose last op the staging waits on
    #: leg whose MPIs (what a leg is waited on by) all land before each MPI
    #: of this one starts
    mpi_after: str | None = None

    def place(self, dev, stream, group, rows, done) -> list[Op]:
        landed = [Event(o.end, op=o) for o in done.get(self.mpi_after, ())]
        host = (f"host{self.name}",)
        mpis = []
        for var, row in zip(group.names, rows):
            def op(kind, seconds, tag, first, then, after=()):
                return dev.schedule(f"{var}:{kind}{self.name}", kind, stream,
                                    self.share * seconds, tag=tag, after=after,
                                    accesses=first + then)
            op("d2h", row.gpu_to_host, "gpu_cpu",
               _accesses(var, "r", self.sends), _accesses(var, "w", host))
            mpis.append(op("mpi", row.mpi, "mpi", _accesses(var, "rw", host),
                           _accesses(var, "r", self.mpi_reads), landed))
            op("h2d", row.host_to_gpu, "gpu_cpu",
               _accesses(var, "r", host), _accesses(var, "w", self.fills))
        return mpis


@dataclass(frozen=True)
class Schedule:
    """One long step's overlap schedule, comparable by value."""

    groups: tuple[Group, ...]      #: one acoustic substep, in issue order
    #: in overlap mode every rank ends the substep waiting for its
    #: asynchronous exchanges to land, paying the inter-node arrival skew
    #: explicitly (blocking exchanges absorb it inside their measured
    #: 438 MB/s effective bandwidth instead)
    skew_barrier: bool
    #: one water substance in the final RK stage; the earlier stages run
    #: its kernels only — tracers advect in every stage but their halos
    #: travel once per long step (Fig. 7)
    tracer: tuple[Piece | Leg, ...]


#: non-overlapping reference: the whole kernel, then a blocking exchange
WHOLE = (
    Piece("whole", 0, "whole", writes=("strip_y", "strip_x", "interior")),
    Leg("", 0, sends=("strip_y", "strip_x"), fills=("halo_y", "halo_x")),
)

#: method 2: Fig. 8's seven steps in issue order, on the y-strip (0),
#: x-strip (1) and inner (2) streams
DIVIDED = (
    Piece("bnd_y", 0, "boundary_y", writes=("strip_y",)),
    Piece("bnd_x", 1, "boundary_x", writes=("strip_x",)),
    Piece("pack", 1, "boundary_x", 0.1, "first"),
    Leg("_y", 0, 0.5, sends=("strip_y",), fills=("halo_y",), after="bnd_y"),
    # the x buffers carry the corner values received by the y exchange
    # ("copy corner values on CPU"), so the x MPI may start only after the
    # y MPI lands
    Leg("_x", 1, 0.5, sends=("strip_x",), fills=("halo_x",),
        mpi_reads=("host_y",), mpi_after="_y"),
    # the inner kernel takes the compute engine once the pack frees it
    Piece("inner", 2, "inner", per="sum", writes=("interior",), after="pack"),
    Piece("unpack", 1, "boundary_x", 0.1, "first", reads=("halo_x",),
          after="inner"),
)

#: method 3 (Fig. 9): density's exchange outlasts its own inner kernel, so
#: density + potential temperature run as one logical kernel and theta's
#: compute hides rho's communication; the halos of *both* still travel
FUSED = Group(("Density", "Potential temperature"), "Density+Theta (fused)",
              DIVIDED)

_ADVECT = Piece("advection", 2, "whole", reads=("halo",), writes=("interior",))
TRACER_BLOCKING = (_ADVECT, Leg("", 2, sends=("interior",), fills=("halo",)))
#: method 1 (Fig. 7): a tracer's exchange rides its own chain behind the
#: next tracer's advection kernel
TRACER_PIPELINED = (_ADVECT, Leg("", 0, sends=("interior",), fills=("halo",),
                                 after="advection"))


def schedule_for(method: Overlap) -> Schedule:
    """The paper's schedule under ``method`` — the one place a method is
    read, and only to select among the data above.  Fusion acts inside the
    division, so ``FUSE`` without ``DIVIDE`` selects nothing."""
    divide = Overlap.DIVIDE in method
    steps = DIVIDED if divide else WHOLE
    fused = (FUSED,) if divide and Overlap.FUSE in method else ()
    alone = [n for n in FIG9_VARIABLES if not any(n in g.names for g in fused)]
    return Schedule(
        groups=(*(Group((n,), n, steps) for n in alone), *fused),
        skew_barrier=divide,
        tracer=TRACER_PIPELINED if Overlap.PIPELINE in method else TRACER_BLOCKING)


class OverlapModel:
    """Schedules one ASUCA long step for a rank with ``links_x``/``links_y``
    communicating sides (2 each for an interior rank)."""

    def __init__(
        self,
        cluster: ClusterSpec = TSUBAME_1_2,
        *,
        nx: int = 320,
        ny: int = 256,
        nz: int = 48,
        precision: Precision = Precision.SINGLE,
        ns: int = DEFAULT_NS,
        links_x: int = 2,
        links_y: int = 2,
        config: OverlapConfig = OverlapConfig(),
    ):
        self.cluster = cluster
        self.nx, self.ny, self.nz = nx, ny, nz
        self.precision = precision
        self.ns = ns
        self.links_x = links_x
        self.links_y = links_y
        self.config = config
        self.n_points = nx * ny * nz
        self.shape = step_shape(ns)
        self.nsub = self.shape.nsub

    # ------------------------------------------------------------ pieces
    def _var_compute(self, kernels: list[str], n_points: float) -> float:
        return sum(ASUCA_KERNELS[k].duration(n_points, self.cluster.gpu,
                                             self.precision) for k in kernels)

    def variable_breakdown(self, name: str, kernels: list[str],
                           alone: bool = False) -> VariableBreakdown:
        """Fig. 9 numbers for one variable (one substep's single call): it
        ships its work fields too and stages each axis' strips by their own
        copy, unless ``alone`` (a tracer): one field, both axes in one copy."""
        w = self.config.exchange_width
        inner_pts = max(self.nx - 2 * w, 1) * max(self.ny - 2 * w, 1) * self.nz
        bx_pts = w * self.ny * self.nz * self.links_x
        by_pts = w * self.nx * self.nz * self.links_y
        fields = 1 if alone else 1 + self.config.extra_exchange_fields
        bytes_x = bx_pts * self.precision.itemsize * fields
        bytes_y = by_pts * self.precision.itemsize * fields
        pcie, mpi = self.cluster.pcie.transfer_time, self.cluster.mpi.transfer_time
        staging = (pcie(bytes_x + bytes_y) if alone
                   else pcie(bytes_x) + pcie(bytes_y))
        return VariableBreakdown(
            name=name,
            whole=self._var_compute(kernels, self.n_points),
            inner=self._var_compute(kernels, inner_pts),
            boundary_y=self.config.boundary_factor * self._var_compute(kernels, by_pts),
            boundary_x=self.config.boundary_factor * self._var_compute(kernels, bx_pts),
            gpu_to_host=staging,
            mpi=mpi(bytes_x) + mpi(bytes_y),
            host_to_gpu=staging,
        )

    def breakdown_rows(self) -> list[VariableBreakdown]:
        """The Fig. 9 per-variable rows."""
        return [self.variable_breakdown(n, ks) for n, ks in SHORT_STEP_VARIABLES]

    def _other_compute_time(self) -> float:
        """Long-step kernels with no communication of their own (momentum
        and theta advection, Coriolis, transforms, physics, copies)."""
        t = 0.0
        for kernel, count in step_schedule(self.ns):
            if kernel.name != "advection" and not KERNEL_TABLE[kernel.name].fig9:
                t += count * self._var_compute([kernel.name], self.n_points)
        # momentum + theta advection — the tracer advections are scheduled
        # by the schedule's tracer steps
        own = (KERNEL_TABLE["advection"].launches(self.shape)
               - self.shape.stages * self.shape.tracers)
        return t + own * self._var_compute(["advection"], self.n_points)

    # ------------------------------------------------------------- public
    def run(self, schedule: Schedule) -> StepTimeline:
        """Schedule one full long step as ``schedule`` says; returns the
        Fig. 11 aggregates."""
        dev = GPUDevice(self.cluster.gpu, copy_engines=1)
        streams = (dev.create_stream(), dev.create_stream(), dev.create_stream())
        rows = {vb.name: vb for vb in self.breakdown_rows()}
        for _ in range(self.nsub):
            for group in schedule.groups:
                group.place(dev, streams, [rows[n] for n in group.names])
            dev.synchronize()
            if schedule.skew_barrier and self.config.sync_skew > 0.0:
                dev.schedule("sync_skew", "mpi", streams[0],
                             self.config.sync_skew, tag=SKEW_TAG)
                dev.synchronize()

        tracer = [self.variable_breakdown("q", ["advection"], alone=True)]
        kernels = tuple(s for s in schedule.tracer if isinstance(s, Piece))
        for steps in [kernels] * (self.shape.stages - 1) + [schedule.tracer]:
            for i in range(self.shape.tracers):
                Group((f"q{i}",), f"q{i}", steps).place(dev, streams, tracer)
            dev.synchronize()

        dev.schedule("long_step_other", "kernel", streams[2],
                     self._other_compute_time(), tag="compute")
        dev.synchronize()
        return StepTimeline.of(dev.timeline, device=dev)

    def step_timeline(self, method: Overlap = Overlap.ALL) -> StepTimeline:
        """One full long step under ``method`` (default: all three
        optimizations, the paper's run)."""
        return self.run(schedule_for(method))


def method_timelines(cluster: ClusterSpec = TSUBAME_1_2,
                     **model_kwargs) -> dict[str, StepTimeline]:
    """One scheduled long step per named method of
    :data:`~repro.optimeline.METHOD_NAMES` (same mesh / cluster for
    all, so the totals are directly comparable).  The doctor sweeps these
    to recommend a method, and each one's timeline is digest-pinned in
    tests/dist/test_overlap_model.py."""
    model = OverlapModel(cluster, **model_kwargs)
    return {name: model.step_timeline(method)
            for name, method in METHOD_NAMES.items()}
