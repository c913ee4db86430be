"""Performance model of the multi-GPU step: the paper's three
communication/computation overlap methods (Sec. V-A, Figs. 7-9, 11).

One representative (slowest) rank is scheduled on a virtual
:class:`~repro.gpu.device.GPUDevice` whose engines encode the paper's
concurrency: one compute engine (GT200 runs one kernel at a time), one DMA
engine (S1070), and an 'mpi' engine for the host-side network.  Per
acoustic substep, each of the five short-step variables (momentum x/y,
vertical momentum via the Helmholtz solve, density, potential temperature)
either

* runs as a **single kernel followed by blocking communication**
  (non-overlapping reference), or
* is **divided** (method 2) into y-boundary, x-boundary and inner kernels
  scheduled on three streams exactly as the paper's Fig. 8: boundary
  kernels first, their pack/D2H/MPI/H2D chains proceed on the copy/MPI
  engines while the inner kernel runs; with method 3, density's
  communication window is fused with potential temperature's compute.

The 13 water-substance advections of the long step pipeline their
exchanges behind one another's kernels (method 1, Fig. 7).

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
from typing import Iterable

from ..gpu.asuca_kernels import (
    ASUCA_KERNELS,
    DEFAULT_NS,
    KERNEL_TABLE,
    SHORT_STEP_VARIABLES,
    step_schedule,
    step_shape,
)
from ..gpu.device import Access, Event, GPUDevice, Op, Stream
from ..gpu.kernel import Kernel
from ..gpu.spec import Precision
from ..optimeline import METHOD_NAMES, SKEW_TAG, OpStats, Overlap
from .decomposition import OVERLAP
from .network import ClusterSpec, TSUBAME_1_2

__all__ = ["OverlapConfig", "VariableBreakdown", "StepTimeline", "OverlapModel",
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
    #: model the node's GPUs contending for the host link (TSUBAME 1.2
    #: attaches two S1070 GPUs per PCIe complex): divides the effective
    #: PCIe bandwidth by gpus_per_node.  Off by default because the
    #: measured effective link rates already include in-situ contention.
    pcie_sharing: bool = False
    #: test-only fault seed for the sanitizer fixtures: "missing-event"
    #: drops the corner-dependency edge (x MPI after y MPI) on the first
    #: short-step variable.  The schedule is unchanged — the single MPI
    #: engine still serializes the transfers — which is exactly the class
    #: of latent hazard `repro.analysis.racecheck` exists to catch.
    seed_hazard: str | None = None


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
    def _kernel_time(self, kernel: Kernel, n_points: float) -> float:
        return kernel.duration(n_points, self.cluster.gpu, self.precision)

    def _var_compute(self, kernels: list[str], n_points: float) -> float:
        return sum(self._kernel_time(ASUCA_KERNELS[k], n_points) for k in kernels)

    def _strip_bytes(self, axis: str) -> float:
        """Bytes of one boundary strip (one side, one field)."""
        w = self.config.exchange_width
        other = self.ny if axis == "x" else self.nx
        return w * other * self.nz * self.precision.itemsize

    def _fields_per_exchange(self) -> float:
        return 1 + self.config.extra_exchange_fields

    def variable_breakdown(self, name: str, kernels: list[str]) -> VariableBreakdown:
        """Fig. 9 numbers for one variable (one substep's single call)."""
        cl = self.cluster
        w = self.config.exchange_width
        inner_pts = max(self.nx - 2 * w, 1) * max(self.ny - 2 * w, 1) * self.nz
        bx_pts = w * self.ny * self.nz * self.links_x
        by_pts = w * self.nx * self.nz * self.links_y
        nf = self._fields_per_exchange()
        bytes_x = self._strip_bytes("x") * self.links_x * nf
        bytes_y = self._strip_bytes("y") * self.links_y * nf
        pcie_factor = cl.gpus_per_node if self.config.pcie_sharing else 1.0
        pcie_time = pcie_factor * (
            cl.pcie.transfer_time(bytes_x) + cl.pcie.transfer_time(bytes_y)
        )
        return VariableBreakdown(
            name=name,
            whole=self._var_compute(kernels, self.n_points),
            inner=self._var_compute(kernels, inner_pts),
            boundary_y=self.config.boundary_factor * self._var_compute(kernels, by_pts),
            boundary_x=self.config.boundary_factor * self._var_compute(kernels, bx_pts),
            gpu_to_host=pcie_time,
            mpi=cl.mpi.transfer_time(bytes_x) + cl.mpi.transfer_time(bytes_y),
            host_to_gpu=pcie_time,
        )

    # --------------------------------------------------------- scheduling
    @staticmethod
    def _exchange(dev: GPUDevice, stream: Stream, var: str,
                  times: tuple[float, float, float], *, leg: str = "",
                  sends: tuple[str, ...], fills: tuple[str, ...],
                  after: Iterable[Event] = (),
                  mpi_reads: tuple[str, ...] = ()) -> Op:
        """The one halo-exchange chain, D2H -> MPI -> H2D on ``stream``:
        stage ``var``'s ``sends`` buffers into the host buffer of this
        ``leg`` ('' | '_y' | '_x'), ship it (after ``after``; the MPI may
        also read ``mpi_reads``), and land it in the ``fills`` buffers.
        ``times`` are the three op durations.  Returns the MPI op."""
        t_d2h, t_mpi, t_h2d = times
        host = f"{var}:host{leg}"
        dev.schedule(f"{var}:d2h{leg}", "d2h", stream, t_d2h, tag="gpu_cpu",
                     accesses=(*(Access(f"{var}:{b}", "r") for b in sends),
                               Access(host, "w")))
        mpi = dev.schedule(f"{var}:mpi{leg}", "mpi", stream, t_mpi, tag="mpi",
                           after=after,
                           accesses=(Access(host, "rw"),
                                     *(Access(f"{var}:{b}", "r")
                                       for b in mpi_reads)))
        dev.schedule(f"{var}:h2d{leg}", "h2d", stream, t_h2d, tag="gpu_cpu",
                     accesses=(Access(host, "r"),
                               *(Access(f"{var}:{b}", "w") for b in fills)))
        return mpi

    def _schedule_substep_overlap(self, dev: GPUDevice, streams, vb_list,
                                  fuse: bool) -> None:
        """One acoustic substep with methods 2 (+3): Fig. 8 pipeline."""
        s_bnd_y, s_bnd_x, s_inner = streams
        i = 0
        while i < len(vb_list):
            vb = vb_list[i]
            group = [vb]
            fused_inner = vb.inner
            name = vb.name
            if fuse and vb.name == "Density" and i + 1 < len(vb_list):
                # method 3: treat density + potential temperature as one
                # logical kernel so theta's compute hides rho's comm; the
                # halos of *both* variables still travel
                vb2 = vb_list[i + 1]
                group.append(vb2)
                fused_inner = vb.inner + vb2.inner
                name = "Density+Theta (fused)"
                i += 1
            # (1) y-boundary kernels of the group
            for v in group:
                dev.schedule(f"{v.name}:bnd_y", "kernel", s_bnd_y, v.boundary_y,
                             tag="compute",
                             accesses=(Access(f"{v.name}:strip_y", "w"),))
            ev_y = s_bnd_y.record_event()
            # (2) x-boundary kernels + (3) pack
            for v in group:
                dev.schedule(f"{v.name}:bnd_x", "kernel", s_bnd_x, v.boundary_x,
                             tag="compute",
                             accesses=(Access(f"{v.name}:strip_x", "w"),))
            pack = dev.schedule(f"{name}:pack", "kernel", s_bnd_x,
                                0.1 * vb.boundary_x, tag="compute")
            # (5) y exchanges on stream1
            s_bnd_y.wait_event(ev_y)
            mpi_y_ops = [
                self._exchange(
                    dev, s_bnd_y, v.name,
                    (v.gpu_to_host / 2, v.mpi / 2, v.host_to_gpu / 2),
                    leg="_y", sends=("strip_y",), fills=("halo_y",))
                for v in group]
            # (6) x exchanges on stream2; the x buffers carry the corner
            # values received by the y exchange ("copy corner values on
            # CPU"), so the x MPI may start only after the y MPI lands
            corner_deps = tuple(Event(o.end, op=o) for o in mpi_y_ops)
            if self.config.seed_hazard == "missing-event" and i == 0:
                corner_deps = ()       # seeded fixture: corner edge dropped
            for v in group:
                self._exchange(
                    dev, s_bnd_x, v.name,
                    (v.gpu_to_host / 2, v.mpi / 2, v.host_to_gpu / 2),
                    leg="_x", sends=("strip_x",), fills=("halo_x",),
                    after=corner_deps, mpi_reads=("host_y",))
            # (4) inner kernel after the pack frees the compute engine
            s_inner.wait_event(Event(pack.end, op=pack))
            dev.schedule(f"{name}:inner", "kernel", s_inner, fused_inner,
                         tag="compute",
                         accesses=(Access(f"{name}:interior", "w"),))
            # (7) unpack x after both H2D and inner
            s_bnd_x.wait_event(s_inner.record_event())
            dev.schedule(f"{name}:unpack", "kernel", s_bnd_x,
                         0.1 * vb.boundary_x, tag="compute",
                         accesses=tuple(Access(f"{v.name}:halo_x", "r")
                                        for v in group))
            i += 1
        # end-of-substep barrier: in overlap mode every rank waits for its
        # asynchronous exchanges to land, paying the inter-node arrival
        # skew explicitly (blocking exchanges absorb it inside their
        # measured 438 MB/s effective bandwidth instead)
        dev.synchronize()
        if self.config.sync_skew > 0.0:
            dev.schedule("sync_skew", "mpi", s_bnd_y, self.config.sync_skew,
                         tag=SKEW_TAG)
            dev.synchronize()

    def _schedule_substep_serial(self, dev: GPUDevice, stream, vb_list) -> None:
        for vb in vb_list:
            dev.schedule(f"{vb.name}:whole", "kernel", stream, vb.whole,
                         tag="compute",
                         accesses=(Access(f"{vb.name}:strip_y", "w"),
                                   Access(f"{vb.name}:strip_x", "w"),
                                   Access(f"{vb.name}:interior", "w")))
            self._exchange(dev, stream, vb.name,
                           (vb.gpu_to_host, vb.mpi, vb.host_to_gpu),
                           sends=("strip_y", "strip_x"),
                           fills=("halo_y", "halo_x"))
        dev.synchronize()

    def _schedule_water(self, dev: GPUDevice, streams, pipelined: bool) -> None:
        """Method 1 (Fig. 7): the 13 tracer advections per RK stage; each
        tracer's exchange overlaps the next tracer's advection kernel."""
        adv = ASUCA_KERNELS["advection"]
        t_adv = self._kernel_time(adv, self.n_points)
        nf = 1  # tracers travel alone
        bytes_x = self._strip_bytes("x") * self.links_x * nf
        bytes_y = self._strip_bytes("y") * self.links_y * nf
        pcie = self.cluster.pcie.transfer_time(bytes_x + bytes_y)
        mpi = self.cluster.mpi.transfer_time(bytes_x) + self.cluster.mpi.transfer_time(bytes_y)
        s_comm, _, s_comp = streams
        # tracers advect in every RK stage but their halos travel once per
        # long step, in the final stage's pipeline (Fig. 7)
        for stage in range(self.shape.stages):
            for i in range(self.shape.tracers):
                op = dev.schedule(f"q{i}:advection", "kernel", s_comp, t_adv,
                                  tag="compute",
                                  accesses=(Access(f"q{i}:halo", "r"),
                                            Access(f"q{i}:interior", "w")))
                if stage != self.shape.stages - 1:
                    continue
                if pipelined:
                    # communication of tracer i rides its own chain
                    s_comm.wait_event(Event(op.end, op=op))
                self._exchange(dev, s_comm if pipelined else s_comp, f"q{i}",
                               (pcie, mpi, pcie),
                               sends=("interior",), fills=("halo",))
            dev.synchronize()

    def _other_compute_time(self) -> float:
        """Long-step kernels with no communication of their own (momentum
        and theta advection, Coriolis, transforms, physics, copies)."""
        t = 0.0
        for kernel, count in step_schedule(self.ns):
            if kernel.name != "advection" and not KERNEL_TABLE[kernel.name].fig9:
                t += count * self._kernel_time(kernel, self.n_points)
        # momentum + theta advection — the tracer advections are scheduled
        # by _schedule_water
        own = (KERNEL_TABLE["advection"].launches(self.shape)
               - self.shape.stages * self.shape.tracers)
        return t + own * self._kernel_time(ASUCA_KERNELS["advection"],
                                           self.n_points)

    # ------------------------------------------------------------- public
    def step_timeline(self, method: Overlap = Overlap.ALL) -> StepTimeline:
        """Schedule one full long step under ``method`` (default: all
        three optimizations, the paper's run); returns the Fig. 11
        aggregates."""
        dev = GPUDevice(self.cluster.gpu, copy_engines=1)
        streams = (dev.create_stream(), dev.create_stream(), dev.create_stream())
        vb_list = self.breakdown_rows()

        for _ in range(self.nsub):
            if Overlap.DIVIDE in method:
                self._schedule_substep_overlap(dev, streams, vb_list,
                                               Overlap.FUSE in method)
            else:
                self._schedule_substep_serial(dev, streams[0], vb_list)

        self._schedule_water(dev, streams, Overlap.PIPELINE in method)

        dev.schedule("long_step_other", "kernel", streams[2],
                     self._other_compute_time(), tag="compute")
        dev.synchronize()
        return StepTimeline.of(dev.timeline, device=dev)

    def breakdown_rows(self) -> list[VariableBreakdown]:
        """The Fig. 9 per-variable rows."""
        return [self.variable_breakdown(n, ks) for n, ks in SHORT_STEP_VARIABLES]


def method_timelines(cluster: ClusterSpec = TSUBAME_1_2,
                     **model_kwargs) -> dict[str, StepTimeline]:
    """One scheduled long step per named method of
    :data:`~repro.optimeline.METHOD_NAMES` (same mesh / cluster for
    all, so the totals are directly comparable).  The doctor sweeps these
    to recommend a method, racecheck to clear them, and each one's
    timeline is digest-pinned in tests/dist/test_overlap_model.py."""
    model = OverlapModel(cluster, **model_kwargs)
    return {name: model.step_timeline(method)
            for name, method in METHOD_NAMES.items()}
