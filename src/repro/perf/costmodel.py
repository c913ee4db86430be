"""The step-cost aggregator that drives every performance figure: the
kernel table (:mod:`repro.gpu.asuca_kernels` — per-point costs and
launches per long step, mirroring the paper's Fig. 1 execution flow)
summed over one long step on one device.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.asuca_kernels import (
    ASUCA_KERNELS,
    DEFAULT_NS,
    ROOFLINE_KERNELS,
    launch_schedule,
    step_schedule,
)
from ..gpu.coalescing import ArrayOrder
from ..gpu.spec import DeviceSpec, Precision, TESLA_S1070, OPTERON_CORE

__all__ = [
    "ASUCA_KERNELS",
    "ROOFLINE_KERNELS",
    "launch_schedule",
    "StepCost",
    "asuca_step_cost",
    "cpu_step_time",
    "modeled_run_seconds",
    "DEFAULT_NS",
]


@dataclass
class StepCost:
    """Aggregated cost of one long time step on one device."""

    n_points: int
    precision: Precision
    total_flops: float
    total_bytes: float
    total_time: float
    kernel_times: dict[str, float] = field(default_factory=dict)
    kernel_flops: dict[str, float] = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return self.total_flops / self.total_time / 1e9

    @property
    def flops_per_point(self) -> float:
        return self.total_flops / self.n_points

    def time_fraction(self, kernel: str) -> float:
        return self.kernel_times[kernel] / self.total_time

    def cluster_tflops(self, n_gpus: int, step_time: float) -> float:
        """Sustained TFlops of ``n_gpus`` devices that each do this step's
        work every ``step_time`` seconds (Figs. 10, 11, Sec. VII)."""
        return n_gpus * self.total_flops / step_time / 1e12


def asuca_step_cost(
    nx: int,
    ny: int,
    nz: int,
    *,
    spec: DeviceSpec = TESLA_S1070,
    precision: Precision = Precision.SINGLE,
    order: ArrayOrder = ArrayOrder.XZY,
    ns: int = DEFAULT_NS,
    include_ice: bool = False,
) -> StepCost:
    """Model the cost of one ASUCA long step on ``spec``."""
    n_points = nx * ny * nz
    total_flops = 0.0
    total_bytes = 0.0
    total_time = 0.0
    times: dict[str, float] = {}
    flops: dict[str, float] = {}
    for k, count in step_schedule(ns, include_ice=include_ice):
        t = count * k.duration(n_points, spec, precision, order)
        f = count * k.cost.flops(n_points)
        total_time += t
        total_flops += f
        total_bytes += count * k.cost.bytes_moved(n_points, precision)
        times[k.name] = t
        flops[k.name] = f
    return StepCost(
        n_points=n_points,
        precision=precision,
        total_flops=total_flops,
        total_bytes=total_bytes,
        total_time=total_time,
        kernel_times=times,
        kernel_flops=flops,
    )


def modeled_run_seconds(
    nx: int,
    ny: int,
    nz: int,
    steps: int,
    *,
    spec: DeviceSpec = TESLA_S1070,
    precision: Precision = Precision.SINGLE,
    ranks: "tuple[int, int] | None" = None,
    backend: str = "gpu",
    include_ice: bool = False,
    ns: int = DEFAULT_NS,
) -> float:
    """Modeled service time of a whole run: ``steps`` long steps of an
    ``nx x ny x nz`` mesh on ``spec`` hardware.

    With ``ranks=(px, py)`` the mesh is 2-D decomposed and the per-step
    time is that of one rank's subdomain (compute only — halo traffic is
    the overlap model's concern, not the scheduler's); ``backend='cpu'``
    prices the run as the original Fortran on one Opteron-class core.
    This is what :mod:`repro.serve` charges a job against the fleet.
    """
    if steps <= 0:
        return 0.0
    if backend == "cpu":
        return steps * cpu_step_time(nx, ny, nz, ns=ns,
                                     include_ice=include_ice)
    lx, ly = nx, ny
    if ranks is not None:
        px, py = ranks
        lx = -(-nx // px)       # ceil: the largest subdomain paces the gang
        ly = -(-ny // py)
    step = asuca_step_cost(lx, ly, nz, spec=spec, precision=precision,
                           ns=ns, include_ice=include_ice)
    return steps * step.total_time


def cpu_step_time(
    nx: int, ny: int, nz: int, *, spec: DeviceSpec = OPTERON_CORE,
    ns: int = DEFAULT_NS, include_ice: bool = False,
) -> float:
    """Time of one long step of the original Fortran on one CPU core
    (double precision).  The production code is modeled as sustaining
    ``compute_efficiency * peak`` flops — the Fig. 4 magenta line."""
    cost = asuca_step_cost(nx, ny, nz, spec=spec, precision=Precision.DOUBLE,
                           order=ArrayOrder.KIJ, ns=ns,
                           include_ice=include_ice)
    # CPU execution: flops at sustained rate + memory at bandwidth, with
    # the kij-ordering giving it full cache-friendly bandwidth
    flop_time = cost.total_flops / (spec.peak_flops_dp * spec.compute_efficiency)
    mem_time = cost.total_bytes / spec.mem_bandwidth
    return max(flop_time, mem_time)
