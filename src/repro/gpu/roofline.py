"""The paper's performance model (Eq. 6) and roofline utilities.

    Performance = FLOP / ( FLOP/Fpeak + Byte/Bpeak + alpha )

``alpha`` is "the time taken by other operations except both
floating-point and memory access operations" — kernel-launch latency,
instruction overhead, synchronization.  Fig. 5 plots attainable GFlops
against arithmetic intensity (FLOP/Byte); this module regenerates that
curve and places kernels on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import DeviceSpec, Precision, TESLA_S1070

__all__ = [
    "kernel_time",
    "attainable_flops",
    "arithmetic_intensity",
    "ridge_intensity",
    "RooflinePlacement",
    "place_kernel",
    "place_cost_table",
]


def kernel_time(
    flops: float,
    bytes_moved: float,
    spec: DeviceSpec,
    precision: Precision = Precision.SINGLE,
    *,
    alpha: float = 0.0,
    n_points: float | None = None,
    bandwidth_fraction: float = 1.0,
    compute_fraction: float | None = None,
) -> float:
    """Execution time [s] of one kernel under Eq. 6.

    ``bandwidth_fraction`` models coalescing losses (Sec. IV-A-1 array
    ordering); ``n_points`` activates the latency-hiding saturation curve;
    ``compute_fraction`` overrides the device's sustained-compute
    efficiency.
    """
    fpeak = spec.peak_flops(precision) * (
        compute_fraction if compute_fraction is not None else spec.compute_efficiency
    )
    bw = (
        spec.effective_bandwidth(n_points) if n_points is not None else spec.mem_bandwidth
    ) * bandwidth_fraction * spec.bandwidth_efficiency
    # a zero-point launch (e.g. a boundary kernel on a rank with no such
    # boundary) moves no bytes; avoid 0/0 through the saturation curve
    mem_time = bytes_moved / bw if bytes_moved > 0.0 else 0.0
    return flops / fpeak + mem_time + alpha


def attainable_flops(
    intensity: float | np.ndarray,
    spec: DeviceSpec,
    precision: Precision = Precision.SINGLE,
    *,
    alpha_per_byte: float = 0.0,
    compute_fraction: float = 1.0,
) -> np.ndarray:
    """Attainable performance [flop/s] vs arithmetic intensity [flop/B]
    — the curved line of Fig. 5 (with alpha = 0 "because of
    simplification", as the paper notes)."""
    intensity = np.asarray(intensity, dtype=np.float64)
    fpeak = spec.peak_flops(precision) * compute_fraction
    denom = intensity / fpeak + 1.0 / spec.mem_bandwidth + alpha_per_byte
    return intensity / denom


def arithmetic_intensity(flops: float, bytes_moved: float) -> float:
    """FLOP/Byte ratio."""
    return flops / bytes_moved


def ridge_intensity(spec: DeviceSpec, precision: Precision = Precision.SINGLE) -> float:
    """Intensity at which a kernel turns compute bound
    (``Fpeak / Bpeak``); ~6.75 flop/B for the Tesla S1070 in SP."""
    return spec.peak_flops(precision) / spec.mem_bandwidth


@dataclass(frozen=True)
class RooflinePlacement:
    """One kernel's point on the Fig. 5 plot: where it sits on the x axis
    (arithmetic intensity) and the y axis (achieved GFlops), alongside
    the Eq.-6 ceiling at that intensity and the raw device peak."""

    name: str
    intensity: float        #: FLOP/Byte (x axis)
    gflops: float           #: achieved performance (y axis)
    ceiling_gflops: float   #: Eq. 6 attainable performance at this intensity
    peak_gflops: float      #: device peak (the flat compute roof)

    @property
    def ceiling_fraction(self) -> float:
        """Achieved / attainable — how close to its own roofline."""
        return self.gflops / self.ceiling_gflops if self.ceiling_gflops else 0.0

    @property
    def peak_fraction(self) -> float:
        """Achieved / device peak — the paper's %-of-peak figure."""
        return self.gflops / self.peak_gflops if self.peak_gflops else 0.0


def place_kernel(
    name: str,
    flops: float,
    bytes_moved: float,
    time_s: float,
    spec: DeviceSpec = TESLA_S1070,
    precision: Precision = Precision.SINGLE,
) -> RooflinePlacement:
    """Place one kernel on the roofline from its (measured or modeled)
    totals: FLOPs executed, bytes moved, and execution time."""
    intensity = flops / bytes_moved if bytes_moved > 0 else 0.0
    gflops = flops / time_s / 1e9 if time_s > 0 else 0.0
    ceiling = float(attainable_flops(intensity, spec, precision)) / 1e9
    peak = spec.peak_flops(precision) / 1e9
    return RooflinePlacement(name=name, intensity=intensity, gflops=gflops,
                             ceiling_gflops=ceiling, peak_gflops=peak)


def place_cost_table(
    n_points: float,
    *,
    spec: DeviceSpec = TESLA_S1070,
    precision: Precision = Precision.SINGLE,
    kernels=None,
) -> list[RooflinePlacement]:
    """Fig. 5 placements of the cost-table kernels at one launch size —
    the single implementation behind ``repro bench roofline`` and the
    Fig. 5 benchmark.  ``kernels`` is a sequence of ``(label, name)``
    pairs, defaulting to the paper's five
    :data:`~repro.gpu.asuca_kernels.ROOFLINE_KERNELS`.
    """
    # late import: the table imports gpu.kernel, which imports this module
    from .asuca_kernels import ASUCA_KERNELS, ROOFLINE_KERNELS

    placements = []
    for label, name in (kernels if kernels is not None else ROOFLINE_KERNELS):
        k = ASUCA_KERNELS[name]
        t = k.duration(n_points, spec, precision)
        placements.append(place_kernel(
            label,
            k.cost.flops(n_points),
            k.cost.bytes_moved(n_points, precision),
            t, spec, precision,
        ))
    return placements
