"""Kernel abstraction: launch configuration + cost model + reference.

A :class:`Kernel` couples

* a :class:`KernelCostModel` that converts the launch size into a modeled
  execution time via the paper's Eq. 6 roofline, coalescing fraction and
  launch overhead (:meth:`Kernel.price`; :func:`repro.gpu.runtime.charge_step`
  places the priced launches on the device timeline), and
* an optional NumPy reference function, the body the counting hook
  (:class:`repro.gpu.counters.CountingHook`) measures FLOP/byte counts on.

Launch configurations mirror the paper's Sec. IV-A: ``(nx/64, nz/4, 1)``
blocks of ``(64, 4, 1)`` threads marching along y for advection-style
kernels, and ``(nx/64, ny/4, 1)`` blocks marching along z for the
Helmholtz solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .coalescing import ArrayOrder, bandwidth_fraction
from .roofline import kernel_time
from .spec import Precision

__all__ = ["LaunchConfig", "KernelCostModel", "Kernel"]


@dataclass(frozen=True)
class LaunchConfig:
    """CUDA-style grid/block geometry (for reporting and occupancy sanity
    checks; the time model keys off total points)."""

    block: tuple[int, int, int] = (64, 4, 1)
    march_axis: str = "y"     #: 'y' for stencil kernels, 'z' for Helmholtz

    def blocks_for(self, nx: int, ny: int, nz: int) -> tuple[int, int, int]:
        bx, b2, _ = self.block
        if self.march_axis == "y":
            # threads cover the (x, z) slice, march along y (paper Fig. 2a)
            return (-(-nx // bx), -(-nz // b2), 1)
        # threads cover the (x, y) slice, march along z (paper Fig. 2b)
        return (-(-nx // bx), -(-ny // b2), 1)


@dataclass(frozen=True)
class KernelCostModel:
    """Per-point cost in element accesses and flops.

    ``reads/writes_per_point`` count *field elements*; bytes follow from
    the precision.  ``alpha`` is the fixed launch overhead of Eq. 6.
    """

    flops_per_point: float
    reads_per_point: float
    writes_per_point: float
    alpha: float = 5.0e-6
    compute_fraction: float | None = None  #: override device efficiency

    def flops(self, n_points: float) -> float:
        return self.flops_per_point * n_points

    def bytes_moved(self, n_points: float, precision: Precision) -> float:
        return (self.reads_per_point + self.writes_per_point) * n_points * precision.itemsize

    def intensity(self, precision: Precision) -> float:
        """Arithmetic intensity [flop/B] — x axis of the paper's Fig. 5."""
        return self.flops_per_point / (
            (self.reads_per_point + self.writes_per_point) * precision.itemsize
        )


@dataclass
class Kernel:
    """A priced kernel: cost model, launch geometry, timeline tag and an
    optional reference function."""

    name: str
    cost: KernelCostModel
    fn: Callable | None = None
    launch_config: LaunchConfig = field(default_factory=LaunchConfig)
    tag: str = ""

    def duration(
        self,
        n_points: float,
        spec,
        precision: Precision = Precision.SINGLE,
        order: ArrayOrder = ArrayOrder.XZY,
    ) -> float:
        """Modeled execution time for a launch over ``n_points``."""
        bw_frac = bandwidth_fraction(order, itemsize=precision.itemsize)
        return kernel_time(
            self.cost.flops(n_points),
            self.cost.bytes_moved(n_points, precision),
            spec,
            precision,
            alpha=self.cost.alpha,
            n_points=n_points,
            bandwidth_fraction=bw_frac,
            compute_fraction=self.cost.compute_fraction,
        )

    def price(self, n_points: float, spec, precision: Precision,
              order: ArrayOrder) -> tuple[float, float, float]:
        """``(modeled duration, flops, bytes moved)`` of one launch over
        ``n_points`` — every data-independent number a launch charges."""
        return (self.duration(n_points, spec, precision, order),
                self.cost.flops(n_points),
                self.cost.bytes_moved(n_points, precision))
