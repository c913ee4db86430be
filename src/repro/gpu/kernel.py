"""Kernel abstraction: launch configuration + cost model + real function.

A :class:`Kernel` couples

* an optional NumPy function that produces the *actual numerical result*
  (so GPU-path executions are bit-identical to direct calls — the paper's
  "agree within machine round-off" claim becomes an exact test here), and
* a :class:`KernelCostModel` that converts the launch size into a modeled
  execution time via the paper's Eq. 6 roofline, coalescing fraction and
  launch overhead, charged to the device timeline.

Launch configurations mirror the paper's Sec. IV-A: ``(nx/64, nz/4, 1)``
blocks of ``(64, 4, 1)`` threads marching along y for advection-style
kernels, and ``(nx/64, ny/4, 1)`` blocks marching along z for the
Helmholtz solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coalescing import ArrayOrder, bandwidth_fraction
from .device import Event, GPUDevice, Stream
from .roofline import kernel_time
from .spec import Precision

__all__ = ["LaunchConfig", "KernelCostModel", "Kernel"]


def _unwrap(result):
    """Strip CountingArray views off a measured launch's result so the
    instrumentation never leaks into caller-held arrays."""
    from ..perf.counting import CountingArray

    if isinstance(result, CountingArray):
        return result.view(np.ndarray)
    if isinstance(result, tuple):
        return tuple(_unwrap(r) for r in result)
    return result


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

    def threads_for(self, nx: int, ny: int, nz: int) -> int:
        bl = self.blocks_for(nx, ny, nz)
        return bl[0] * bl[1] * bl[2] * self.block[0] * self.block[1] * self.block[2]


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
    """A launchable kernel with cost model and optional real function."""

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

    def launch(
        self,
        device: GPUDevice,
        n_points: float,
        *,
        stream: Stream | None = None,
        precision: Precision = Precision.SINGLE,
        order: ArrayOrder = ArrayOrder.XZY,
        args: tuple = (),
        kwargs: dict | None = None,
        after: tuple[Event, ...] = (),
        tag: str | None = None,
        counter=None,
    ):
        """Run the real function (if any) and charge modeled time.
        Returns ``(result, Op)``.

        With a :class:`~repro.perf.counting.FlopCounter` as ``counter``,
        every ndarray argument is wrapped in a ``CountingArray`` for this
        launch and the measured FLOP/element deltas are attached to the
        op as :attr:`~repro.gpu.device.Op.measured` — the PAPI-per-launch
        path of the live roofline.  The modeled duration and the numeric
        result are unaffected (counting arrays are bit-transparent)."""
        kwargs = kwargs or {}
        measured: dict | None = None
        if counter is not None and self.fn is not None:
            f0, r0, w0 = (counter.flops, counter.elements_read,
                          counter.elements_written)
            result = self.fn(
                *(counter.wrap(a) if isinstance(a, np.ndarray) else a
                  for a in args),
                **{k: counter.wrap(v) if isinstance(v, np.ndarray) else v
                   for k, v in kwargs.items()})
            result = _unwrap(result)
            itemsize = precision.itemsize
            flops = counter.flops - f0
            bytes_read = (counter.elements_read - r0) * itemsize
            bytes_written = (counter.elements_written - w0) * itemsize
            traffic = bytes_read + bytes_written
            measured = {
                "flops": flops,
                "bytes_read": bytes_read,
                "bytes_written": bytes_written,
                "intensity": flops / traffic if traffic > 0 else 0.0,
                "points": float(n_points),
            }
        else:
            result = self.fn(*args, **kwargs) if self.fn is not None else None
        dur, flops, bytes_moved = self.price(n_points, device.spec,
                                             precision, order)
        op = device.schedule(
            self.name, "kernel", stream or device.default_stream, dur,
            flops=flops, bytes_moved=bytes_moved, after=after,
            tag=self.tag if tag is None else tag,
        )
        op.measured = measured
        return result, op
