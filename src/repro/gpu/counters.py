"""Per-launch FLOP/byte accounting for the virtual GPU runtime.

This is the live-roofline measurement layer (ROADMAP item 1): instead of
trusting the per-point costs of the kernel table
(:mod:`repro.gpu.asuca_kernels`), a :class:`CountingHook` runs every bound
reference kernel once per sampled step with its field arguments wrapped
in :class:`~repro.perf.counting.CountingArray`\\ s — the pure-Python
equivalent of the paper's PAPI counters (Sec. IV-B) — and that step's
device ops carry the measured per-point counts scaled to each launch's
size (:attr:`~repro.gpu.device.Op.measured`).

The hook never touches the run's numerics or the modeled timeline: it
measures on *copies/views* of the state via the table's reference
bindings (:func:`~repro.gpu.asuca_kernels.bind`), and the modeled
durations still come from the cost table.  ``sample_every=N``
bounds the measurement overhead to every Nth step; unsampled steps carry
no ``measured`` payload.

The measured counts are gated against the table by the doctor's
``--roofline`` check and the measured-vs-table tests, within each
kernel's drift bands (:attr:`~repro.gpu.asuca_kernels.KernelDecl.flops_band`,
:attr:`~repro.gpu.asuca_kernels.KernelDecl.bytes_band`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.counting import FlopCounter
from ..stencil import StencilExecutor, use_executor
from .asuca_kernels import KERNEL_TABLE, bind
from .spec import Precision

__all__ = ["CountingHook"]

_REFERENCE_EXECUTOR: StencilExecutor | None = None


def _reference_executor() -> StencilExecutor:
    global _REFERENCE_EXECUTOR
    if _REFERENCE_EXECUTOR is None:
        _REFERENCE_EXECUTOR = StencilExecutor("reference")
    return _REFERENCE_EXECUTOR


@dataclass
class MeasuredKernel:
    """Accumulated measurement of one kernel over a run."""

    name: str
    flops_per_point: float = 0.0
    reads_per_point: float = 0.0
    writes_per_point: float = 0.0
    measurements: int = 0       #: sampled steps contributing
    launches: int = 0           #: annotated launches
    points: float = 0.0         #: total points over annotated launches

    def update_per_point(self, fpp: float, rpp: float, wpp: float) -> None:
        # running mean over sampled steps (counts are shape functions, so
        # in practice every sample agrees; the mean guards solver kernels
        # whose iteration count could vary with the state)
        n = self.measurements
        self.flops_per_point = (self.flops_per_point * n + fpp) / (n + 1)
        self.reads_per_point = (self.reads_per_point * n + rpp) / (n + 1)
        self.writes_per_point = (self.writes_per_point * n + wpp) / (n + 1)
        self.measurements = n + 1


class CountingHook:
    """Measures per-point FLOP/element counts of the ASUCA kernels for
    the device ops of the steps it samples.

    Lifecycle per step, as :func:`repro.gpu.runtime.charge_step` drives
    it::

        measured = None
        if hook.begin_step(step_index, state):      # measures if due
            measured = []
            for name, _, count, n_points, *_ in table.rows:
                measured += [hook.annotate(name, n_points, count)] * count
        device.place_run(stream, table, measured=measured)

    ``begin_step`` runs every accounting kernel once on (copies of) the
    live state fields under a :class:`~repro.perf.counting.FlopCounter`,
    yielding per-point counts; ``annotate`` scales them to the launch
    size and precision and returns the dict the launches' ops carry.
    Steps where ``step_index % sample_every != 0`` are skipped entirely.
    """

    def __init__(self, grid, ref, *, precision: Precision = Precision.SINGLE,
                 sample_every: int = 1):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.precision = precision
        self.sample_every = int(sample_every)
        self.kernels = bind(grid, ref)
        self.counter = FlopCounter()
        #: name -> {'flops','reads','writes'} per point, from the last sample
        self._per_point: dict[str, dict[str, float]] = {}
        #: name -> :class:`MeasuredKernel` accumulated over the run
        self.measured: dict[str, MeasuredKernel] = {}
        self.steps_seen = 0
        self.steps_sampled = 0

    # ------------------------------------------------------- measurement
    def due(self, step_index: int) -> bool:
        return step_index % self.sample_every == 0

    def begin_step(self, step_index: int, state) -> bool:
        """Measure all kernels if this step is sampled; returns whether
        subsequent launches of this step should be annotated."""
        self.steps_seen += 1
        if not self.due(step_index):
            return False
        for name, kernel in self.kernels.items():
            self._measure_one(name, kernel, KERNEL_TABLE[name].measure(state))
        self.steps_sampled += 1
        return True

    def _measure_one(self, name: str, kernel, recipe) -> None:
        call_args, points = recipe
        c = self.counter
        f0, r0, w0 = c.flops, c.elements_read, c.elements_written
        # always measure the *reference* implementation: counts are shape
        # functions of the kernel, and a compiled body's arithmetic would
        # escape the CountingArray accounting (the reference executor holds
        # every compiled body off)
        with use_executor(_reference_executor()):
            kernel.fn(*(c.wrap(a) if isinstance(a, np.ndarray) else a
                        for a in call_args))
        pp = {
            "flops": (c.flops - f0) / points,
            "reads": (c.elements_read - r0) / points,
            "writes": (c.elements_written - w0) / points,
        }
        self._per_point[name] = pp
        mk = self.measured.setdefault(name, MeasuredKernel(name))
        mk.update_per_point(pp["flops"], pp["reads"], pp["writes"])

    # -------------------------------------------------------- annotation
    def annotate(self, name: str, n_points: float,
                 launches: int = 1) -> dict | None:
        """The measured counts of one launch of ``name`` over
        ``n_points`` (the :attr:`~repro.gpu.device.Op.measured` of each
        of ``launches`` such launches, credited to the run's totals), or
        None for a kernel this step did not measure.  The dict is shared
        by those launches' ops; read it, do not change it."""
        pp = self._per_point.get(name)
        if pp is None:
            return None
        itemsize = self.precision.itemsize
        flops = pp["flops"] * n_points
        bytes_read = pp["reads"] * n_points * itemsize
        bytes_written = pp["writes"] * n_points * itemsize
        traffic = bytes_read + bytes_written
        mk = self.measured.setdefault(name, MeasuredKernel(name))
        mk.launches += launches
        mk.points += launches * float(n_points)
        return {
            "flops": flops,
            "bytes_read": bytes_read,
            "bytes_written": bytes_written,
            "intensity": flops / traffic if traffic > 0 else 0.0,
            "points": float(n_points),
        }

    # --------------------------------------------------------- reporting
    def per_point(self, name: str) -> dict[str, float] | None:
        """Latest sampled per-point counts for one kernel (or None)."""
        return self._per_point.get(name)
