"""The machine-speed calibration the timed metrics are scaled by.

This box's speed wanders by +-20 % over minutes (noisy neighbours: the
same step ran 500 ms and 745 ms in two halves of one five-minute log),
which no estimator over one 30 s run can remove.  A fixed NumPy kernel
timed right before and after every round wanders with it (block-level
correlation 0.86), and dividing each round by its own calibration cut
the run-to-run spread from 13-17 % to 2.5-6.5 % in that log.  So every
reported time is ``wall * REFERENCE_S / kernel time``: milliseconds at
the reference speed.  The raw wall times are printed next to them.

The kernel is the benchmark's own and calls nothing under ``src/``: a
change to the program cannot move it.  It mimics what the dycore does to
the machine: flux differences, limiters and square roots streaming over
half-megabyte arrays.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on the reference box when the box is quiet; it only
#: puts the scaled metrics on the scale of real milliseconds
REFERENCE_S = 0.031


class Calibration:
    """A flux-limiter stencil over 52x52x24 arrays, every intermediate
    written into a buffer allocated once: the allocator's state, which
    differs from workload to workload, cannot move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b, self.c = (rng.random((52, 52, 24)) for _ in range(3))
        self.fx, self.tx = np.empty((2, 51, 52, 24))
        self.fy, self.ty = np.empty((2, 52, 51, 24))
        self.r, self.lim = np.empty((2, 51, 51, 24))
        self.out = np.empty((52, 52, 24))
        self._kernel()                  # first touch is not steady state

    def _kernel(self) -> float:
        a, b, c = self.a, self.b, self.c
        fx, tx, fy, ty = self.fx, self.tx, self.fy, self.ty
        r, lim, out = self.r, self.lim, self.out
        t0 = time.perf_counter()
        for _ in range(20):
            np.multiply(a[1:], b[1:], out=fx)
            np.multiply(a[:-1], b[:-1], out=tx)
            np.subtract(fx, tx, out=fx)
            np.multiply(a[:, 1:], c[:, 1:], out=fy)
            np.multiply(a[:, :-1], c[:, :-1], out=ty)
            np.subtract(fy, ty, out=fy)
            np.multiply(fy[:-1], 0.5, out=r)
            np.copyto(r, fx[:, :-1], where=fx[:, :-1] > 0)
            np.multiply(r, 2.0, out=lim)
            np.clip(lim, 0.0, 1.0, out=lim)
            np.abs(r, out=r)
            np.add(r, 1.0, out=r)
            np.divide(lim, r, out=lim)
            np.subtract(b[:-1, :-1], c[:-1, :-1], out=r)
            np.multiply(r, lim, out=r)
            np.copyto(out, a)
            out[:-1, :-1] += r
            np.multiply(out, out, out=out)
            np.add(out, 1.0, out=out)
            np.sqrt(out, out=out)
        return time.perf_counter() - t0

    def speed(self) -> float:
        """The machine's speed now, 1.0 being the reference box when
        quiet: a wall time multiplied by it is a time at reference speed.
        Median of five kernel calls, so that one interference burst does
        not pass for a slow machine."""
        return REFERENCE_S / statistics.median(
            self._kernel() for _ in range(5))
