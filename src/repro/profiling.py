"""Phase profiler: wall-clock breakdown of the *reproduction's own*
execution.  (Top-level module: it imports only the stdlib-only tracing
core :mod:`repro.obs.trace`, so the core integrator can use it without
import cycles; ``repro.perf`` re-exports it.)

The paper profiles its CUDA kernels (Fig. 9); this profiles the NumPy
twin.  The integrator and physics are instrumented with
:func:`profile_phase` context managers that are no-ops unless a
:class:`PhaseTimer` is activated::

    timer = PhaseTimer()
    with use_timer(timer):
        model.run(state, 10)
    print(timer.report())

:func:`profile_phase` is also the host-span shim of the unified tracing
layer: while a :class:`repro.obs.trace.TraceSession` is active (via
:func:`repro.obs.trace.use_session`), every phase is additionally
recorded as a span on that session — so the existing instrumentation
feeds Chrome-trace exports without any call-site changes.  With neither
a timer nor a session active, the overhead is two empty-list checks.

Following the repository's coding guides ("no optimization without
measuring"), this is the measurement half of the optimization workflow —
the throughput benchmarks are its regression harness.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

from .obs.trace import _SESSIONS

__all__ = ["PhaseTimer", "use_timer", "profile_phase"]

_ACTIVE: list["PhaseTimer"] = []


@dataclass
class PhaseTimer:
    """Accumulates (count, total seconds) per named phase."""

    seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, name: str, dt: float) -> None:
        self.seconds[name] += dt
        self.calls[name] += 1

    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, name: str) -> float:
        t = self.total()
        return self.seconds.get(name, 0.0) / t if t > 0 else 0.0

    def report(self) -> str:
        """Sorted text table of the accumulated phases."""
        rows = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        total = self.total() or 1.0
        lines = [f"{'phase':<24} {'calls':>6} {'seconds':>9} {'share':>7}"]
        for name, sec in rows:
            lines.append(
                f"{name:<24} {self.calls[name]:>6} {sec:>9.4f} "
                f"{100 * sec / total:>6.1f}%"
            )
        lines.append(f"{'total':<24} {'':>6} {self.total():>9.4f}")
        return "\n".join(lines)

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()


@contextlib.contextmanager
def use_timer(timer: PhaseTimer):
    """Activate a timer for the enclosed block (re-entrant, LIFO)."""
    _ACTIVE.append(timer)
    try:
        yield timer
    finally:
        _ACTIVE.pop()


@contextlib.contextmanager
def profile_phase(name: str, **args):
    """Charge the enclosed block to the innermost active timer and/or
    record it as a span on the innermost active trace session, ``args``
    becoming the span's arguments (a no-op — two list lookups — when
    neither is active)."""
    if not _ACTIVE and not _SESSIONS:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        t1 = time.perf_counter()
        if _ACTIVE:
            _ACTIVE[-1].add(name, t1 - t0)
        if _SESSIONS:
            session = _SESSIONS[-1]
            session.record_span(name, t0 - session.epoch, t1 - t0,
                                cat="phase", args=args)
