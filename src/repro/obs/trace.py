"""Tracing core: sessions, spans, and the unified record model.

A :class:`TraceSession` is the single run context into which all three
signal sources of the reproduction flow:

* **host spans** — wall-clock intervals recorded by the :func:`span`
  context manager (and by the :func:`repro.profiling.profile_phase` shim,
  so every already-instrumented phase of the integrator shows up);
* **device ops** — the virtual-clock op timelines of
  :class:`repro.gpu.device.GPUDevice`, ingested after a run by
  :mod:`repro.obs.collectors`;
* **messages** — :class:`repro.dist.mpi_sim.SimComm` post/collect pairs,
  ingested as flow (arrow) records between rank tracks.

Records are kept in a neutral in-memory form; :mod:`repro.obs.exporters`
turns them into Chrome Trace Format JSON, a JSONL stream, or a text
summary.

This module is **stdlib-only by design**: ``repro.profiling`` (imported
by the dynamical core) shims onto it, so it must not import anything
from the package that could cycle back into ``repro.core``.  Tracing is
zero-cost when no session is active — :func:`span` does one empty-list
check and yields.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any

from .metrics import MetricsRegistry

__all__ = [
    "SpanRecord",
    "InstantRecord",
    "DeviceOpRecord",
    "CounterRecord",
    "FlowRecord",
    "TraceSession",
    "use_session",
    "active_session",
    "span",
]


@dataclass
class SpanRecord:
    """One completed host span (a Chrome-trace 'X' complete event)."""

    name: str
    ts: float                 #: seconds since the session epoch
    dur: float                #: seconds
    pid: str = "host"         #: track group (process) label
    tid: str = "main"         #: track (thread) label
    cat: str = "host"
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class InstantRecord:
    """A point event on a track."""

    name: str
    ts: float
    pid: str = "host"
    tid: str = "main"
    cat: str = "host"
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class DeviceOpRecord:
    """One virtual-device op, normalized from :class:`~repro.gpu.device.Op`.

    ``ts``/``dur`` are in *virtual* device seconds (the simulated clock),
    not wall time; each device lives on its own track group so the two
    time bases never share an axis.  The ``start``/``end``/``duration``
    properties make the record drop-in compatible with the op-interval
    algebra (:class:`repro.optimeline.OpStats`).
    """

    name: str
    kind: str                 #: 'kernel' | 'h2d' | 'd2h' | 'mpi'
    ts: float
    dur: float
    pid: str
    tid: str
    flops: float = 0.0
    bytes_moved: float = 0.0
    tag: str = ""
    #: measured FLOP/byte counts from a counted run (see
    #: :attr:`repro.gpu.device.Op.measured`); None on uncounted launches
    measured: dict | None = None

    @property
    def start(self) -> float:
        return self.ts

    @property
    def end(self) -> float:
        return self.ts + self.dur

    @property
    def duration(self) -> float:
        return self.dur


@dataclass
class CounterRecord:
    """One sample of a numeric time series (a Chrome-trace 'C' counter
    event) — queue depth, fleet utilization, and the like.  ``ts`` is in
    whatever time base the producing track group uses (wall seconds for
    host tracks, modeled seconds for service/device tracks)."""

    name: str
    ts: float
    value: float
    pid: str = "host"
    #: series label inside the counter (CTF draws one stacked area per
    #: args key; the default single series is called 'value')
    series: str = "value"


@dataclass
class FlowRecord:
    """One message arrow from a source track to a destination track."""

    name: str
    flow_id: int
    src_pid: str
    src_tid: str
    ts_src: float
    dst_pid: str
    dst_tid: str
    ts_dst: float
    args: dict[str, Any] = field(default_factory=dict)


class TraceSession:
    """One run's worth of unified telemetry.

    Activate with :func:`use_session`; while active, host spans (and the
    ``profile_phase`` shim), ``SimComm`` message logging, and any direct
    :meth:`record_span` calls feed it.  After the run, pull in the
    device/comm signals with :meth:`collect_device` /
    :meth:`collect_comm`, then :meth:`finalize` to derive per-step
    metrics, and hand the session to an exporter.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self.epoch = time.perf_counter()
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self.device_ops: list[DeviceOpRecord] = []
        self.flows: list[FlowRecord] = []
        self.counters: list[CounterRecord] = []
        #: track-group label -> collected GPUDevice (for summary reuse)
        self.devices: dict[str, Any] = {}
        #: free-form text attachments (e.g. the per-pair traffic report)
        self.notes: dict[str, str] = {}
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------- clock
    def now(self) -> float:
        """Wall seconds since the session epoch."""
        return time.perf_counter() - self.epoch

    def rebase(self, t_abs: float) -> float:
        """Convert an absolute ``perf_counter`` stamp to session time
        (clamped at 0 for stamps that predate the session)."""
        return max(0.0, t_abs - self.epoch)

    # --------------------------------------------------------- recording
    def record_span(
        self,
        name: str,
        ts: float,
        dur: float,
        *,
        pid: str = "host",
        tid: str = "main",
        cat: str = "host",
        args: dict[str, Any] | None = None,
    ) -> SpanRecord:
        rec = SpanRecord(name=name, ts=ts, dur=dur, pid=pid, tid=tid,
                         cat=cat, args=args or {})
        self.spans.append(rec)
        return rec

    def record_instant(
        self,
        name: str,
        ts: float | None = None,
        *,
        pid: str = "host",
        tid: str = "main",
        cat: str = "host",
        args: dict[str, Any] | None = None,
    ) -> InstantRecord:
        rec = InstantRecord(name=name, ts=self.now() if ts is None else ts,
                            pid=pid, tid=tid, cat=cat, args=args or {})
        self.instants.append(rec)
        return rec

    def record_counter(
        self,
        name: str,
        value: float,
        ts: float | None = None,
        *,
        pid: str = "host",
        series: str = "value",
    ) -> CounterRecord:
        """Sample a counter time series (exported as a CTF 'C' event)."""
        rec = CounterRecord(name=name, ts=self.now() if ts is None else ts,
                            value=float(value), pid=pid, series=series)
        self.counters.append(rec)
        return rec

    # -------------------------------------------------------- collectors
    def collect_device(self, device, *, rank: int | None = None,
                       label: str | None = None) -> str:
        """Ingest a :class:`~repro.gpu.device.GPUDevice` op timeline;
        returns the track-group label used."""
        from .collectors import collect_device

        return collect_device(self, device, rank=rank, label=label)

    def collect_comm(self, comm) -> int:
        """Ingest a :class:`~repro.dist.mpi_sim.SimComm` message log;
        returns the number of flow records added."""
        from .collectors import collect_comm

        return collect_comm(self, comm)

    # ---------------------------------------------------------- finalize
    def finalize(self, *, steps: int | None = None) -> MetricsRegistry:
        """Derive run-level metrics (per-step rates, sustained GFlops)
        from the collected counters.  Idempotent; call after collection."""
        m = self.metrics
        if steps:
            m.gauge("steps").set(steps)
            m.gauge("kernel.launches_per_step").set(
                m.counter("kernel.launches").value / steps)
            m.gauge("halo.bytes_per_step").set(
                m.counter("halo.bytes").value / steps)
        m.gauge("pcie.bytes").set(
            m.counter("h2d.bytes").value + m.counter("d2h.bytes").value)
        if self.devices:
            total_flops = sum(d.total_flops() for d in self.devices.values())
            makespan = max(d.elapsed() for d in self.devices.values())
            m.gauge("gflops.sustained").set(
                total_flops / makespan / 1e9 if makespan > 0 else 0.0)
        # measured (counted-run) achieved GFlops: measured FLOPs of the
        # annotated kernel ops over their summed execution time
        meas_flops = meas_time = 0.0
        for rec in self.device_ops:
            if rec.kind == "kernel" and rec.measured is not None:
                meas_flops += rec.measured.get("flops", 0.0)
                meas_time += rec.dur
        if meas_time > 0:
            m.gauge("gflops.measured").set(meas_flops / meas_time / 1e9)
        return m


#: innermost-last stack of active sessions (mirrors ``profiling._ACTIVE``)
_SESSIONS: list[TraceSession] = []


@contextlib.contextmanager
def use_session(session: TraceSession):
    """Activate a session for the enclosed block (re-entrant, LIFO)."""
    _SESSIONS.append(session)
    try:
        yield session
    finally:
        _SESSIONS.pop()


def active_session() -> TraceSession | None:
    """The innermost active session, or None."""
    return _SESSIONS[-1] if _SESSIONS else None


@contextlib.contextmanager
def span(name: str, *, cat: str = "host", pid: str = "host",
         tid: str = "main", **attrs):
    """Record the enclosed block as a span on the innermost active
    session (a no-op — one list check — when none is active)."""
    if not _SESSIONS:
        yield
        return
    session = _SESSIONS[-1]
    t0 = time.perf_counter()
    try:
        yield
    finally:
        t1 = time.perf_counter()
        session.record_span(name, t0 - session.epoch, t1 - t0,
                            pid=pid, tid=tid, cat=cat,
                            args=attrs if attrs else None)
