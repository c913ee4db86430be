"""Tracing core: sessions, spans, and the unified record model.

A :class:`TraceSession` is the single run context into which all three
signal sources of the reproduction flow:

* **host spans** — wall-clock intervals recorded by the :func:`span`
  context manager (the instrumented phases of the integrator are
  ``span(name, cat="phase")`` call sites);
* **device ops** — the virtual-clock op timelines of
  :class:`repro.gpu.device.GPUDevice`, ingested after a run by
  :meth:`TraceSession.collect_device`;
* **messages** — :class:`repro.dist.mpi_sim.SimComm`'s message log (one
  record per transmission, stamped per exchange point), ingested by
  :meth:`TraceSession.collect_comm` as flow (arrow) records between rank
  tracks.

Records are kept in a neutral in-memory form with **one codec**:
:data:`RECORD_TYPES` names every record type once, :func:`to_event` /
:func:`from_event` turn a record into its JSON-ready event and back, and
every serialisation (:mod:`repro.obs.exporters`: the JSONL stream, and
Chrome Trace Format as a view of that stream) and every reader
(:func:`repro.obs.doctor.load.load_trace`, which returns a
:class:`TraceSession` again) goes through them.

This module is **stdlib-only by design**: the dynamical core imports
:func:`span` from it, so it must not import anything from the package
that could cycle back into ``repro.core``.  Tracing is zero-cost when no
session is active — :func:`span` does one empty-list check and yields.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, fields
from typing import Any

from .metrics import MetricsRegistry

__all__ = [
    "SpanRecord",
    "InstantRecord",
    "DeviceOpRecord",
    "CounterRecord",
    "FlowRecord",
    "OP_KINDS",
    "RECORD_TYPES",
    "to_event",
    "from_event",
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


#: the values of :attr:`DeviceOpRecord.kind` (the engines of
#: :func:`repro.optimeline.engine_of`)
OP_KINDS = frozenset(("kernel", "h2d", "d2h", "mpi"))


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
    kind: str                 #: one of :data:`OP_KINDS`
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


#: The one record table: event type -> (record class, the session list
#: that holds it, field -> event-key renames).  An event is
#: ``{"type": <type>, <key>: <field value>, ...}`` in field order; a
#: dotted key nests (``"src.pid"`` is ``event["src"]["pid"]``) and a
#: field that is None (only ``measured`` may be) is left out.
RECORD_TYPES: dict[str, tuple[type, str, dict[str, str]]] = {
    "span": (SpanRecord, "spans", {}),
    "instant": (InstantRecord, "instants", {}),
    "device_op": (DeviceOpRecord, "device_ops", {"bytes_moved": "bytes"}),
    "counter": (CounterRecord, "counters", {}),
    "flow": (FlowRecord, "flows", {
        "flow_id": "id",
        "src_pid": "src.pid", "src_tid": "src.tid", "ts_src": "src.ts",
        "dst_pid": "dst.pid", "dst_tid": "dst.tid", "ts_dst": "dst.ts"}),
}

#: record class -> (event type, session list)
_FILED_AS = {cls: (etype, attr)
             for etype, (cls, attr, _) in RECORD_TYPES.items()}
#: event type -> [(field name, key path)], derived from the dataclasses
_KEYS = {etype: [(f.name, tuple(renames.get(f.name, f.name).split(".")))
                 for f in fields(cls)]
         for etype, (cls, _, renames) in RECORD_TYPES.items()}


def to_event(rec) -> dict[str, Any]:
    """The JSON-ready event of one record (a line of the JSONL stream)."""
    etype = _FILED_AS[type(rec)][0]
    event: dict[str, Any] = {"type": etype}
    for name, path in _KEYS[etype]:
        value = getattr(rec, name)
        if value is None:
            continue
        node = event
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return event


def from_event(event: dict[str, Any]):
    """The record an event describes; keys the event lacks take the
    record's defaults (a missing required one is the constructor's
    ``TypeError``)."""
    etype = event["type"]
    kwargs = {}
    for name, path in _KEYS[etype]:
        node: Any = event
        try:
            for key in path:
                node = node[key]
        except (KeyError, TypeError):
            continue
        kwargs[name] = node
    return RECORD_TYPES[etype][0](**kwargs)


class TraceSession:
    """One run's worth of unified telemetry.

    Activate with :func:`use_session`; while active, host spans,
    ``SimComm`` message logging, and any direct :meth:`record_span`
    calls feed it.  After the run, pull in the device/comm signals with
    :meth:`collect_device` / :meth:`collect_comm`, then :meth:`finalize`
    to derive per-step metrics, and hand the session to an exporter.  A
    trace read back by :func:`~repro.obs.doctor.load.load_trace` is a
    session too: the same record lists, filled through :meth:`add`.
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
        #: a loaded session's end-of-run metrics, as the
        #: :meth:`MetricsRegistry.as_dict` document they crossed the file
        #: as (histogram summaries cannot be turned back into histograms)
        self.metrics_doc: dict[str, Any] | None = None

    # ------------------------------------------------------------- views
    def add(self, rec) -> None:
        """File a record on the list of its type."""
        getattr(self, _FILED_AS[type(rec)][1]).append(rec)

    def metrics_dict(self) -> dict[str, Any]:
        """The metrics payload: the live registry's snapshot, or the
        document a loaded session carries."""
        return (self.metrics.as_dict() if self.metrics_doc is None
                else self.metrics_doc)

    def counter_series(self, name: str,
                       pid: str | None = None) -> list[tuple[float, float]]:
        """One counter's ``(ts, value)`` samples in time order (every
        track group when ``pid`` is None)."""
        out = [(rec.ts, rec.value) for rec in self.counters
               if rec.name == name and (pid is None or rec.pid == pid)]
        out.sort(key=lambda tv: tv[0])
        return out

    def ops_by_pid(self) -> dict[str, list[DeviceOpRecord]]:
        """Device ops grouped by track-group label, in record order."""
        by_pid: dict[str, list[DeviceOpRecord]] = {}
        for rec in self.device_ops:
            by_pid.setdefault(rec.pid, []).append(rec)
        return by_pid

    # ------------------------------------------------------------- clock
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
        rec = InstantRecord(name=name, ts=self.rebase(time.perf_counter()) if ts is None else ts,
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
        rec = CounterRecord(name=name, ts=self.rebase(time.perf_counter()) if ts is None else ts,
                            value=float(value), pid=pid, series=series)
        self.counters.append(rec)
        return rec

    # -------------------------------------------------------- collectors
    # Both are duck-typed on purpose (nothing is imported from the rest of
    # the package) and run after the stepping, not inside it.
    def collect_device(self, device, *, rank: int | None = None,
                       label: str | None = None) -> str:
        """Ingest every op of a :class:`~repro.gpu.device.GPUDevice`
        timeline as per-stream tracks of complete events (kernels and
        PCIe copies), and fold its aggregates into the metrics registry
        (launches, flops, copied bytes).  Returns the track-group label
        the ops were filed under: ``label``, else ``rankN`` when ``rank``
        is given, else the device's own label."""
        pid = label or (f"rank{rank}" if rank is not None
                        else getattr(device, "label", "gpu"))
        m = self.metrics
        kernel_hist = m.histogram("kernel.duration_us")
        for op in device.timeline:
            measured = getattr(op, "measured", None)
            self.device_ops.append(DeviceOpRecord(
                name=op.name, kind=op.kind, ts=op.start, dur=op.duration,
                pid=pid, tid=f"stream{op.stream}",
                flops=op.flops, bytes_moved=op.bytes_moved, tag=op.tag,
                measured=measured,
            ))
            if op.kind == "kernel":
                m.counter("kernel.launches").inc()
                m.counter("kernel.flops").inc(op.flops)
                kernel_hist.observe(op.duration * 1e6)
                if measured is not None:
                    # counted-run accounting: measured totals plus an
                    # achieved-GFlops counter series on this rank's track
                    m.counter("measured.flops").inc(measured.get("flops", 0.0))
                    m.counter("measured.bytes").inc(
                        measured.get("bytes_read", 0.0)
                        + measured.get("bytes_written", 0.0))
                    if op.duration > 0:
                        self.record_counter(
                            "gflops.achieved",
                            measured.get("flops", 0.0) / op.duration / 1e9,
                            ts=op.end, pid=pid)
            elif op.kind == "h2d":
                m.counter("h2d.bytes").inc(op.bytes_moved)
            elif op.kind == "d2h":
                m.counter("d2h.bytes").inc(op.bytes_moved)
        self.devices[pid] = device
        return pid

    def collect_comm(self, comm) -> int:
        """Ingest a :class:`~repro.dist.mpi_sim.SimComm` message log
        (populated while a session is active) as flow records between the
        ``comm`` tracks of the rank groups, and fold the communicator's
        authoritative :class:`~repro.dist.mpi_sim.TrafficStats` totals
        into the metrics registry.  Returns the number of flows added."""
        for rec in comm.message_log:
            ts_src = self.rebase(rec.t_post)
            ts_dst = (self.rebase(rec.t_collect)
                      if rec.t_collect is not None else ts_src)
            self.flows.append(FlowRecord(
                name=f"msg:{rec.tag}",
                flow_id=rec.seq,
                src_pid=f"rank{rec.src}", src_tid="comm", ts_src=ts_src,
                dst_pid=f"rank{rec.dst}", dst_tid="comm", ts_dst=ts_dst,
                args={"bytes": rec.nbytes, "src": rec.src, "dst": rec.dst},
            ))
        self.metrics.counter("halo.messages").inc(comm.stats.messages)
        self.metrics.counter("halo.bytes").inc(comm.stats.bytes_total)
        self.notes["traffic_by_pair"] = comm.stats.per_pair_report()
        return len(comm.message_log)

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


#: innermost-last stack of active sessions
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
