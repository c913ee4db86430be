"""Unified tracing & metrics: one run context for host, device and comm.

The reproduction's three signal sources — host phase timings
(:func:`span` call sites in the integrator), virtual-GPU op timelines
(:class:`repro.gpu.device.GPUDevice`), and simulated-MPI traffic
(:class:`repro.dist.mpi_sim.SimComm`) — flow into a single
:class:`TraceSession`:

* **spans** (:func:`span`) record host intervals while a session is
  active;
* **collectors** (:meth:`TraceSession.collect_device` /
  :meth:`~TraceSession.collect_comm`) ingest device timelines and message
  logs after a run, stamped with rank/device identity;
* **exporters** emit the JSONL event stream (one codec,
  :func:`to_event` / :func:`from_event`), its Chrome Trace Format view
  (``chrome://tracing`` / Perfetto), and a text summary;
  :func:`repro.obs.doctor.load_trace` reads either back into a session;
* the **metrics registry** answers "how many kernel launches per step,
  how many halo bytes, what sustained GFlops" at run end.

See docs/OBSERVABILITY.md for a worked multi-rank example, and
``repro trace --help`` for the CLI entry point.
"""
import importlib

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeConflict,
    percentile,
    percentile_summary,
)
from .trace import (
    CounterRecord,
    DeviceOpRecord,
    FlowRecord,
    InstantRecord,
    SpanRecord,
    TraceSession,
    active_session,
    from_event,
    span,
    to_event,
    use_session,
)

#: resolved on first use (PEP 562): a run that records spans needs none of
#: the exporters, the telemetry views or the doctor (which pulls in
#: gpu/dist/perf modules) at start-up
_MODULE_OF = {name: module for module, names in {
    "exporters": "chrome_trace chrome_events write_chrome_trace jsonl_events "
                 "write_jsonl span_totals span_table summary_text",
    "recorder": "FlightRecorder RecordedEvent load_flight_dump",
    "telemetry": "SchedulerProfile FleetView fleet_view "
                 "render_fleet_view render_frames sparkline",
    "timeseries": "SeriesKey Snapshot SnapshotSeries",
}.items() for name in names.split()}

__all__ = [
    "TraceSession", "use_session", "active_session", "span",
    "SpanRecord", "InstantRecord", "DeviceOpRecord", "CounterRecord",
    "FlowRecord", "to_event", "from_event",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MetricTypeConflict",
    "percentile", "percentile_summary",
    *_MODULE_OF,
    "doctor",
]


def __getattr__(name: str):
    if name == "doctor":
        return importlib.import_module(f"{__name__}.doctor")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(
            f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
