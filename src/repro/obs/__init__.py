"""Unified tracing & metrics: one run context for host, device and comm.

The reproduction's three signal sources — host phase timings
(:mod:`repro.profiling`), virtual-GPU op timelines
(:class:`repro.gpu.device.GPUDevice`), and simulated-MPI traffic
(:class:`repro.dist.mpi_sim.SimComm`) — flow into a single
:class:`TraceSession`:

* **spans** (:func:`span`, plus the ``profile_phase`` shim) record host
  intervals while a session is active;
* **collectors** ingest device timelines and message logs after a run,
  stamped with rank/device identity;
* **exporters** emit Chrome Trace Format JSON (``chrome://tracing`` /
  Perfetto), a JSONL event stream, and a text summary;
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
    span,
    use_session,
)

#: resolved on first use (PEP 562): a run that records spans needs none of
#: the exporters, the telemetry views or the doctor (which pulls in
#: gpu/dist/perf modules) at start-up
_MODULE_OF = {name: module for module, names in {
    "collectors": "collect_device collect_comm",
    "exporters": "chrome_trace write_chrome_trace jsonl_events write_jsonl "
                 "summary_text",
    "recorder": "FlightRecorder RecordedEvent load_flight_dump",
    "telemetry": "SchedulerProfile FleetView build_fleet_view "
                 "fleet_view_from_trace fleet_view_from_session "
                 "render_fleet_view render_frames sparkline",
    "timeseries": "SeriesKey Snapshot SnapshotSeries",
}.items() for name in names.split()}

__all__ = [
    "TraceSession", "use_session", "active_session", "span",
    "SpanRecord", "InstantRecord", "DeviceOpRecord", "CounterRecord",
    "FlowRecord",
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
