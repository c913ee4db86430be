"""Perf doctor: explain a trace, watch a fleet, gate a benchmark.

The raw observability layer (:mod:`repro.obs`) records what happened;
this package says *why it was slow and what to do about it*:

* :mod:`~repro.obs.doctor.critical_path` — reconstruct the binding
  dependency chain of a device timeline, attribute per-kernel self
  time (Fig. 9 shape), and measure how much communication was hidden
  behind compute (the paper's ~53% claim, Fig. 11);
* :mod:`~repro.obs.doctor.health` — rolling-window SLO rules and EWMA
  anomaly detection over service metrics, emitting typed alerts;
* :mod:`~repro.obs.doctor.regress` — the bench regression gate over
  ``BENCH_*.json`` artifacts;
* :mod:`~repro.obs.doctor.roofline` — the live roofline: place every
  on-path kernel of a counted run on the Eq.-6 curve from *measured*
  FLOP/byte counts and flag drift against the cost table;
* :mod:`~repro.obs.doctor.load` — read exported traces back in, as the
  :class:`~repro.obs.trace.TraceSession` they were written from;
* :mod:`~repro.obs.doctor.doctor` — the report/verdict layer behind
  ``repro doctor`` (docs/DOCTOR.md).
"""
from .critical_path import (
    AttributionRow,
    CriticalPath,
    PathSegment,
    attribution,
    critical_path,
)
from .doctor import (
    DeviceDiagnosis,
    DoctorReport,
    Verdict,
    diagnose_model,
    diagnose_ops,
    diagnose_trace,
)
from .health import Alert, HealthMonitor, RollingSeries, SloRule
from .load import load_trace
from .regress import (
    BENCH_SCHEMA_VERSION,
    Drift,
    RegressionReport,
    SchemaMismatch,
    compare_bench,
    regression_gate,
)

__all__ = [
    "PathSegment", "CriticalPath", "AttributionRow",
    "critical_path", "attribution",
    "SloRule", "Alert", "RollingSeries", "HealthMonitor",
    "BENCH_SCHEMA_VERSION", "SchemaMismatch", "Drift", "RegressionReport",
    "compare_bench", "regression_gate",
    "load_trace",
    "DeviceDiagnosis", "Verdict", "DoctorReport",
    "diagnose_ops", "diagnose_trace", "diagnose_model",
    "KernelRoofline", "RooflineReport", "roofline_from_records",
]


def __getattr__(name: str):
    # the roofline needs the kernel table and repro.analysis; a service
    # process, which imports this package for doctor.health, does not
    if name in ("KernelRoofline", "RooflineReport", "roofline_from_records"):
        from . import roofline

        return getattr(roofline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
