"""The perf doctor: diagnose a timeline, a trace, or a modeled step.

Three entry points, one report shape:

* :func:`diagnose_ops` — one device timeline (live
  :class:`~repro.gpu.device.GPUDevice` ops or records read back from a
  trace) → critical path, per-variable attribution, overlap stats;
* :func:`diagnose_trace` — a whole exported trace artifact: every
  device track diagnosed, every counter series summarized and screened
  for EWMA anomalies;
* :func:`diagnose_model` — rerun the paper's overlap performance model
  (:mod:`repro.dist.overlap`) across the named method configurations
  and recommend the fastest method.

A :class:`DoctorReport` renders as a Fig. 11-style text breakdown or
JSON, names the dominant bottleneck, and carries gate findings (e.g.
a ``--min-hidden`` violation) that drive the CLI exit status: 0 clean,
1 findings, 2 usage errors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from ...optimeline import METHOD_NAMES, PAPER_METHOD, SKEW_TAG, OpStats
from .critical_path import (
    AttributionRow,
    CriticalPath,
    attribution,
    critical_path,
)
from .health import HealthMonitor
from .load import load_trace

__all__ = ["DeviceDiagnosis", "Verdict", "DoctorReport",
           "diagnose_ops", "diagnose_trace", "diagnose_model"]

#: attribution rows shown in the text report
_TOP_ROWS = 10


@dataclass
class DeviceDiagnosis:
    """Everything the doctor derives from one device timeline."""

    label: str
    stats: OpStats
    path: CriticalPath
    rows: list[AttributionRow]

    @property
    def bottleneck(self) -> str:
        """What the step spent its critical path on: 'compute',
        'exposed communication', 'barrier skew', or 'idle'."""
        kinds = self.path.time_by_kind
        compute = kinds.get("kernel", 0.0)
        skew = self.path.time_by_tag.get(SKEW_TAG, 0.0)
        comm = sum(kinds.get(k, 0.0) for k in ("mpi", "h2d", "d2h")) - skew
        idle = max(0.0, self.path.makespan - self.path.path_time)
        top = max((("compute", compute), ("exposed communication", comm),
                   ("barrier skew", skew), ("idle", idle)),
                  key=lambda kv: kv[1])
        return top[0]

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "bottleneck": self.bottleneck,
            "overlap": self.stats.as_dict(),
            "critical_path": self.path.as_dict(),
            "attribution": [r.as_dict() for r in self.rows],
            "concurrency_s": {str(k): v for k, v in self.stats.profile.items()},
        }

    def text(self) -> str:
        st = self.stats
        ms = 1e3
        lines = [
            f"device {self.label}:",
            f"  one step: {st.makespan * ms:8.1f} ms total | "
            f"compute {st.compute * ms:.1f} | MPI {st.mpi * ms:.1f} | "
            f"GPU-CPU {st.gpu_cpu * ms:.1f}"
            + (f" | skew {st.skew * ms:.1f}" if st.skew else ""),
            f"  communication {st.communication * ms:.1f} ms, exposed "
            f"{st.exposed * ms:.1f} ms -> hidden "
            f"{100 * st.hidden_fraction:.1f}%"
            + (f" ({100 * st.hidden_fraction_comm_only:.1f}% excluding "
               f"barrier skew)" if st.skew else ""),
            f"  critical path: {100 * self.path.coverage:.1f}% of the "
            f"makespan reconstructed over {len(self.path.segments)} ops; "
            f"dominant: {self.bottleneck}",
        ]
        if st.makespan > 0:
            lines.append(f"  engine overlap: 2+ engines busy for "
                         f"{st.overlapped * ms:.1f} ms "
                         f"({100 * st.overlap_fraction:.1f}% of the step)")
        if self.rows:
            lines.append(f"  {'variable / kernel group':<28} {'calls':>6} "
                         f"{'total ms':>9} {'on-path ms':>11}")
            for r in self.rows[:_TOP_ROWS]:
                lines.append(f"  {r.name:<28} {r.calls:>6} "
                             f"{r.total * ms:>9.2f} {r.on_path * ms:>11.2f}")
            if len(self.rows) > _TOP_ROWS:
                rest = sum(r.total for r in self.rows[_TOP_ROWS:])
                lines.append(f"  {'(other)':<28} {'':>6} {rest * ms:>9.2f}")
        return "\n".join(lines)


@dataclass
class Verdict:
    """The doctor's recommendation."""

    bottleneck: str
    recommendation: str
    #: method name -> modeled step total [s] (model mode only)
    method_totals: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"bottleneck": self.bottleneck,
                "recommendation": self.recommendation,
                "method_totals_s": dict(self.method_totals)}

    def text(self) -> str:
        lines = [f"verdict: dominant bottleneck is {self.bottleneck}",
                 f"  {self.recommendation}"]
        if self.method_totals:
            best = min(self.method_totals, key=self.method_totals.get)
            for name, total in self.method_totals.items():
                marker = "  <- best" if name == best else ""
                lines.append(f"    {name:<12} {total * 1e3:8.1f} ms{marker}")
        return "\n".join(lines)


@dataclass
class DoctorReport:
    """One ``repro doctor`` invocation's result."""

    mode: str                      #: 'model' | 'trace' | 'ops'
    devices: list[DeviceDiagnosis] = field(default_factory=list)
    verdict: Verdict | None = None
    #: counter name -> rolling summary (trace mode)
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    #: counter anomalies flagged by the EWMA screen (trace mode)
    anomalies: list[dict[str, Any]] = field(default_factory=list)
    #: gate violations; any entry makes exit_status() nonzero
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def exit_status(self) -> int:
        return 0 if self.ok else 1

    @property
    def hidden_fraction(self) -> float:
        """Worst (lowest) hidden-communication fraction over devices
        that communicate at all."""
        fracs = [d.stats.hidden_fraction for d in self.devices
                 if d.stats.communication > 0]
        return min(fracs) if fracs else 0.0

    def require_min_hidden(self, minimum: float) -> "DoctorReport":
        """Gate: fail when hidden communication falls below ``minimum``."""
        h = self.hidden_fraction
        if h < minimum:
            self.findings.append(
                f"hidden-communication fraction {h:.3f} is below the "
                f"required minimum {minimum:.3f}")
        return self

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "ok": self.ok,
            "findings": list(self.findings),
            "hidden_fraction": self.hidden_fraction,
            "verdict": self.verdict.as_dict() if self.verdict else None,
            "counters": dict(self.counters),
            "anomalies": list(self.anomalies),
            "devices": [d.as_dict() for d in self.devices],
        }

    def as_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def text(self) -> str:
        lines = [f"perf doctor — {self.mode} analysis"]
        for d in self.devices:
            lines.append("")
            lines.append(d.text())
        if self.counters:
            lines.append("")
            lines.append(f"  {'counter':<28} {'n':>6} {'mean':>10} "
                         f"{'p95':>10} {'max':>10}")
            for name, s in sorted(self.counters.items()):
                lines.append(f"  {name:<28} {int(s.get('n', 0)):>6} "
                             f"{s['mean']:>10.3f} {s['p95']:>10.3f} "
                             f"{s['max']:>10.3f}")
        for a in self.anomalies:
            lines.append(f"  anomaly: {a['metric']} at t={a['t']:.3f}: "
                         f"{a['message']}")
        if self.verdict:
            lines.append("")
            lines.append(self.verdict.text())
        if self.findings:
            lines.append("")
            lines.extend(f"FINDING: {f}" for f in self.findings)
        return "\n".join(lines)


# ------------------------------------------------------------- entry points
def diagnose_ops(ops: Iterable[Any], *, label: str = "device",
                 copy_engines: int = 1) -> DeviceDiagnosis:
    """Diagnose one device timeline (Ops or DeviceOpRecords)."""
    ops = list(ops)
    path = critical_path(ops, copy_engines=copy_engines)
    return DeviceDiagnosis(label=label, stats=OpStats.of(ops), path=path,
                           rows=attribution(ops, path))


def _recommendation(diag: DeviceDiagnosis) -> str:
    st = diag.stats
    b = diag.bottleneck
    if b == "compute":
        return ("the step is compute-bound; overlap is doing its job — "
                "faster kernels (or more GPUs) are the next lever")
    if b == "exposed communication":
        if st.hidden_fraction < 0.1:
            return ("communication is almost entirely exposed; enable the "
                    "overlap methods (kernel division + pipelining, "
                    "method1+2+3)")
        return ("communication is partially hidden; widen the overlap "
                "window (method2 kernel division, method3 fusion) or "
                "shrink messages")
    if b == "barrier skew":
        return ("inter-node arrival skew dominates; reduce per-substep "
                "barriers or overlap across substeps")
    return "the device is idle much of the step; check host-side stalls"


def diagnose_trace(path: str, *, anomaly_sigma: float = 8.0,
                   window: int = 256) -> DoctorReport:
    """Diagnose an exported trace artifact (Chrome JSON or JSONL)."""
    trace = load_trace(path)
    report = DoctorReport(mode="trace")
    for pid, ops in sorted(trace.ops_by_pid().items()):
        report.devices.append(diagnose_ops(ops, label=pid))

    monitor = HealthMonitor(window=window, anomaly_sigma=anomaly_sigma)
    for pid, name in sorted({(c.pid, c.name) for c in trace.counters}):
        metric = f"{pid}/{name}"
        monitor.observe_series(metric, trace.counter_series(name, pid))
        report.counters[metric] = monitor.series[metric].summary()
    report.anomalies = [a.as_dict() for a in monitor.alerts]

    if report.devices:
        main = max(report.devices, key=lambda d: d.stats.makespan)
        report.verdict = Verdict(bottleneck=main.bottleneck,
                                 recommendation=_recommendation(main))
    return report


def diagnose_model(
    *,
    method: str = PAPER_METHOD,
    links_x: int = 2,
    links_y: int = 2,
    nx: int = 320,
    ny: int = 256,
    nz: int = 48,
) -> DoctorReport:
    """Rerun the overlap performance model, diagnose the selected
    method's schedule, and recommend the fastest method."""
    from ...dist.overlap import method_timelines  # lazy

    if method not in METHOD_NAMES:
        raise ValueError(f"unknown overlap method {method!r} "
                         f"(choose from {', '.join(METHOD_NAMES)})")
    timelines = method_timelines(links_x=links_x, links_y=links_y,
                                 nx=nx, ny=ny, nz=nz)
    report = DoctorReport(mode="model")
    diag = diagnose_ops(timelines[method].device.timeline,
                        label=f"model:{method}")
    report.devices.append(diag)

    totals = {name: t.makespan for name, t in timelines.items()}
    best = min(totals, key=totals.get)
    rec = _recommendation(diag)
    if best != method:
        gain = 100 * (1 - totals[best] / totals[method])
        rec += (f"; switching to {best} would cut the step by "
                f"{gain:.1f}%")
    else:
        rec += f"; {method} is already the fastest configuration"
    report.verdict = Verdict(bottleneck=diag.bottleneck,
                             recommendation=rec, method_totals=totals)
    return report
