"""Live roofline: place every on-path kernel of a counted run on Eq. 6.

``repro doctor --roofline`` lands here.  The input is a device-op
timeline whose kernel launches carry *measured* FLOP/byte counts
(:attr:`~repro.obs.trace.DeviceOpRecord.measured`, produced by
:class:`repro.gpu.counters.CountingHook` on a ``--counters`` run or read
back from an exported trace); the output is the paper's Fig. 5 picture
computed from measurement instead of the hand-entered cost table:

* per-kernel **achieved GFlops** — measured FLOPs over the modeled
  execution time of the annotated launches — against the Eq.-6
  attainable ceiling at the kernel's arithmetic intensity, grouped by
  the Fig. 9 variable (:func:`~.critical_path.base_name`);
* two intensities per kernel: the **effective** intensity (measured
  FLOPs over the cost table's global-memory bytes — the paper's
  methodology, PAPI flop counts + analytic traffic) used for roofline
  placement, and the **streamed** intensity (measured FLOPs over
  measured element traffic, which counts every NumPy temporary) as a
  diagnostic;
* **drift findings** in the shared sanitizer format when measurement
  and the cost table disagree beyond the kernel's drift bands
  (:mod:`repro.gpu.asuca_kernels`): ``ROOF01`` (flops drift, error),
  ``ROOF02`` (traffic drift, error), ``ROOF03`` (an on-path kernel of a
  counted run carries no measurement — warning, does not gate).

Errors gate: :meth:`RooflineReport.exit_status` is nonzero exactly when
a ROOF01/ROOF02 finding fired, which is what CI runs against an injected
cost-table perturbation to prove the check has teeth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ...analysis.findings import Finding
from ...gpu.asuca_kernels import ASUCA_KERNELS, KERNEL_TABLE, drift
from ...gpu.roofline import RooflinePlacement, place_kernel, ridge_intensity
from ...gpu.spec import DeviceSpec, Precision, TESLA_S1070
from .critical_path import base_name

__all__ = ["KernelRoofline", "RooflineReport", "roofline_from_records"]


@dataclass
class KernelRoofline:
    """One kernel's measured totals and roofline placement."""

    name: str
    launches: int                 #: annotated launches aggregated here
    flops: float                  #: measured FLOPs (sum over launches)
    bytes_streamed: float         #: measured element traffic in bytes
    time_s: float                 #: modeled execution time of the launches
    points: float                 #: total points over the launches
    placement: RooflinePlacement  #: at the *effective* intensity
    streamed_intensity: float     #: measured flops / measured bytes
    table_flops_per_point: float | None = None
    table_bytes_per_point: float | None = None
    time_share: float = 0.0       #: of total measured kernel time (Fig. 9)

    @property
    def measured_flops_per_point(self) -> float:
        return self.flops / self.points if self.points else 0.0

    @property
    def measured_bytes_per_point(self) -> float:
        return self.bytes_streamed / self.points if self.points else 0.0

    def as_dict(self) -> dict[str, Any]:
        p = self.placement
        return {
            "name": self.name,
            "launches": self.launches,
            "flops": self.flops,
            "bytes_streamed": self.bytes_streamed,
            "time_s": self.time_s,
            "points": self.points,
            "measured_flops_per_point": self.measured_flops_per_point,
            "measured_bytes_per_point": self.measured_bytes_per_point,
            "table_flops_per_point": self.table_flops_per_point,
            "table_bytes_per_point": self.table_bytes_per_point,
            "intensity": p.intensity,
            "streamed_intensity": self.streamed_intensity,
            "achieved_gflops": p.gflops,
            "ceiling_gflops": p.ceiling_gflops,
            "ceiling_fraction": p.ceiling_fraction,
            "peak_fraction": p.peak_fraction,
            "time_share": self.time_share,
        }


@dataclass
class RooflineReport:
    """The doctor's ``--roofline`` verdict over one counted timeline."""

    kernels: list[KernelRoofline] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    ridge: float = 0.0            #: flop/B where the device turns compute bound
    spec_name: str = ""
    precision: str = ""
    measured_ops: int = 0         #: kernel launches carrying measurement
    total_ops: int = 0            #: all kernel launches seen

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def exit_status(self) -> int:
        """Nonzero iff a drift *error* fired (warnings don't gate)."""
        return 1 if self.errors else 0

    def by_achieved(self) -> list[KernelRoofline]:
        """Kernels sorted by achieved GFlops, ascending — the measured
        Fig. 5 ranking (coordinate transformation should come first,
        warm rain last)."""
        return sorted(self.kernels, key=lambda k: k.placement.gflops)

    def kernel(self, name: str) -> KernelRoofline | None:
        for k in self.kernels:
            if k.name == name:
                return k
        return None

    def text(self) -> str:
        lines = [
            f"live roofline — {self.spec_name} {self.precision}, "
            f"ridge {self.ridge:.2f} flop/B; "
            f"{self.measured_ops}/{self.total_ops} kernel launches measured",
            "",
            f"{'kernel':<18} {'AI':>7} {'AIstrm':>7} {'GFlops':>8} "
            f"{'ceiling':>8} {'%ceil':>6} {'%peak':>6} {'t%':>5}",
        ]
        for k in self.by_achieved():
            p = k.placement
            lines.append(
                f"{k.name:<18} {p.intensity:>7.3f} "
                f"{k.streamed_intensity:>7.3f} {p.gflops:>8.2f} "
                f"{p.ceiling_gflops:>8.2f} {100 * p.ceiling_fraction:>5.1f}% "
                f"{100 * p.peak_fraction:>5.1f}% "
                f"{100 * k.time_share:>4.1f}%")
        if self.findings:
            lines.append("")
            for f in self.findings:
                lines.append(f.text())
        lines.append("")
        lines.append(f"{len(self.errors)} drift error(s), "
                     f"{len(self.findings) - len(self.errors)} warning(s)")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec_name,
            "precision": self.precision,
            "ridge": self.ridge,
            "measured_ops": self.measured_ops,
            "total_ops": self.total_ops,
            "kernels": [k.as_dict() for k in self.by_achieved()],
            "findings": [f.as_dict() for f in self.findings],
            "ok": not self.errors,
        }


def roofline_from_records(
    ops: Iterable,
    *,
    spec: DeviceSpec = TESLA_S1070,
    precision: Precision = Precision.SINGLE,
    table: dict | None = None,
) -> RooflineReport:
    """Aggregate measured kernel launches into a :class:`RooflineReport`.

    ``ops`` is any iterable of op-like records (virtual-device
    :class:`~repro.gpu.device.Op` or trace
    :class:`~repro.obs.trace.DeviceOpRecord`) — only ``kind == 'kernel'``
    entries matter; launches are grouped by their Fig. 9 base name.
    ``table`` overrides the costs to validate against with a perturbed
    copy of :data:`~repro.gpu.asuca_kernels.ASUCA_KERNELS`; the CLI's
    hidden ``--seed-drift`` uses this to prove the gate fires.
    """
    if table is None:
        table = ASUCA_KERNELS

    @dataclass
    class _Acc:
        launches: int = 0
        flops: float = 0.0
        bytes_streamed: float = 0.0
        time_s: float = 0.0
        points: float = 0.0
        unmeasured: int = 0

    groups: dict[str, _Acc] = {}
    measured_ops = total_ops = 0
    for op in ops:
        if getattr(op, "kind", None) != "kernel":
            continue
        total_ops += 1
        acc = groups.setdefault(base_name(op.name), _Acc())
        m = getattr(op, "measured", None)
        if m is None:
            acc.unmeasured += 1
            continue
        measured_ops += 1
        acc.launches += 1
        acc.flops += m.get("flops", 0.0)
        acc.bytes_streamed += (m.get("bytes_read", 0.0)
                               + m.get("bytes_written", 0.0))
        acc.time_s += op.duration
        acc.points += m.get("points", 0.0)

    report = RooflineReport(
        ridge=ridge_intensity(spec, precision),
        spec_name=spec.name, precision=precision.name,
        measured_ops=measured_ops, total_ops=total_ops,
    )
    itemsize = precision.itemsize
    total_time = sum(a.time_s for a in groups.values())
    for name in sorted(groups):
        acc = groups[name]
        if acc.launches == 0:
            # an on-path kernel with zero measurement only matters on a
            # counted run (some launches elsewhere were measured)
            if measured_ops > 0:
                report.findings.append(Finding(
                    code="ROOF03", severity="warning",
                    message=f"kernel '{name}' ran {acc.unmeasured} launch(es)"
                            " without measured counts",
                    op=name,
                    suggestion="declare it in gpu/asuca_kernels.py "
                               "KERNEL_TABLE so counted runs cover it",
                ))
            continue
        kernel = table.get(name)
        fpp = acc.flops / acc.points if acc.points else 0.0
        bpp = acc.bytes_streamed / acc.points if acc.points else 0.0
        table_fpp = table_bpp = None
        if kernel is not None:
            cost, decl = kernel.cost, KERNEL_TABLE[name]
            table_fpp = cost.flops_per_point
            table_bpp = (cost.reads_per_point
                         + cost.writes_per_point) * itemsize
            ratio = drift(fpp, table_fpp, decl.flops_band)
            if ratio is not None:
                lo, hi = decl.flops_band
                report.findings.append(Finding(
                    code="ROOF01", severity="error",
                    message=f"kernel '{name}' measured "
                            f"{fpp:.2f} flops/pt vs table "
                            f"{table_fpp:.2f} (ratio {ratio:.2f}, "
                            f"band [{lo}, {hi}])",
                    op=name,
                    suggestion="re-cost the kernel's KERNEL_TABLE "
                               "declaration (or the @stencil it names) or "
                               "fix its reference function",
                ))
            bratio = drift(bpp, table_bpp, decl.bytes_band)
            if bratio is not None:
                report.findings.append(Finding(
                    code="ROOF02", severity="error",
                    message=f"kernel '{name}' streamed "
                            f"{bpp:.1f} B/pt vs table {table_bpp:.1f} "
                            f"global-memory B/pt (ratio {bratio:.2f})",
                    op=name,
                    suggestion="the kernel reads/writes fields the cost "
                               "table does not account for",
                ))
        # roofline placement at the *effective* intensity: measured flops
        # over the table's global-memory traffic (the paper pairs PAPI
        # flop counts with analytic byte counts; streamed NumPy traffic
        # includes every temporary and would understate the intensity)
        eff_bytes = (table_bpp * acc.points if table_bpp
                     else acc.bytes_streamed)
        placement = place_kernel(name, acc.flops, eff_bytes, acc.time_s,
                                 spec, precision)
        report.kernels.append(KernelRoofline(
            name=name, launches=acc.launches, flops=acc.flops,
            bytes_streamed=acc.bytes_streamed, time_s=acc.time_s,
            points=acc.points, placement=placement,
            streamed_intensity=(acc.flops / acc.bytes_streamed
                                if acc.bytes_streamed else 0.0),
            table_flops_per_point=table_fpp,
            table_bytes_per_point=table_bpp,
            time_share=acc.time_s / total_time if total_time else 0.0,
        ))
    return report
