"""One producer per artefact of the paper's evaluation (Figs. 4, 5, 9, 10,
11, Table I, Sec. VII, the Sec. V-A ablation) and the headline table.

Each function sweeps the model once and returns a :class:`Figure`: the
report ``benchmarks/`` checks in and EXPERIMENTS.md embeds (``text``), the
compact table ``repro bench`` prints (``brief``), the paper anchors the
rows are held against and the swept values.  ``repro bench`` / ``info``,
the benchmark files, the examples and ``repro reproduce`` only call these.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..dist.decomposition import TABLE1_CONFIGS, table1_mesh
from ..dist.network import IB_SDR_MPI
from ..dist.overlap import OverlapModel
from ..gpu.roofline import place_cost_table
from ..gpu.spec import DeviceSpec, Precision, TESLA_S1070
from ..optimeline import Overlap
from .costmodel import asuca_step_cost, cpu_step_time
from .projection import model_projection, paper_formula_projection
from .report import PAPER, ComparisonReport, format_table
from .scaling import weak_scaling_efficiency, weak_scaling_sweep

__all__ = ["Figure", "fig4", "roofline", "fig9", "fig10", "fig11", "table1",
           "projection", "overlap_ablation", "headline", "TABLE1_PAPER"]

#: the mesh column of the paper's Table I, in TABLE1_CONFIGS order (nz = 48)
TABLE1_PAPER = (
    "636x760 1268x1264 1900x2272 2532x2524 3164x3028 3796x3532 3796x4036 "
    "4428x4540 5060x5044 5692x5044 5692x5548 6324x5548 6324x6052 6956x6052"
).split()

#: the Sec. V-A ablation: every optimisation dropped alone, then all
ABLATION = {
    "all three methods": Overlap.ALL,
    "no method 1 (water pipeline)": Overlap.ALL & ~Overlap.PIPELINE,
    "no method 2 (kernel division)": Overlap.ALL & ~Overlap.DIVIDE,
    "no method 3 (rho+theta fusion)": Overlap.ALL & ~Overlap.FUSE,
    "no overlap at all": Overlap.SERIAL,
}


@dataclass
class Figure:
    """One regenerated artefact; ``text`` is its checked-in report."""

    title: str
    headers: list[str]
    rows: list[list]
    data: Any                                #: the swept values
    anchors: ComparisonReport | None = None
    brief: str = ""                          #: what ``repro bench`` prints

    @property
    def text(self) -> str:
        table = format_table(self.headers, self.rows, title=self.title)
        return table + ("\n\n" + self.anchors.render() if self.anchors else "")


def _pick(headers, rows, title: str, columns: dict[str, str]) -> str:
    """The compact table: ``{its header: the full table's}`` per column."""
    idx = [headers.index(h) for h in columns.values()]
    return format_table(list(columns), [[r[i] for i in idx] for r in rows],
                        title=title)


def _mesh(m) -> str:
    return "x".join(map(str, m))


def _ms(tl) -> list[float]:
    return [tl.makespan * 1e3, tl.compute * 1e3, tl.mpi * 1e3, tl.gpu_cpu * 1e3]


def fig4() -> Figure:
    """GFlops vs grid size on one S1070 and one Opteron core."""
    dp = Precision.DOUBLE
    rows = []
    for ny in range(32, 257, 32):
        sp = asuca_step_cost(320, ny, 48)
        rows.append([
            320 * ny * 48, ny, sp.gflops,
            # paper: DP does not fit beyond 320x128x48
            asuca_step_cost(320, ny, 48, precision=dp).gflops
            if ny <= 128 else float("nan"),
            sp.total_flops / cpu_step_time(320, ny, 48) / 1e9])
    t_cpu = cpu_step_time(320, 256, 48)
    rep = ComparisonReport("Fig. 4 anchors")
    rep.anchor("sp_gflops", rows[-1][2])
    rep.anchor("dp_gflops", rows[3][3])
    rep.anchor("speedup_sp", t_cpu / asuca_step_cost(320, 256, 48).total_time)
    rep.anchor("speedup_dp",
               t_cpu / asuca_step_cost(320, 256, 48, precision=dp).total_time)
    headers = ["grid pts", "ny", "GPU SP [GFlops]", "GPU DP [GFlops]",
               "CPU DP [GFlops]"]
    return Figure(
        "Fig. 4 — single-GPU performance vs grid size (nx=320, nz=48)",
        headers, rows, rows, rep,
        _pick(headers, rows, "Fig. 4 — single-GPU GFlops vs grid size",
              {"grid pts": "grid pts", "GPU SP": "GPU SP [GFlops]",
               "GPU DP": "GPU DP [GFlops]", "CPU DP": "CPU DP [GFlops]"}))


def roofline(spec: DeviceSpec = TESLA_S1070) -> Figure:
    """Fig. 5: the five key kernels against Eq. 6."""
    points = place_cost_table(320 * 256 * 48, spec=spec)
    short = spec.name.removeprefix("NVIDIA ").split(" (")[0]
    headers = ["kernel", "AI [flop/B]", "modeled GFlops", "Eq.6 ceiling"]
    rows = [[p.name, p.intensity, p.gflops, p.ceiling_gflops] for p in points]
    return Figure(
        f"Fig. 5 — arithmetic intensity vs performance (SP, {short})",
        headers, rows, points, None,
        _pick(headers, rows, f"Fig. 5 — kernel roofline (SP, {spec.name})",
              {"kernel": "kernel", "AI [flop/B]": "AI [flop/B]",
               "GFlops": "modeled GFlops"}))


def fig9() -> Figure:
    """Per-variable short-step breakdown of the 528-GPU interior rank."""
    vbs = OverlapModel().breakdown_rows()
    rows = [[vb.name, *(t * 1e6 for t in (
        vb.whole, vb.inner, vb.boundary_y, vb.boundary_x, vb.gpu_to_host,
        vb.mpi, vb.host_to_gpu, vb.communication))] for vb in vbs]
    rep = ComparisonReport("Fig. 9 anchors")
    rep.anchor("mpi_mbs", IB_SDR_MPI.bandwidth / 1e6)
    # the paper's bars span roughly 3000-5000 us per whole kernel
    rep.anchor("whole_kernel_us", max(vb.whole for vb in vbs) * 1e6)
    headers = ["variable", "whole [us]", "inner", "bnd-y", "bnd-x",
               "GPU->host", "MPI", "host->GPU"]
    return Figure(
        "Fig. 9 — per-variable short-step breakdown "
        "(6956x6052x48 on 22x24 GPUs, SP)",
        headers, [r[:-1] for r in rows], vbs, rep,
        _pick(headers + ["comm"], rows,
              "Fig. 9 — short-step breakdown at 528 GPUs",
              {h: h for h in (*headers[:5], "comm")}))


def fig10() -> Figure:
    """Weak scaling over the Table I configurations."""
    points = weak_scaling_sweep()
    eff = weak_scaling_efficiency(points)
    rep = ComparisonReport("Fig. 10 anchors")
    rep.anchor("tflops_528", points[-1].tflops_overlap)
    rep.anchor("scaling_gain_pct", 100 * points[-1].overlap_gain)
    rep.anchor("efficiency_pct", 100 * eff)
    headers = ["GPUs", "PxxPy", "mesh", "overlap [TFlops]", "non-overlap",
               "CPU DP", "gain %"]
    rows = [[p.n_gpus, f"{p.px}x{p.py}", _mesh(p.mesh), p.tflops_overlap,
             p.tflops_nonoverlap, p.tflops_cpu, 100.0 * p.overlap_gain]
            for p in points]
    return Figure(
        "Fig. 10 — weak scaling on TSUBAME 1.2 (Table I meshes)",
        headers, rows, points, rep,
        _pick(headers, rows, "Fig. 10 — weak scaling",
              {"GPUs": "GPUs", "mesh": "mesh", "overlap TF": "overlap [TFlops]",
               "non-ov TF": "non-overlap", "CPU TF": "CPU DP"})
        + f"\nweak-scaling efficiency: {100 * eff:.1f}% "
          f"(paper >= {PAPER['efficiency_pct'].value:.0f}%)")


def fig11() -> Figure:
    """One step at 528 GPUs, overlapping against non-overlapping."""
    model = OverlapModel()
    ov, no = model.step_timeline(), model.step_timeline(Overlap.SERIAL)
    rep = ComparisonReport("Fig. 11 anchors (overlap)")
    for key, ours in zip(("total_ms", "compute_ms", "mpi_ms", "gpu_cpu_ms"),
                         _ms(ov)):
        rep.anchor(key, ours)
    rep.anchor("hidden_pct", 100 * ov.hidden_fraction)
    rep.anchor("step_gain_pct", 100 * (1 - ov.makespan / no.makespan))
    return Figure(
        "Fig. 11 — one-step time breakdown, 6956x6052x48 on 528 GPUs",
        ["method", "total [ms]", "compute", "MPI", "GPU-CPU", "hidden %"],
        [["overlapping", *_ms(ov), 100 * ov.hidden_fraction],
         ["non-overlapping", *_ms(no), 0.0]], (ov, no), rep,
        format_table(["method", "total ms", "compute", "MPI", "GPU-CPU"],
                     [["overlap", *_ms(ov)], ["serial", *_ms(no)]],
                     title="Fig. 11 — one-step breakdown at 528 GPUs"))


def table1() -> Figure:
    """Table I regenerated from the block law, against the paper's rows."""
    rows = [[px * py, f"{px}x{py}", _mesh(table1_mesh(px, py)), f"{paper}x48"]
            for (px, py), paper in zip(TABLE1_CONFIGS, TABLE1_PAPER)]
    headers = ["GPUs", "Px x Py", "mesh (regenerated)", "paper", "match"]
    return Figure(
        "Table I — GPU counts and mesh sizes (all 14 rows)", headers,
        [r + ["yes" if r[2] == r[3] else "NO"] for r in rows], rows, None,
        _pick(headers, rows, "Table I — GPU counts and mesh sizes",
              {"GPUs": "GPUs", "grid": "Px x Py",
               "mesh": "mesh (regenerated)"}))


def projection() -> Figure:
    """Sec. VII: the paper's formula and the model on TSUBAME 2.0."""
    ps = (paper_formula_projection(), model_projection(fermi_throughput=False),
          model_projection(fermi_throughput=True))
    rep = ComparisonReport("Sec. VII anchors")
    rep.anchor("tsubame2_tflops", ps[0].tflops)
    title = "Sec. VII — TSUBAME 2.0 projection"
    headers = ["method", "GPUs", "TFlops"]
    rows = [[p.method, p.n_gpus, p.tflops] for p in ps]
    return Figure(title, headers, rows, ps, rep, _pick(
        headers, rows, title, {"method": "method", "TFlops": "TFlops"}))


def overlap_ablation() -> Figure:
    """Sec. V-A: each overlap method turned off alone at 528 GPUs."""
    model = OverlapModel()
    tls = {label: model.step_timeline(m) for label, m in ABLATION.items()}
    full = tls["all three methods"].makespan
    return Figure("Sec. V-A — overlap-method ablation (528 GPUs, SP)",
                  ["variant", "total [ms]", "compute [ms]", "vs full [%]"],
                  [[label, tl.makespan * 1e3, tl.compute * 1e3,
                    100.0 * (tl.makespan / full - 1.0)]
                   for label, tl in tls.items()], tls)


#: quantity | paper | reproduced | note — ``p`` the paper's, ``o`` ours
_HEADLINE = """\
single GPU, single precision | {p[sp_gflops]:g} GFlops | {o[sp_gflops]:.1f} | calibrated anchor
single GPU, double precision | {p[dp_gflops]:g} GFlops | {o[dp_gflops]:.1f} | DP/SP ratio {dp_sp:.2f} emerges from the model
speedup vs 1 Opteron core (SP vs DP) | {p[speedup_sp]:g}x | {o[speedup_sp]:.1f}x | "over 80-fold"
speedup (DP vs DP) | {p[speedup_dp]:g}x | {o[speedup_dp]:.1f}x | output
warm-rain kernel share of GPU time | {p[warm_rain_pct]:.1f}% | {o[warm_rain_pct]:.1f}% | output
Table I (14 rows) | — | {table1} | block law 320/256/overlap-4
528 GPUs, overlap, SP | {p[tflops_528]:.1f} TFlops | {o[tflops_528]:.1f} | output
Fig. 11 total/compute/MPI/GPU-CPU | {p[total_ms]:g}/{p[compute_ms]:g}/{p[mpi_ms]:g}/{p[gpu_cpu_ms]:g} ms | {o[total_ms]:.0f}/{o[compute_ms]:.0f}/{o[mpi_ms]:.0f}/{o[gpu_cpu_ms]:.0f} | totals calibrated, split emerges
communication hidden | ~{p[hidden_pct]:g}% | {o[hidden_pct]:.0f}% | output
overlap total-time gain | ~{p[step_gain_pct]:g}% | {o[step_gain_pct]:.0f}% | output
weak-scaling efficiency | >= {p[efficiency_pct]:g}% | {o[efficiency_pct]:.0f}% | output
TSUBAME 2.0 projection | ~{p[tsubame2_tflops]:g} TFlops | {o[tsubame2_tflops]:.0f} (formula) / {fermi:.0f} (real Fermi) | output
GPU == CPU within round-off | yes | decomposed == single **bit for bit** | measured
linear mountain-wave theory | (not in paper) | corr ~0.8, amplitude ~1.1 | measured validation
Miles-Howard KH criterion | (not in paper) | unstable iff Ri < 1/4 | measured validation"""


def headline() -> str:
    """The paper-vs-reproduced table of README.md and EXPERIMENTS.md."""
    sec7 = projection()
    p = {key: anchor.value for key, anchor in PAPER.items()}
    o = {key: ours for fig in (fig4(), fig10(), fig11(), sec7)
         for key, ours in fig.anchors.ours.items()}
    o["warm_rain_pct"] = 100 * asuca_step_cost(320, 256, 48).time_fraction(
        "warm_rain")
    rows = _HEADLINE.format(
        p=p, o=o, dp_sp=p["dp_gflops"] / p["sp_gflops"],
        fermi=sec7.data[2].tflops,
        table1="exact" if all(r[-1] == "yes" for r in table1().rows)
        else "MISMATCH")
    return "\n".join(["| quantity | paper | reproduced | note |",
                      "|---|---|---|---|",
                      *(f"| {row} |" for row in rows.splitlines())])
