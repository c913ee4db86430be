"""The paper's numbers and the row/series formatting every report shares.

:data:`PAPER` is the one place a number measured by the paper is written
down; the producers of :mod:`repro.perf.figures`, the calibration tests
and ``repro info`` all read it.  Each producer regenerates one paper table
or figure and renders it through these helpers, so ``pytest benchmarks/
--benchmark-only`` emits a uniform "paper vs. reproduced" report (embedded
in EXPERIMENTS.md).
"""
from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Anchor", "PAPER", "format_table", "ComparisonReport"]


def _within(paper: float, ours: float, rel_tol: float) -> bool:
    """A zero paper value is informational only."""
    return paper == 0 or abs(ours - paper) <= rel_tol * abs(paper)


@dataclass(frozen=True)
class Anchor:
    """One number the paper reports: its value, the relative tolerance
    the reproduction is held to, where the paper states it, and the name
    of the quantity in a comparison report."""

    value: float
    rel_tol: float
    source: str
    quantity: str


PAPER: dict[str, Anchor] = {
    # single GPU (Sec. IV-B)
    "sp_gflops": Anchor(44.3, 0.05, "Fig. 4", "GPU SP GFlops @320x256x48"),
    "dp_gflops": Anchor(14.6, 0.07, "Fig. 4", "GPU DP GFlops @320x128x48"),
    "speedup_sp": Anchor(83.4, 0.07, "Fig. 4", "speedup SP GPU vs DP CPU core"),
    "speedup_dp": Anchor(26.3, 0.10, "Fig. 4", "speedup DP GPU vs DP CPU core"),
    "warm_rain_pct": Anchor(1.0, 1.0, "Sec. IV-B", "warm-rain share of GPU time [%]"),
    # 528 GPUs (Sec. V)
    "mpi_mbs": Anchor(438.0, 0.01, "Fig. 9", "effective MPI bandwidth [MB/s]"),
    "whole_kernel_us": Anchor(4500.0, 0.25, "Fig. 9", "largest whole-kernel time [us]"),
    "tflops_528": Anchor(15.0, 0.07, "Fig. 10", "TFlops @528 GPUs (overlap, SP)"),
    "scaling_gain_pct": Anchor(14.0, 0.35, "Fig. 10", "overlap improvement @528 [%]"),
    "efficiency_pct": Anchor(93.0, 0.05, "Fig. 10", "weak-scaling efficiency [%]"),
    "total_ms": Anchor(988.0, 0.05, "Fig. 11", "total [ms]"),
    "compute_ms": Anchor(763.0, 0.05, "Fig. 11", "computation [ms]"),
    "mpi_ms": Anchor(336.0, 0.10, "Fig. 11", "MPI [ms]"),
    "gpu_cpu_ms": Anchor(145.0, 0.15, "Fig. 11", "GPU-CPU [ms]"),
    "hidden_pct": Anchor(53.0, 0.15, "Fig. 11", "hidden communication [%]"),
    "step_gain_pct": Anchor(11.0, 0.35, "Fig. 11", "total-time improvement [%]"),
    # TSUBAME 2.0 (Sec. VII)
    "tsubame2_tflops": Anchor(150.0, 0.07, "Sec. VII", "projected TFlops (paper formula)"),
}


def format_table(headers: list[str], rows: list[list], *, title: str = "") -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(x) -> str:
        if isinstance(x, float):
            if x == 0:
                return "0"
            if abs(x) >= 1000 or abs(x) < 0.01:
                return f"{x:.3g}"
            return f"{x:.3f}".rstrip("0").rstrip(".")
        return str(x)

    cells = [[fmt(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for r in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


@dataclass
class ComparisonReport:
    """Collects (quantity, paper value, reproduced value) triples and
    renders the pass/fail summary each benchmark prints."""

    experiment: str
    rows: list[tuple[str, float, float, float]] = field(default_factory=list)
    #: reproduced value of every :data:`PAPER` anchor added, by its key
    ours: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, paper: float, ours: float, rel_tol: float = 0.25) -> None:
        self.rows.append((name, paper, ours, rel_tol))

    def anchor(self, key: str, ours: float) -> None:
        """Hold ``ours`` against the paper's number ``PAPER[key]``."""
        a = PAPER[key]
        self.add(a.quantity, a.value, ours, a.rel_tol)
        self.ours[key] = ours

    def all_within_tolerance(self) -> bool:
        return all(_within(paper, ours, tol)
                   for _, paper, ours, tol in self.rows)

    def render(self) -> str:
        return format_table(
            ["quantity", "paper", "reproduced", "ratio", "ok"],
            [[name, paper, ours, ours / paper if paper else float("nan"),
              "yes" if _within(paper, ours, tol) else "NO"]
             for name, paper, ours, tol in self.rows],
            title=f"== {self.experiment} ==",
        )
