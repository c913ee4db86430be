"""Fig. 11 — Computation and communication time in one time step with the
non-overlapping and overlapping methods on 528 GPUs.

Paper anchors (overlap): total 988 ms with computation 763 ms, MPI 336 ms
and GPU-CPU transfer 145 ms; ~53% of the communication hidden; the total
~11% shorter than non-overlapping even though divided kernels and
asynchronous transfers individually cost more.
"""
import pytest

from repro.dist.overlap import OverlapModel
from repro.perf.report import ComparisonReport, format_table


def _both():
    model = OverlapModel()
    return model.step_timeline(True), model.step_timeline(False)


def test_fig11_step_breakdown(benchmark, emit):
    tl_ov, tl_no = benchmark.pedantic(_both, rounds=1, iterations=1)

    table = format_table(
        ["method", "total [ms]", "compute", "MPI", "GPU-CPU", "hidden %"],
        [
            ["overlapping", tl_ov.makespan * 1e3, tl_ov.compute * 1e3,
             tl_ov.mpi * 1e3, tl_ov.gpu_cpu * 1e3,
             100 * tl_ov.hidden_fraction],
            ["non-overlapping", tl_no.makespan * 1e3, tl_no.compute * 1e3,
             tl_no.mpi * 1e3, tl_no.gpu_cpu * 1e3, 0.0],
        ],
        title="Fig. 11 — one-step time breakdown, 6956x6052x48 on 528 GPUs",
    )

    rep = ComparisonReport("Fig. 11 anchors (overlap)")
    rep.add("total [ms]", 988.0, tl_ov.makespan * 1e3, rel_tol=0.05)
    rep.add("computation [ms]", 763.0, tl_ov.compute * 1e3, rel_tol=0.05)
    rep.add("MPI [ms]", 336.0, tl_ov.mpi * 1e3, rel_tol=0.10)
    rep.add("GPU-CPU [ms]", 145.0, tl_ov.gpu_cpu * 1e3, rel_tol=0.15)
    rep.add("hidden communication [%]", 53.0,
            100 * tl_ov.hidden_fraction, rel_tol=0.15)
    gain = 100 * (1 - tl_ov.makespan / tl_no.makespan)
    rep.add("total-time improvement [%]", 11.0, gain, rel_tol=0.35)
    emit(table + "\n\n" + rep.render())

    assert rep.all_within_tolerance()
    # the paper's qualitative observations
    assert tl_ov.compute > tl_no.compute   # divided kernels cost more...
    assert tl_ov.makespan < tl_no.makespan       # ...but the total still wins
