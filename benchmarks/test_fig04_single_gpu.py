"""Fig. 4 — Performance of ASUCA on a single GPU (Tesla S1070) and a CPU
(Opteron core) for eight grid sizes, single and double precision.

Paper anchors: 44.3 GFlops SP at 320x256x48; 14.6 GFlops DP at
320x128x48; SP-vs-CPU speedup 83.4x; DP memory limit halves the maximum
grid; performance rises with grid size and saturates.
"""

from repro.gpu.memory import max_grid_fits
from repro.gpu.spec import TESLA_S1070
from repro.perf.figures import fig4
from repro.perf.report import ComparisonReport


def test_fig04_single_gpu_performance(benchmark, emit):
    fig = benchmark.pedantic(fig4, rounds=1, iterations=1)
    emit(fig.text)

    assert fig.anchors.all_within_tolerance()
    # rising, saturating curve
    sp = [r[2] for r in fig.data]
    assert all(b > a for a, b in zip(sp, sp[1:]))
    assert (sp[-1] - sp[-2]) < 0.3 * (sp[1] - sp[0])
    # CPU line is flat and tiny
    cpu = [r[4] for r in fig.data]
    assert max(cpu) < 0.02 * sp[-1] * 2


def test_fig04_memory_limits(benchmark, emit):
    """The 4 GB S1070 memory caps the sweep exactly as the paper states."""
    cap = TESLA_S1070.mem_capacity

    def limits():
        return (max_grid_fits(cap, 320, 48, 4) // 32 * 32,
                max_grid_fits(cap, 320, 48, 8) // 32 * 32)

    ny_sp, ny_dp = benchmark.pedantic(limits, rounds=1, iterations=1)
    rep = ComparisonReport("Fig. 4 memory limits (max ny, multiples of 32)")
    rep.add("max ny single precision", 256, ny_sp, rel_tol=0.0)
    rep.add("max ny double precision", 128, ny_dp, rel_tol=0.0)
    emit(rep.render())
    assert ny_sp == 256 and ny_dp == 128
