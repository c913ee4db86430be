"""Calibration anchors: the cost model must land on the paper's measured
numbers.  These tests pin the reproduction's headline claims; everything
else (scaling, breakdowns, projections) is model output validated in the
benchmarks."""
import pytest

from repro.gpu.spec import Precision, TESLA_S1070
from repro.perf.costmodel import (
    ASUCA_KERNELS,
    ROOFLINE_KERNELS,
    asuca_step_cost,
    cpu_step_time,
    launch_schedule,
)
from repro.perf.report import PAPER


def test_single_gpu_single_precision_gflops(paper):
    """Paper: 44.3 GFlops SP on 320x256x48 (within 5%)."""
    c = asuca_step_cost(320, 256, 48)
    assert c.gflops == paper("sp_gflops")


def test_single_gpu_double_precision_gflops(paper):
    """Paper: 14.6 GFlops DP on 320x128x48; DP ~30% of SP."""
    c_dp = asuca_step_cost(320, 128, 48, precision=Precision.DOUBLE)
    assert c_dp.gflops == paper("dp_gflops")
    c_sp = asuca_step_cost(320, 256, 48)
    assert 0.25 < c_dp.gflops / c_sp.gflops < 0.40


def test_over_80_fold_speedup(paper):
    """Paper title: GPU SP is 83.4x one Opteron core running the Fortran
    in DP ('over 80-fold')."""
    t_cpu = cpu_step_time(320, 256, 48)
    t_gpu = asuca_step_cost(320, 256, 48).total_time
    assert t_cpu / t_gpu == paper("speedup_sp")
    assert t_cpu / t_gpu > 80.0


def test_26x_dp_speedup(paper):
    """Paper: DP-vs-DP speedup 26.3x."""
    t_cpu = cpu_step_time(320, 256, 48)
    t_gpu = asuca_step_cost(320, 256, 48, precision=Precision.DOUBLE).total_time
    assert t_cpu / t_gpu == paper("speedup_dp")


def test_warm_rain_one_percent():
    """Paper: the warm-rain kernel 'spends only 1.0% GPU time'."""
    c = asuca_step_cost(320, 256, 48)
    share = PAPER["warm_rain_pct"].value / 100
    assert 0.5 * share < c.time_fraction("warm_rain") < 2 * share


def test_cpu_sustained_half_gflop():
    """The implied Fortran sustained rate is 44.3/83.4 ~ 0.53 GFlops."""
    t_cpu = cpu_step_time(320, 256, 48)
    c = asuca_step_cost(320, 256, 48)
    assert c.total_flops / t_cpu / 1e9 == pytest.approx(0.53, rel=0.1)


def test_step_flops_match_fig11_implication():
    """15 TFlops / 528 GPUs * 0.988 s => ~2.8e10 flop per GPU per step."""
    c = asuca_step_cost(320, 256, 48)
    assert c.total_flops == pytest.approx(2.8e10, rel=0.1)


def test_performance_rises_with_grid_size():
    """Fig. 4 shape: GFlops increase monotonically with ny and saturate."""
    vals = [asuca_step_cost(320, ny, 48).gflops for ny in (32, 64, 128, 192, 256)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # saturating: the last increment is much smaller than the first
    assert (vals[-1] - vals[-2]) < 0.3 * (vals[1] - vals[0])


def test_roofline_kernel_ordering():
    """Fig. 5: coordinate transform slowest; warm rain fastest and the
    only compute-bound kernel; intensities span ~0.08 to ~10."""
    perfs = {}
    intensities = {}
    n = 320 * 256 * 48
    for label, name in ROOFLINE_KERNELS:
        k = ASUCA_KERNELS[name]
        t = k.duration(n, TESLA_S1070, Precision.SINGLE)
        perfs[name] = k.cost.flops(n) / t
        intensities[name] = k.cost.intensity(Precision.SINGLE)
    assert perfs["coord_transform"] < perfs["pgf_x"] < perfs["advection"]
    assert perfs["warm_rain"] == max(perfs.values())
    assert intensities["coord_transform"] == pytest.approx(1 / 12, rel=1e-6)
    assert intensities["warm_rain"] > 6.75  # beyond the S1070 SP ridge


def test_launch_schedule_structure():
    sched = dict(launch_schedule(ns=8))
    nsub = 1 + 4 + 8
    assert sched["helmholtz"] == nsub
    assert sched["pgf_x"] == nsub
    assert sched["warm_rain"] == 1
    assert sched["advection"] == 3 * 4 + 3 * 13
    # every kernel in the schedule exists in the table
    for name in sched:
        assert name in ASUCA_KERNELS


def test_kij_ordering_degrades_everything():
    """Sec. IV-A-1: keeping the CPU's kij ordering on the GPU is ruinous."""
    from repro.gpu.coalescing import ArrayOrder

    good = asuca_step_cost(320, 256, 48)
    bad = asuca_step_cost(320, 256, 48, order=ArrayOrder.KIJ)
    assert bad.gflops < 0.35 * good.gflops
