"""Tests of memory accounting, the roofline (Eq. 6), coalescing and
shared-memory models."""
import numpy as np
import pytest

from repro.gpu.coalescing import ArrayOrder, bandwidth_fraction
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import Kernel, KernelCostModel, LaunchConfig
from repro.gpu.memory import (
    ASUCA_RESIDENT_FIELDS,
    DeviceAllocator,
    DeviceArray,
    max_grid_fits,
)
from repro.gpu.roofline import (
    arithmetic_intensity,
    attainable_flops,
    kernel_time,
    ridge_intensity,
)
from repro.gpu.sharedmem import ASUCA_ADVECTION_TILE, TileSpec, global_reads_per_point
from repro.gpu.spec import GIB, Precision, TESLA_S1070


# ------------------------------------------------------------------ memory
def test_paper_memory_limits():
    """Sec. IV-B: 4 GB limits single precision to 320x256x48 and double to
    320x128x48 (ny in multiples of 32, as the paper's sweep)."""
    cap = TESLA_S1070.mem_capacity
    ny_sp = max_grid_fits(cap, 320, 48, 4)
    ny_dp = max_grid_fits(cap, 320, 48, 8)
    assert 256 <= (ny_sp // 32) * 32 < 288
    assert 128 <= (ny_dp // 32) * 32 < 160


def test_device_array_oom():
    dev = GPUDevice(TESLA_S1070)
    a = DeviceArray(dev, (1024, 1024, 256), np.float32)  # 1 GiB
    assert dev.allocated_bytes == GIB
    with pytest.raises(MemoryError):
        DeviceArray(dev, (1024, 1024, 1024), np.float32)  # 4 GiB more
    a.free()
    assert dev.allocated_bytes == 0
    a.free()  # idempotent
    assert dev.allocated_bytes == 0


def test_transfers_move_data_and_charge_time():
    dev = GPUDevice(TESLA_S1070)
    host = np.arange(1000, dtype=np.float32)
    d = DeviceArray(dev, (1000,), np.float32)
    ev = d.copy_from_host(host)
    np.testing.assert_array_equal(d.data, host)
    assert ev.time == pytest.approx(host.nbytes / TESLA_S1070.pcie_bandwidth)
    out = np.empty_like(host)
    d.copy_to_host(out)
    np.testing.assert_array_equal(out, host)
    assert dev.busy_time("h2d") > 0 and dev.busy_time("d2h") > 0


def test_allocator_fits():
    dev = GPUDevice(TESLA_S1070)
    alloc = DeviceAllocator(dev)
    assert alloc.fits(320, 256, 48, 4)
    assert not alloc.fits(320, 288, 48, 4)
    assert not alloc.fits(320, 160, 48, 8)


# ---------------------------------------------------------------- roofline
def test_eq6_limits():
    """Eq. 6: tiny intensity -> bandwidth bound; huge -> compute bound."""
    lo = attainable_flops(1e-3, TESLA_S1070)
    assert lo == pytest.approx(1e-3 * TESLA_S1070.mem_bandwidth, rel=1e-3)
    hi = attainable_flops(1e4, TESLA_S1070)
    assert hi == pytest.approx(TESLA_S1070.peak_flops_sp, rel=1e-2)


def test_ridge_point():
    r = ridge_intensity(TESLA_S1070)
    assert r == pytest.approx(691.2e9 / 102.4e9)
    # at the ridge, both terms contribute equally
    perf = attainable_flops(r, TESLA_S1070)
    assert perf == pytest.approx(TESLA_S1070.peak_flops_sp / 2, rel=1e-6)


def test_kernel_time_monotonic():
    t1 = kernel_time(1e9, 1e9, TESLA_S1070)
    t2 = kernel_time(2e9, 1e9, TESLA_S1070)
    t3 = kernel_time(1e9, 2e9, TESLA_S1070)
    assert t2 > t1 and t3 > t1
    # alpha adds directly
    assert kernel_time(1e9, 1e9, TESLA_S1070, alpha=1.0) == pytest.approx(t1 + 1.0)


def test_double_precision_slower():
    t_sp = kernel_time(1e9, 1e9, TESLA_S1070, Precision.SINGLE)
    t_dp = kernel_time(1e9, 1e9, TESLA_S1070, Precision.DOUBLE)
    assert t_dp > t_sp


def test_saturation_curve():
    """Small launches see reduced effective bandwidth (Fig. 4's rise)."""
    t_small = kernel_time(0, 1e6, TESLA_S1070, n_points=1e4)
    t_large = kernel_time(0, 1e6, TESLA_S1070, n_points=1e8)
    assert t_small > t_large
    assert TESLA_S1070.effective_bandwidth(1e12) == pytest.approx(
        TESLA_S1070.mem_bandwidth, rel=1e-3
    )


def test_arithmetic_intensity():
    assert arithmetic_intensity(10.0, 40.0) == 0.25


# -------------------------------------------------------------- coalescing
def test_coalesced_vs_strided():
    f_good = bandwidth_fraction(ArrayOrder.XZY)
    f_bad = bandwidth_fraction(ArrayOrder.KIJ)
    assert f_good == 1.0
    assert f_bad < 0.1  # the paper's reason to re-order arrays
    assert bandwidth_fraction(ArrayOrder.IJK) == f_bad


def test_coalesced_double_precision():
    # 32 threads x 8 B = 256 B -> 4 transactions of 64 B: still perfect
    assert bandwidth_fraction(ArrayOrder.XZY, itemsize=8) == 1.0


# -------------------------------------------------------------- shared mem
def test_paper_tile_geometry():
    t = ASUCA_ADVECTION_TILE
    assert t.tile_elements == (64 + 3) * (4 + 3)  # Fig. 3
    assert t.shared_bytes(4) == 67 * 7 * 4
    assert t.fits(TESLA_S1070.shared_mem_per_sm, 4, blocks_per_sm=8)


def test_tiling_cuts_global_reads():
    naive = global_reads_per_point(13, tile=None)
    tiled = global_reads_per_point(13)
    assert naive == 13.0
    assert tiled == pytest.approx((67 * 7) / (64 * 4))
    assert tiled < 2.0


def test_kernel_launch_config_geometry():
    lc = LaunchConfig(block=(64, 4, 1), march_axis="y")
    assert lc.blocks_for(320, 256, 48) == (5, 12, 1)
    lc_z = LaunchConfig(block=(64, 4, 1), march_axis="z")
    assert lc_z.blocks_for(320, 256, 48) == (5, 64, 1)


def test_kernel_kij_ordering_slower():
    k = Kernel("stencil", KernelCostModel(10.0, 3.0, 1.0))
    t_good = k.duration(1e7, TESLA_S1070, order=ArrayOrder.XZY)
    t_bad = k.duration(1e7, TESLA_S1070, order=ArrayOrder.KIJ)
    assert t_bad > 3.0 * t_good  # uncoalesced access is catastrophic


def test_grid_bytes_accounting():
    dev = GPUDevice(TESLA_S1070)
    alloc = DeviceAllocator(dev, n_fields=10)
    assert alloc.grid_bytes(100, 100, 10, 4) == 100 * 100 * 10 * 4 * 10


def test_attainable_flops_with_alpha():
    """A per-byte launch overhead lowers the whole curve."""
    clean = attainable_flops(1.0, TESLA_S1070)
    slowed = attainable_flops(1.0, TESLA_S1070, alpha_per_byte=1e-9)
    assert slowed < clean


def test_effective_bandwidth_monotone():
    bands = [TESLA_S1070.effective_bandwidth(n) for n in (1e3, 1e5, 1e7)]
    assert bands[0] < bands[1] < bands[2] <= TESLA_S1070.mem_bandwidth
