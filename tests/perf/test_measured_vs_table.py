"""Measured counts vs the hand-entered cost table, kernel by kernel.

The live-roofline drift check (``repro doctor --roofline``) only has
value if the accounting kernels and the cost table actually agree on an
unmodified tree.  This sweep measures every bound kernel with the
counting hook at two grid sizes and asserts the measured flops and
streamed traffic land inside the shared drift bands — exactly the
condition under which the doctor emits no ROOF01/ROOF02 finding."""
import pytest

from repro.gpu.asuca_kernels import ASUCA_KERNELS, KERNEL_TABLE, drift
from repro.gpu.counters import CountingHook
from repro.gpu.spec import Precision
from repro.workloads.shear_layer import make_shear_layer_case

GRIDS = [(16, 16, 12), (24, 20, 16)]


@pytest.fixture(scope="module", params=GRIDS, ids=lambda g: "x".join(map(str, g)))
def hook(request):
    nx, ny, nz = request.param
    case = make_shear_layer_case(nx=nx, ny=ny, nz=nz)
    h = CountingHook(case.model.grid, case.model.ref)
    assert h.begin_step(0, case.state)
    return h


KERNELS = sorted(ASUCA_KERNELS)


@pytest.mark.parametrize("name", KERNELS)
def test_measured_flops_within_band(hook, name):
    pp = hook.per_point(name)
    assert pp is not None, f"{name} was not measured"
    table = ASUCA_KERNELS[name].cost.flops_per_point
    ratio = drift(pp["flops"], table, KERNEL_TABLE[name].flops_band)
    assert ratio is None, (
        f"{name}: measured {pp['flops']:.2f} flops/pt vs table {table} "
        f"(ratio {ratio})")


@pytest.mark.parametrize("name", KERNELS)
def test_measured_traffic_within_band(hook, name):
    pp = hook.per_point(name)
    assert pp is not None, f"{name} was not measured"
    cost = ASUCA_KERNELS[name].cost
    itemsize = Precision.SINGLE.itemsize
    measured = (pp["reads"] + pp["writes"]) * itemsize
    table = (cost.reads_per_point + cost.writes_per_point) * itemsize
    ratio = drift(measured, table, KERNEL_TABLE[name].bytes_band)
    assert ratio is None, (
        f"{name}: streamed {measured:.1f} B/pt vs table {table:.1f} "
        f"(ratio {ratio})")
