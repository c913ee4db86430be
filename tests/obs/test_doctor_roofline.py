"""Unit tests of the live-roofline drift gate on a counted timeline."""
import dataclasses

import pytest

from repro.gpu.asuca_kernels import ASUCA_KERNELS
from repro.gpu.runtime import GpuAsucaRunner
from repro.obs.doctor import roofline_from_records
from repro.workloads.shear_layer import make_shear_layer_case


@pytest.fixture(scope="module")
def counted_ops():
    case = make_shear_layer_case(nx=16, ny=16, nz=12)
    runner = GpuAsucaRunner(case.model, counters=True)
    runner.driver().step([case.state])
    return list(runner.device.timeline)


def test_unperturbed_table_is_clean(counted_ops):
    report = roofline_from_records(counted_ops)
    assert report.findings == [] and report.exit_status() == 0


def test_bytes_drift_fires_roof02_for_exactly_that_kernel(counted_ops):
    """A table whose traffic estimate for one kernel falls out of its
    bytes band (here: 100x too many reads per point, so the measured/
    table ratio drops under the band) is a ROOF02 error that gates."""
    name = "continuity"
    k = ASUCA_KERNELS[name]
    table = dict(ASUCA_KERNELS)
    table[name] = dataclasses.replace(k, cost=dataclasses.replace(
        k.cost, reads_per_point=100 * k.cost.reads_per_point))
    report = roofline_from_records(counted_ops, table=table)
    assert [(f.code, f.op) for f in report.findings] == [("ROOF02", name)]
    assert report.exit_status() == 1
