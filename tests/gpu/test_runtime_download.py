"""Regression test: ``GpuAsucaRunner.download`` must write the device
data into the caller's state arrays (it used to copy into a throwaway
``np.empty_like`` buffer, so downloaded fields never reached the
caller)."""
import numpy as np

from repro.gpu.runtime import GpuAsucaRunner
from repro.workloads.mountain_wave import make_mountain_wave_case


def test_download_writes_into_state_arrays():
    case = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0,
                                   ztop=12000.0, dt=4.0, ns=4)
    runner = GpuAsucaRunner(case.model)
    runner.upload(case.state)
    st, = runner.driver().step([case.state])

    # poison the host-side output fields, then fetch them back from the
    # device: the downloaded values must be visible in the state
    names = ["rhou", "rhov", "rhow", "rhotheta"]
    expected = {n: runner._device_arrays[n].data.copy() for n in names}
    for n in names:
        st.get(n)[:] = -123.0
    runner.download(st, names)
    for n in names:
        np.testing.assert_array_equal(st.get(n), expected[n], err_msg=n)
        assert not np.any(st.get(n) == -123.0), f"{n}: sentinel survived"


def test_download_default_fields_and_accounting():
    case = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0,
                                   ztop=12000.0, dt=4.0, ns=4)
    runner = GpuAsucaRunner(case.model)
    runner.upload(case.state)
    st, = runner.driver().step([case.state])
    st.rhotheta[:] = -1.0
    runner.download(st)
    # overwritten by device data, and the PCIe time was charged
    assert not np.any(st.rhotheta == -1.0)
    assert runner.device.busy_time("d2h", tag="output") > 0
