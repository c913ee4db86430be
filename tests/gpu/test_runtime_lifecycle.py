"""DeviceArray/runner lifecycle semantics: idempotent free, re-upload
replacing staged arrays, and runner teardown — the behaviors the
sanitizer's memcheck pass keys on."""
import numpy as np

from repro.gpu.device import GPUDevice
from repro.gpu.memory import DeviceArray
from repro.gpu.runtime import GpuAsucaRunner
from repro.gpu.spec import TESLA_S1070
from repro.workloads.mountain_wave import make_mountain_wave_case


def _case():
    return make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0,
                                   ztop=12000.0, dt=4.0, ns=4)


def test_free_is_idempotent():
    dev = GPUDevice(TESLA_S1070)
    arr = DeviceArray(dev, (8, 8), np.float32)
    nbytes = arr.nbytes
    assert dev.allocated_bytes == nbytes
    arr.free()
    assert dev.allocated_bytes == 0
    arr.free()                       # second free must not double-decrement
    assert dev.allocated_bytes == 0


def test_buffer_identity_is_stable_and_unique():
    dev = GPUDevice(TESLA_S1070)
    a = DeviceArray(dev, (4,), np.float32, name="rho")
    b = DeviceArray(dev, (4,), np.float32, name="rho")
    assert a.buffer != b.buffer
    assert "rho" in a.buffer and dev.label in a.buffer


def test_reupload_replaces_staged_arrays_without_leaking():
    case = _case()
    runner = GpuAsucaRunner(case.model)
    runner.upload(case.state)
    first = dict(runner._device_arrays)
    bytes_after_first = runner.device.allocated_bytes

    runner.upload(case.state)        # stale arrays freed and replaced
    assert runner.device.allocated_bytes == bytes_after_first
    for name, stale in first.items():
        assert stale._freed
        assert runner._device_arrays[name] is not stale


def test_teardown_frees_everything():
    case = _case()
    runner = GpuAsucaRunner(case.model)
    runner.upload(case.state)
    assert runner.device.allocated_bytes > 0
    runner.teardown()
    assert runner.device.allocated_bytes == 0
    assert runner._device_arrays == {}
    runner.teardown()                # idempotent: nothing left to free
    assert runner.device.allocated_bytes == 0


def test_step_after_reupload_keeps_device_copies_current():
    case = _case()
    runner = GpuAsucaRunner(case.model)
    runner.upload(case.state)
    runner.upload(case.state)
    st, = runner.driver().step([case.state])
    np.testing.assert_array_equal(runner._device_arrays["rhou"].data,
                                  st.rhou)
