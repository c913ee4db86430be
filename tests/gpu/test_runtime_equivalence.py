"""The paper's correctness claim, transposed: running through the virtual
GPU produces results identical to the direct NumPy execution (the GPU
path is the same arithmetic plus a simulated clock), while the device
timeline reports the modeled Tesla performance."""
import hashlib

import numpy as np
import pytest

from repro.api import Experiment, RunSpec
from repro.dist.multigpu import MultiGpuAsuca
from repro.gpu.device import GPUDevice
from repro.gpu.runtime import GpuAsucaRunner
from repro.gpu.spec import DeviceSpec, Precision, TESLA_S1070
from repro.workloads.mountain_wave import make_mountain_wave_case


@pytest.fixture(scope="module")
def cases():
    a = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0, ztop=12000.0,
                                dt=4.0, ns=4)
    b = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0, ztop=12000.0,
                                dt=4.0, ns=4)
    return a, b


def test_gpu_path_bit_identical(cases):
    direct, via_gpu = cases
    driver = GpuAsucaRunner(via_gpu.model).driver()
    st_direct = direct.state
    st_gpu = driver.scatter(via_gpu.state)
    for i in range(3):
        st_direct = direct.model.step(st_direct)
        st_gpu = driver.step(st_gpu, i)
    st_gpu, = st_gpu
    for name in st_direct.prognostic_names():
        np.testing.assert_array_equal(
            st_direct.get(name), st_gpu.get(name), err_msg=name
        )


def test_device_time_accounting(cases):
    _, case = cases
    runner = GpuAsucaRunner(case.model)
    driver = runner.driver()
    states = driver.scatter(case.state)     # the one upload
    for i in range(2):
        states = driver.step(states, i)
    st, = states
    dev = runner.device
    assert dev.busy_time("kernel") > 0
    # Fig. 1: input transfer happened once, during upload
    assert dev.busy_time("h2d", tag="init") > 0
    assert runner.steps_taken == 2
    assert runner.modeled_step_time() > 0
    # tiny grids are launch-overhead dominated (far below the 44 GFlops
    # plateau — the left edge of Fig. 4's rising curve)
    assert 0.05 < runner.sustained_gflops() < 50.0
    runner.download(st)
    assert dev.busy_time("d2h", tag="output") > 0


def test_upload_respects_capacity():
    tiny = DeviceSpec(
        name="tiny", peak_flops_sp=1e12, peak_flops_dp=5e11,
        mem_bandwidth=1e11, mem_capacity=100_000, pcie_bandwidth=1e9,
    )
    case = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0,
                                   ztop=12000.0)
    runner = GpuAsucaRunner(case.model, GPUDevice(tiny))
    with pytest.raises(MemoryError):
        runner.upload(case.state)


@pytest.mark.parametrize("ice", [False, True], ids=["warm", "ice"])
def test_one_rank_multigpu_charges_the_runner_kernel_sequence(ice):
    """Both drivers take their schedule from the one resolver
    (gpu.asuca_kernels.step_schedule, with the model's ``ice_enabled``)
    and charge it through the one routine (gpu.runtime.charge_step): on
    the same grid a 1x1 decomposition's device carries exactly the
    runner's kernel ops — including the cold-rain kernel when ice is on."""
    ns = 4
    a = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0, ztop=12000.0,
                                dt=4.0, ns=ns)
    b = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0, ztop=12000.0,
                                dt=4.0, ns=ns)
    for case in (a, b):
        case.model.config.ice_enabled = ice
        case.model.config.physics_enabled = ice
    runner = GpuAsucaRunner(a.model, ns=ns)
    runner.driver().step([a.state])

    machine = MultiGpuAsuca(b.grid, b.ref, 1, 1, b.model.config)
    (device,) = machine.attach_devices(ns=ns)
    driver = machine.driver()
    driver.step(driver.scatter(b.state))

    def kernel_ops(dev):
        return [(op.name, op.start.hex(), op.end.hex(), op.flops,
                 op.bytes_moved, op.tag)
                for op in dev.timeline if op.kind == "kernel"]

    assert kernel_ops(device) == kernel_ops(runner.device)
    assert len(kernel_ops(device)) > 100
    assert ("cold_rain" in {op.name for op in device.timeline}) == ice


@pytest.mark.parametrize("spec,n_ops,digest", [
    # bench's decomp_2x2 spec: 856 scheduled ops per step
    (RunSpec("real-case", nx=32, ny=32, nz=16, backend="multigpu",
             ranks=(2, 2), stencil_backend="fused", metrics=True, seed=0),
     2568, "de370e10686972ffcbdc1c8e30616d225c6292dcbe20205d7ddb03825ee1b37f"),
    # the single-device runner, ice kernels and a sampling counter hook
    (RunSpec("warm-bubble", nx=16, ny=16, nz=8, backend="gpu", ice=True,
             counters=True, counter_every=2),
     915, "17ee3a83caad335be62386c6f96db68ccbe500f98674911cbaf6c6aad9bf255e"),
])
def test_charged_ops_pinned(spec, n_ops, digest):
    """Every device op of three steps, recorded at the commit before a
    step's launches were priced once (``price_step``) instead of per
    launch: the modeled timeline must not move by one bit."""
    exp = Experiment(spec).prepare()
    exp.advance(3)
    devices = exp.machine.devices if exp.machine else [exp.runner.device]
    ops = [op for device in devices for op in device.timeline]
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.name, op.kind, op.stream, op.start, op.end,
                       op.flops, op.bytes_moved, op.tag)).encode())
    assert (len(ops), h.hexdigest()) == (n_ops, digest)
