"""The per-launch FLOP/byte accounting layer: CountingHook measurement,
runner/multigpu wiring, and the guarantee that counting never perturbs
the run (bit-identical numerics, identical modeled timeline)."""
import numpy as np
import pytest

from repro.api import Experiment, RunSpec
from repro.gpu.counters import CountingHook, MeasuredKernel
from repro.gpu.runtime import GpuAsucaRunner
from repro.workloads.mountain_wave import make_mountain_wave_case


def _case():
    return make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0,
                                   ztop=12000.0, dt=4.0, ns=4)


# --------------------------------------------------------------- hook
def test_hook_measures_every_bound_kernel():
    case = _case()
    hook = CountingHook(case.model.grid, case.model.ref)
    assert hook.begin_step(0, case.state)
    for name in hook.kernels:
        pp = hook.per_point(name)
        assert pp is not None, f"{name} not measured"
        assert pp["reads"] > 0 or pp["writes"] > 0, name
    # compute kernels actually count flops; pure copies count zero
    assert hook.per_point("advection")["flops"] > 0
    assert hook.per_point("warm_rain")["flops"] > 0
    assert hook.per_point("array_copy")["flops"] == 0


def test_hook_sampling_cadence():
    case = _case()
    hook = CountingHook(case.model.grid, case.model.ref, sample_every=2)
    assert hook.begin_step(0, case.state) is True
    assert hook.begin_step(1, case.state) is False
    assert hook.begin_step(2, case.state) is True
    assert hook.steps_seen == 3 and hook.steps_sampled == 2
    with pytest.raises(ValueError):
        CountingHook(case.model.grid, case.model.ref, sample_every=0)


def test_hook_annotate_scales_to_launch():
    case = _case()
    hook = CountingHook(case.model.grid, case.model.ref)
    hook.begin_step(0, case.state)
    m = hook.annotate("advection", 1000)
    pp = hook.per_point("advection")
    assert m["flops"] == pytest.approx(pp["flops"] * 1000)
    assert m["bytes_read"] == pytest.approx(pp["reads"] * 1000 * 4)  # SP
    assert m["intensity"] == pytest.approx(
        m["flops"] / (m["bytes_read"] + m["bytes_written"]))
    assert m["points"] == 1000.0
    mk = hook.measured["advection"]
    assert isinstance(mk, MeasuredKernel) and mk.launches == 1
    # one call stands for a row of identical launches
    assert hook.annotate("advection", 1000, 3) == m
    assert (mk.launches, mk.points) == (4, 4000.0)
    # a kernel the hook never measured stays unannotated
    assert hook.annotate("no_such_kernel", 10) is None


# ------------------------------------------------------------- runner
def test_runner_annotates_sampled_steps_only():
    case = _case()
    runner = GpuAsucaRunner(case.model, counters=True, counter_every=2)
    driver = runner.driver()
    states = driver.scatter(case.state)
    for i in range(3):          # steps 0, 1, 2 — 0 and 2 sampled
        states = driver.step(states, i)
    kernel_ops = [op for op in runner.device.timeline if op.kind == "kernel"]
    measured = [op for op in kernel_ops if op.measured is not None]
    assert 0 < len(measured) == 2 * len(kernel_ops) // 3


def test_counters_do_not_perturb_run():
    """Counted and uncounted runs must agree bit-for-bit in state and in
    the modeled device timeline (names, kinds, durations)."""
    plain_case, counted_case = _case(), _case()
    plain = GpuAsucaRunner(plain_case.model)
    counted = GpuAsucaRunner(counted_case.model, counters=True)
    drivers = plain.driver(), counted.driver()
    st_p, st_c = (d.scatter(case.state)
                  for d, case in zip(drivers, (plain_case, counted_case)))
    for i in range(2):
        st_p = drivers[0].step(st_p, i)
        st_c = drivers[1].step(st_c, i)
    st_p, st_c = st_p[0], st_c[0]
    for name in st_p.prognostic_names():
        np.testing.assert_array_equal(st_p.get(name), st_c.get(name),
                                      err_msg=name)
    tp = [op for op in plain.device.timeline if op.kind == "kernel"]
    tc = [op for op in counted.device.timeline if op.kind == "kernel"]
    assert [(o.name, o.duration) for o in tp] == \
           [(o.name, o.duration) for o in tc]


# ---------------------------------------------------------------- api
def test_runspec_counters_validation():
    assert RunSpec(counters=True).normalized().backend == "gpu"
    with pytest.raises(ValueError):
        RunSpec(counters=True, backend="cpu").normalized()
    with pytest.raises(ValueError):
        RunSpec(counter_every=0).normalized()
    # counters are observability, not semantics: same run identity
    a = RunSpec(workload="shear-layer", backend="gpu").normalized()
    b = RunSpec(workload="shear-layer", backend="gpu",
                counters=True).normalized()
    assert a.spec_hash() == b.spec_hash()


def test_experiment_gpu_counters():
    exp = Experiment(RunSpec(workload="shear-layer", steps=2,
                             nx=16, ny=16, nz=12, backend="gpu",
                             counters=True)).prepare()
    exp.run()
    kernel_ops = [op for op in exp.runner.device.timeline
                  if op.kind == "kernel"]
    assert kernel_ops
    assert all(op.measured is not None for op in kernel_ops)


def test_experiment_multigpu_counters_per_rank():
    exp = Experiment(RunSpec(workload="shear-layer", steps=1,
                             nx=16, ny=16, nz=12, ranks=(2, 2),
                             counters=True)).prepare()
    exp.run()
    assert all(runner.counting is not None for runner in exp.machine.runners)
    assert len(exp.machine.devices) == 4
    for device in exp.machine.devices:
        measured = [op for op in device.timeline
                    if op.kind == "kernel" and op.measured is not None]
        assert measured, device.label
