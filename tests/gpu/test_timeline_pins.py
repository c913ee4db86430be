"""The charged device timelines, pinned op for op.

``PINNED_TIMELINE_SHA256`` (tests/dist/test_overlap_model.py) covers only
the overlap model's schedules; these pins cover what the drivers charge
while they step: every field of every op of every rank, for a decomposed
bench-shaped run, a counted single-device run whose sampled and
unsampled steps alternate, and a decomposed run with a PCIe fault and a
recovered halo message.  Any change to how launches are placed must
leave all three untouched.
"""
import hashlib

import pytest

from repro.api import Experiment, RunSpec


def _h(x: float) -> str:
    return float(x).hex()


def timeline_sha256(devices) -> str:
    """sha256 over every field of every op of ``devices``, in order."""
    h = hashlib.sha256()
    for device in devices:
        h.update(device.label.encode())
        for op in device.timeline:
            measured = (None if op.measured is None else
                        tuple(sorted((k, _h(v))
                                     for k, v in op.measured.items())))
            h.update(repr((
                op.name, op.kind, op.stream, _h(op.start), _h(op.end),
                _h(op.flops), _h(op.bytes_moved), op.tag, op.seq, op.epoch,
                op.deps,
                tuple((a.buffer, a.mode, a.lo, a.hi) for a in op.accesses),
                measured,
            )).encode())
    return h.hexdigest()


#: name -> (spec, steps); the first is bench/workloads.py's decomp_2x2
CONFIGS = {
    "decomp_2x2": (RunSpec("real-case", nx=32, ny=32, nz=16,
                           backend="multigpu", ranks=(2, 2),
                           stencil_backend="fused", metrics=True, seed=21),
                   4),
    "gpu_counted": (RunSpec("warm-bubble", nx=16, ny=16, nz=8,
                            backend="gpu", counters=True, counter_every=2),
                    4),
    "faulted_2x2": (RunSpec("warm-bubble", nx=16, ny=16, nz=8,
                            ranks=(2, 2), metrics=True,
                            faults="pcie@1:r1,drop@2"),
                    4),
}

#: computed before kernel launches were stored as runs
PINNED_CHARGED_SHA256 = {
    "decomp_2x2":
        "66cac2751839246876cd17729484072a0c5a1e12fdf30942fc277798b0414817",
    "gpu_counted":
        "48dddfca199899419ade8e4e5f7ccaf352bfbbc2358c300c71bf6655f8e7414d",
    "faulted_2x2":
        "178de972c1b4d5f858d29cf3d8d9f78180bb52bcf2dfe15edcd1a787b09a3275",
}


def _devices(name):
    spec, steps = CONFIGS[name]
    exp = Experiment(spec).prepare()
    exp.advance(steps)
    return exp.machine.devices if exp.machine else [exp.runner.device]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_charged_timelines_are_op_for_op_pinned(name):
    devices = _devices(name)
    assert timeline_sha256(devices) == PINNED_CHARGED_SHA256[name]


def test_pinned_configurations_exercise_what_they_name():
    (device,) = _devices("gpu_counted")
    kernels = [op for op in device.timeline if op.kind == "kernel"]
    assert any(op.measured is None for op in kernels)
    assert any(op.measured is not None for op in kernels)
    devices = _devices("faulted_2x2")
    names = {op.name for d in devices for op in d.timeline}
    assert any(n.endswith("[failed]") for n in names)
    assert "halo_recovery" in names
