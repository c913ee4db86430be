"""The one kernel table (gpu/asuca_kernels.py): its content is pinned to
the values the twelve hand-aligned copies held before they became views
of it, and a malformed declaration cannot be constructed.

The digests were computed on the commit *before* the collapse (PR 14),
where per-kernel costs, launch configs, the launch schedule, the drift
bands and the accounting bindings were separate copies reconciled by
agreement tests.  Those copies no longer exist, so "the copies agree" is
not a behaviour any more — what remains checkable is that no number
moved."""
import dataclasses
import hashlib
import json

import pytest

from repro.gpu.asuca_kernels import (
    ASUCA_KERNELS,
    KERNEL_TABLE,
    KernelDecl,
    launch_schedule,
)
from repro.gpu.counters import CountingHook
from repro.gpu.kernel import KernelCostModel
from repro.perf.costmodel import asuca_step_cost, modeled_run_seconds
from repro.workloads.shear_layer import make_shear_layer_case

TABLE_DIGEST = "36a6b2a83aaf074d3dba44463f5d2476cfdc754c7e919a1f05aef65d2da4c530"
PER_POINT_DIGEST = "b6da356de010baf8626c61a0b7d05056fcd664268fbd069acfb237422ca50fd7"


def _hex(x):
    return None if x is None else float(x).hex()


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_table_content_is_pinned():
    assert len(KERNEL_TABLE) == 15
    step = asuca_step_cost(320, 256, 48)
    payload = {
        "kernels": {
            name: [_hex(k.cost.flops_per_point), _hex(k.cost.reads_per_point),
                   _hex(k.cost.writes_per_point), _hex(k.cost.alpha),
                   _hex(k.cost.compute_fraction), list(k.launch_config.block),
                   k.launch_config.march_axis, k.tag]
            for name, k in ASUCA_KERNELS.items()},
        "schedule": {
            f"ns={ns},ice={ice}": [list(e) for e in
                                   launch_schedule(ns, include_ice=ice)]
            for ns in (4, 6, 12) for ice in (False, True)},
        "bands": {
            name: [[_hex(v) for v in d.flops_band],
                   [_hex(v) for v in d.bytes_band]]
            for name, d in KERNEL_TABLE.items()},
        "step_cost": [_hex(step.total_flops), _hex(step.total_bytes),
                      _hex(step.total_time)],
    }
    assert _digest(payload) == TABLE_DIGEST


def test_measured_per_point_counts_are_pinned():
    """Every table kernel is measured (bound function + recipe exist by
    construction) and counts exactly what the old accounting bindings
    counted."""
    per_point = {}
    for nx, ny, nz in [(16, 16, 12), (24, 20, 16)]:
        case = make_shear_layer_case(nx=nx, ny=ny, nz=nz)
        hook = CountingHook(case.model.grid, case.model.ref)
        assert hook.begin_step(0, case.state)
        per_point[f"{nx}x{ny}x{nz}"] = {
            name: {k: _hex(v) for k, v in hook.per_point(name).items()}
            for name in KERNEL_TABLE}
    assert _digest(per_point) == PER_POINT_DIGEST


def test_malformed_declarations_fail_at_construction():
    good = KERNEL_TABLE["coriolis"]
    with pytest.raises(TypeError):          # no function / no recipe
        KernelDecl("k", "long", launches=lambda s: 1,
                   cost=KernelCostModel(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="exactly one"):
        dataclasses.replace(good, cost=None)
    with pytest.raises(ValueError, match="exactly one"):
        dataclasses.replace(good, spec=KERNEL_TABLE["advection"].spec)
    with pytest.raises(ValueError, match="Fig. 9"):
        dataclasses.replace(good, fig9=("Vorticity",))


def test_ice_costs_more_on_both_backends():
    """``include_ice`` reaches the CPU billing path too; the warm-rain
    estimates are bit-unchanged."""
    warm = {b: modeled_run_seconds(32, 32, 16, 4, backend=b)
            for b in ("gpu", "cpu")}
    ice = {b: modeled_run_seconds(32, 32, 16, 4, backend=b, include_ice=True)
           for b in ("gpu", "cpu")}
    assert warm["gpu"].hex() == "0x1.7bf879ef2649dp-4"
    assert warm["cpu"].hex() == "0x1.d379682c875b1p-1"
    assert ice["gpu"] > warm["gpu"] and ice["cpu"] > warm["cpu"]
