"""Stencil fusion — the planned (``fused``) executor vs the reference
NumPy kernels.

The planned bodies (docs/STENCILS.md) run slab by slab on a per-shape
plan's small scratch arena and must be byte-identical to the reference.
Anchors:

* per-kernel wall-clock speedup on the hot dycore kernels at a
  production-like tile (64x64x32): the aggregate must beat 1.5x (the
  measured wins are ~3x advection, ~3x the Helmholtz solve; the
  diffusion/EOS twins, not yet on the plan, sit near 1x);
* byte identity of every timed kernel output (``tobytes()``);
* the plan's deterministic facts for a fixed end-to-end run — dispatch
  counts, the scalar transports skipped because their species is absent
  (docs/STENCILS.md), plans built, arena bytes — and the ufunc passes of
  one face-flux call, counted by wrapping the kernel modules' ``np`` once:
  the numbers ``repro doctor --regress`` gates in CI, since wall-clock
  is too noisy to gate there (wall metrics ship with the artifact but
  the CI gate ignores them by pattern).  The end-to-end wall-clock gain
  is ``bench/run.py``'s to measure, not this file's.

The numbers land in ``benchmarks/reports/BENCH_stencil_fusion.json``.
"""
import time

import numpy as np

from bench_json import write_bench_json
from repro.api import Experiment, RunSpec
from repro.core.advection import advect_scalar, advect_u
from repro.core.diffusion import hyperdiffusion_c, vertical_diffusion_c
from repro.core.grid import make_grid
from repro.core.helmholtz import HelmholtzOperator
from repro.core.pressure import eos_pressure
from repro.perf.report import format_table
from repro.stencil import StencilExecutor, native, use_executor
from repro.stencil.plan import Plan, PlanCache

NX, NY, NZ = 64, 64, 32
ROUNDS = 5          #: timed repetitions per kernel; best-of wins
MIN_SPEEDUP = 1.5   #: aggregate fused-vs-reference gate


class _CountingNumpy:
    """``np`` with every ufunc call counted (one array pass each)."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        obj = getattr(np, name)
        if not isinstance(obj, np.ufunc):
            return obj

        def counted(*args, **kwargs):
            self.passes += 1
            return obj(*args, **kwargs)

        return counted


def _face_flux_passes():
    """Array passes (ufunc calls) of one ``limited_face_flux`` call that
    fits one slab: the reference's from the FLOP counter's written
    elements (the paper's PAPI role), the planned body's by wrapping its
    module's ``np`` once."""
    from repro.core.advection import limited_face_flux
    from repro.perf.counting import FlopCounter
    from repro.stencil import dycore

    r = np.random.default_rng(2)
    phi, flux = r.normal(size=(12, 10, 8)), r.normal(size=(11, 10, 8))
    counter = FlopCounter()
    out = limited_face_flux(counter.wrap(phi), counter.wrap(flux), 0)
    reference = counter.elements_written / out.size

    dycore.np = counting = _CountingNumpy()
    try:
        with use_executor(StencilExecutor("fused")), native.using(None):
            limited_face_flux(phi, flux, 0)
    finally:
        dycore.np = np
    return {"reference": reference, "fused": counting.passes}


def _inputs():
    g = make_grid(nx=NX, ny=NY, nz=NZ, dx=100.0, dy=100.0, ztop=3200.0)
    r = np.random.default_rng(0)
    phi = r.normal(size=(g.nxh, g.nyh, g.nz))
    fx = r.normal(size=(g.nxh + 1, g.nyh, g.nz))
    fy = r.normal(size=(g.nxh, g.nyh + 1, g.nz))
    fz = r.normal(size=(g.nxh, g.nyh, g.nz + 1))
    u = r.normal(size=(g.nxh + 1, g.nyh, g.nz))
    return g, phi, fx, fy, fz, u


def _kernels():
    from repro.core.pressure import linearization_coefficient

    g, phi, fx, fy, fz, u = _inputs()
    rng = np.random.default_rng(1)
    rt = np.abs(rng.normal(size=g.shape_c)) * 30.0 + 250.0
    thf = np.abs(rng.normal(size=(g.nxh, g.nyh, g.nz + 1))) + 280.0
    op = HelmholtzOperator(
        g, thf, linearization_coefficient(eos_pressure.reference(rt, g), rt),
        dtau=0.05, beta=0.6)
    rhs = rng.normal(size=(g.nxh, g.nyh, g.nz - 1))
    return [
        ("advect_scalar", advect_scalar, (phi, fx, fy, fz, g)),
        ("advect_u", advect_u, (u, fx, fy, fz, g)),
        ("hyperdiffusion_c", hyperdiffusion_c, (phi, g)),
        ("vertical_diffusion_c", vertical_diffusion_c, (phi, g, 10.0)),
        ("eos_pressure", eos_pressure, (rt, g)),
        ("helmholtz_solve", lambda: op.solve(rhs), ()),
    ]


def _time_kernel(fn, args, backend):
    ex = StencilExecutor(backend)
    # fusion is what this file measures: the planned *NumPy* bodies (the
    # compiled ones are bench/run.py's to time, and make no ufunc call)
    with use_executor(ex), native.using(None):
        out = fn(*args)                      # warm-up (and pool priming)
        best = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            out = fn(*args)
            best = min(best, time.perf_counter() - t0)
    return best, out, ex


def test_fused_kernels_speed_up_bit_identically(emit):
    rows, payload = [], {}
    total_ref = total_fused = 0.0
    for name, fn, args in _kernels():
        t_ref, out_ref, _ = _time_kernel(fn, args, "reference")
        t_fused, out_fused, ex = _time_kernel(fn, args, "fused")
        assert out_ref.tobytes() == out_fused.tobytes(), \
            f"{name} not byte-identical"
        assert ex.accelerated > 0, f"{name} never took the fused path"
        total_ref += t_ref
        total_fused += t_fused
        rows.append([name, t_ref * 1e3, t_fused * 1e3, t_ref / t_fused])
        payload[name] = {"wall_reference_ms": t_ref * 1e3,
                         "wall_fused_ms": t_fused * 1e3,
                         "wall_speedup": t_ref / t_fused}
    speedup = total_ref / total_fused
    rows.append(["TOTAL", total_ref * 1e3, total_fused * 1e3, speedup])

    # deterministic facts for the CI regression gate: a fixed shear-layer
    # run on a private plan cache -- its dispatch counts, the plans it
    # builds and their arena never move unless the kernels, the plan or
    # the executor change
    exp = Experiment(RunSpec(workload="shear-layer", steps=3,
                             nx=16, ny=16, nz=12,
                             stencil_backend="fused")).prepare()
    exp.executor.plans = cache = PlanCache()
    exp.run()
    stats = exp.executor.stats()
    passes = _face_flux_passes()

    emit(format_table(
        ["kernel", "reference [ms]", "fused [ms]", "speedup"], rows,
        title=f"Stencil fusion — {NX}x{NY}x{NZ} tile, best of {ROUNDS}; "
              f"fixed-run stats: {exp.executor.report()}"))
    write_bench_json("stencil_fusion", {
        "tile": f"{NX}x{NY}x{NZ}",
        "kernels": payload,
        "wall_speedup_total": speedup,
        "fixed_run": {
            "workload": "shear-layer 16x16x12 x3 steps",
            "dispatches": stats["dispatches"],
            "accelerated": stats["accelerated"],
            "fallbacks": stats["fallbacks"],
            "transports_skipped": stats["skipped"],
            "plans_built": cache.built,
            "arena_bytes": cache.nbytes(),
            "face_flux_ufunc_passes_reference": passes["reference"],
            "face_flux_ufunc_passes_fused": passes["fused"],
        },
    })

    assert speedup >= MIN_SPEEDUP, (
        f"fused aggregate speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x gate")
    assert stats["accelerated"] > stats["fallbacks"]
    assert stats["allocations"] == stats["reuses"] == 0
    assert cache.built == 1
    assert cache.nbytes() <= Plan.arena_bound(exp.grid.shape_c, np.float64)
    assert passes["fused"] < passes["reference"]
