"""Stencil fusion — the ``fused`` executor vs the reference NumPy
kernels.

A dispatched kernel with a compiled entry (docs/STENCILS.md) runs its C
body where a verified library is loaded, byte-identical to its oracle;
the ``reference`` executor runs every oracle.  Anchors:

* per-kernel wall-clock speedup of the dispatched kernels that have a
  compiled entry (the scalar and the u advection) at a production-like
  tile (64x64x32): with a library loaded the aggregate must beat 1.5x
  (without one both sides run the oracles, and only the identity is
  asserted);
* byte identity of every timed kernel output (``tobytes()``);
* the deterministic facts of a fixed end-to-end run with the compiled
  bodies held off (``native.using(None)``), so that they do not depend on
  whether the machine has a compiler — dispatch counts (every compiled
  entry declines, so nothing is accelerated), the scalar transports
  skipped because their species is absent (docs/STENCILS.md), plans
  built, arena bytes: the numbers ``repro doctor --regress`` gates in CI,
  since wall-clock is too noisy to gate there (wall metrics ship with the
  artifact but the CI gate ignores them by pattern).  The end-to-end
  wall-clock gain is ``bench/run.py``'s to measure, not this file's.

The numbers land in ``benchmarks/reports/BENCH_stencil_fusion.json``.
"""
import time

import numpy as np

from bench_json import write_bench_json
from repro.api import Experiment, RunSpec
from repro.core.advection import advect_scalar, advect_u
from repro.core.grid import make_grid
from repro.perf.report import format_table
from repro.stencil import StencilExecutor, native, use_executor
from repro.stencil.plan import PlanCache

NX, NY, NZ = 64, 64, 32
ROUNDS = 5          #: timed repetitions per kernel; best-of wins
MIN_SPEEDUP = 1.5   #: aggregate fused-vs-reference gate (with a library)


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
    g, phi, fx, fy, fz, u = _inputs()
    return [
        ("advect_scalar", advect_scalar, (phi, fx, fy, fz, g)),
        ("advect_u", advect_u, (u, fx, fy, fz, g)),
    ]


def _time_kernel(fn, args, backend):
    ex = StencilExecutor(backend)
    with use_executor(ex):
        out = fn(*args)                      # warm-up (and plan priming)
        best = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            out = fn(*args)
            best = min(best, time.perf_counter() - t0)
    return best, out, ex


def test_fused_kernels_speed_up_bit_identically(emit):
    rows, payload = [], {}
    total_ref = total_fused = 0.0
    lib = native.kernels(np.float64)
    for name, fn, args in _kernels():
        t_ref, out_ref, _ = _time_kernel(fn, args, "reference")
        t_fused, out_fused, ex = _time_kernel(fn, args, "fused")
        assert out_ref.tobytes() == out_fused.tobytes(), \
            f"{name} not byte-identical"
        assert ex.accelerated > 0 or lib is None, \
            f"{name} never took the fused path"
        total_ref += t_ref
        total_fused += t_fused
        rows.append([name, t_ref * 1e3, t_fused * 1e3, t_ref / t_fused])
        payload[name] = {"wall_reference_ms": t_ref * 1e3,
                         "wall_fused_ms": t_fused * 1e3,
                         "wall_speedup": t_ref / t_fused}
    speedup = total_ref / total_fused
    rows.append(["TOTAL", total_ref * 1e3, total_fused * 1e3, speedup])

    # deterministic facts for the CI regression gate: a fixed shear-layer
    # run's dispatch counts, and the arena one plan of its shape holds,
    # never move unless the kernels, the plan or the executor change.  The
    # run holds the compiled bodies off, so the counts do not depend on
    # whether a compiler exists
    exp = Experiment(RunSpec(workload="shear-layer", steps=3,
                             nx=16, ny=16, nz=12,
                             stencil_backend="fused")).prepare()
    with native.using(None):
        exp.run()
    stats = exp.executor.stats()
    plan = PlanCache()(exp.grid.shape_c, exp.state.rho.dtype)

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
            "arena_bytes": plan.arena.nbytes,
        },
    })

    assert lib is None or speedup >= MIN_SPEEDUP, (
        f"fused aggregate speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x gate")
    assert stats["accelerated"] == 0 and stats["fallbacks"] > 0
    assert stats["allocations"] == stats["reuses"] == 0
