"""Stencil fusion — one RK stage's slow tendencies in one compiled call
vs the reference NumPy kernels.

An RK stage's slow tendencies (velocities, metric fluxes, the four
advections, one advection per active species, Coriolis, the sponge) are
one call of ``slow_stage`` where a verified library is loaded and the
integrator's ``StageBinding`` takes the stage, byte-identical to the NumPy
text on the oracles that runs under ``native.using(None)``.  Anchors:

* the wall-clock speedup of one stage of a moist bubble with Coriolis and
  the sponge at a production-like tile (64x64x32): with a library loaded
  it must beat 1.5x (without one both sides run the oracles, and only the
  identity is asserted);
* byte identity of every forcing field and species tendency
  (``tobytes()``);
* the deterministic facts of a fixed end-to-end run with the compiled
  bodies held off (``native.using(None)``), so that they do not depend on
  whether the machine has a compiler — dispatch counts (every compiled
  entry declines, so nothing is accelerated) and the scalar transports
  skipped because their species is absent (docs/STENCILS.md): the numbers
  ``repro doctor --regress`` gates in CI, since wall-clock is too noisy to
  gate there (wall metrics ship with the artifact but the CI gate ignores
  them by pattern).  The end-to-end wall-clock gain is ``bench/run.py``'s
  to measure, not this file's.

The numbers land in ``benchmarks/reports/BENCH_stencil_fusion.json``.
"""
import time

import numpy as np

from bench_json import write_bench_json
from repro.api import Experiment, RunSpec
from repro.core.acoustic import AcousticGeometry
from repro.core.boundary import fill_halos_state, rayleigh_coefficient
from repro.core.grid import make_grid
from repro.core.limiter import koren
from repro.core.reference import make_reference_state
from repro.core.rk3 import DynamicsConfig, StageBinding, slow_tendencies
from repro.core.state import state_from_reference
from repro.perf.report import format_table
from repro.stencil import native
from repro.workloads.sounding import constant_stability_sounding

NX, NY, NZ = 64, 64, 32
ROUNDS = 5          #: timed repetitions per side; best-of wins
MIN_SPEEDUP = 1.5   #: compiled-vs-reference stage gate (with a library)
FIELDS = ("r_u", "r_v", "r_w", "r_theta", "fx_s", "fy_s", "w_s", "m_s")


def _stage():
    """A moist, perturbed stage state with valid halos, its reference
    state, geometry, sponge and configuration."""
    g = make_grid(nx=NX, ny=NY, nz=NZ, dx=500.0, dy=500.0, ztop=8000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    st = state_from_reference(g, ref, u0=10.0, v0=-4.0)
    r = np.random.default_rng(0)
    st.rhotheta += st.rho * r.normal(scale=0.5, size=g.shape_c)
    st.rhow += 0.1 * r.normal(size=g.shape_w)
    st.q["qv"] = 1e-2 * st.rho
    st.q["qc"] = np.where(r.random(g.shape_c) < 0.2, 1e-4, 0.0) * st.rho
    fill_halos_state(st)
    cfg = DynamicsConfig(coriolis_f=1e-4, rayleigh_depth=2000.0)
    sponge = rayleigh_coefficient(g, cfg.rayleigh_depth, cfg.rayleigh_tau)[1]
    return st, ref, AcousticGeometry(g, ref), sponge, cfg


def _time_stage(lib, st, ref, geom, sponge, cfg):
    """Best-of wall time and result of one stage, the library ``lib`` in
    force (``None``: the NumPy text on the oracles)."""
    with native.using(lib):
        binding = StageBinding(geom)

        def stage():
            return slow_tendencies(st, cfg, koren, sponge, None,
                                   geom.metric_flux, None, binding)

        out = stage()                       # warm-up (and binding)
        best = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            out = stage()
            best = min(best, time.perf_counter() - t0)
    return best, out, binding


def _bytes(out):
    forcing, q_tend = out
    return ([getattr(forcing, n).tobytes() for n in FIELDS]
            + [None if t is None else t.tobytes() for t in q_tend.values()])


def test_fused_kernels_speed_up_bit_identically(emit):
    case = _stage()
    loaded = native.kernels() is not None
    t_ref, out_ref, _ = _time_stage(None, *case)
    t_fused, out_fused, binding = _time_stage(native.library(), *case)
    assert _bytes(out_ref) == _bytes(out_fused), "stage not byte-identical"
    assert (binding.args is not None) == loaded, \
        "the stage did not take the compiled call"
    speedup = t_ref / t_fused
    rows = [["slow_stage", t_ref * 1e3, t_fused * 1e3, speedup]]

    # deterministic facts for the CI regression gate: a fixed shear-layer
    # run's dispatch counts never move unless the kernels or the executor
    # change.  The run holds the compiled bodies off, so the counts do not
    # depend on whether a compiler exists
    exp = Experiment(RunSpec(workload="shear-layer", steps=3,
                             nx=16, ny=16, nz=12,
                             stencil_backend="fused")).prepare()
    with native.using(None):
        exp.run()
    stats = exp.executor.stats()

    emit(format_table(
        ["body", "reference [ms]", "fused [ms]", "speedup"], rows,
        title=f"Stencil fusion — one RK stage at {NX}x{NY}x{NZ}, best of "
              f"{ROUNDS}; fixed-run stats: {exp.executor.report()}"))
    write_bench_json("stencil_fusion", {
        "tile": f"{NX}x{NY}x{NZ}",
        "kernels": {"slow_stage": {"wall_reference_ms": t_ref * 1e3,
                                   "wall_fused_ms": t_fused * 1e3,
                                   "wall_speedup": speedup}},
        "wall_speedup_total": speedup,
        "fixed_run": {
            "workload": "shear-layer 16x16x12 x3 steps",
            "dispatches": stats["dispatches"],
            "accelerated": stats["accelerated"],
            "fallbacks": stats["fallbacks"],
            "transports_skipped": stats["skipped"],
        },
    })

    assert not loaded or speedup >= MIN_SPEEDUP, (
        f"compiled stage speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x gate")
    assert stats["accelerated"] == 0 and stats["fallbacks"] > 0
    assert stats["allocations"] == stats["reuses"] == 0
