"""Design-choice ablation — the Koren limiter (paper Sec. II) against
alternatives, on a solid-body advection quality metric.

ASUCA chose Koren (1993) "for monotonicity to avoid numerical
oscillations" while retaining 3rd-order accuracy in smooth flow.  The
benchmark advects a Gaussian once around a periodic domain with each
limiter and reports RMS error, peak retention, and overshoot — Koren
should beat minmod on accuracy while, unlike the unlimited scheme,
producing no new extrema.
"""
import numpy as np
import pytest

from repro.core import advection as adv
from repro.core.boundary import fill_table
from repro.core.grid import make_grid
from repro.core.limiter import LIMITERS
from repro.perf.report import format_table

NAMES = ["koren", "minmod", "van_leer", "superbee", "unlimited_k13", "upwind1"]


def _one_revolution(limiter_name: str):
    """Advect with the model's own time integrator class (SSP-RK3), so the
    comparison reflects the limiters, not Euler phase errors."""
    g = make_grid(nx=64, ny=4, nz=4, dx=1.0, dy=1.0, ztop=4.0)
    x = g.x_c()
    phi = 1.0 + np.exp(-0.5 * ((x[:, None, None] - 32.0) / 5.0) ** 2) * np.ones(g.shape_c)

    def fill(arr):
        fill_table(g, ["rho"], [arr]).copy([arr])

    fill(phi)
    fx = np.ones(g.shape_u)
    fy = np.zeros(g.shape_v)
    fz = np.zeros(g.shape_w)
    lim = LIMITERS[limiter_name]
    initial = phi.copy()
    dt = 0.5

    def rhs(p):
        return adv.advect_scalar(p, fx, fy, fz, g, lim)

    for _ in range(int(64 / dt)):
        p1 = phi + dt * rhs(phi)
        fill(p1)
        p2 = 0.75 * phi + 0.25 * (p1 + dt * rhs(p1))
        fill(p2)
        phi = phi / 3.0 + (2.0 / 3.0) * (p2 + dt * rhs(p2))
        fill(phi)
    err = float(np.sqrt(np.mean((g.interior(phi) - g.interior(initial)) ** 2)))
    peak = float(phi.max() - 1.0) / float(initial.max() - 1.0)
    overshoot = max(float(phi.max() - initial.max()),
                    float(initial.min() - phi.min()), 0.0)
    return err, peak, overshoot


def test_limiter_ablation(benchmark, emit):
    results = benchmark.pedantic(
        lambda: {n: _one_revolution(n) for n in NAMES}, rounds=1, iterations=1
    )
    table = format_table(
        ["limiter", "RMS error", "peak retention", "overshoot"],
        [[n, *results[n]] for n in NAMES],
        title="Limiter ablation — one revolution of a Gaussian (CFL 0.25)",
    )
    emit(table)

    err = {n: results[n][0] for n in NAMES}
    overshoot = {n: results[n][2] for n in NAMES}
    # Koren: monotone AND more accurate than the robust-but-diffusive ones
    assert overshoot["koren"] < 1e-10
    assert err["koren"] < err["minmod"]
    assert err["koren"] < err["van_leer"]
    assert err["koren"] < err["upwind1"]
    # the unlimited scheme oscillates (the reason ASUCA limits at all)
    assert overshoot["unlimited_k13"] > 1e-4
    assert overshoot["minmod"] < 1e-10 and overshoot["superbee"] < 1e-10
    # 1st-order upwind is by far the most diffusive
    assert results["upwind1"][1] < results["koren"][1]
