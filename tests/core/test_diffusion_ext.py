"""Tests of the extended diffusion operators and their model wiring."""
import numpy as np
import pytest

from repro.core import (
    AsucaModel,
    DynamicsConfig,
    ModelConfig,
    make_grid,
    make_reference_state,
)
from repro.core.boundary import fill_table
from repro.core.diffusion import (
    hyperdiffusion_c,
    surface_drag_tendency,
    vertical_diffusion_c,
)
from repro.workloads.sounding import constant_stability_sounding


def _fill(arr, g):
    fill_table(g, ["rho"], [arr]).copy([arr])


def test_hyperdiffusion_kills_checkerboard(small_grid):
    """2-dx noise is damped much harder than a long wave (4th order is
    scale selective)."""
    g = small_grid
    x = np.arange(g.nxh)
    checker = ((-1.0) ** x)[:, None, None] * np.ones(g.shape_c)
    _fill(checker, g)
    wave = np.sin(2 * np.pi * g.x_c() / (g.nx * g.dx))[:, None, None] * np.ones(g.shape_c)
    _fill(wave, g)
    d_checker = hyperdiffusion_c(checker, g)
    d_wave = hyperdiffusion_c(wave, g)
    # tendency opposes the checkerboard
    assert np.all(g.interior(d_checker) * g.interior(checker) < 0)
    ratio = np.abs(g.interior(d_checker)).max() / max(
        np.abs(g.interior(d_wave)).max(), 1e-30
    )
    assert ratio > 50.0


def test_hyperdiffusion_constant_field_zero(small_grid):
    g = small_grid
    phi = np.full(g.shape_c, 5.0)
    np.testing.assert_allclose(g.interior(hyperdiffusion_c(phi, g)), 0.0)


def test_vertical_diffusion_conserves_column(small_grid):
    """Zero-flux boundaries: the column integral of rho*phi ... here the
    operator acts on a specific quantity with dz weights, so the
    dz-weighted column sum of the tendency vanishes."""
    g = small_grid
    r = np.random.default_rng(0)
    phi = r.normal(size=g.shape_c)
    tend = vertical_diffusion_c(phi, g, kv=10.0)
    colsum = (tend * g.dz_c[None, None, :]).sum(axis=2)
    np.testing.assert_allclose(colsum, 0.0, atol=1e-12)


def test_vertical_diffusion_smooths(small_grid):
    g = small_grid
    phi = np.zeros(g.shape_c)
    phi[:, :, 3] = 1.0
    tend = vertical_diffusion_c(phi, g, kv=5.0)
    assert np.all(tend[:, :, 3] < 0)       # spike decays
    assert np.all(tend[:, :, 2] > 0)       # neighbors gain
    assert np.all(tend[:, :, 4] > 0)


def test_vertical_diffusion_profile_coefficient(small_grid):
    g = small_grid
    phi = np.random.default_rng(1).normal(size=g.shape_c)
    kv = np.zeros(g.nz + 1)  # all faces off -> no tendency
    np.testing.assert_allclose(vertical_diffusion_c(phi, g, kv), 0.0)


def test_surface_drag_direction(small_grid):
    g = small_grid
    rhou = np.full(g.shape_u, 10.0)
    rhov = np.full(g.shape_v, -5.0)
    du, dv = surface_drag_tendency(rhou, rhov, g, cd=1e-3)
    assert np.all(du[1:-1, :, 0] < 0)      # opposes +u
    assert np.all(dv[:, 1:-1, 0] > 0)      # opposes -v
    assert np.all(du[:, :, 1:] == 0.0)     # surface level only


def test_surface_drag_off():
    from repro.core.grid import make_grid as mg

    g = mg(6, 6, 4, 500.0, 500.0, 2000.0)
    du, dv = surface_drag_tendency(np.ones(g.shape_u), np.ones(g.shape_v), g, 0.0)
    assert np.all(du == 0.0) and np.all(dv == 0.0)


def test_drag_decelerates_model_wind():
    g = make_grid(12, 8, 8, 2000.0, 2000.0, 8000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    m = AsucaModel(g, ref, ModelConfig(dynamics=DynamicsConfig(
        dt=4.0, ns=4, drag_cd=5e-3)))
    st = m.initial_state(u0=10.0)
    for _ in range(10):
        st = m.step(st)
    u, _, _ = st.velocities()
    assert float(u[g.isl_u][:, :, 0].mean()) < 10.0     # slowed at surface
    assert float(u[g.isl_u][:, :, -1].mean()) == pytest.approx(10.0, abs=0.2)


def test_hyperdiffusion_in_model_damps_noise():
    g = make_grid(16, 8, 8, 2000.0, 2000.0, 8000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    noisy_cfg = ModelConfig(dynamics=DynamicsConfig(dt=4.0, ns=4))
    filt_cfg = ModelConfig(dynamics=DynamicsConfig(dt=4.0, ns=4,
                                                   kdiff4_h=2.0e9))
    results = {}
    for label, cfg in (("plain", noisy_cfg), ("filtered", filt_cfg)):
        m = AsucaModel(g, ref, cfg)
        st = m.initial_state()
        r = np.random.default_rng(3)
        st.rhotheta += st.rho * 0.5 * r.normal(size=g.shape_c)
        m._exchange(st, None)
        for _ in range(5):
            st = m.step(st)
        pert = g.interior(st.rhotheta / st.rho)
        results[label] = float((pert - pert.mean()).var())
    assert results["filtered"] < results["plain"]
