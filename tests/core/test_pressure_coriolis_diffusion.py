"""Tests for the EOS, Coriolis and diffusion kernels."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants as c
from repro.core.coriolis import coriolis_parameter, coriolis_tendencies
from repro.core.diffusion import (
    horizontal_laplacian_c,
    horizontal_laplacian_u,
    horizontal_laplacian_v,
)
from repro.core.pressure import (
    eos_pressure,
    exner,
    linearization_coefficient,
    temperature,
)


# ------------------------------------------------------------------ pressure
def test_eos_reference_point(small_grid):
    """rho theta = p0 / Rd gives exactly p = p0."""
    rhotheta = np.full(small_grid.shape_c, c.P0 / c.RD)
    p = eos_pressure(rhotheta, small_grid)
    np.testing.assert_allclose(p, c.P0, rtol=1e-12)


def test_eos_monotone(small_grid):
    r1 = np.full(small_grid.shape_c, 300.0)
    r2 = np.full(small_grid.shape_c, 330.0)
    assert np.all(eos_pressure(r2, small_grid) > eos_pressure(r1, small_grid))


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 9), ny=st.integers(1, 7), nz=st.integers(2, 6),
       terrain=st.booleans(), dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2 ** 16))
def test_eos_chain_is_the_textbook_expression(nx, ny, nz, terrain, dtype,
                                              seed):
    """The in-place EOS does the formula's five ufuncs in its order: the
    same bytes as the expression, a float32 ``rhotheta_hat`` (widened by
    the float64 Jacobian) and non-finite or non-positive cells included."""
    from repro.core.grid import make_grid

    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, nz, 100.0, 130.0, 500.0 * nz, terrain=(
        lambda x, y: 60.0 + 40.0 * np.sin(x / 700.0)) if terrain else None)
    rt = (np.abs(rng.normal(size=g.shape_c)) * 30.0 + 250.0).astype(dtype)
    rt.flat[rng.integers(0, rt.size, 3)] = rng.choice(
        [0.0, -0.0, -1.0, np.inf, np.nan], 3)
    with np.errstate(all="ignore"):
        got = eos_pressure(rt, g)
        want = c.P0 * (c.RD * (rt / g.jac[:, :, None]) / c.P0) ** (c.CP / c.CV)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(rt=st.floats(min_value=50.0, max_value=800.0))
def test_linearization_is_derivative(rt):
    """Cp_lin equals the numerical derivative dp/d(rho theta)."""
    from repro.core.grid import make_grid

    g = make_grid(4, 4, 2, 100.0, 100.0, 1000.0)
    base = np.full(g.shape_c, rt)
    eps = rt * 1e-6
    p0 = eos_pressure(base, g)
    p1 = eos_pressure(base + eps, g)
    cp = linearization_coefficient(p0, base)
    np.testing.assert_allclose(cp, (p1 - p0) / eps, rtol=1e-4)


def test_exner_and_temperature():
    p = np.array([c.P0, 5.0e4])
    pi = exner(p)
    assert pi[0] == pytest.approx(1.0)
    assert pi[1] < 1.0
    T = temperature(np.array([c.P0]), np.array([c.P0 / (c.RD * 300.0)]))
    assert T[0] == pytest.approx(300.0)


# ------------------------------------------------------------------ coriolis
def test_coriolis_parameter():
    assert coriolis_parameter(90.0) == pytest.approx(2 * c.OMEGA_EARTH)
    assert coriolis_parameter(0.0) == pytest.approx(0.0)
    assert coriolis_parameter(-30.0) < 0


def test_coriolis_zero_f(small_grid):
    du, dv = coriolis_tendencies(
        np.ones(small_grid.shape_u), np.ones(small_grid.shape_v), 0.0, small_grid
    )
    assert np.all(du == 0.0) and np.all(dv == 0.0)


def test_coriolis_uniform_wind(small_grid):
    """Uniform (rhou, rhov): du = +f rhov, dv = -f rhou on interior."""
    f = 1e-4
    rhou = np.full(small_grid.shape_u, 3.0)
    rhov = np.full(small_grid.shape_v, 7.0)
    du, dv = coriolis_tendencies(rhou, rhov, f, small_grid)
    sx, sy = small_grid.isl_u
    np.testing.assert_allclose(du[sx, sy], f * 7.0)
    sx, sy = small_grid.isl_v
    np.testing.assert_allclose(dv[sx, sy], -f * 3.0)


def test_coriolis_energy_neutral(small_grid):
    """The Coriolis force does no net work: sum(u du + v dv) ~ 0 for
    uniform fields (exact for the C-grid averaging on uniform input)."""
    f = 1e-4
    rhou = np.full(small_grid.shape_u, 3.0)
    rhov = np.full(small_grid.shape_v, 7.0)
    du, dv = coriolis_tendencies(rhou, rhov, f, small_grid)
    g = small_grid
    h = g.halo
    work = (rhou[h : h + g.nx, g.isl[1]] * du[h : h + g.nx, g.isl[1]]).sum() + (
        rhov[g.isl[0], h : h + g.ny] * dv[g.isl[0], h : h + g.ny]
    ).sum()
    assert abs(work) < 1e-10 * abs(f * 21.0 * g.n_interior_cells)


def test_coriolis_beta_plane(small_grid):
    """Row-dependent f is applied row-wise."""
    f_rows = np.linspace(1e-4, 2e-4, small_grid.nyh)
    rhov = np.ones(small_grid.shape_v)
    du, _ = coriolis_tendencies(np.zeros(small_grid.shape_u), rhov, f_rows, small_grid)
    h = small_grid.halo
    np.testing.assert_allclose(du[h + 1, h, 0], f_rows[h])
    assert du[h + 1, h + 3, 0] > du[h + 1, h, 0]


# ----------------------------------------------------------------- diffusion
def test_laplacian_of_linear_field_is_zero(small_grid):
    g = small_grid
    X = g.x_c()[:, None, None]
    Y = g.y_c()[None, :, None]
    phi = (2.0 * X + 3.0 * Y) * np.ones(g.shape_c)
    lap = horizontal_laplacian_c(phi, g)
    np.testing.assert_allclose(g.interior(lap), 0.0, atol=1e-12)


def test_laplacian_of_quadratic(small_grid):
    g = small_grid
    X = g.x_c()[:, None, None]
    phi = (X ** 2) * np.ones(g.shape_c)
    lap = horizontal_laplacian_c(phi, g)
    np.testing.assert_allclose(g.interior(lap), 2.0, rtol=1e-9)


def test_laplacian_staggered_shapes(small_grid):
    g = small_grid
    u = np.random.default_rng(0).normal(size=g.shape_u)
    v = np.random.default_rng(1).normal(size=g.shape_v)
    assert horizontal_laplacian_u(u, g).shape == g.shape_u
    assert horizontal_laplacian_v(v, g).shape == g.shape_v


def test_diffusion_damps_extrema(small_grid):
    """Explicit diffusion of a noisy field reduces its variance."""
    g = small_grid
    r = np.random.default_rng(2)
    phi = r.normal(size=g.shape_c)
    from repro.core.boundary import fill_halo_x, fill_halo_y

    var0 = g.interior(phi).var()
    for _ in range(10):
        fill_halo_x(phi, g, False)
        fill_halo_y(phi, g, False)
        lap = horizontal_laplacian_c(phi, g)
        sx, sy = g.isl
        phi[sx, sy] += 0.2 * g.dx ** 2 * lap[sx, sy] / 4.0
    assert g.interior(phi).var() < 0.5 * var0
