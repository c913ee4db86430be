"""Tests of the FVM limited advection operators."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import advection as adv
from repro.core.boundary import fill_halo_x, fill_halo_y
from repro.core.grid import make_grid
from repro.core.limiter import koren


def _fill_c(arr, g):
    fill_halo_x(arr, g, staggered=False)
    fill_halo_y(arr, g, staggered=False)


def _fill_u(arr, g):
    fill_halo_x(arr, g, staggered=True)
    fill_halo_y(arr, g, staggered=False)


def _fill_v(arr, g):
    fill_halo_x(arr, g, staggered=False)
    fill_halo_y(arr, g, staggered=True)


@pytest.fixture
def g():
    return make_grid(nx=16, ny=12, nz=10, dx=500.0, dy=500.0, ztop=5000.0)


def _random_fluxes(g, seed=3, amp=1.0):
    r = np.random.default_rng(seed)
    fx = r.normal(scale=amp, size=g.shape_u)
    fy = r.normal(scale=amp, size=g.shape_v)
    fz = r.normal(scale=amp, size=g.shape_w)
    fz[:, :, 0] = 0.0
    fz[:, :, -1] = 0.0
    _fill_u(fx, g)
    _fill_v(fy, g)
    _fill_c(fz, g)
    return fx, fy, fz


def test_uniform_scalar_reduces_to_mass_divergence(g):
    """For uniform phi the limited flux is exactly phi0 * F, so the
    advection tendency equals -phi0 * div(F)."""
    phi0 = 3.7
    phi = np.full(g.shape_c, phi0)
    fx, fy, fz = _random_fluxes(g)
    tend = adv.advect_scalar(phi, fx, fy, fz, g)
    divm = adv.mass_divergence(fx, fy, fz, g)
    np.testing.assert_allclose(
        g.interior(tend), -phi0 * g.interior(divm), rtol=1e-12, atol=1e-12
    )


def test_scalar_conservation_periodic(g):
    """Total scalar content change is zero under periodic halos and
    zero-flux vertical boundaries (exact FVM telescoping)."""
    r = np.random.default_rng(7)
    phi = r.uniform(0.5, 2.0, size=g.shape_c)
    _fill_c(phi, g)
    fx, fy, fz = _random_fluxes(g, seed=11)
    tend = adv.advect_scalar(phi, fx, fy, fz, g)
    total = (g.interior(tend) * g.dz_c[None, None, :]).sum() * g.dx * g.dy
    scale = np.abs(g.interior(tend)).max() * g.dx * g.dy * g.dz_c.max()
    assert abs(total) < 1e-9 * max(scale, 1.0) * g.n_interior_cells


def test_1d_translation_upwind_direction(g):
    """A blob in uniform +x mass flux moves right: the tendency is
    positive downstream of the maximum and negative upstream."""
    phi = np.zeros(g.shape_c)
    h = g.halo
    ic = h + g.nx // 2
    phi[ic, :, :] = 1.0
    _fill_c(phi, g)
    fx = np.ones(g.shape_u)
    fy = np.zeros(g.shape_v)
    fz = np.zeros(g.shape_w)
    tend = adv.advect_scalar(phi, fx, fy, fz, g)
    assert np.all(tend[ic + 1, g.isl[1], :] > 0)       # gains downstream
    assert np.all(tend[ic, g.isl[1], :] < 0)           # peak cell loses


def _revolution_error(nx: int, sigma_cells: float, dt: float = 0.25):
    """Advect a Gaussian once around a periodic domain with forward Euler;
    return (rms error, final field, initial field, peak retention)."""
    g = make_grid(nx=nx, ny=4, nz=4, dx=1.0, dy=1.0, ztop=4.0)
    x = g.x_c()
    phi = 1.0 + np.exp(
        -0.5 * ((x[:, None, None] - nx / 2) / sigma_cells) ** 2
    ) * np.ones(g.shape_c)
    _fill_c(phi, g)
    fx = np.ones(g.shape_u)
    fy = np.zeros(g.shape_v)
    fz = np.zeros(g.shape_w)
    initial = phi.copy()
    for _ in range(int(round(nx / dt))):
        phi = phi + dt * adv.advect_scalar(phi, fx, fy, fz, g)
        _fill_c(phi, g)
    err = np.sqrt(np.mean((g.interior(phi) - g.interior(initial)) ** 2))
    return err, phi, initial


def test_solid_body_advection_converges():
    """One revolution of a Gaussian: the error decreases with resolution
    (fixed physical shape), the scheme is monotone, and the peak is well
    retained even at coarse resolution."""
    err48, phi48, init48 = _revolution_error(48, 4.0)
    err96, _, _ = _revolution_error(96, 8.0)
    err192, _, _ = _revolution_error(192, 16.0)
    assert err48 < 0.15
    assert err96 < 0.75 * err48
    assert err192 < 0.6 * err96
    # monotone: no new extrema
    assert phi48.max() <= init48.max() + 1e-10
    assert phi48.min() >= init48.min() - 1e-10
    # peak erosion is mild (the Koren limiter is sharp)
    assert phi48.max() >= 0.95 * init48.max()


def test_momentum_advection_uniform_velocity(g):
    """Uniform u advected by any flux field: tendency = -u0 * div(F_u),
    where F_u is the interpolated mass flux around u CVs.  We verify the
    weaker but exact statement for uniform fluxes: tendency is zero."""
    u = np.full(g.shape_u, 5.0)
    fx = np.full(g.shape_u, 2.0)
    fy = np.full(g.shape_v, -1.0)
    fz = np.zeros(g.shape_w)
    tend = adv.advect_u(u, fx, fy, fz, g)
    sx, sy = g.isl_u
    np.testing.assert_allclose(tend[sx, sy], 0.0, atol=1e-12)

    v = np.full(g.shape_v, -3.0)
    tendv = adv.advect_v(v, fx, fy, fz, g)
    sx, sy = g.isl_v
    np.testing.assert_allclose(tendv[sx, sy], 0.0, atol=1e-12)

    w = np.full(g.shape_w, 0.5)
    tendw = adv.advect_w(w, fx, fy, fz, g)
    sx, sy = g.isl
    # boundary faces are not prognosed; interior faces see uniform flux
    np.testing.assert_allclose(tendw[sx, sy, 1:-1], 0.0, atol=1e-12)


def test_momentum_conservation_u(g):
    """x-momentum advection conserves total momentum for periodic flows."""
    r = np.random.default_rng(5)
    u = r.normal(size=g.shape_u)
    _fill_u(u, g)
    fx, fy, fz = _random_fluxes(g, seed=13)
    tend = adv.advect_u(u, fx, fy, fz, g)
    sx, sy = g.isl_u
    h = g.halo
    # drop the duplicated seam face (face h+nx is the image of face h)
    interior = tend[h : h + g.nx, sy]
    total = (interior * g.dz_c[None, None, :]).sum()
    scale = np.abs(interior).max() * g.n_interior_cells * g.dz_c.max()
    assert abs(total) < 1e-9 * max(scale, 1.0)


def test_contravariant_flux_flat(g):
    """On a flat grid the contravariant flux is just rhow with zeroed
    boundary faces."""
    r = np.random.default_rng(2)
    rhou = r.normal(size=g.shape_u)
    rhov = r.normal(size=g.shape_v)
    rhow = r.normal(size=g.shape_w)
    fz = adv.contravariant_mass_flux_w(rhou, rhov, rhow, g)
    np.testing.assert_allclose(fz[:, :, 1:-1], rhow[:, :, 1:-1])
    assert np.all(fz[:, :, 0] == 0.0)
    assert np.all(fz[:, :, -1] == 0.0)


def test_contravariant_flux_terrain(terrain_grid):
    """With terrain and purely horizontal flow over a slope, the
    contravariant flux is negative on the lee slope (flow descends through
    coordinate surfaces) and positive upslope."""
    g = terrain_grid
    rhou = np.ones(g.shape_u)
    rhov = np.zeros(g.shape_v)
    rhow = np.zeros(g.shape_w)
    fz = adv.contravariant_mass_flux_w(rhou, rhov, rhow, g)
    # where the terrain slopes up (dzs/dx > 0), u^3 < 0 for pure-x flow:
    # fz = -rho u dz/dx
    slope_c = 0.5 * (g.dzsdx_u[1:] + g.dzsdx_u[:-1])
    up = slope_c > 1e-6
    dn = slope_c < -1e-6
    mid = g.nz // 2
    assert np.all(fz[:, :, mid][up] < 0)
    assert np.all(fz[:, :, mid][dn] > 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("terrain", [False, True])
def test_metric_flux_is_the_oracle_byte_for_byte(g, terrain_grid, terrain,
                                                 dtype):
    """The integrator's bound form (compiled where a library is loaded)
    against the textbook function: same bytes and dtype, signed zeros
    included, with ``rhow`` given and with the all-zero ``rhow`` it stands
    for when omitted."""
    grid = terrain_grid if terrain else g
    r = np.random.default_rng(4)
    rhou = r.normal(size=grid.shape_u).astype(dtype)
    rhov = r.normal(size=grid.shape_v).astype(dtype)
    rhow = r.normal(size=grid.shape_w).astype(dtype)
    rhou[2:4] = 0.0
    rhov[:, 3] = -0.0
    bound = adv.MetricFlux(grid)
    for _ in range(2):          # the second call reuses the temporaries
        for given_w, oracle_w in ((rhow, rhow), (None, np.zeros_like(rhow))):
            want = adv.contravariant_mass_flux_w(rhou, rhov, oracle_w, grid)
            got = bound(rhou, rhov, given_w)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_limited_face_flux_bounded(seed):
    """Face values stay within the local stencil bounds (monotonicity of
    the Koren-limited reconstruction)."""
    r = np.random.default_rng(seed)
    phi = r.uniform(-1, 1, size=32)
    flux = r.choice([-1.0, 1.0], size=31)
    ff = adv.limited_face_flux(phi, flux, axis=0, limiter=koren)
    # face m (m=1..28) value = ff / flux[m]
    vals = ff / flux[1:-1]
    lo = np.minimum.reduce([phi[:-3], phi[1:-2], phi[2:-1], phi[3:]])
    hi = np.maximum.reduce([phi[:-3], phi[1:-2], phi[2:-1], phi[3:]])
    assert np.all(vals >= lo - 1e-12)
    assert np.all(vals <= hi + 1e-12)
