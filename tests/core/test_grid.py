"""Tests for the staggered terrain-following grid."""
import numpy as np
import pytest

from repro.core.grid import Grid, make_grid, bell_mountain


def test_shapes_flat(small_grid):
    g = small_grid
    nxh, nyh = g.nx + 2 * g.halo, g.ny + 2 * g.halo
    assert g.shape_c == (nxh, nyh, g.nz)
    assert g.shape_u == (nxh + 1, nyh, g.nz)
    assert g.shape_v == (nxh, nyh + 1, g.nz)
    assert g.shape_w == (nxh, nyh, g.nz + 1)
    assert g.zeros_c().shape == g.shape_c
    assert g.halo >= 3  # bit-equivalence of decomposed runs needs >= 3


def test_interior_slicing(small_grid):
    g = small_grid
    arr = g.zeros_c()
    assert g.interior(arr).shape == (g.nx, g.ny, g.nz)
    # interior view writes through
    g.interior(arr)[...] = 3.0
    assert arr[g.halo, g.halo, 0] == 3.0
    assert arr[0, 0, 0] == 0.0


def test_flat_grid_metrics(small_grid):
    g = small_grid
    assert g.is_flat()
    assert np.all(g.jac == 1.0)
    assert np.all(g.dzsdx_u == 0.0)
    assert np.all(g.dzsdy_v == 0.0)
    assert np.all(g.dzdx_at_u() == 0.0)


def test_vertical_structure(small_grid):
    g = small_grid
    assert g.z_f[0] == 0.0
    assert g.z_f[-1] == pytest.approx(g.ztop)
    assert np.allclose(np.diff(g.z_f), g.dz_c)
    assert np.all(g.dz_f > 0)
    # centers between faces
    assert np.all(g.z_c > g.z_f[:-1]) and np.all(g.z_c < g.z_f[1:])


def test_stretched_levels():
    zf = np.concatenate([[0.0], np.cumsum(np.linspace(100, 500, 8))])
    g = make_grid(6, 6, 8, 500.0, 500.0, ztop=float(zf[-1]), z_faces=zf)
    assert np.allclose(g.z_f, zf)
    assert np.all(np.diff(g.dz_c) > 0)


def test_terrain_grid_geometry(terrain_grid):
    g = terrain_grid
    assert not g.is_flat()
    assert np.all(g.jac > 0) and np.all(g.jac <= 1.0)
    # physical heights: surface at zs, top at ztop everywhere
    z3f = g.z3d_f()
    assert np.allclose(z3f[:, :, 0], g.zs)
    assert np.allclose(z3f[:, :, -1], g.ztop)
    # columns strictly increasing
    assert np.all(np.diff(z3f, axis=2) > 0)


def test_terrain_periodic_consistency(terrain_grid):
    g = terrain_grid
    h, nx = g.halo, g.nx
    # halo terrain equals the periodic image
    np.testing.assert_allclose(g.zs[:h], g.zs[nx : nx + h])
    np.testing.assert_allclose(g.zs[nx + h :], g.zs[h : 2 * h])


def test_bell_mountain_peak():
    terr = bell_mountain(height=500.0, half_width=2000.0, x0=0.0)
    X = np.array([[0.0, 2000.0]])
    Y = np.zeros_like(X)
    zs = terr(X, Y)
    assert zs[0, 0] == pytest.approx(500.0)
    assert zs[0, 1] == pytest.approx(250.0)  # half height at half_width


def test_validation_errors():
    with pytest.raises(ValueError):
        make_grid(4, 4, 1, 100.0, 100.0, 1000.0)  # nz too small
    with pytest.raises(ValueError):
        make_grid(4, 4, 4, 100.0, 100.0, 1000.0, halo=1)
    with pytest.raises(ValueError):
        make_grid(4, 4, 4, 100.0, 100.0, 1000.0,
                  terrain=lambda X, Y: np.full_like(X, 900.0))  # too tall
    with pytest.raises(ValueError):
        bad = np.linspace(100.0, 1000.0, 5)  # doesn't start at zero
        make_grid(4, 4, 4, 100.0, 100.0, 1000.0, z_faces=bad)


def test_coordinates(small_grid):
    g = small_grid
    xc = g.x_c()
    assert xc[g.halo] == pytest.approx(0.5 * g.dx)
    xu = g.x_u()
    assert xu[g.halo] == pytest.approx(0.0)
    assert xu[g.halo + g.nx] == pytest.approx(g.nx * g.dx)


def test_stretched_levels_helper():
    from repro.core.grid import stretched_levels

    zf = stretched_levels(10, 50.0, 1.2)
    assert zf.shape == (11,)
    assert zf[0] == 0.0
    dz = np.diff(zf)
    assert dz[0] == pytest.approx(50.0)
    np.testing.assert_allclose(dz[1:] / dz[:-1], 1.2)
    # usable by make_grid
    g = make_grid(6, 6, 10, 500.0, 500.0, float(zf[-1]), z_faces=zf)
    assert g.dz_c[0] == pytest.approx(50.0)
    with pytest.raises(ValueError):
        stretched_levels(0, 50.0, 1.2)
    with pytest.raises(ValueError):
        stretched_levels(5, 50.0, 0.9)
