"""Tests for halo fills, kinematic BC, sponge and relaxation boundaries."""
import numpy as np
import pytest

from repro.core.boundary import (
    RelaxationBC,
    apply_kinematic_surface,
    fill_halo_x,
    fill_halo_y,
    fill_halos_state,
    rayleigh_coefficient,
)
from repro.core.grid import make_grid, bell_mountain
from repro.core.reference import make_reference_state
from repro.core.state import state_from_reference
from repro.workloads.sounding import constant_stability_sounding


def test_periodic_fill_centered(small_grid):
    g = small_grid
    r = np.random.default_rng(0)
    arr = r.normal(size=g.shape_c)
    fill_halo_x(arr, g, staggered=False)
    h, nx = g.halo, g.nx
    np.testing.assert_array_equal(arr[:h], arr[nx : nx + h])
    np.testing.assert_array_equal(arr[nx + h :], arr[h : 2 * h])


def test_periodic_fill_staggered_seam(small_grid):
    g = small_grid
    r = np.random.default_rng(1)
    arr = r.normal(size=g.shape_u)
    fill_halo_x(arr, g, staggered=True)
    h, nx = g.halo, g.nx
    # the two images of the seam face agree exactly
    np.testing.assert_array_equal(arr[h + nx], arr[h])
    np.testing.assert_array_equal(arr[:h], arr[nx : nx + h])
    np.testing.assert_array_equal(arr[h + nx + 1 :], arr[h + 1 : 2 * h + 1])


def test_open_fill_zero_gradient():
    g = make_grid(8, 8, 4, 100.0, 100.0, 4000.0, periodic_x=False, periodic_y=True)
    arr = np.arange(np.prod(g.shape_c), dtype=float).reshape(g.shape_c)
    fill_halo_x(arr, g, staggered=False)
    h = g.halo
    np.testing.assert_array_equal(arr[0], arr[h])
    np.testing.assert_array_equal(arr[-1], arr[h + g.nx - 1])


def test_fill_halos_state_all(small_state):
    st = small_state
    st.rho[: st.grid.halo] = -999.0
    fill_halos_state(st)
    assert not np.any(st.rho == -999.0)


def test_kinematic_surface_flat(small_state):
    apply_kinematic_surface(small_state)
    assert np.all(small_state.rhow[:, :, 0] == 0.0)
    assert np.all(small_state.rhow[:, :, -1] == 0.0)


def test_kinematic_surface_terrain(terrain_grid):
    ref = make_reference_state(terrain_grid, constant_stability_sounding())
    st = state_from_reference(terrain_grid, ref, u0=10.0)
    apply_kinematic_surface(st)
    # on the windward slope air must move up along the terrain: w > 0
    g = terrain_grid
    slope_c = 0.5 * (g.dzsdx_u[1:] + g.dzsdx_u[:-1])
    up = slope_c > 1e-5
    assert np.all(st.rhow[:, :, 0][up] > 0)
    assert np.all(st.rhow[:, :, -1] == 0.0)


def test_rayleigh_profile(small_grid):
    coef_c, coef_f = rayleigh_coefficient(small_grid, depth=3000.0, tau=60.0)
    assert coef_c.shape == (small_grid.nz,)
    assert coef_f.shape == (small_grid.nz + 1,)
    assert np.all(coef_c[small_grid.z_c < small_grid.ztop - 3000.0] == 0.0)
    assert coef_f[-1] == pytest.approx(1.0 / 60.0)
    assert np.all(np.diff(coef_f) >= 0)


def test_rayleigh_disabled(small_grid):
    coef_c, coef_f = rayleigh_coefficient(small_grid, depth=0.0, tau=60.0)
    assert np.all(coef_c == 0.0) and np.all(coef_f == 0.0)


class TestRelaxationBC:
    def _grid(self):
        return make_grid(16, 12, 4, 500.0, 500.0, 4000.0,
                         periodic_x=False, periodic_y=False)

    def test_nudges_toward_target(self):
        g = self._grid()
        bc = RelaxationBC(g, width=4, tau=10.0)
        ref = make_reference_state(g, constant_stability_sounding())
        st = state_from_reference(g, ref)
        target = st.rho + 0.01
        bc.set_target("rho", target)
        before = st.rho.copy()
        bc.apply(st, dt=10.0)
        h = g.halo
        # edge cells moved toward the target...
        assert st.rho[h, h, 0] > before[h, h, 0]
        # ...interior cells (outside the band) untouched
        assert st.rho[h + 8, h + 6, 0] == before[h + 8, h + 6, 0]
        # never overshoots
        assert np.all(st.rho <= target + 1e-15)

    def test_long_relaxation_converges(self):
        g = self._grid()
        bc = RelaxationBC(g, width=4, tau=1.0)
        arr_grid = make_reference_state(g, constant_stability_sounding())
        st = state_from_reference(g, arr_grid)
        target = st.rho * 1.02
        bc.set_target("rho", target)
        for _ in range(200):
            bc.apply(st, dt=5.0)
        h = g.halo
        # the outermost interior cell is fully relaxed
        np.testing.assert_allclose(st.rho[h, h, :], target[h, h, :], rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RelaxationBC(self._grid(), width=0)

    def test_staggered_targets(self):
        g = self._grid()
        bc = RelaxationBC(g, width=3, tau=5.0)
        ref = make_reference_state(g, constant_stability_sounding())
        st = state_from_reference(g, ref, u0=5.0)
        bc.set_target("rhou", np.zeros(g.shape_u))
        before = st.rhou.copy()
        bc.apply(st, dt=5.0)
        h = g.halo
        assert abs(st.rhou[h, h, 0]) < abs(before[h, h, 0])

    def test_rank_view_shares_targets_set_later(self):
        """A view at a subdomain's origin relaxes the rank-local arrays
        exactly as the global object relaxes that window — including for
        a target installed on the global object *after* the view was
        made (the real case updates its boundary data hourly)."""
        from repro.dist.multigpu import MultiGpuAsuca

        g = self._grid()
        ref = make_reference_state(g, constant_stability_sounding())
        bc = RelaxationBC(g, width=4, tau=10.0)
        machine = MultiGpuAsuca(g, ref, 2, 2, relaxation=bc)
        glob = state_from_reference(g, ref, u0=5.0)
        bc.set_target("rho", glob.rho * 1.01)       # after the views
        bc.set_target("rhou", np.zeros(g.shape_u))  # a staggered one
        before = machine.scatter_state(glob)
        locals_ = machine.scatter_state(glob)
        bc.apply(glob, dt=5.0)
        for rank, sub, st in zip(machine.ranks, machine.subs, locals_):
            view = rank.relaxation
            assert view is not bc and view.targets is bc.targets
            assert view.origin == (sub.x0, sub.y0)
            view.apply(st, dt=5.0)
        for st, st0, want in zip(locals_, before, machine.scatter_state(glob)):
            for name in ("rho", "rhou"):    # halo cells included
                np.testing.assert_array_equal(st.get(name), want.get(name))
                assert not np.array_equal(st.get(name), st0.get(name))
