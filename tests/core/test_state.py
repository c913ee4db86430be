"""Tests of the prognostic state container."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants as c
from repro.core.grid import make_grid
from repro.core.reference import make_reference_state
from repro.core.state import State, state_from_reference, zeros_state
from repro.workloads.sounding import constant_stability_sounding


def test_zeros_state_shapes(small_grid):
    st = zeros_state(small_grid)
    assert st.rho.shape == small_grid.shape_c
    assert st.rhou.shape == small_grid.shape_u
    assert st.rhov.shape == small_grid.shape_v
    assert st.rhow.shape == small_grid.shape_w
    assert set(st.q) == set(c.WATER_SPECIES)
    assert st.time == 0.0


def test_copy_is_deep(small_state):
    cp = small_state.copy()
    cp.rho += 1.0
    cp.q["qv"] += 1.0
    assert not np.shares_memory(cp.rho, small_state.rho)
    assert np.all(small_state.q["qv"] == 0.0)
    # precip accumulator copies too
    small_state.precip_accum = np.ones((small_state.grid.nx, small_state.grid.ny))
    cp2 = small_state.copy()
    cp2.precip_accum += 1.0
    assert np.all(small_state.precip_accum == 1.0)


def test_get_set_roundtrip(small_state):
    """``set`` writes into the field's view of the block: ``get`` returns
    the same view, now holding the values, never the array passed."""
    for name, value in (("qc", 3.0), ("rhou", 2.0)):
        view = small_state.get(name)
        arr = np.full_like(view, value)
        small_state.set(name, arr)
        assert small_state.get(name) is view and view is not arr
        assert np.shares_memory(view, small_state.block)
        np.testing.assert_array_equal(view, value)


def test_prognostic_names(small_state):
    names = small_state.prognostic_names()
    assert names[:5] == ["rho", "rhou", "rhov", "rhow", "rhotheta"]
    assert "qv" in names and "qh" in names


def test_velocities_uniform(small_state):
    u, v, w = small_state.velocities()
    g = small_state.grid
    np.testing.assert_allclose(u[g.isl_u], 10.0, rtol=1e-12)
    np.testing.assert_allclose(v[g.isl_v], 0.0, atol=1e-15)
    np.testing.assert_allclose(w[g.isl], 0.0, atol=1e-15)


def test_theta_and_pressure_of_reference(small_grid):
    ref = make_reference_state(small_grid, constant_stability_sounding())
    st = state_from_reference(small_grid, ref)
    np.testing.assert_allclose(st.theta_m(), ref.theta_c, rtol=1e-12)
    np.testing.assert_allclose(st.pressure(), ref.p_c, rtol=1e-10)


def test_total_mass_matches_analytic(small_grid):
    """A uniform G-weighted density integrates to rho0 * dx * dy * ztop
    per column (flat grid)."""
    st = zeros_state(small_grid)
    st.rho[...] = 1.2
    expected = 1.2 * small_grid.nx * small_grid.ny * small_grid.dx \
        * small_grid.dy * small_grid.ztop
    assert st.total_mass() == pytest.approx(expected)


def test_total_water_mass(small_state):
    g = small_state.grid
    small_state.q["qv"][...] = 1.0
    small_state.q["qr"][...] = 0.5
    expected = 1.5 * g.nx * g.ny * g.dx * g.dy * g.ztop
    assert small_state.total_water_mass() == pytest.approx(expected)


def test_mixing_ratio(small_state):
    small_state.q["qv"][...] = 0.01 * small_state.rho
    np.testing.assert_allclose(small_state.mixing_ratio("qv"), 0.01)


def test_validate_catches_bad_values(small_state):
    small_state.validate()  # fine as-is
    g = small_state.grid
    bad = small_state.copy()
    bad.rho[g.halo + 1, g.halo + 1, 0] = -1.0
    with pytest.raises(FloatingPointError, match="density"):
        bad.validate()
    bad2 = small_state.copy()
    bad2.q["qv"][g.halo, g.halo, 0] = np.inf
    with pytest.raises(FloatingPointError, match="qv"):
        bad2.validate()
    # garbage in the halo is allowed (it is refreshed before use)
    ok = small_state.copy()
    ok.rhotheta[0, 0, 0] = np.nan
    ok.validate()


@settings(max_examples=15, deadline=None)
@given(u0=st.floats(-50, 50), v0=st.floats(-50, 50))
def test_state_from_reference_wind(u0, v0):
    g = make_grid(6, 6, 4, 1000.0, 1000.0, 4000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    s = state_from_reference(g, ref, u0=u0, v0=v0)
    u, v, w = s.velocities()
    np.testing.assert_allclose(u[g.isl_u], u0, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(v[g.isl_v], v0, rtol=1e-10, atol=1e-12)
