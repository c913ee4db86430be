"""Integration tests of the full dycore driver (AsucaModel)."""
import numpy as np
import pytest

from repro.core import (
    AsucaModel,
    DynamicsConfig,
    ModelConfig,
    bell_mountain,
    make_grid,
    make_reference_state,
)
from repro.workloads.sounding import (
    constant_stability_sounding,
    isentropic_sounding,
    tropospheric_sounding,
)


def _model(nx=16, ny=8, nz=12, dx=2000.0, ztop=12000.0, terrain=None,
           sounding=None, **dyn_kwargs):
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=dx, dy=dx, ztop=ztop, terrain=terrain)
    ref = make_reference_state(g, sounding or constant_stability_sounding())
    cfg = ModelConfig(dynamics=DynamicsConfig(dt=4.0, ns=6, **dyn_kwargs))
    return AsucaModel(g, ref, cfg)


def test_balanced_state_is_stationary():
    """A hydrostatically balanced resting/uniform-wind atmosphere must not
    move: the discrete reference subtraction makes this exact."""
    m = _model()
    st = m.initial_state(u0=10.0)
    d0 = m.diagnostics(st)
    for _ in range(5):
        st = m.step(st)
    d = m.diagnostics(st)
    assert d.max_w == 0.0
    assert d.max_wind == pytest.approx(d0.max_wind)
    assert d.total_mass == pytest.approx(d0.total_mass, rel=1e-14)
    assert d.min_theta == pytest.approx(d0.min_theta)


def test_mass_conservation_with_motion():
    """Mass is conserved to the round-off of the update arithmetic even
    with an active mountain wave.  The scheme is exactly conservative in
    exact arithmetic; in floats each cell update rounds at eps*rho, so the
    total drifts as a random walk of ~1e-10 relative per step — we assert
    an order of magnitude above that, far below any physical leak."""
    terr = bell_mountain(height=300.0, half_width=4000.0, x0=16000.0)
    m = _model(terrain=terr, rayleigh_depth=4000.0, rayleigh_tau=30.0)
    st = m.initial_state(u0=10.0)
    m0 = st.total_mass()
    for _ in range(10):
        st = m.step(st)
    assert st.total_mass() == pytest.approx(m0, rel=1e-8)
    assert m.diagnostics(st).max_w > 1e-3  # the wave actually developed


def test_mountain_wave_stability_and_amplitude():
    """60 steps over a 300 m bell mountain: stable, w bounded and of the
    right linear-theory magnitude (~U h/a)."""
    terr = bell_mountain(height=300.0, half_width=4000.0, x0=32000.0)
    m = _model(nx=32, rayleigh_depth=4000.0, rayleigh_tau=30.0, terrain=terr,
               nz=16, ztop=16000.0)
    st = m.initial_state(u0=10.0)
    for _ in range(60):
        st = m.step(st)
    d = m.diagnostics(st)
    expected = 10.0 * 300.0 / 4000.0  # U h / a = 0.75 m/s
    assert 0.05 * expected < d.max_w < 4.0 * expected
    assert d.max_wind < 20.0  # no runaway


def test_buoyant_bubble_rises():
    """A warm bubble produces positive w at its location within minutes."""
    m = _model(nx=20, ny=20, nz=16, dx=1000.0, ztop=8000.0,
               sounding=tropospheric_sounding())
    st = m.initial_state()
    g = m.grid
    X, Y = np.meshgrid(g.x_c(), g.y_c(), indexing="ij")
    z3 = g.z3d_c()
    r2 = (
        ((X[:, :, None] - 10000.0) / 2000.0) ** 2
        + ((Y[:, :, None] - 10000.0) / 2000.0) ** 2
        + ((z3 - 1500.0) / 1200.0) ** 2
    )
    st.rhotheta += st.rho * 2.0 * np.maximum(0.0, 1.0 - np.sqrt(r2))
    m._exchange(st, None)
    for _ in range(20):
        st = m.step(st)
    u, v, w = st.velocities()
    h = g.halo
    center_w = w[h + 10, h + 10, :]
    assert center_w.max() > 0.3  # rising core
    assert m.diagnostics(st).max_w < 20.0


def test_cold_bubble_sinks():
    m = _model(nx=20, ny=8, nz=16, dx=1000.0, ztop=8000.0)
    st = m.initial_state()
    g = m.grid
    z3 = g.z3d_c()
    X = g.x_c()[:, None, None]
    blob = np.exp(-(((X - 10000.0) / 2000.0) ** 2) - ((z3 - 3000.0) / 1000.0) ** 2)
    st.rhotheta -= st.rho * 2.0 * blob
    m._exchange(st, None)
    for _ in range(15):
        st = m.step(st)
    _, _, w = st.velocities()
    assert w.min() < -0.3  # sinking core
    assert w.min() > -30.0


def test_uniform_theta_stays_uniform():
    """The acoustic/slow splitting of the theta equation is consistent
    with continuity: a uniform-theta atmosphere keeps theta uniform to
    round-off even while sound/gravity modes are active."""
    m = _model(sounding=isentropic_sounding(300.0))
    st = m.initial_state(u0=5.0)
    # kick it with a pressure (density) perturbation
    g = m.grid
    X = g.x_c()[:, None, None]
    st.rho *= 1.0 + 0.001 * np.exp(-(((X - 16000.0) / 3000.0) ** 2))
    st.rhotheta = st.rho * 300.0
    m._exchange(st, None)
    for _ in range(5):
        st = m.step(st)
    theta = st.rhotheta / st.rho
    np.testing.assert_allclose(g.interior(theta), 300.0, rtol=1e-10)


def test_acoustic_pulse_propagates():
    """A localized pressure perturbation spreads: the pressure extremum at
    the source column decays while the far field is perturbed."""
    m = _model(nx=32, ny=6, nz=10, dx=1000.0, ztop=10000.0)
    st = m.initial_state()
    g = m.grid
    h = g.halo
    X = g.x_c()[:, None, None]
    st.rhotheta *= 1.0 + 2e-4 * np.exp(-(((X - 16000.0) / 1500.0) ** 2))
    m._exchange(st, None)
    pp0 = np.abs(m.pressure_perturbation(st)[h + 16, h + 3, :]).max()
    far0 = np.abs(m.pressure_perturbation(st)[h + 28, h + 3, :]).max()
    # ~340 m/s: 12 km in ~35 s => 9 steps of 4 s
    for _ in range(9):
        st = m.step(st)
    pp1 = np.abs(m.pressure_perturbation(st)[h + 16, h + 3, :]).max()
    far1 = np.abs(m.pressure_perturbation(st)[h + 28, h + 3, :]).max()
    assert pp1 < 0.8 * pp0        # source decays
    assert far1 > 10.0 * max(far0, 1e-30)  # far field reached


def test_float32_runs_stably():
    m = _model()
    st = m.initial_state(u0=10.0, dtype=np.float32)
    g = m.grid
    X = g.x_c()[:, None, None].astype(np.float32)
    st.rhotheta += (st.rho * 0.5 * np.exp(-(((X - 16000.0) / 3000.0) ** 2))).astype(np.float32)
    m._exchange(st, None)
    for _ in range(10):
        st = m.step(st)
    assert st.rho.dtype == np.float32
    d = m.diagnostics(st)
    assert np.isfinite(d.max_w) and d.max_w < 10.0


def test_check_finite_catches_blowup():
    m = _model()
    st = m.initial_state()
    st.rhotheta[m.grid.halo + 2, m.grid.halo + 2, 3] = np.nan
    with pytest.raises(FloatingPointError):
        m.step(st)


def test_planted_nan_is_one_typed_blowup_under_every_body():
    """The compiled bodies raise no floating-point warnings, so
    ``State.validate()`` is the tripwire: a NaN planted mid-run is the
    same :class:`NumericalBlowup` — field, long step, model time — under
    the compiled bodies, the oracles without a library and the
    ``reference`` backend (every oracle with a library loaded)."""
    import contextlib

    from repro.api import Experiment, RunSpec
    from repro.core.state import NumericalBlowup
    from repro.stencil import native

    seen = {}
    for mode in ("compiled", "no library", "reference"):
        spec = RunSpec("warm-bubble", nx=12, ny=12, nz=8, steps=5,
                       stencil_backend="reference" if mode == "reference"
                       else "auto")
        bodies = (native.using(None) if mode == "no library"
                  else contextlib.nullcontext())
        with bodies, np.errstate(all="ignore"):
            exp = Experiment(spec).prepare()
            exp.advance(2)
            t2 = exp.state.time
            exp.state.rhotheta[6, 6, 3] = np.nan
            with pytest.raises(NumericalBlowup) as err:
                exp.advance(1)
        assert isinstance(err.value, FloatingPointError)
        assert exp.step_index == 2              # the third step never landed
        seen[mode] = (err.value.field, err.value.step, err.value.time,
                      str(err.value))
    assert len(set(seen.values())) == 1, seen
    field, step, time, text = seen["compiled"]
    assert step == 3 and time == pytest.approx(1.5 * t2)
    assert repr(field) in text and "long step 3" in text


def test_run_with_callback():
    m = _model()
    st = m.initial_state()
    seen = []
    m.run(st, 3, callback=lambda i, s: seen.append((i, s.time)))
    assert [i for i, _ in seen] == [0, 1, 2]
    assert seen[-1][1] == pytest.approx(3 * m.config.dynamics.dt)


def test_coriolis_turns_the_wind():
    """Pure inertial oscillation: with f > 0 an initial +x wind rotates
    toward -y (Northern hemisphere)."""
    m = _model(coriolis_f=1e-4)
    st = m.initial_state(u0=10.0)
    for _ in range(10):
        st = m.step(st)
    u, v, w = st.velocities()
    g = m.grid
    v_mean = float(v[g.isl_v].mean())
    assert v_mean < -0.02  # f u dt * 10 steps ~ -0.4 m/s
    u_mean = float(u[g.isl_u].mean())
    assert u_mean < 10.0
    # speed approximately conserved
    assert np.hypot(u_mean, v_mean) == pytest.approx(10.0, rel=0.02)
