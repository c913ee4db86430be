"""THE multi-GPU correctness test: a domain-decomposed run reproduces the
single-domain run bit for bit (the distributed analogue of the paper's
"numerical results ... agree with those from the CPU code within the
margin of machine round-off error" — here the margin is exactly zero).
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from repro.core import (
    AsucaModel,
    DynamicsConfig,
    ModelConfig,
    bell_mountain,
    make_grid,
    make_reference_state,
)
from repro.core.boundary import RelaxationBC
from repro.core.pressure import eos_pressure, exner
from repro.dist.multigpu import MultiGpuAsuca
from repro.physics.saturation import saturation_mixing_ratio
from repro.physics.surface import SurfaceConfig
from repro.workloads.sounding import constant_stability_sounding, tropospheric_sounding

#: every surface term on, with a day short enough that the diurnal flux
#: is far from zero within a few steps
SURFACE = SurfaceConfig(heat_flux=500.0, diurnal=True, day_length=240.0,
                        radiation_tau=600.0)
surface_cases = pytest.mark.parametrize(
    "surface", [SurfaceConfig(), SURFACE], ids=["plain", "surface"])


def _setup(terrain=None, sounding=None, physics=False, nx=16, ny=12, nz=8,
           surface=None, ice=False, periodic=True, **dynamics):
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=2000.0, dy=2000.0, ztop=12000.0,
                  terrain=terrain, periodic_x=periodic, periodic_y=periodic)
    ref = make_reference_state(g, sounding or constant_stability_sounding())
    cfg = ModelConfig(
        dynamics=DynamicsConfig(dt=4.0, ns=4, rayleigh_depth=4000.0,
                                rayleigh_tau=30.0, **dynamics),
        physics_enabled=physics, ice_enabled=ice,
        surface=surface or SurfaceConfig(),
    )
    return g, ref, cfg


def _perturbed_initial(model):
    st = model.initial_state(u0=10.0)
    g = model.grid
    X = g.x_c()[:, None, None]
    Y = g.y_c()[None, :, None]
    st.rhotheta += st.rho * 1.5 * np.exp(
        -(((X - 16000.0) / 4000.0) ** 2) - (((Y - 12000.0) / 4000.0) ** 2)
    )
    model._exchange(st, None)
    return st


def _moisten(model, st):
    """Supersaturate the lower levels so the Kessler path definitely fires."""
    p = eos_pressure(st.rhotheta, model.grid)
    T = (st.rhotheta / st.rho) * exner(p)
    qvs = saturation_mixing_ratio(p, T)
    st.q["qv"][...] = 0.9 * qvs * st.rho
    st.q["qv"][:, :, :3] = 1.1 * qvs[:, :, :3] * st.rho[:, :, :3]
    model._exchange(st, None)


def _run_both(single, machine, st, steps=3):
    """Step the single-domain model and the decomposed machine side by
    side and assert the gathered interiors are bitwise the single ones."""
    driver = machine.driver()
    rank_states = driver.scatter(st)
    for i in range(steps):
        st = single.step(st)
        rank_states = driver.step(rank_states, i)
    gathered = machine.gather_state(rank_states)
    g = single.grid
    h = g.halo
    for name in st.prognostic_names():
        np.testing.assert_array_equal(
            st.get(name)[h : h + g.nx, h : h + g.ny],
            gathered.get(name)[h : h + g.nx, h : h + g.ny],
            err_msg=f"{name} differs for {machine.px}x{machine.py}",
        )
    return st, rank_states, gathered


@surface_cases
@pytest.mark.parametrize("px,py", [(2, 2), (1, 2), (3, 1), (2, 3)])
def test_bitwise_equivalence_flat(px, py, surface):
    g, ref, cfg = _setup(surface=surface)
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)
    first, _, _ = _run_both(single, MultiGpuAsuca(g, ref, px, py, cfg), st)
    if surface is SURFACE:  # the forcing is live, not compared as a no-op
        plain = AsucaModel(g, ref, _setup()[2])
        for _ in range(3):
            st = plain.step(st)
        assert not np.array_equal(first.rhotheta, st.rhotheta)


def test_bitwise_equivalence_terrain():
    terr = bell_mountain(height=300.0, half_width=4000.0, x0=16000.0)
    g, ref, cfg = _setup(terrain=terr)
    single = AsucaModel(g, ref, cfg)
    machine = MultiGpuAsuca(g, ref, 2, 2, cfg)
    _, rank_states, _ = _run_both(single, machine,
                                  single.initial_state(u0=10.0))
    # and the wave is actually active (the test is not comparing zeros)
    assert max(float(np.abs(rs.grid.interior(rs.velocities()[2])).max())
               for rs in rank_states) > 1e-4


@surface_cases
def test_bitwise_equivalence_with_physics(surface):
    g, ref, cfg = _setup(sounding=tropospheric_sounding(), physics=True,
                         surface=surface)
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)
    _moisten(single, st)
    _, _, gathered = _run_both(single, MultiGpuAsuca(g, ref, 2, 2, cfg), st)
    assert float(gathered.q["qc"].max()) > 0.0  # cloud formed somewhere


@settings(max_examples=8, deadline=None)
@given(
    topo=hs.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2)]),
    physics=hs.booleans(), ice=hs.booleans(), surface=hs.booleans(),
    relaxation=hs.booleans(), coriolis=hs.booleans(),
)
def test_generated_configurations_are_bitwise_equivalent(
        topo, physics, ice, surface, relaxation, coriolis):
    """Any process grid, any mix of the step's optional terms: both
    drivers resume the one long-step body, so they cannot disagree."""
    dynamics = {}
    if coriolis:
        dynamics["coriolis_f"] = 1.0e-4
    g, ref, cfg = _setup(
        sounding=tropospheric_sounding() if physics else None,
        physics=physics, ice=physics and ice,
        surface=SURFACE if surface else None,
        periodic=not relaxation, **dynamics)
    bc = None
    if relaxation:
        bc = RelaxationBC(g, width=3, tau=20.0)
    single = AsucaModel(g, ref, cfg, relaxation=bc)
    st = _perturbed_initial(single)
    if physics:
        _moisten(single, st)
    if relaxation:  # pull the perturbed edges back toward the base state
        base = single.initial_state(u0=10.0)
        for name in ("rho", "rhou", "rhotheta"):
            bc.set_target(name, base.get(name))
    _run_both(single, MultiGpuAsuca(g, ref, *topo, cfg, relaxation=bc), st,
              steps=2)


def test_mass_conservation_distributed():
    g, ref, cfg = _setup()
    machine = MultiGpuAsuca(g, ref, 2, 2, cfg)
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)
    driver = machine.driver()
    rank_states = driver.scatter(st)
    m0 = sum(rs.total_mass() for rs in rank_states)
    for i in range(5):
        rank_states = driver.step(rank_states, i)
    assert sum(rs.total_mass() for rs in rank_states) == pytest.approx(
        m0, rel=1e-8)


def test_comm_traffic_recorded():
    g, ref, cfg = _setup()
    machine = MultiGpuAsuca(g, ref, 2, 2, cfg)
    single = AsucaModel(g, ref, cfg)
    st = _perturbed_initial(single)
    driver = machine.driver()
    rank_states = driver.scatter(st)
    machine.comm.stats.reset()
    driver.step(rank_states)
    stats = machine.comm.stats
    assert stats.messages > 0
    assert stats.bytes_total > 0
    # every rank pair that talks is a grid neighbor
    for (src, dst), nbytes in stats.by_pair.items():
        ssrc = machine.subs[src]
        sdst = machine.subs[dst]
        dx = min(abs(ssrc.cx - sdst.cx), machine.px - abs(ssrc.cx - sdst.cx))
        dy = min(abs(ssrc.cy - sdst.cy), machine.py - abs(ssrc.cy - sdst.cy))
        assert dx + dy <= 1, "non-neighbor communication"
