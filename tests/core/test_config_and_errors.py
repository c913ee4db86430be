"""Configuration validation and failure-path tests across modules."""
import dataclasses

import numpy as np
import pytest

from repro.core.grid import make_grid
from repro.core.model import AsucaModel, ModelConfig
from repro.core.reference import make_reference_state
from repro.core.rk3 import DynamicsConfig, Rk3Integrator
from repro.workloads.sounding import constant_stability_sounding


# ----------------------------------------------------------- DynamicsConfig
def test_dynamics_config_validation():
    with pytest.raises(ValueError, match="dt"):
        DynamicsConfig(dt=0.0)
    with pytest.raises(ValueError, match="ns"):
        DynamicsConfig(ns=0)
    with pytest.raises(ValueError, match="beta"):
        DynamicsConfig(beta=0.3)
    with pytest.raises(ValueError, match="beta"):
        DynamicsConfig(beta=1.2)
    with pytest.raises(ValueError, match="limiter"):
        DynamicsConfig(limiter="nope")


@pytest.mark.parametrize("field, value", [
    ("rayleigh_tau", 0.0), ("rayleigh_tau", -60.0), ("rayleigh_tau", np.nan),
    ("rayleigh_depth", -1.0), ("rayleigh_depth", np.inf),
    ("div_damp", -0.1), ("coriolis_f", np.nan), ("coriolis_f", np.inf)])
def test_a_bad_damping_config_is_a_typed_error_naming_the_field(field,
                                                                value):
    """A sponge with tau = 0 is a field of NaN and inf rates, and a negative
    damping coefficient grows what it should damp: each would end in a
    NumericalBlowup blamed on a field, long after the config was accepted;
    a bad config is rejected at construction instead."""
    kwargs = {field: value}
    if field == "rayleigh_tau":
        kwargs["rayleigh_depth"] = 1000.0
    with pytest.raises(ValueError, match=field):
        DynamicsConfig(**kwargs)


def test_the_edges_of_the_valid_damping_config_are_accepted():
    DynamicsConfig(rayleigh_depth=0.0, rayleigh_tau=np.inf, div_damp=0.0,
                   coriolis_f=-1e-4)


def test_a_dynamics_config_is_frozen():
    """A config cannot drift after an integrator (and its captured step)
    took it: assigning a field raises; ``replace`` makes another."""
    cfg = DynamicsConfig(dt=6.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = 3.0
    assert cfg.dt == 6.0
    assert dataclasses.replace(cfg, dt=3.0).dt == 3.0


def test_stage_plan_structure():
    g = make_grid(8, 8, 6, 1000.0, 1000.0, 6000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    m = AsucaModel(g, ref, ModelConfig(dynamics=DynamicsConfig(dt=6.0, ns=8)))
    plan = m.integrator.stage_plan()
    assert plan == [(2.0, 1), (3.0, 4), (6.0, 8)]
    # ns = 1 degenerates gracefully
    m1 = AsucaModel(g, ref, ModelConfig(dynamics=DynamicsConfig(dt=6.0, ns=1)))
    assert m1.integrator.stage_plan() == [(2.0, 1), (3.0, 1), (6.0, 1)]


def test_rayleigh_wiring():
    g = make_grid(8, 8, 6, 1000.0, 1000.0, 6000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    on = Rk3Integrator(g, ref, DynamicsConfig(rayleigh_depth=2000.0),
                       p_ref=np.zeros(g.shape_c))
    off = Rk3Integrator(g, ref, DynamicsConfig(), p_ref=np.zeros(g.shape_c))
    assert on.rayleigh_w is not None and on.rayleigh_w.max() > 0
    assert off.rayleigh_w is None


# ------------------------------------------------------ distributed errors
def test_multigpu_too_many_ranks():
    from repro.core.model import ModelConfig
    from repro.dist.multigpu import MultiGpuAsuca

    g = make_grid(8, 8, 4, 1000.0, 1000.0, 4000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    with pytest.raises(ValueError, match="too small"):
        MultiGpuAsuca(g, ref, 4, 4, ModelConfig())


# ------------------------------------------------------------- physics off
def test_physics_switches_independent():
    """ice_enabled without physics_enabled is inert (documented: the warm
    chain gates the whole physics step)."""
    g = make_grid(8, 8, 8, 1000.0, 1000.0, 8000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    cfg = ModelConfig(dynamics=DynamicsConfig(dt=4.0, ns=4),
                      physics_enabled=False, ice_enabled=True)
    m = AsucaModel(g, ref, cfg)
    st = m.initial_state()
    st.q["qc"][...] = 1e-3 * st.rho
    m._exchange(st, None)
    before = st.q["qc"].copy()
    new = m.step(st)
    # no microphysics ran: cloud only advected (here: not at all, no wind)
    np.testing.assert_allclose(g.interior(new.q["qc"]),
                               g.interior(before), rtol=1e-12)


def test_helmholtz_rejects_bad_regime():
    """A negative linearization coefficient (unphysical state) is caught
    at assembly time, not as NaNs mid-run."""
    from repro.core.helmholtz import HelmholtzOperator

    g = make_grid(6, 6, 6, 1000.0, 1000.0, 6000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    cp_bad = np.full(g.shape_c, -1e5)
    with pytest.raises(ValueError, match="diagonal"):
        HelmholtzOperator(g, ref.theta_wf, cp_bad, dtau=1.0, beta=1.0)
