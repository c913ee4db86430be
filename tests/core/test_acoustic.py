"""Tests of the acoustic stepper mechanics and invariants."""
import numpy as np
import pytest

from repro.core.acoustic import (
    ACOUSTIC_FIELDS,
    AcousticStepper,
    build_context,
)
from repro.core.boundary import fill_halos_state
from repro.core.grid import make_grid
from repro.core.model import AsucaModel, ModelConfig
from repro.core.pressure import eos_pressure
from repro.core.reference import make_reference_state
from repro.core.rk3 import DynamicsConfig, Rk3Integrator, slow_tendencies
from repro.core.limiter import koren
from repro.core.state import state_from_reference
from repro.workloads.sounding import constant_stability_sounding


@pytest.fixture
def setup():
    g = make_grid(12, 8, 10, 2000.0, 2000.0, 10000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    st = state_from_reference(g, ref, u0=10.0)
    X = g.x_c()[:, None, None]
    st.rhotheta += st.rho * 0.5 * np.exp(-(((X - 12000.0) / 3000.0) ** 2))
    fill_halos_state(st)
    rhotheta_ref_hat = ref.rhotheta_c * g.jac[:, :, None]
    p_ref = eos_pressure(rhotheta_ref_hat, g)
    ctx = build_context(st, ref, p_ref)
    cfg = DynamicsConfig(dt=4.0, ns=4)
    forcing, q_tend = slow_tendencies(st, cfg, koren)
    return g, ref, st, ctx, forcing, q_tend


def _exchange(state, names):
    fill_halos_state(state, names)


def _integrate(base, forcing, ctx, ref, dts, nsub, *, q_tendencies=None, **kw):
    """Drive one stage by hand: a fill after every substep, then the
    moisture tendencies (what ``Rk3Integrator.step_phases`` yields for)."""
    stepper = AcousticStepper(base, forcing, ctx, ref, dts, nsub, **kw)
    for _ in range(nsub):
        _exchange(stepper.st, stepper.substep())
    q_fields = stepper.finish(q_tendencies)
    if q_fields:
        _exchange(stepper.st, q_fields)
    return stepper.st


def test_stepper_counts_substeps(setup):
    g, ref, st, ctx, forcing, _ = setup
    stepper = AcousticStepper(st, forcing, ctx, ref, 2.0, 4)
    for _ in range(4):
        fields = stepper.substep()
        assert fields == ACOUSTIC_FIELDS
        _exchange(stepper.st, fields)
    with pytest.raises(RuntimeError, match="already taken"):
        stepper.substep()


def test_finish_requires_all_substeps(setup):
    g, ref, st, ctx, forcing, q_tend = setup
    stepper = AcousticStepper(st, forcing, ctx, ref, 2.0, 4)
    stepper.substep()
    with pytest.raises(RuntimeError, match="finish"):
        stepper.finish(q_tend)


@pytest.mark.parametrize("ns", [1, 2, 3, 4, 5, 6])
def test_stages_2_and_3_share_one_helmholtz_operator_iff_ns_is_even(setup, ns):
    """``(dt/2)/(ns//2)`` and ``dt/ns`` are the same double for even
    ``ns``: the context assembles (and factors) that operator once."""
    g, ref, st, ctx, forcing, _ = setup
    rk = Rk3Integrator(g, ref, DynamicsConfig(dt=4.0, ns=ns), None)
    steppers = [AcousticStepper(st, forcing, ctx, ref, dts, nsub)
                for dts, nsub in rk.stage_plan()]
    helms = [s.helm for s in steppers]
    assert (helms[1] is helms[2]) == (ns % 2 == 0)
    for a in steppers:                  # shared exactly when dtau is equal
        for b in steppers:
            assert (a.helm is b.helm) == (a.dtau == b.dtau)
    assert AcousticStepper(st, forcing, ctx, ref, 4.0, ns,
                           beta=0.7).helm is not helms[2]


def test_does_not_mutate_base(setup):
    g, ref, st, ctx, forcing, q_tend = setup
    before = {n: st.get(n).copy() for n in st.prognostic_names()}
    _integrate(st, forcing, ctx, ref, 2.0, 4, q_tendencies=q_tend)
    for name, arr in before.items():
        np.testing.assert_array_equal(st.get(name), arr, err_msg=name)


def test_time_advances(setup):
    g, ref, st, ctx, forcing, _ = setup
    out = _integrate(st, forcing, ctx, ref, 2.0, 4)
    assert out.time == pytest.approx(st.time + 2.0)


def test_more_substeps_converge(setup):
    """Halving dtau changes the result by less than dtau itself changes
    things — a weak consistency/stability check of the substepping."""
    g, ref, st, ctx, forcing, _ = setup
    coarse = _integrate(st, forcing, ctx, ref, 2.0, 2)
    fine = _integrate(st, forcing, ctx, ref, 2.0, 8)
    d_cf = np.abs(g.interior(coarse.rhotheta) - g.interior(fine.rhotheta)).max()
    d_total = np.abs(g.interior(fine.rhotheta) - g.interior(st.rhotheta)).max()
    assert d_cf < 0.5 * d_total


def test_w_boundary_faces_stay_zero(setup):
    g, ref, st, ctx, forcing, _ = setup
    out = _integrate(st, forcing, ctx, ref, 2.0, 4)
    assert np.all(out.rhow[:, :, 0] == 0.0)
    assert np.all(out.rhow[:, :, -1] == 0.0)


def test_beta_one_fully_implicit(setup):
    """beta = 1 must run (skips the trapezoidal correction branch) and
    damp the vertical motion at least as strongly as beta = 0.55."""
    g, ref, st, ctx, forcing, _ = setup
    out_55 = _integrate(st, forcing, ctx, ref, 2.0, 4, beta=0.55)
    out_10 = _integrate(st, forcing, ctx, ref, 2.0, 4, beta=1.0)
    w55 = np.abs(g.interior(out_55.rhow)).max()
    w10 = np.abs(g.interior(out_10.rhow)).max()
    assert w10 <= w55 * 1.05


def test_divergence_damping_reduces_pressure_noise(setup):
    """With damping on, the max perturbation pressure after the substeps
    is no larger than without."""
    g, ref, st, ctx, forcing, _ = setup
    out_d = _integrate(st, forcing, ctx, ref, 2.0, 8, div_damp=0.2)
    out_n = _integrate(st, forcing, ctx, ref, 2.0, 8, div_damp=0.0)
    # both stable; damped run has no larger acoustic amplitude
    for out in (out_d, out_n):
        assert np.all(np.isfinite(g.interior(out.rhotheta)))
    amp_d = np.abs(g.interior(out_d.rho) - g.interior(st.rho)).max()
    amp_n = np.abs(g.interior(out_n.rho) - g.interior(st.rho)).max()
    assert amp_d <= amp_n * 1.10
