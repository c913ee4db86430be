"""Wicker-Skamarock 3rd-order Runge-Kutta long step with HE-VI substeps.

The long time step (paper Fig. 1) evaluates the slow tendencies — advection
of momentum, density-weighted potential temperature and water substances,
Coriolis force, diffusion, sponge damping — three times (RK3 stages dt/3,
dt/2, dt), and inside each stage integrates the fast modes acoustically
from the long-step start (:mod:`repro.core.acoustic`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import advection as adv
from .acoustic import (
    AcousticContext,
    AcousticGeometry,
    AcousticStepper,
    SlowForcing,
    SubstepBinding,
    build_context,
)
from .boundary import rayleigh_coefficient
from .coriolis import coriolis_tendencies
from .diffusion import (
    horizontal_laplacian_c,
    horizontal_laplacian_u,
    horizontal_laplacian_v,
    horizontal_laplacian_w,
    hyperdiffusion_c,
    surface_drag_tendency,
    vertical_diffusion_c,
)
from .grid import Grid
from ..obs.trace import span
from ..stencil.executor import active_executor
from .limiter import Limiter, get_limiter
from .reference import ReferenceState
from .state import State, zero_bits as _zero_bits

__all__ = ["DynamicsConfig", "Rk3Integrator", "slow_tendencies"]


@dataclass
class DynamicsConfig:
    """Numerical knobs of the dynamical core."""

    dt: float = 5.0                  #: long time step [s] (paper: 5 s mountain wave)
    ns: int = 6                      #: acoustic substeps per long step (even)
    beta: float = 0.55               #: vertical implicit off-centering (>= 0.5)
    div_damp: float = 0.1            #: forward divergence-damping weight
    limiter: str = "koren"           #: flux limiter name (paper: Koren)
    coriolis_f: float = 0.0          #: f-plane parameter [1/s]
    kdiff_h: float = 0.0             #: horizontal diffusion of momentum/theta [m^2/s]
    kdiff4_h: float = 0.0            #: 4th-order hyperdiffusion of theta' [m^4/s]
    kdiff_v: float = 0.0             #: vertical diffusion of theta' [m^2/s]
    drag_cd: float = 0.0             #: bulk surface-drag coefficient [-]
    rayleigh_depth: float = 0.0      #: sponge depth below the lid [m]
    rayleigh_tau: float = 60.0       #: sponge e-folding time at the lid [s]
    check_finite: bool = True        #: validate the state each long step

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < float("inf"):
            raise ValueError("dt must be positive and finite")
        if self.ns < 1:
            raise ValueError("ns must be >= 1")
        if not 0.5 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0.5, 1]")
        get_limiter(self.limiter)  # validate early


def slow_tendencies(
    state: State,
    ref: ReferenceState,
    cfg: DynamicsConfig,
    limiter: Limiter,
    rayleigh_w: np.ndarray | None = None,
    base: State | None = None,
    metric_flux: adv.MetricFlux | None = None,
    idle: list[str] | None = None,
) -> tuple[SlowForcing, dict[str, np.ndarray | None]]:
    """Slow-mode forcings at the given (stage) state, plus moisture
    advection tendencies.  Requires valid halos of width >= 2.

    ``base`` is the state the stage adds the tendencies to
    (:class:`AcousticStepper`'s; the stage state itself by default).  A
    species whose tendency is ``None`` is *inactive*: its stage and base
    fields are all ``+0.0``, so its transport is a field of signed zeros
    and the stage leaves ``+0.0`` — what the stepper's copy of ``base``
    already holds (docs/STENCILS.md, "Work that is skipped exactly").
    ``metric_flux`` is the integrator's :class:`~repro.core.advection.MetricFlux`
    (built here for a caller that keeps none).

    ``idle`` is the inactive set of an earlier stage of the same long step
    (``None``: scan every species).  A species active there stays active:
    its base field is not all ``+0.0`` (or that stage's fluxes sent it
    down the full path, which is never wrong).  An inactive one stays
    inactive while its stage field is still all ``+0.0``, and only that
    field is scanned again: in a decomposed run an exchange can put a
    neighbour's transport into its halo.  The stage fluxes in the forcing
    are the stage state's own ``rhou`` / ``rhov``, not copies: nothing
    writes them before the stage ends.
    """
    g = state.grid
    if metric_flux is None:
        metric_flux = adv.MetricFlux(g)
    u, v, w = state.velocities()
    fx = state.rhou
    fy = state.rhov
    fz = metric_flux(state.rhou, state.rhov, state.rhow)

    with span("advect_momentum", cat="phase"):
        r_u = adv.advect_u(u, fx, fy, fz, g, limiter)
        r_v = adv.advect_v(v, fx, fy, fz, g, limiter)
        r_w = adv.advect_w(w, fx, fy, fz, g, limiter)
    with span("advect_theta", cat="phase"):
        theta = state.rhotheta / state.rho
        r_theta = adv.advect_scalar(theta, fx, fy, fz, g, limiter)

    if cfg.coriolis_f != 0.0:
        with span("coriolis", cat="phase"):
            cu, cv = coriolis_tendencies(state.rhou, state.rhov, cfg.coriolis_f, g)
            r_u += cu
            r_v += cv

    if cfg.kdiff_h > 0.0 or cfg.kdiff4_h > 0.0 or cfg.kdiff_v > 0.0:
        jac3 = g.jac[:, :, None]
        # diffuse the theta *perturbation* so the stratified base state
        # is untouched
        pert = state.rhotheta - ref.rhotheta_c * jac3
        if cfg.kdiff_h > 0.0:
            r_u += cfg.kdiff_h * horizontal_laplacian_u(state.rhou, g)
            r_v += cfg.kdiff_h * horizontal_laplacian_v(state.rhov, g)
            r_w += cfg.kdiff_h * horizontal_laplacian_w(state.rhow, g)
            r_theta += cfg.kdiff_h * horizontal_laplacian_c(pert, g)
        if cfg.kdiff4_h > 0.0:
            r_theta += cfg.kdiff4_h * hyperdiffusion_c(pert, g)
        if cfg.kdiff_v > 0.0:
            r_theta += vertical_diffusion_c(pert, g, cfg.kdiff_v)

    if cfg.drag_cd > 0.0:
        du, dv = surface_drag_tendency(state.rhou, state.rhov, g, cfg.drag_cd)
        r_u += du
        r_v += dv

    if rayleigh_w is not None:
        r_w -= rayleigh_w[None, None, :] * state.rhow

    base_q = state.q if base is None else base.q
    if idle is None:
        idle = [n for n, q_hat in state.q.items() if _zero_bits(q_hat) and (
            base_q[n] is q_hat or _zero_bits(base_q[n]))]
    else:
        idle = [n for n in idle if _zero_bits(state.q[n])]
    # 0 * inf and 0 / 0 are NaN in the full path: it runs unless every
    # flux is finite and rho divides zero to zero
    if idle and not (np.isfinite(fx.sum() + fy.sum() + fz.sum())
                     and state.rho.min() > 0.0):
        idle = []
    active_executor().skip_transports(idle)
    with span("advect_moisture", cat="phase",
              active=" ".join(n for n in state.q if n not in idle)):
        q_tend = {
            name: None if name in idle else
            adv.advect_scalar(q_hat / state.rho, fx, fy, fz, g, limiter)
            for name, q_hat in state.q.items()
        }

    w_s = state.rhow.copy()
    w_s[:, :, 0] = 0.0
    w_s[:, :, -1] = 0.0
    m_s = metric_flux(state.rhou, state.rhov)
    forcing = SlowForcing(
        r_u=r_u, r_v=r_v, r_w=r_w, r_theta=r_theta,
        fx_s=fx, fy_s=fy, w_s=w_s, m_s=m_s,
    )
    return forcing, q_tend


class Rk3Integrator:
    """The dynamics of one long step of the HE-VI split-explicit
    integrator, as the generator :meth:`step_phases`: it never refreshes
    a halo itself, so it cannot be run without a driver that does."""

    def __init__(
        self,
        grid: Grid,
        ref: ReferenceState,
        cfg: DynamicsConfig,
        p_ref: np.ndarray,
    ):
        self.grid = grid
        self.ref = ref
        self.cfg = cfg
        self.p_ref = p_ref
        self.limiter = get_limiter(cfg.limiter)
        #: grid-only operands of the acoustic substep and the metric flux
        self.geom = AcousticGeometry(grid, ref)
        #: the substep's operands bound on the thread that last stepped
        #: this integrator (a stage on another thread binds afresh)
        self.binding: SubstepBinding | None = None
        if cfg.rayleigh_depth > 0.0:
            _, ray_f = rayleigh_coefficient(grid, cfg.rayleigh_depth, cfg.rayleigh_tau)
            self.rayleigh_w: np.ndarray | None = ray_f
        else:
            self.rayleigh_w = None

    def stage_plan(self) -> list[tuple[float, int]]:
        """(stage interval, substep count) pairs of the WS-RK3 scheme."""
        dt, ns = self.cfg.dt, self.cfg.ns
        return [(dt / 3.0, 1), (dt / 2.0, max(ns // 2, 1)), (dt, ns)]

    def step_phases(self, state: State):
        """The RK3 stages as a generator: yields ``(state_to_refresh,
        field_names_or_None)`` at every halo-exchange point; the driver
        must refresh the halos before resuming.  Returns the new state
        via ``StopIteration``.

        Every rank of a decomposed run yields the identical sequence of
        exchange points, which is what lets
        :func:`repro.core.model.run_lockstep` drive all ranks together.
        """
        yield state, None  # make sure every halo is valid
        ctx = build_context(state, self.ref, self.p_ref, self.geom)
        cur = state
        new = state
        idle = None
        for dts, nsub in self.stage_plan():
            forcing, q_tend = slow_tendencies(
                cur, self.ref, self.cfg, self.limiter, self.rayleigh_w, state,
                self.geom.metric_flux, idle,
            )
            idle = [n for n, tend in q_tend.items() if tend is None]
            stepper = AcousticStepper(
                state, forcing, ctx, self.ref, dts, nsub,
                beta=self.cfg.beta, div_damp=self.cfg.div_damp,
                binding=self.binding,
            )
            self.binding = stepper.binding
            for _ in range(nsub):
                fields = stepper.substep()
                yield stepper.st, fields
            q_fields = stepper.finish(q_tend)
            if q_fields:
                yield stepper.st, q_fields
            new = stepper.st
            cur = new
        if self.cfg.check_finite:
            new.validate(step=round(new.time / self.cfg.dt))
        return new
