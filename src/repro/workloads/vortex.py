"""Balanced warm-core vortex — the ensemble flagship case.

The GPU-accelerated tropical-cyclone rapid-intensification study in
PAPERS.md (Kang et al.) is the operational shape ensemble forecasting
serves: a perturbed-vortex ensemble whose track and intensity spread is
the product.  This workload builds the deterministic control member —
a Rankine-like tangential wind field in gradient-wind and hydrostatic
balance — so that seeded perturbations (``seed`` / ``theta_noise`` /
``wind_noise``, plus parameter jitter from :mod:`repro.ensemble`) are
the *only* source of member spread.

Construction (all discrete, on the model's own grid and EOS):

* tangential wind ``V(r) = vmax * r/rmax`` inside the radius of maximum
  wind and ``vmax * (rmax/r)**alpha`` outside (Rankine for ``alpha=1``),
  tapered smoothly to zero before the periodic boundary and decaying
  with height as ``exp(-z/depth)``;
* the pressure field integrates gradient-wind balance radially,
  ``dp/dr = rho (V^2/r + f V)``, from the taper edge (where ``p'=0``)
  inward — the warm-core low;
* the density perturbation makes the column hydrostatic again,
  ``rho' = -(1/g) dp'/dz``, and ``rhotheta`` is set from the model EOS
  inverse of the balanced pressure, so an unperturbed vortex is close to
  stationary (small initial tendencies, asserted by
  tests/workloads/test_vortex.py).

The case records a per-step *track series* (pressure-centroid center,
max wind, minimum surface pressure perturbation) that rides back on
:attr:`repro.api.RunResult.series` — the point product the ensemble
layer reduces into track/intensity spread.

Defaults are CFL-safe by construction: the advective Courant number
``(vmax + margin) * dt / dx`` and the acoustic Courant number
``c_s * (dt/ns) / dx`` both stay below 0.5 (tested).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import constants as c
from ..core.grid import Grid, make_grid
from ..core.model import AsucaModel, ModelConfig
from ..core.pressure import eos_pressure
from ..core.reference import ReferenceState, make_reference_state
from ..core.rk3 import DynamicsConfig
from ..core.state import State
from .icnoise import apply_ic_noise
from .sounding import tropospheric_sounding

__all__ = ["VortexCase", "make_vortex_case", "rankine_wind"]

#: sound-speed bound used by the CFL accounting [m/s]
SOUND_SPEED = 350.0


def rankine_wind(r: np.ndarray, vmax: float, rmax: float,
                 alpha: float = 0.75) -> np.ndarray:
    """Rankine-like tangential wind profile: solid-body rotation inside
    ``rmax``, a ``(rmax/r)**alpha`` tail outside (classic Rankine is
    ``alpha=1``; observed TC wind fields are flatter)."""
    r = np.asarray(r, dtype=np.float64)
    safe = np.maximum(r, 1e-12)
    inner = vmax * (r / rmax)
    outer = vmax * (rmax / safe) ** alpha
    return np.where(r <= rmax, inner, outer)


def _taper(r: np.ndarray, r_cut: float) -> np.ndarray:
    """Cosine taper from 0.6*r_cut (1) to r_cut (0): the wind must
    vanish before the periodic wrap."""
    r0 = 0.6 * r_cut
    t = np.clip((r - r0) / (r_cut - r0), 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * t))


@dataclass
class VortexCase:
    grid: Grid
    ref: ReferenceState
    model: AsucaModel
    state: State
    vmax: float
    rmax: float
    center: tuple[float, float]
    #: per-step track points keyed by model time (idempotent under
    #: crash-recovery replay), recorded after every long step by
    #: :class:`repro.api.Experiment`
    track: dict = field(default_factory=dict)

    # --------------------------------------------------------- products
    def max_wind(self) -> float:
        """Interior max horizontal wind speed [m/s]."""
        g = self.grid
        u, v, _ = self.state.velocities()
        return float(max(np.abs(u[g.isl_u]).max(),
                         np.abs(v[g.isl_v]).max()))

    def center_of_low(self) -> tuple[float, float]:
        """Pressure-deficit centroid of the surface level [m] — the
        vortex center the track series follows."""
        return _pressure_centroid(self.state, self.model)

    def min_surface_p_pert(self) -> float:
        g = self.grid
        pp = self.model.pressure_perturbation(self.state)[g.isl][:, :, 0]
        return float(pp.min())

    def record_track(self, state: State) -> None:
        """Drop the track point of the long step that made ``state``."""
        self.track[float(state.time)] = (
            *_pressure_centroid(state, self.model),
            _interior_max_wind(state),
            float(self.model.pressure_perturbation(state)[self.grid.isl]
                  [:, :, 0].min()),
        )

    def series(self) -> dict[str, list]:
        """The recorded track series in time order (the shape
        :attr:`repro.api.RunResult.series` carries)."""
        times = sorted(self.track)
        pts = [self.track[t] for t in times]
        return {
            "t": [float(t) for t in times],
            "cx": [p[0] for p in pts],
            "cy": [p[1] for p in pts],
            "max_wind": [p[2] for p in pts],
            "min_p_pert": [p[3] for p in pts],
        }

    # ------------------------------------------------------------- CFL
    def courant_numbers(self) -> tuple[float, float]:
        """(advective, acoustic) Courant numbers of the configuration;
        defaults keep both below 0.5."""
        dyn = self.model.config.dynamics
        dx = min(self.grid.dx, self.grid.dy)
        adv = (self.vmax + 5.0) * dyn.dt / dx
        acoustic = SOUND_SPEED * (dyn.dt / dyn.ns) / dx
        return adv, acoustic


def _pressure_centroid(state: State, model: AsucaModel) -> tuple[float, float]:
    g = state.grid
    pp = model.pressure_perturbation(state)[g.isl][:, :, 0]
    deficit = np.maximum(0.0, -(pp - pp.max()))
    total = float(deficit.sum())
    x = g.x_c()[g.isl[0]]
    y = g.y_c()[g.isl[1]]
    if total <= 0.0:
        return float(x.mean()), float(y.mean())
    cx = float((deficit.sum(axis=1) * x).sum() / total)
    cy = float((deficit.sum(axis=0) * y).sum() / total)
    return cx, cy


def make_vortex_case(
    *,
    nx: int = 32,
    ny: int = 32,
    nz: int = 12,
    dx: float = 2000.0,
    ztop: float = 12000.0,
    dt: float = 4.0,
    ns: int = 6,
    vmax: float = 15.0,
    rmax: float = 8000.0,
    alpha: float = 0.75,
    depth: float = 6000.0,
    f: float = 0.0,
    seed: int | None = None,
    theta_noise: float = 0.3,
    wind_noise: float = 0.2,
    physics: bool = False,
    vortex_rh: float = 0.9,
    dtype=np.float64,
) -> VortexCase:
    """Build the balanced vortex.  ``seed`` switches on the member
    perturbation (theta + wind noise); ``vmax``/``rmax`` are the
    parameter-jitter targets of the default ensemble catalogue."""
    grid = make_grid(nx=nx, ny=ny, nz=nz, dx=dx, dy=dx, ztop=ztop)
    ref = make_reference_state(grid, tropospheric_sounding())
    config = ModelConfig(
        dynamics=DynamicsConfig(dt=dt, ns=ns, coriolis_f=f,
                                rayleigh_depth=ztop / 4.0,
                                rayleigh_tau=60.0),
        physics_enabled=physics,
    )
    model = AsucaModel(grid, ref, config)
    state = model.initial_state(dtype=dtype)

    # --- geometry: radii from the domain-center vortex ----------------
    lx, ly = nx * dx, ny * dx
    cx, cy = lx / 2.0, ly / 2.0
    r_cut = 0.45 * min(lx, ly)
    # the radius of maximum wind must sit inside the untapered core;
    # clamp rather than raise so an ensemble-jittered rmax stays valid
    # on any domain (the clamp is deterministic, so a clamped member
    # still reproduces standalone)
    rmax = min(rmax, 0.55 * r_cut)

    def radius(X, Y):
        return np.hypot(X - cx, Y - cy)

    def wind(r):
        return rankine_wind(r, vmax, rmax, alpha) * _taper(r, r_cut)

    # --- radial gradient-wind integrals (shared 1-D table) ------------
    r_tab = np.linspace(0.0, r_cut, 4096)
    v_tab = wind(r_tab)
    centrifugal = np.zeros_like(r_tab)
    centrifugal[1:] = v_tab[1:] ** 2 / r_tab[1:]
    dr = r_tab[1] - r_tab[0]
    # I2(r) = int_r^rcut V^2/r' dr',  I1(r) = int_r^rcut V dr'
    i2_tab = (centrifugal[::-1].cumsum()[::-1] - 0.5 * centrifugal) * dr
    i1_tab = (v_tab[::-1].cumsum()[::-1] - 0.5 * v_tab) * dr

    # halo-inclusive cell-center coordinates: halos carry the analytic
    # fields directly (the periodic wrap sees tapered-to-zero wind there)
    Xc, Yc = np.meshgrid(grid.x_c(), grid.y_c(), indexing="ij")
    r_c = radius(Xc, Yc)
    i2_c = np.interp(r_c, r_tab, i2_tab, right=0.0)
    i1_c = np.interp(r_c, r_tab, i1_tab, right=0.0)

    decay = np.exp(-grid.z_c / depth)                    # (nz,)
    rho_col = ref.rho_c                                  # (nxh, nyh, nz)
    # gradient-wind pressure deficit: p' = -rho (D^2 I2 + f D I1)
    p_pert = -rho_col * (decay[None, None, :] ** 2 * i2_c[:, :, None]
                         + f * decay[None, None, :] * i1_c[:, :, None])

    # hydrostatic re-balance: rho' = -(1/g) dp'/dz on the cell columns
    z = grid.z_c
    dpdz = np.gradient(p_pert, z, axis=2)
    rho_pert = -dpdz / c.G

    jac3 = grid.jac[:, :, None]
    p_ref = eos_pressure(ref.rhotheta_c * jac3, grid)
    p_total = p_ref + p_pert
    # EOS inverse (paper Eq. 5): G rho theta_m from the balanced pressure
    rhotheta_phys = (c.P0 / c.RD) * (p_total / c.P0) ** (c.CV / c.CP)
    state.rho[...] = ((rho_col + rho_pert) * jac3).astype(dtype)
    state.rhotheta[...] = (rhotheta_phys * jac3).astype(dtype)

    # --- momenta: tangential wind at the staggered faces --------------
    Xu, Yu = np.meshgrid(grid.x_u(), grid.y_c(), indexing="ij")
    Xv, Yv = np.meshgrid(grid.x_c(), grid.y_v(), indexing="ij")

    def tangential(Xp, Yp):
        rx, ry = Xp - cx, Yp - cy
        r = radius(Xp, Yp)
        vmag = wind(r)
        safe = np.maximum(r, 1.0)
        return -vmag * ry / safe, vmag * rx / safe       # cyclonic (CCW)

    up, _ = tangential(Xu, Yu)
    _, vp = tangential(Xv, Yv)
    grho = state.rho.astype(np.float64)
    grho_u = np.empty(grid.shape_u)
    grho_u[1:-1] = 0.5 * (grho[1:] + grho[:-1])
    grho_u[0], grho_u[-1] = grho[0], grho[-1]
    grho_v = np.empty(grid.shape_v)
    grho_v[:, 1:-1] = 0.5 * (grho[:, 1:] + grho[:, :-1])
    grho_v[:, 0], grho_v[:, -1] = grho[:, 0], grho[:, -1]
    state.rhou[...] = (grho_u * up[:, :, None] * decay[None, None, :]).astype(dtype)
    state.rhov[...] = (grho_v * vp[:, :, None] * decay[None, None, :]).astype(dtype)

    if physics:
        from ..core.pressure import exner
        from ..physics.saturation import saturation_mixing_ratio

        p = eos_pressure(state.rhotheta, grid)
        T = (state.rhotheta / state.rho) * exner(p)
        qvs = saturation_mixing_ratio(p, T)
        r2 = (r_c / rmax) ** 2
        rh = 0.6 + (vortex_rh - 0.6) * np.minimum(1.0, 1.5 * np.exp(-r2))
        state.q["qv"][...] = (rh[:, :, None] * qvs * state.rho).astype(dtype)

    apply_ic_noise(state, seed=seed, theta_noise=theta_noise,
                   wind_noise=wind_noise)
    model._exchange(state, None)
    return VortexCase(grid=grid, ref=ref, model=model, state=state,
                      vmax=vmax, rmax=rmax, center=(cx, cy))


def _interior_max_wind(state: State) -> float:
    g = state.grid
    u, v, _ = state.velocities()
    return float(max(np.abs(u[g.isl_u]).max(), np.abs(v[g.isl_v]).max()))
