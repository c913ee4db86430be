"""Synthetic "real data" forecast case — the Fig. 12 substitution.

The paper demonstrates the GPU ASUCA on a real typhoon case (southern
islands of Japan, October 2009): JMA mesoscale analysis (MANAL) initial
data, hourly boundary data from a global spectral model, 1900x2272x48 mesh
at 500 m on 54 GPUs, dt = 0.5 s, full dynamical core + warm rain; the
figure shows horizontal wind, pressure and precipitation after 2/4/6 h.

We have no MANAL data, so this module builds a meteorologically structured
synthetic equivalent that exercises the same code path (DESIGN.md Sec. 2):

* a non-periodic domain with coastal-ridge terrain,
* a moist warm-core cyclonic vortex in gradient-wind-like balance embedded
  in a uniform steering flow,
* Davies relaxation boundaries whose targets are rebuilt every simulated
  "hour" from the steered environment (the stand-in for the global-model
  forecast data), and
* the full dycore + Kessler warm rain, optionally domain-decomposed.

Diagnostics mirror the figure: horizontal wind, surface pressure
perturbation, and accumulated precipitation at checkpoint times.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.boundary import RelaxationBC
from ..core.grid import Grid, make_grid
from ..core.model import AsucaModel, ModelConfig
from ..core.pressure import eos_pressure, exner
from ..core.reference import ReferenceState, make_reference_state
from ..core.rk3 import DynamicsConfig
from ..core.state import State, state_from_reference
from ..physics.saturation import saturation_mixing_ratio
from .icnoise import apply_ic_noise
from .sounding import tropospheric_sounding

__all__ = ["RealCase", "make_real_case", "RealCaseSnapshot"]


@dataclass
class RealCaseSnapshot:
    """Fig.-12-style output at one checkpoint."""

    hours: float
    u: np.ndarray            #: (nx, ny) near-surface u [m/s]
    v: np.ndarray
    p_surface_pert: np.ndarray   #: (nx, ny) [Pa]
    precip_mm: np.ndarray        #: accumulated [mm]
    max_wind: float
    min_pressure_pert: float
    total_precip_mm: float


def _ridge_terrain(lx: float, ly: float, height: float):
    """A coastal ridge along the western third of the domain."""

    def zs(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        ridge = height * np.exp(-(((X - 0.3 * lx) / (0.08 * lx)) ** 2))
        bumps = 0.3 * height * np.exp(
            -(((X - 0.55 * lx) / (0.05 * lx)) ** 2)
            - (((Y - 0.5 * ly) / (0.2 * ly)) ** 2)
        )
        return np.clip(ridge + bumps, 0.0, None)

    return zs


@dataclass
class RealCase:
    grid: Grid
    ref: ReferenceState
    model: AsucaModel
    state: State
    steering_u: float
    vortex_center: tuple[float, float]
    vortex_radius: float
    vortex_amp: float
    boundary_update_hours: float = 1.0
    _last_boundary_update: float = field(default=-1.0)

    # ------------------------------------------------------------ boundary
    def environment_state(self, t: float) -> State:
        """The steered large-scale environment at time ``t`` — the
        stand-in for the global-model forecast used as boundary data."""
        st = state_from_reference(self.grid, self.ref, u0=self.steering_u)
        return st

    def refresh_boundary_targets(self, t: float) -> None:
        env = self.environment_state(t)
        bc = self.model.relaxation
        for name in ("rho", "rhou", "rhov", "rhotheta"):
            bc.set_target(name, env.get(name))
        bc.set_target("rhow", np.zeros_like(env.rhow))
        p = eos_pressure(env.rhotheta, self.grid)
        T = (env.rhotheta / env.rho) * exner(p)
        qv_env = 0.6 * saturation_mixing_ratio(p, T) * env.rho
        bc.set_target("qv", qv_env)
        for name in ("qc", "qr"):
            bc.set_target(name, np.zeros_like(env.rho))
        self._last_boundary_update = t

    # ---------------------------------------------------------------- run
    def run_hours(
        self, hours: float, *, checkpoint_hours: list[float] | None = None
    ) -> list[RealCaseSnapshot]:
        """Integrate, refreshing boundary data on the hourly schedule and
        returning Fig.-12-style snapshots."""
        dt = self.model.config.dynamics.dt
        n_steps = int(round(hours * 3600.0 / dt))
        checkpoints = sorted(checkpoint_hours or [hours])
        snaps: list[RealCaseSnapshot] = []
        next_cp = 0
        for i in range(n_steps):
            t = self.state.time
            if t - self._last_boundary_update >= self.boundary_update_hours * 3600.0 - 1e-9:
                self.refresh_boundary_targets(t)
            self.state = self.model.step(self.state)
            t_hours = self.state.time / 3600.0
            while next_cp < len(checkpoints) and t_hours >= checkpoints[next_cp] - 1e-9:
                snaps.append(self.snapshot(checkpoints[next_cp]))
                next_cp += 1
        return snaps

    def snapshot(self, hours: float) -> RealCaseSnapshot:
        g = self.grid
        # a state gathered from ranks carries its ranks' halos, not the
        # relaxed field's boundary rule; refresh them before deriving
        # velocities
        from ..core.boundary import fill_halos_state

        fill_halos_state(self.state)
        u, v, w = self.state.velocities()
        h = g.halo
        u_sfc = 0.5 * (u[h : h + g.nx, h : h + g.ny, 0] + u[h + 1 : h + g.nx + 1, h : h + g.ny, 0])
        v_sfc = 0.5 * (v[h : h + g.nx, h : h + g.ny, 0] + v[h : h + g.nx, h + 1 : h + g.ny + 1, 0])
        pp = self.model.pressure_perturbation(self.state)[g.isl][:, :, 0]
        acc = self.state.precip_accum
        precip = acc.copy() if acc is not None else np.zeros((g.nx, g.ny))
        wind = np.hypot(u_sfc, v_sfc)
        return RealCaseSnapshot(
            hours=hours,
            u=u_sfc, v=v_sfc,
            p_surface_pert=pp,
            precip_mm=precip,
            max_wind=float(wind.max()),
            min_pressure_pert=float(pp.min()),
            total_precip_mm=float(precip.sum()),
        )


def make_real_case(
    *,
    nx: int = 48,
    ny: int = 40,
    nz: int = 16,
    dx: float = 2500.0,
    ztop: float = 16000.0,
    dt: float = 5.0,
    ns: int = 6,
    steering_u: float = 6.0,
    vortex_amp: float = 8.0,
    vortex_radius: float = 15000.0,
    vortex_rh: float = 0.95,
    terrain_height: float = 500.0,
    relax_width: int = 5,
    relax_tau: float = 120.0,
    seed: int | None = None,
    theta_noise: float = 0.3,
    wind_noise: float = 0.0,
    dtype=np.float64,
) -> RealCase:
    """Build the synthetic forecast case (defaults are laptop-sized; the
    Fig. 12 benchmark scales nx/ny up and decomposes over 54 ranks)."""
    lx, ly = nx * dx, ny * dx
    grid = make_grid(
        nx=nx, ny=ny, nz=nz, dx=dx, dy=dx, ztop=ztop,
        terrain=_ridge_terrain(lx, ly, terrain_height),
        periodic_x=False, periodic_y=False,
    )
    ref = make_reference_state(grid, tropospheric_sounding())
    config = ModelConfig(
        dynamics=DynamicsConfig(dt=dt, ns=ns, rayleigh_depth=ztop / 4.0,
                                rayleigh_tau=60.0),
        physics_enabled=True,
    )
    relaxation = RelaxationBC(grid, width=relax_width, tau=relax_tau)
    model = AsucaModel(grid, ref, config, relaxation=relaxation)
    state = model.initial_state(u0=steering_u, dtype=dtype)

    # --- embed a moist warm-core vortex --------------------------------
    cx, cy = 0.65 * lx, 0.45 * ly
    X, Y = np.meshgrid(grid.x_c(), grid.y_c(), indexing="ij")
    Xu, Yu = np.meshgrid(grid.x_u(), grid.y_c(), indexing="ij")
    Xv, Yv = np.meshgrid(grid.x_c(), grid.y_v(), indexing="ij")
    z3 = grid.z3d_c()
    vertical = np.exp(-z3 / 6000.0)

    def tangential(Xp, Yp):
        rx, ry = Xp - cx, Yp - cy
        r = np.hypot(rx, ry)
        vmag = vortex_amp * (r / vortex_radius) * np.exp(
            0.5 * (1.0 - (r / vortex_radius) ** 2)
        )
        safe_r = np.maximum(r, 1.0)
        return -vmag * ry / safe_r, vmag * rx / safe_r  # cyclonic (CCW)

    up, _ = tangential(Xu, Yu)
    _, vp = tangential(Xv, Yv)
    # G rho at the staggered points
    grho = ref.rho_c * grid.jac[:, :, None]
    grho_u = np.empty(grid.shape_u)
    grho_u[1:-1] = 0.5 * (grho[1:] + grho[:-1])
    grho_u[0], grho_u[-1] = grho[0], grho[-1]
    grho_v = np.empty(grid.shape_v)
    grho_v[:, 1:-1] = 0.5 * (grho[:, 1:] + grho[:, :-1])
    grho_v[:, 0], grho_v[:, -1] = grho[:, 0], grho[:, -1]
    state.rhou += (grho_u * up[:, :, None] * np.exp(-grid.z_c[None, None, :] / 6000.0)).astype(dtype)
    state.rhov += (grho_v * vp[:, :, None] * np.exp(-grid.z_c[None, None, :] / 6000.0)).astype(dtype)

    # warm core (gives the low pressure) + moisture
    r2 = ((X[:, :, None] - cx) ** 2 + (Y[:, :, None] - cy) ** 2) / vortex_radius ** 2
    core = np.exp(-r2) * vertical
    state.rhotheta += (state.rho * 2.0 * core).astype(dtype)

    p = eos_pressure(state.rhotheta, grid)
    T = (state.rhotheta / state.rho) * exner(p)
    qvs = saturation_mixing_ratio(p, T)
    rh = 0.6 + (vortex_rh - 0.6) * np.minimum(1.0, 1.5 * np.exp(-r2))
    state.q["qv"][...] = (rh * qvs * state.rho).astype(dtype)

    apply_ic_noise(state, seed=seed, theta_noise=theta_noise,
                   wind_noise=wind_noise)
    model._exchange(state, None)
    case = RealCase(
        grid=grid, ref=ref, model=model, state=state,
        steering_u=steering_u, vortex_center=(cx, cy),
        vortex_radius=vortex_radius, vortex_amp=vortex_amp,
    )
    case.refresh_boundary_targets(0.0)
    return case
