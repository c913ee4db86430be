"""Cold-rain (ice phase) microphysics — the paper's stated future work.

The paper's conclusion: "supporting a wider variety of physics processes
such as snow is a subject of future work" and "future developments of
ASUCA will introduce more computationally intensive physics processes"
(Sec. VII).  This module implements that extension: a simplified
three-ice-process chain in the spirit of the Lin/Rutledge–Hobbs schemes
the JMA-NHM family uses, activating the ``qi`` (cloud ice) and ``qs``
(snow) slots that already advect passively in the warm-rain configuration:

* **freezing** of cloud water: instantaneous below the homogeneous
  nucleation threshold (~-38 C), gradual (Bigg-type, exponential in
  supercooling) between 0 C and that threshold;
* **depositional growth** of cloud ice from vapor in ice-supersaturated,
  sub-freezing air (and sublimation in sub-saturated air), with the
  saturation adjustment done against ice saturation;
* **autoconversion** of cloud ice to snow above a threshold and
  **accretion** of cloud ice and cloud water (riming) by snow;
* **melting** of snow (and cloud ice) to rain/cloud above 0 C, cooling
  the air by the latent heat of fusion;
* **snow sedimentation** with a slower fall speed than rain.

All conversions are point-wise, conservative (total water changes only
through surface snowfall), clipped to available reservoirs, and feed the
``rhotheta`` prognostic through the appropriate latent heats
(Lv condensation, Ls deposition, Lf freezing/melting).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants as c
from ..core.pressure import eos_pressure, exner
from ..core.reference import ReferenceState
from ..core.state import State
from ..stencil.spec import stencil
from .sedimentation import SEDIMENTATION_FLOPS_PER_POINT  # noqa: F401 (re-export pattern)

__all__ = [
    "IceConfig",
    "cold_rain_step",
    "ice_saturation_mixing_ratio",
    "snow_terminal_velocity",
    "COLD_RAIN_FLOPS_PER_POINT",
]

#: the extension is transcendental-heavy like the warm-rain kernel — the
#: paper predicts such physics "can easily extract GPU's performance"
COLD_RAIN_FLOPS_PER_POINT = 220

# Tetens constants over ice
_AI = 21.875
_BI = 7.66
_ES0 = 610.78
_T00 = 273.16

#: homogeneous freezing threshold [K]
T_HOMOGENEOUS = 235.0


def ice_saturation_vapor_pressure(T: np.ndarray) -> np.ndarray:
    """e_si(T) [Pa], Tetens over ice (steeper than over liquid)."""
    T = np.asarray(T)
    return _ES0 * np.exp(_AI * (T - _T00) / (T - _BI))


def ice_saturation_mixing_ratio(p: np.ndarray, T: np.ndarray) -> np.ndarray:
    """q_si = 0.622 e_si / (p - e_si)."""
    es = ice_saturation_vapor_pressure(T)
    denom = np.maximum(p - es, 0.1 * np.asarray(p))
    return (c.RD / c.RV) * es / denom


#: snow fall-speed constants (Locatelli-Hobbs-like, much slower than rain)
_VS_COEF = 4.0
_VS_EXP = 0.06


def snow_terminal_velocity(rho_qs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Mass-weighted snow fall speed [m/s]; ~1 m/s, far below rain's."""
    rq = np.maximum(rho_qs, 0.0)
    return _VS_COEF * rq ** _VS_EXP * np.sqrt(1.2 / np.maximum(rho, 1e-10)) * 0.25


@dataclass
class IceConfig:
    """Cold-rain constants (simplified Lin-type defaults)."""

    freeze_rate: float = 0.01          #: Bigg freezing base rate [1/s]
    freeze_efold: float = 0.5          #: exponential supercooling factor [1/K]
    deposition_timescale: float = 300.0  #: vapor->ice relaxation [s]
    autoconv_rate: float = 1.0e-3      #: qi -> qs [1/s]
    autoconv_threshold: float = 6.0e-4 #: [kg/kg]
    accretion_rate: float = 1.0        #: snow collecting qi/qc [1/s per (kg/kg)]
    melt_timescale: float = 600.0      #: snow melt relaxation above 0 C [s]
    sedimentation: bool = True


def _sediment_species(
    q_hat: np.ndarray, rho_hat: np.ndarray, grid, dt: float, vt: np.ndarray
) -> np.ndarray:
    """Upstream fall-out of one species over ``dt`` (single pass; the
    caller guarantees the CFL via the small snow fall speeds).  Returns
    the surface flux [kg m^-2 s^-1] on interior cells."""
    sx, sy = grid.isl
    jac = grid.jac[sx, sy][:, :, None]
    dz = grid.dz_c[None, None, :]
    q = q_hat[sx, sy]
    rho = rho_hat[sx, sy]
    flux = np.maximum(q, 0.0) / jac * vt
    dq = np.empty_like(q)
    dq[:, :, :-1] = (flux[:, :, 1:] - flux[:, :, :-1]) / dz[:, :, :-1]
    dq[:, :, -1] = -flux[:, :, -1] / dz[:, :, -1]
    q += dt * dq
    rho += dt * dq
    np.maximum(q, 0.0, out=q)
    return flux[:, :, 0]


@stencil(reads=("rho", "rhotheta", "qv", "qc", "qr", "qi", "qs"),
         writes=("rho", "rhotheta", "qv", "qc", "qr", "qi", "qs",
                 "precip"),
         halo=0, flops=300, loads=7, stores=8, stage="physics",
         # in-place column physics: the probe harness cannot restore it
         probe=False)
def cold_rain_step(
    state: State,
    ref: ReferenceState,
    dt: float,
    cfg: IceConfig | None = None,
) -> np.ndarray:
    """Apply the ice-phase processes in place (after the warm-rain step).

    Returns the surface *snowfall* rate [kg m^-2 s^-1] on interior cells
    and adds it to ``state.precip_accum`` (total precipitation).
    """
    cfg = cfg or IceConfig()
    g = state.grid
    sx, sy = g.isl
    jac = g.jac[sx, sy][:, :, None]

    rho = state.rho[sx, sy]
    qv = state.q["qv"][sx, sy] / rho
    qc = state.q["qc"][sx, sy] / rho
    qi = state.q["qi"][sx, sy] / rho
    qs = state.q["qs"][sx, sy] / rho

    p = eos_pressure(state.rhotheta, g)[sx, sy]
    pi = exner(p)
    theta = state.rhotheta[sx, sy] / rho
    T = theta * pi
    lf_cp_pi = c.LF / (c.CP * pi)
    ls_cp_pi = c.LS / (c.CP * pi)

    cold = T < c.T0
    supercooling = np.maximum(c.T0 - T, 0.0)

    # --- freezing of cloud water (qc -> qi, heats by Lf) ---------------
    rate = cfg.freeze_rate * np.expm1(cfg.freeze_efold * supercooling)
    frac = 1.0 - np.exp(-np.maximum(rate, 0.0) * dt)
    frac = np.where(T <= T_HOMOGENEOUS, 1.0, frac)
    dfreeze = np.where(cold, frac * np.maximum(qc, 0.0), 0.0)
    qc -= dfreeze
    qi += dfreeze
    theta = theta + lf_cp_pi * dfreeze
    T = theta * pi

    # --- deposition / sublimation (qv <-> qi, Ls) -----------------------
    qsi = ice_saturation_mixing_ratio(p, T)
    excess = qv - qsi
    ddep = np.where(
        cold, (1.0 - np.exp(-dt / cfg.deposition_timescale)) * excess, 0.0
    )
    # sublimation cannot remove more ice than exists
    ddep = np.maximum(ddep, -np.maximum(qi, 0.0))
    qv -= ddep
    qi += ddep
    theta = theta + ls_cp_pi * ddep
    T = theta * pi

    # --- autoconversion qi -> qs + accretion by snow --------------------
    auto = cfg.autoconv_rate * np.maximum(qi - cfg.autoconv_threshold, 0.0)
    accr_i = cfg.accretion_rate * np.maximum(qs, 0.0) * np.maximum(qi, 0.0)
    di2s = np.minimum((auto + accr_i) * dt, np.maximum(qi, 0.0))
    qi -= di2s
    qs += di2s
    # riming: snow collects supercooled cloud water (freezes on contact)
    rim = np.where(
        cold,
        np.minimum(cfg.accretion_rate * np.maximum(qs, 0.0)
                   * np.maximum(qc, 0.0) * dt, np.maximum(qc, 0.0)),
        0.0,
    )
    qc -= rim
    qs += rim
    theta = theta + lf_cp_pi * rim
    T = theta * pi

    # --- melting above 0 C (qs -> qr, qi -> qc; cools by Lf) ------------
    warm = T >= c.T0
    melt_frac = 1.0 - np.exp(-dt / cfg.melt_timescale)
    dmelt_s = np.where(warm, melt_frac * np.maximum(qs, 0.0), 0.0)
    dmelt_i = np.where(warm, np.maximum(qi, 0.0), 0.0)  # cloud ice melts fast
    qs -= dmelt_s
    qi -= dmelt_i
    qr = state.q["qr"][sx, sy] / rho + dmelt_s
    qc += dmelt_i
    theta = theta - lf_cp_pi * (dmelt_s + dmelt_i)

    # --- write back ------------------------------------------------------
    state.rhotheta[sx, sy] = theta * rho
    state.q["qv"][sx, sy] = np.maximum(qv, 0.0) * rho
    state.q["qc"][sx, sy] = np.maximum(qc, 0.0) * rho
    state.q["qr"][sx, sy] = np.maximum(qr, 0.0) * rho
    state.q["qi"][sx, sy] = np.maximum(qi, 0.0) * rho
    state.q["qs"][sx, sy] = np.maximum(qs, 0.0) * rho

    # --- snow sedimentation ---------------------------------------------
    snowfall = np.zeros((g.nx, g.ny), dtype=state.rho.dtype)
    if cfg.sedimentation:
        rho_qs = np.maximum(state.q["qs"][sx, sy], 0.0) / jac
        vt = snow_terminal_velocity(rho_qs, state.rho[sx, sy] / jac)
        # snow falls ~1 m/s: a single upstream pass is CFL safe for any
        # reasonable dt/dz; clamp just in case
        vt = np.minimum(vt, 0.9 * float(g.dz_c.min()) / dt)
        snowfall = _sediment_species(state.q["qs"], state.rho, g, dt, vt)

    accum = state.precip_accum
    if accum is None:
        accum = np.zeros((g.nx, g.ny), dtype=state.rho.dtype)
        state.precip_accum = accum
    accum += snowfall * dt
    return snowfall
