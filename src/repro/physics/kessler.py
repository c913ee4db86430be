"""Kessler-type warm-rain microphysics (paper Sec. II: "a Kessler-type
warm-rain scheme ... also used in the JMA-NHM").

Processes, applied point-wise on interior cells after the dynamics step:

1. rain **sedimentation** (:mod:`repro.physics.sedimentation`), including
   the precipitation mass sink on total density (the paper's ``F_rho``);
2. **autoconversion** of cloud to rain above a threshold
   (``k1 (qc - a)+``) and **accretion** (``k2 qc qr^0.875``), Kessler 1969
   constants as in Klemp & Wilhelmson 1978;
3. **rain evaporation** in sub-saturated air;
4. **saturation adjustment** of vapor/cloud with latent heating.

The heating enters the model's ``rhotheta`` prognostic through
``d(theta) = Lv d(qc+qr->v) / (cp pi)``; the moist correction
``theta_m != theta`` is neglected inside the microphysics (documented in
DESIGN.md).  This module is the paper's compute-bound "warm rain" kernel
(5) in Fig. 5 — note the transcendental-heavy, low-memory-traffic profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants as c
from ..core.pressure import eos_pressure, exner
from ..stencil.spec import stencil
from ..core.reference import ReferenceState
from ..core.state import State
from .saturation import dqs_dT, saturation_mixing_ratio
from .sedimentation import sediment_rain

__all__ = ["KesslerConfig", "kessler_step", "KESSLER_FLOPS_PER_POINT"]

#: per-point floating-point cost (log/exp/pow heavy) for the GPU model;
#: high arithmetic intensity is what puts this kernel near the roofline
#: ridge in the paper's Fig. 5
KESSLER_FLOPS_PER_POINT = 120


@dataclass
class KesslerConfig:
    """Kessler constants (Klemp & Wilhelmson 1978 defaults)."""

    autoconv_rate: float = 1.0e-3      #: k1 [1/s]
    autoconv_threshold: float = 1.0e-3 #: a [kg/kg]
    accretion_rate: float = 2.2        #: k2 [1/s per (kg/kg)^0.875]
    evaporation: bool = True
    saturation_adjust: bool = True
    sedimentation: bool = True


@stencil(reads=("rho", "rhotheta", "qv", "qc", "qr"),
         writes=("rhotheta", "qv", "qc", "qr", "precip"), halo=0,
         flops=400, loads=5, stores=3, stage="physics",
         # measured ratios: ~0.74-0.76 flops, ~37x streamed bytes (the
         # saturation/evaporation chain allocates aggressively)
         flops_band=(0.4, 1.5), bytes_band=(15.0, 60.0),
         probe=False)
def kessler_step(
    state: State,
    ref: ReferenceState,
    dt: float,
    cfg: KesslerConfig | None = None,
) -> np.ndarray:
    """Apply one warm-rain physics step in place; returns the surface
    precipitation rate [kg m^-2 s^-1] on interior cells and accumulates
    ``state.precip_accum`` [kg m^-2 == mm]."""
    cfg = cfg or KesslerConfig()
    g = state.grid
    sx, sy = g.isl
    jac = g.jac[sx, sy][:, :, None]

    precip = np.zeros((g.nx, g.ny), dtype=state.rho.dtype)
    if cfg.sedimentation:
        precip = sediment_rain(state.q["qr"], state.rho, g, dt)

    rho = state.rho[sx, sy]
    rhotheta = state.rhotheta[sx, sy]
    qv = state.q["qv"][sx, sy] / rho
    qc = state.q["qc"][sx, sy] / rho
    qr = state.q["qr"][sx, sy] / rho

    # thermodynamic state from the EOS (same discrete EOS as the dynamics)
    p = eos_pressure(state.rhotheta, g)[sx, sy]
    pi = exner(p)
    theta = rhotheta / rho
    T = theta * pi
    lv_cp_pi = c.LV / (c.CP * pi)

    # --- autoconversion + accretion (qc -> qr) -------------------------
    auto = cfg.autoconv_rate * np.maximum(qc - cfg.autoconv_threshold, 0.0)
    accr = cfg.accretion_rate * np.maximum(qc, 0.0) * np.maximum(qr, 0.0) ** 0.875
    dqc2qr = np.minimum((auto + accr) * dt, np.maximum(qc, 0.0))
    qc -= dqc2qr
    qr += dqc2qr

    # --- rain evaporation (qr -> qv, cooling) ---------------------------
    if cfg.evaporation:
        qvs = saturation_mixing_ratio(p, T)
        subsat = np.maximum(qvs - qv, 0.0) / qvs
        rho_qr = np.maximum(qr, 0.0) * rho / jac
        vent = 1.6 + 124.9 * rho_qr ** 0.2046
        evap_rate = (
            subsat * vent * rho_qr ** 0.525
            / ((5.4e5 + 2.55e6 / (p * qvs)) * (rho / jac))
        )
        dqr2qv = np.minimum(
            np.minimum(evap_rate * dt, np.maximum(qr, 0.0)),
            np.maximum(qvs - qv, 0.0),
        )
        qr -= dqr2qv
        qv += dqr2qv
        theta = theta - lv_cp_pi * dqr2qv
        T = theta * pi

    # --- saturation adjustment (qv <-> qc, heating/cooling) -------------
    if cfg.saturation_adjust:
        qvs = saturation_mixing_ratio(p, T)
        # single Newton step of the adjustment (standard Kessler practice)
        dq = (qv - qvs) / (1.0 + (c.LV / c.CP) * dqs_dT(p, T))
        cond = np.clip(dq, -np.maximum(qc, 0.0), None)  # evaporate at most qc
        qv -= cond
        qc += cond
        theta = theta + lv_cp_pi * cond

    # --- write back ------------------------------------------------------
    state.rhotheta[sx, sy] = theta * rho
    state.q["qv"][sx, sy] = np.maximum(qv, 0.0) * rho
    state.q["qc"][sx, sy] = np.maximum(qc, 0.0) * rho
    state.q["qr"][sx, sy] = np.maximum(qr, 0.0) * rho

    accum = getattr(state, "precip_accum", None)
    if accum is None:
        accum = np.zeros((g.nx, g.ny), dtype=state.rho.dtype)
        state.precip_accum = accum  # type: ignore[attr-defined]
    accum += precip * dt
    return precip
