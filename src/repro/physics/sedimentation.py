"""Rain sedimentation: Marshall-Palmer terminal velocity and upstream
flux-form fall-out.

The paper's Eq. (4) advects each water substance with ``u^i + u^i_t`` where
``u_t`` is the terminal fall velocity; only rain falls in the warm-rain
scheme.  Fall is along physical z, which in the terrain-following
coordinate is a pure x3 flux of magnitude ``rho q_r V_t`` (the Jacobians
cancel), handled here with first-order upstream (downward) differencing and
CFL sub-stepping.

Returns the surface precipitation rate, the paper's Fig. 12 "precipitation"
diagnostic.
"""
from __future__ import annotations

import numpy as np

from ..core.grid import Grid

__all__ = ["terminal_velocity", "sediment_rain", "SEDIMENTATION_FLOPS_PER_POINT"]

SEDIMENTATION_FLOPS_PER_POINT = 12

#: Kessler/Marshall-Palmer constants (Klemp & Wilhelmson 1978)
_VT_COEF = 36.34          # m/s per (kg/m^3 of rain water)^0.1364
_VT_EXP = 0.1364
_RHO_SFC = 1.2            # density normalization [kg/m^3]
#: the largest fall-out Courant number of one sub-step
MAX_CFL = 0.9


def terminal_velocity(rho_qr: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Mass-weighted rain fall speed [m/s], >= 0.

    ``V_t = 36.34 (rho q_r)^0.1364 sqrt(rho_0 / rho)``.
    """
    rq = np.maximum(rho_qr, 0.0)
    return _VT_COEF * rq ** _VT_EXP * np.sqrt(_RHO_SFC / np.maximum(rho, 1e-10))


def sediment_rain(
    qr_hat: np.ndarray,
    rho_hat: np.ndarray,
    grid: Grid,
    dt: float,
    *,
    max_cfl: float = MAX_CFL,
) -> np.ndarray:
    """Fall out rain over ``dt`` (in place on ``qr_hat`` and ``rho_hat``,
    interior columns only) and return the surface precipitation rate
    [kg m^-2 s^-1] on the interior (nx, ny) cells.

    Removing rain mass also removes total air-parcel mass: the density
    update implements the paper's ``F_rho`` precipitation mass sink.
    """
    g = grid
    sx, sy = g.isl
    jac = g.jac[sx, sy][:, :, None]
    dz = g.dz_c[None, None, :]
    precip = np.zeros((g.nx, g.ny), dtype=qr_hat.dtype)

    qr = qr_hat[sx, sy]          # views: updates write through
    rho = rho_hat[sx, sy]

    remaining = dt
    for _ in range(64):  # hard bound; CFL substepping exits earlier
        rho_qr = np.maximum(qr, 0.0) / jac       # physical rho * q_r
        rho_phys = rho / jac
        vt = terminal_velocity(rho_qr, rho_phys)
        vmax = float(vt.max())
        if vmax <= 0.0:
            break
        dt_sub = min(remaining, max_cfl * float(g.dz_c.min()) / vmax)
        # downward upstream flux through the bottom face of each cell
        flux = rho_qr * vt                        # [kg m^-2 s^-1] per cell
        # d(G rho q_r)/dt = dF/dx3 exactly (the G of the weighting and the
        # 1/G of d/dz = (1/G) d/dx3 cancel)
        dq = np.empty_like(qr)
        dq[:, :, :-1] = (flux[:, :, 1:] - flux[:, :, :-1]) / dz[:, :, :-1]
        dq[:, :, -1] = -flux[:, :, -1] / dz[:, :, -1]
        qr += dt_sub * dq
        rho += dt_sub * dq
        precip += dt_sub / dt * flux[:, :, 0]
        remaining -= dt_sub
        if remaining <= 1e-12:
            break
    np.maximum(qr, 0.0, out=qr)
    return precip
