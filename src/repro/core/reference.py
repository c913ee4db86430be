"""Hydrostatically balanced reference (base) state.

The HE-VI acoustic step linearizes pressure and buoyancy around a dry,
hydrostatically balanced base state ``(rho_bar, theta_bar, p_bar)`` that
depends on physical height only.  Given a potential-temperature profile
``theta(z)`` the Exner function follows from hydrostatic balance::

    d(pi)/dz = -g / (cp * theta(z)),   pi(0) = (p_sfc / p0)^(Rd/cp)

and then ``p = p0 * pi**(cp/Rd)``, ``T = theta * pi``,
``rho = p / (Rd * T)``.

Because the grid is terrain following, base-state fields are 3-D: they are
the 1-D balanced profiles evaluated at the physical height of every cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import constants as c
from .grid import Grid

__all__ = ["ReferenceState", "make_reference_state", "hydrostatic_exner"]


def hydrostatic_exner(
    theta_of_z: Callable[[np.ndarray], np.ndarray],
    z_max: float,
    *,
    p_surface: float = c.P0,
    n_points: int = 4001,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate hydrostatic balance on a fine 1-D grid.

    Returns ``(z_fine, pi_fine)`` suitable for interpolation.  Uses the
    trapezoidal rule on ``d(pi)/dz = -g / (cp * theta)``, which is exact
    enough (4th-order profiles change nothing at n=4001) for every test in
    this repository.
    """
    z = np.linspace(0.0, z_max, n_points)
    theta = np.asarray(theta_of_z(z), dtype=np.float64)
    if np.any(theta <= 0):
        raise ValueError("theta(z) must be positive")
    integrand = -c.G / (c.CP * theta)
    dpi = np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(z)))
    )
    pi0 = (p_surface / c.P0) ** c.KAPPA
    pi = pi0 + dpi
    if np.any(pi <= 0):
        raise ValueError("hydrostatic Exner function became non-positive; "
                         "z_max too large for this sounding")
    return z, pi


@dataclass
class ReferenceState:
    """Base-state fields on the terrain-following grid (halo included).

    ``*_c`` live at cell centers, ``*_wf`` at w (vertical) faces.
    ``rhotheta_c`` is the base-state ``rho_bar * theta_bar`` used by the
    linearized equation of state.
    """

    theta_c: np.ndarray      # (nxh, nyh, nz)
    pi_c: np.ndarray
    p_c: np.ndarray
    rho_c: np.ndarray
    rhotheta_c: np.ndarray
    theta_wf: np.ndarray     # (nxh, nyh, nz+1)
    rho_wf: np.ndarray
    p_wf: np.ndarray
    cs2_c: np.ndarray        # sound speed squared at centers


def make_reference_state(
    grid: Grid,
    theta_of_z: Callable[[np.ndarray], np.ndarray],
    *,
    p_surface: float = c.P0,
) -> ReferenceState:
    """Evaluate the balanced profiles on every grid column."""
    z_c3 = grid.z3d_c()
    z_f3 = grid.z3d_f()
    z_max = float(z_f3.max()) * 1.0 + 1.0
    z_fine, pi_fine = hydrostatic_exner(theta_of_z, z_max, p_surface=p_surface)

    def eval_at(z3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pi = np.interp(z3.ravel(), z_fine, pi_fine).reshape(z3.shape)
        theta = np.asarray(theta_of_z(z3.ravel()), dtype=np.float64).reshape(z3.shape)
        return theta, pi

    theta_c, pi_c = eval_at(z_c3)
    theta_wf, pi_wf = eval_at(z_f3)

    p_c = c.P0 * pi_c ** (c.CP / c.RD)
    p_wf = c.P0 * pi_wf ** (c.CP / c.RD)
    rho_c = p_c / (c.RD * theta_c * pi_c)
    rho_wf = p_wf / (c.RD * theta_wf * pi_wf)
    return ReferenceState(
        theta_c=theta_c,
        pi_c=pi_c,
        p_c=p_c,
        rho_c=rho_c,
        rhotheta_c=rho_c * theta_c,
        theta_wf=theta_wf,
        rho_wf=rho_wf,
        p_wf=p_wf,
        cs2_c=c.sound_speed_squared(p_c, rho_c),
    )
