"""Equation of state and its acoustic linearization.

ASUCA's EOS (paper Eq. 5) written with the Exner function is equivalent to::

    p = p0 * (Rd * rho * theta_m / p0) ** (cp / cv)

The acoustic (short) steps need the linearization around the long-step
start state::

    p' = (dp / d(rho theta)) * (rho theta)'  with
    dp/d(rho theta) = (cp/cv) * p / (rho theta)

In the G-weighted prognostic variables (``rhotheta_hat = G rho theta``) the
coefficient becomes ``Cp_lin = (cp/cv) * p / rhotheta_hat`` so that
``p' = Cp_lin * rhotheta_hat'`` directly — that coefficient is what the
Helmholtz assembly consumes.
"""
from __future__ import annotations

import numpy as np

from .. import constants as c
from ..stencil.spec import stencil
from .grid import Grid

__all__ = ["eos_pressure", "linearization_coefficient", "exner", "temperature"]

#: cost-model constants for the GPU substrate (validated in tests/perf)
EOS_FLOPS_PER_POINT = 6


@stencil(reads=("rhotheta_hat",), writes=("p",), halo=0,
         flops=20, loads=2, stores=1,
         # measured ratios: 1.30 flops (pow weighted at 8), ~3.4x bytes
         flops_band=(0.8, 2.0), bytes_band=(1.5, 8.0))
def eos_pressure(rhotheta_hat: np.ndarray, grid: Grid,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Full pressure from the G-weighted ``rho theta`` (paper Eq. 5):
    ``P0 * (RD * (rhotheta_hat / G) / P0) ** (CP / CV)``, its five ufuncs
    in that order on the one array returned (float64: the Jacobian is),
    ``out`` when given."""
    p = np.divide(rhotheta_hat, grid.jac[:, :, None], out=out)
    np.multiply(c.RD, p, out=p)
    np.divide(p, c.P0, out=p)
    np.power(p, c.CP / c.CV, out=p)
    return np.multiply(c.P0, p, out=p)


def linearization_coefficient(p: np.ndarray, rhotheta_hat: np.ndarray) -> np.ndarray:
    """``Cp_lin`` such that ``p' = Cp_lin * (G rho theta)'``."""
    return (c.CP / c.CV) * p / rhotheta_hat


def exner(p: np.ndarray) -> np.ndarray:
    """Exner function ``pi = (p / p0) ** (Rd / cp)``."""
    return (p / c.P0) ** c.KAPPA


def temperature(p: np.ndarray, rho_phys: np.ndarray) -> np.ndarray:
    """Ideal-gas temperature from pressure and physical density."""
    return p / (c.RD * rho_phys)
