"""Stratified shear-layer (Kelvin-Helmholtz) workload.

A classic dynamical-core test orthogonal to the mountain wave: a tanh
shear layer in uniform stratification is unstable when the minimum
gradient Richardson number

    Ri = N^2 / (du/dz)^2 = N^2 h^2 / U0^2      (at the layer center)

drops below 1/4 (Miles-Howard).  The workload builds the layer, seeds it
with small noise, and exposes the perturbation kinetic energy so tests
can verify that billows grow for Ri < 1/4 and do not for Ri well above
it — a sharp, theory-backed discriminator of the momentum advection +
buoyancy coupling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.grid import Grid, make_grid
from ..core.model import AsucaModel, ModelConfig
from ..core.reference import ReferenceState, make_reference_state
from ..core.rk3 import DynamicsConfig
from ..core.state import State
from .sounding import constant_stability_sounding

__all__ = ["ShearLayerCase", "make_shear_layer_case"]


@dataclass
class ShearLayerCase:
    grid: Grid
    ref: ReferenceState
    model: AsucaModel
    state: State
    richardson: float

    def perturbation_ke(self) -> float:
        """Domain-mean kinetic energy of (w, u - <u>_xy) [J/kg-ish]."""
        g = self.grid
        u, v, w = self.state.velocities()
        ui = u[g.isl_u]
        u_mean = ui.mean(axis=(0, 1), keepdims=True)
        wi = g.interior(w)
        return float(0.5 * ((ui - u_mean) ** 2).mean() + 0.5 * (wi ** 2).mean())


def make_shear_layer_case(
    *,
    richardson: float = 0.12,
    u_half: float = 5.0,
    layer_depth: float = 300.0,
    nx: int = 32,
    ny: int = 4,
    nz: int = 40,
    ztop: float = 3000.0,
    dt: float = 1.0,
    ns: int = 6,
    noise: float = 0.02,
    seed: int = 0,
) -> ShearLayerCase:
    """Build a tanh shear layer ``u(z) = U0 tanh((z - zm)/h)`` whose
    center Richardson number equals ``richardson`` (the stratification is
    derived from it: ``N = sqrt(Ri) U0 / h``)."""
    n_bv = float(np.sqrt(richardson) * u_half / layer_depth)
    # fastest KH mode has wavelength ~ 7 h: fit ~2 wavelengths in x
    dx = 14.0 * layer_depth / nx * 2.0
    grid = make_grid(nx=nx, ny=ny, nz=nz, dx=dx, dy=dx, ztop=ztop)
    ref = make_reference_state(grid, constant_stability_sounding(288.0, n_bv))
    config = ModelConfig(dynamics=DynamicsConfig(
        dt=dt, ns=ns, rayleigh_depth=ztop / 6.0, rayleigh_tau=60.0,
    ))
    model = AsucaModel(grid, ref, config)
    state = model.initial_state()

    zm = ztop / 2.0
    u_prof = u_half * np.tanh((grid.z_c - zm) / layer_depth)
    grho = ref.rho_c * grid.jac[:, :, None]
    grho_u = np.empty(grid.shape_u)
    grho_u[1:-1] = 0.5 * (grho[1:] + grho[:-1])
    grho_u[0], grho_u[-1] = grho[0], grho[-1]
    state.rhou[...] = grho_u * u_prof[None, None, :]

    r = np.random.default_rng(seed)
    state.rhotheta *= 1.0 + noise * 1e-2 * r.standard_normal(grid.shape_c)
    model._exchange(state, None)
    return ShearLayerCase(grid=grid, ref=ref, model=model, state=state,
                          richardson=richardson)
