"""Prognostic model state in generalized-coordinate flux form.

The conserved (prognostic) variables follow the paper's Eqs. (1)-(4): the
density-weighted quantities divided by the coordinate Jacobian.  With our
Jacobian convention ``G = dz/dx3`` (``G = 1/J`` in the paper's notation) the
variables stored here are

=========== ========================= ============================
attribute   meaning                   grid location
=========== ========================= ============================
``rho``     G * rho                   cell centers
``rhou``    G_u * rho * u             x faces
``rhov``    G_v * rho * v             y faces
``rhow``    G * rho * w               z faces
``rhotheta``G * rho * theta_m         cell centers
``q[name]`` G * rho * q_alpha         cell centers (7 species)
=========== ========================= ============================

Integrating ``rho * dx * dy * dx3`` over computational cells gives physical
mass exactly, which is what the conservation tests assert.

All arrays carry the horizontal halo of the owning :class:`~repro.core.grid.Grid`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .. import constants as c
from ..stencil import native
from .grid import Grid
from .reference import ReferenceState

__all__ = ["NumericalBlowup", "State", "zero_bits", "zeros_state",
           "state_from_reference"]


class NumericalBlowup(FloatingPointError):
    """A prognostic ``field`` left the finite (density: the positive) range
    at model ``time``, after long step ``step`` (``None``: not counted).
    The compiled bodies raise no floating-point warnings, so
    :meth:`State.validate` is the tripwire."""

    def __init__(self, what: str, field: str, time: float,
                 step: int | None = None):
        where = f"t={time}" + ("" if step is None else f", long step {step}")
        super().__init__(f"{what} at {where}")
        self.field, self.time, self.step = field, time, step


def zero_bits(a: np.ndarray) -> bool:
    """Every byte of ``a`` is zero.  A test on bits, not ``== 0``: a
    ``-0.0`` keeps its sign through ``-0.0 + -0.0``, so it is not zero.
    Decides what the RK3 stage and the checkpoint codec may skip."""
    return not a.view(f"u{a.itemsize}").max()


@dataclass
class State:
    """Container of prognostic arrays.  Mutable; kernels update in place or
    produce new instances via :meth:`copy`."""

    grid: Grid
    rho: np.ndarray
    rhou: np.ndarray
    rhov: np.ndarray
    rhow: np.ndarray
    rhotheta: np.ndarray
    q: Dict[str, np.ndarray] = field(default_factory=dict)
    time: float = 0.0
    #: accumulated surface precipitation [kg m^-2 == mm], interior cells;
    #: created by the microphysics on first use
    precip_accum: np.ndarray | None = None

    # ------------------------------------------------------------- basics
    @property
    def dtype(self) -> np.dtype:
        return self.rho.dtype

    def copy(self) -> "State":
        return State(
            grid=self.grid,
            rho=self.rho.copy(),
            rhou=self.rhou.copy(),
            rhov=self.rhov.copy(),
            rhow=self.rhow.copy(),
            rhotheta=self.rhotheta.copy(),
            q={k: v.copy() for k, v in self.q.items()},
            time=self.time,
            precip_accum=None if self.precip_accum is None else self.precip_accum.copy(),
        )

    def prognostic_names(self) -> list[str]:
        return ["rho", "rhou", "rhov", "rhow", "rhotheta", *self.q.keys()]

    def get(self, name: str) -> np.ndarray:
        if name in self.q:
            return self.q[name]
        return getattr(self, name)

    def set(self, name: str, value: np.ndarray) -> None:
        if name in self.q:
            self.q[name] = value
        else:
            setattr(self, name, value)

    def validate(self, step: int | None = None) -> None:
        """Raise :class:`NumericalBlowup` if any array is non-finite or
        density is non-positive in the interior — the model driver calls
        this after long step ``step`` when ``check_finite`` is on."""
        g = self.grid
        for name in self.prognostic_names():
            arr = self.get(name)
            if not np.all(np.isfinite(g.interior(arr))):
                raise NumericalBlowup(f"non-finite values in {name!r}",
                                      name, self.time, step)
        if np.any(g.interior(self.rho) <= 0):
            raise NumericalBlowup("non-positive density", "rho", self.time,
                                  step)

    # --------------------------------------------------------- diagnostics
    def velocities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical velocities (u at x faces, v at y faces, w at z faces)
        reconstructed from the G-weighted momenta.  Uses simple two-point
        averages for face densities, one-sided at domain edges.  One
        compiled call (csrc/acoustic.c, ``state_velocities``) where a
        verified library takes the float64 fields, else the NumPy below,
        its oracle: the same bytes."""
        g = self.grid
        lib = native.kernels()
        if lib is not None:
            ptrs = native.pointers(
                np.float64, dict(rho=self.rho, rhou=self.rhou, rhov=self.rhov,
                                 rhow=self.rhow),
                dict(rho=g.shape_c, rhou=g.shape_u, rhov=g.shape_v,
                     rhow=g.shape_w))
            if not isinstance(ptrs, native.Unbound):
                out = (np.empty(g.shape_u), np.empty(g.shape_v),
                       np.empty(g.shape_w))
                lib.velocities(*g.shape_c, *ptrs,
                               *(a.ctypes.data for a in out))
                return out
            native.unbound("velocities", ptrs)
        rho_u = np.empty(g.shape_u, dtype=self.dtype)
        rho_u[1:-1] = 0.5 * (self.rho[1:] + self.rho[:-1])
        rho_u[0] = self.rho[0]
        rho_u[-1] = self.rho[-1]
        # self.rho is G-weighted with the scalar-column G; face G cancels
        # approximately -- we reconstruct with the G-weighted face density,
        # which is exactly consistent with how rhou was built.
        u = self.rhou / rho_u

        rho_v = np.empty(g.shape_v, dtype=self.dtype)
        rho_v[:, 1:-1] = 0.5 * (self.rho[:, 1:] + self.rho[:, :-1])
        rho_v[:, 0] = self.rho[:, 0]
        rho_v[:, -1] = self.rho[:, -1]
        v = self.rhov / rho_v

        rho_w = np.empty(g.shape_w, dtype=self.dtype)
        rho_w[:, :, 1:-1] = 0.5 * (self.rho[:, :, 1:] + self.rho[:, :, :-1])
        rho_w[:, :, 0] = self.rho[:, :, 0]
        rho_w[:, :, -1] = self.rho[:, :, -1]
        w = self.rhow / rho_w
        return u, v, w

    def theta_m(self) -> np.ndarray:
        """Moist potential temperature ``theta_m = rhotheta / rho``."""
        return self.rhotheta / self.rho

    def pressure(self) -> np.ndarray:
        """Full pressure from the equation of state (paper Eq. 5),
        ``p = p0 * (Rd * rho * theta_m / p0) ** (cp/cv)``.

        The G weights cancel in ``rhotheta / G`` only when divided out; we
        need the physical ``rho * theta_m`` so divide by G here."""
        jac = self.grid.jac[:, :, None]
        rhotheta_phys = self.rhotheta / jac
        return c.P0 * (c.RD * rhotheta_phys / c.P0) ** (c.CP / c.CV)

    def total_mass(self) -> float:
        """Physical mass of the interior domain (exact FVM invariant)."""
        g = self.grid
        cell = g.interior(self.rho) * g.dz_c[None, None, :]
        return float(cell.sum() * g.dx * g.dy)

    def total_water_mass(self) -> float:
        g = self.grid
        tot = 0.0
        for arr in self.q.values():
            tot += float((g.interior(arr) * g.dz_c[None, None, :]).sum())
        return tot * g.dx * g.dy

    def mixing_ratio(self, name: str) -> np.ndarray:
        """Diagnostic mixing ratio ``q_alpha = (G rho q) / (G rho)``."""
        return self.q[name] / self.rho


def zeros_state(grid: Grid, dtype=np.float64, species=c.WATER_SPECIES) -> State:
    return State(
        grid=grid,
        rho=grid.zeros_c(dtype),
        rhou=grid.zeros_u(dtype),
        rhov=grid.zeros_v(dtype),
        rhow=grid.zeros_w(dtype),
        rhotheta=grid.zeros_c(dtype),
        q={name: grid.zeros_c(dtype) for name in species},
    )


def state_from_reference(
    grid: Grid,
    ref: ReferenceState,
    *,
    u0: float = 0.0,
    v0: float = 0.0,
    dtype=np.float64,
    species=c.WATER_SPECIES,
) -> State:
    """Initialize a state in exact discrete hydrostatic balance with an
    optional uniform horizontal wind.  ``rhow`` starts at zero; with terrain
    the flow is *not* initially parallel to coordinate surfaces, which is the
    standard impulsive start of the mountain-wave test."""
    st = zeros_state(grid, dtype=dtype, species=species)
    jac3 = grid.jac[:, :, None]
    st.rho[...] = (ref.rho_c * jac3).astype(dtype)
    st.rhotheta[...] = (ref.rho_c * ref.theta_c * jac3).astype(dtype)

    # u faces: average neighboring G*rho columns
    grho = ref.rho_c * jac3
    grho_u = np.empty(grid.shape_u)
    grho_u[1:-1] = 0.5 * (grho[1:] + grho[:-1])
    grho_u[0] = grho[0]
    grho_u[-1] = grho[-1]
    st.rhou[...] = (u0 * grho_u).astype(dtype)

    grho_v = np.empty(grid.shape_v)
    grho_v[:, 1:-1] = 0.5 * (grho[:, 1:] + grho[:, :-1])
    grho_v[:, 0] = grho[:, 0]
    grho_v[:, -1] = grho[:, -1]
    st.rhov[...] = (v0 * grho_v).astype(dtype)
    return st
