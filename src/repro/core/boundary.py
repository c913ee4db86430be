"""Boundary conditions: periodic halo fills, open (zero-gradient) edges,
the kinematic surface condition, and relaxation (Davies) lateral boundaries.

The paper's mountain-wave benchmark uses periodic lateral boundaries
(Sec. IV-B); the real-data run uses externally supplied boundary data with
relaxation.  Vertically the model has a rigid free-slip lid and the
kinematic terrain condition ``u^3 = 0`` at the surface.

Halo filling is *the* single-domain stand-in for the multi-GPU halo
exchange: the distributed driver replaces these fills with
:mod:`repro.dist.halo` exchanges plus physical-edge conditions, and the
equivalence tests assert both paths produce identical interiors.
"""
from __future__ import annotations

import copy
from typing import Iterable

import numpy as np

from ..stencil.spec import stencil
from .grid import Grid
from .state import State

__all__ = [
    "fill_halo_x",
    "fill_halo_y",
    "fill_halos_state",
    "apply_kinematic_surface",
    "rayleigh_coefficient",
    "RelaxationBC",
]


def fill_halo_x(arr: np.ndarray, grid: Grid, staggered: bool) -> None:
    """Fill the x halo in place.  ``staggered`` is True for u-located
    fields (one extra face along x).  Periodic wrap or zero-gradient copy
    depending on ``grid.periodic_x``."""
    h, nx = grid.halo, grid.nx
    if grid.periodic_x:
        if staggered:
            arr[:h] = arr[nx : nx + h]
            arr[h + nx + 1 :] = arr[h + 1 : 2 * h + 1]
            # the two images of the seam face must agree exactly
            arr[h + nx] = arr[h]
        else:
            arr[:h] = arr[nx : nx + h]
            arr[h + nx :] = arr[h : 2 * h]
    else:
        edge_lo = arr[h : h + 1]
        edge_hi = arr[h + nx : h + nx + 1] if staggered else arr[h + nx - 1 : h + nx]
        arr[:h] = edge_lo
        if staggered:
            arr[h + nx + 1 :] = edge_hi
        else:
            arr[h + nx :] = edge_hi


def fill_halo_y(arr: np.ndarray, grid: Grid, staggered: bool) -> None:
    """Fill the y halo in place (mirror of :func:`fill_halo_x`)."""
    h, ny = grid.halo, grid.ny
    if grid.periodic_y:
        if staggered:
            arr[:, :h] = arr[:, ny : ny + h]
            arr[:, h + ny + 1 :] = arr[:, h + 1 : 2 * h + 1]
            arr[:, h + ny] = arr[:, h]
        else:
            arr[:, :h] = arr[:, ny : ny + h]
            arr[:, h + ny :] = arr[:, h : 2 * h]
    else:
        edge_lo = arr[:, h : h + 1]
        edge_hi = arr[:, h + ny : h + ny + 1] if staggered else arr[:, h + ny - 1 : h + ny]
        arr[:, :h] = edge_lo
        if staggered:
            arr[:, h + ny + 1 :] = edge_hi
        else:
            arr[:, h + ny :] = edge_hi


_STAGGER = {"rho": (False, False), "rhou": (True, False), "rhov": (False, True),
            "rhow": (False, False), "rhotheta": (False, False)}


@stencil(reads=("prognostics",), writes=("prognostics",), halo=0,
         flops=1, loads=1, stores=1, stage="boundary",
         # measured ratios: 3.0 flops, ~4x bytes (five fields, two axes)
         flops_band=(1.5, 4.5), bytes_band=(2.0, 8.0),
         probe=False)
def fill_halos_state(state: State, names: Iterable[str] | None = None) -> None:
    """Fill halos of the named prognostic fields (all when ``None``)."""
    g = state.grid
    for name in names if names is not None else state.prognostic_names():
        sx, sy = _STAGGER.get(name, (False, False))
        arr = state.get(name)
        fill_halo_x(arr, g, staggered=sx)
        fill_halo_y(arr, g, staggered=sy)


def apply_kinematic_surface(state: State) -> None:
    """Set the boundary w faces of ``rhow``.

    Surface: ``w = u dz/dx + v dz/dy`` (flow parallel to terrain), hence
    ``G rho w = G * (rho u dzs/dx + rho v dzs/dy)`` with metric decay 1 at
    the ground.  Lid: ``w = 0``.
    """
    g = state.grid
    if g.is_flat():
        state.rhow[:, :, 0] = 0.0
    else:
        ax = (state.rhou[:, :, 0] / g.jac_u) * g.dzsdx_u
        ay = (state.rhov[:, :, 0] / g.jac_v) * g.dzsdy_v
        horiz = 0.5 * (ax[1:] + ax[:-1]) + 0.5 * (ay[:, 1:] + ay[:, :-1])
        state.rhow[:, :, 0] = g.jac * horiz
    state.rhow[:, :, -1] = 0.0


def rayleigh_coefficient(
    grid: Grid, depth: float, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh sponge-layer damping rate [1/s] on centers and w faces.

    Zero below ``ztop - depth``; ``sin^2`` ramp up to ``1/tau`` at the lid.
    This absorbs vertically propagating mountain waves (st-MIP setup).
    """
    if depth <= 0.0:
        return np.zeros(grid.nz), np.zeros(grid.nz + 1)
    z0 = grid.ztop - depth

    def coef(z):
        s = np.clip((z - z0) / depth, 0.0, 1.0)
        return (np.sin(0.5 * np.pi * s) ** 2) / tau

    return coef(grid.z_c), coef(grid.z_f)


class RelaxationBC:
    """Davies lateral relaxation toward externally prescribed fields.

    Nudges each prognostic variable toward boundary data inside a band of
    ``width`` interior cells along non-periodic edges, with weight
    decreasing from ``1/tau`` at the edge to zero inward (cosine ramp).
    Boundary data may be time-dependent: :meth:`set_target` installs a new
    target (the real-case workload updates it hourly, mirroring the JMA
    forecast-driven boundaries of the paper's Fig. 12 run).
    """

    def __init__(self, grid: Grid, width: int = 5, tau: float = 60.0):
        if width < 1:
            raise ValueError("relaxation width must be >= 1")
        self.grid = grid
        self.width = width
        self.tau = tau
        self.targets: dict[str, np.ndarray] = {}
        #: global index of a state's first (halo) cell; see :meth:`at`
        self.origin = (0, 0)
        self._weight_c = self._make_weight(grid.nxh, grid.nyh)
        self._weight_u = self._make_weight(grid.nxh + 1, grid.nyh)
        self._weight_v = self._make_weight(grid.nxh, grid.nyh + 1)

    def _make_weight(self, nx_tot: int, ny_tot: int) -> np.ndarray:
        g, w = self.grid, self.width
        h = g.halo
        wx = np.zeros(nx_tot)
        wy = np.zeros(ny_tot)
        ramp = np.cos(0.5 * np.pi * np.arange(w) / w) ** 2
        if not g.periodic_x:
            wx[h : h + w] = np.maximum(wx[h : h + w], ramp)
            wx[nx_tot - h - w : nx_tot - h] = np.maximum(
                wx[nx_tot - h - w : nx_tot - h], ramp[::-1]
            )
            wx[:h] = 1.0
            wx[nx_tot - h :] = 1.0
        if not g.periodic_y:
            wy[h : h + w] = np.maximum(wy[h : h + w], ramp)
            wy[ny_tot - h - w : ny_tot - h] = np.maximum(
                wy[ny_tot - h - w : ny_tot - h], ramp[::-1]
            )
            wy[:h] = 1.0
            wy[ny_tot - h :] = 1.0
        return np.maximum(wx[:, None], wy[None, :]) / self.tau

    def set_target(self, name: str, target: np.ndarray) -> None:
        self.targets[name] = target

    def weight_for(self, arr: np.ndarray) -> np.ndarray:
        """The (x, y) weight field matching an array's staggering."""
        if arr.shape[:2] == self._weight_u.shape:
            return self._weight_u
        if arr.shape[:2] == self._weight_v.shape:
            return self._weight_v
        return self._weight_c

    def at(self, x0: int, y0: int) -> "RelaxationBC":
        """Rank-local view for a subdomain whose halo-inclusive arrays
        start at global index ``(x0, y0)``.  The view *shares* this
        object's targets and weights, so a later :meth:`set_target` here
        reaches every rank."""
        view = copy.copy(self)
        view.origin = (x0, y0)
        return view

    def apply(self, state: State, dt: float) -> None:
        """Relax the state toward the installed targets over ``dt``.
        Point-wise, so on a rank-local view (:meth:`at`) halo cells relax
        exactly as the neighbor's interior does — no exchange is needed
        afterwards."""
        x0, y0 = self.origin
        for name, target in self.targets.items():
            arr = state.get(name)
            here = (slice(x0, x0 + arr.shape[0]), slice(y0, y0 + arr.shape[1]))
            factor = dt * self.weight_for(target)[here]
            if arr.ndim == 3:
                factor = factor[:, :, None]
            arr -= factor / (1.0 + factor) * (arr - target[here])
