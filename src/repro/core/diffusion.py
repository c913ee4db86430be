"""Explicit diffusion and the Rayleigh sponge layer.

The paper's Eq. (1) collects diffusion and turbulence into the F^i forcing
of the long time step.  We provide a constant-coefficient 2nd-order
diffusion of the *specific* quantities (so a resting, stratified base
state is not diffused away in the vertical by default — vertical diffusion
is off unless requested) plus the sponge-layer damping used by the
mountain-wave workload.

Horizontal operators assume a valid halo of width >= 1; results are valid
on interior points.
"""
from __future__ import annotations

import numpy as np

from ..stencil.spec import stencil
from .grid import Grid

__all__ = [
    "horizontal_laplacian_c",
    "horizontal_laplacian_u",
    "horizontal_laplacian_v",
    "horizontal_laplacian_w",
    "hyperdiffusion_c",
    "vertical_diffusion_c",
    "surface_drag_tendency",
    "DIFFUSION_FLOPS_PER_POINT",
]

DIFFUSION_FLOPS_PER_POINT = 10


@stencil(reads=("phi",), writes=("lap",), halo=1,
         flops=DIFFUSION_FLOPS_PER_POINT, loads=5, stores=1)
def horizontal_laplacian_c(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """5-point horizontal Laplacian of a cell-centered field, valid on
    interior cells (full-shape output, halo zero)."""
    out = np.zeros_like(phi)
    sx, sy = grid.isl
    h = grid.halo
    out[sx, sy] = (
        phi[h + 1 : h + grid.nx + 1, sy] - 2.0 * phi[sx, sy] + phi[h - 1 : h + grid.nx - 1, sy]
    ) / grid.dx ** 2 + (
        phi[sx, h + 1 : h + grid.ny + 1] - 2.0 * phi[sx, sy] + phi[sx, h - 1 : h + grid.ny - 1]
    ) / grid.dy ** 2
    return out


def _lap_on(phi: np.ndarray, sx: slice, sy: slice, dx: float, dy: float) -> np.ndarray:
    """Laplacian on an arbitrary (x, y) interior window of a 3-D array."""
    x0, x1 = sx.start, sx.stop
    y0, y1 = sy.start, sy.stop
    return (
        (phi[x0 + 1 : x1 + 1, sy] - 2.0 * phi[sx, sy] + phi[x0 - 1 : x1 - 1, sy]) / dx ** 2
        + (phi[sx, y0 + 1 : y1 + 1] - 2.0 * phi[sx, sy] + phi[sx, y0 - 1 : y1 - 1]) / dy ** 2
    )


@stencil(reads=("u",), writes=("lap_u",), halo=1,
         flops=DIFFUSION_FLOPS_PER_POINT, loads=5, stores=1)
def horizontal_laplacian_u(u: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.zeros_like(u)
    sx, sy = grid.isl_u
    out[sx, sy] = _lap_on(u, sx, sy, grid.dx, grid.dy)
    return out


@stencil(reads=("v",), writes=("lap_v",), halo=1,
         flops=DIFFUSION_FLOPS_PER_POINT, loads=5, stores=1)
def horizontal_laplacian_v(v: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.zeros_like(v)
    sx, sy = grid.isl_v
    out[sx, sy] = _lap_on(v, sx, sy, grid.dx, grid.dy)
    return out


@stencil(reads=("w",), writes=("lap_w",), halo=1,
         flops=DIFFUSION_FLOPS_PER_POINT, loads=5, stores=1)
def horizontal_laplacian_w(w: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.zeros_like(w)
    sx, sy = grid.isl
    out[sx, sy] = _lap_on(w, sx, sy, grid.dx, grid.dy)
    return out


@stencil(reads=("phi",), writes=("hyp",), halo=2,
         flops=2 * DIFFUSION_FLOPS_PER_POINT, loads=9, stores=1)
def hyperdiffusion_c(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """4th-order horizontal hyperdiffusion operator ``-lap(lap(phi))`` for
    cell-centered fields: scale-selective damping of grid noise with
    minimal impact on resolved waves (the standard mesoscale-model
    filter; apply with a positive coefficient K4 [m^4/s]).

    Needs a valid halo of width >= 2.  Valid on interior cells.
    """
    # the outer Laplacian needs the inner one on the interior and a 1-cell
    # ring around it; compute it there explicitly
    h = grid.halo
    sx1 = slice(h - 1, h + grid.nx + 1)
    sy1 = slice(h - 1, h + grid.ny + 1)
    ring = np.zeros_like(phi)
    ring[sx1, sy1] = _lap_on(phi, sx1, sy1, grid.dx, grid.dy)
    out = np.zeros_like(phi)
    sx, sy = grid.isl
    out[sx, sy] = -_lap_on(ring, sx, sy, grid.dx, grid.dy)
    return out


@stencil(reads=("phi", "kv"), writes=("tend_phi",), halo=0,
         march_axis="z", flops=8, loads=4, stores=1,
         # the column solve deliberately runs against float64 grid
         # metrics and coefficient profile; backends gate on dtype
         dtype_policy="widen")
def vertical_diffusion_c(
    phi: np.ndarray, grid: Grid, kv: float | np.ndarray
) -> np.ndarray:
    """2nd-order vertical diffusion of a cell-centered *specific* quantity
    with zero-flux top/bottom boundaries.  ``kv`` may be a scalar or a
    ``(nz+1,)`` face profile [m^2/s].  Physical z spacing includes the
    terrain Jacobian.  Valid everywhere (column-local)."""
    kv_f = np.broadcast_to(np.asarray(kv, dtype=np.float64), (grid.nz + 1,))
    jac = grid.jac[:, :, None]
    dz_f_phys = grid.dz_f[None, None, :] * jac   # (nxh, nyh, nz+1)
    dz_c_phys = grid.dz_c[None, None, :] * jac
    flux = np.zeros(grid.shape_w, dtype=phi.dtype)
    flux[:, :, 1:-1] = (
        kv_f[None, None, 1:-1]
        * (phi[:, :, 1:] - phi[:, :, :-1])
        / dz_f_phys[:, :, 1:-1]
    )
    return (flux[:, :, 1:] - flux[:, :, :-1]) / dz_c_phys


def surface_drag_tendency(
    rhou: np.ndarray,
    rhov: np.ndarray,
    grid: Grid,
    cd: float,
    *,
    rho_sfc: float | np.ndarray = 1.15,
    dz_sfc: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk-aerodynamic surface friction on the lowest model level:
    ``d(rho u)/dt = -Cd |V| (rho u) / dz`` applied to level k=0 only,
    with ``|V|`` recovered from the momenta using a representative
    (scalar) surface density ``rho_sfc``.

    A crude stand-in for ASUCA's boundary-layer turbulence (part of the
    paper's F^i forcing).  Returns full-shape tendencies (zero above the
    surface level).
    """
    du = np.zeros_like(rhou)
    dv = np.zeros_like(rhov)
    if cd <= 0.0:
        return du, dv
    dz = dz_sfc if dz_sfc is not None else float(grid.dz_c[0])
    rho0 = np.asarray(rho_sfc, dtype=np.float64)
    # |V| at u faces: v averaged from the 4 surrounding v faces
    v_at_u = np.zeros_like(rhou[:, :, 0])
    v_at_u[1:-1] = 0.25 * (
        rhov[1:, :-1, 0] + rhov[1:, 1:, 0] + rhov[:-1, :-1, 0] + rhov[:-1, 1:, 0]
    )
    speed_u = np.hypot(rhou[:, :, 0], v_at_u) / rho0
    du[:, :, 0] = -cd * speed_u * rhou[:, :, 0] / dz
    u_at_v = np.zeros_like(rhov[:, :, 0])
    u_at_v[:, 1:-1] = 0.25 * (
        rhou[:-1, 1:, 0] + rhou[1:, 1:, 0] + rhou[:-1, :-1, 0] + rhou[1:, :-1, 0]
    )
    speed_v = np.hypot(rhov[:, :, 0], u_at_v) / rho0
    dv[:, :, 0] = -cd * speed_v * rhov[:, :, 0] / dz
    return du, dv
