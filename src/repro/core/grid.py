"""Arakawa-C staggered grid with terrain-following generalized coordinates.

ASUCA (paper Sec. II) solves the flux-form compressible equations in
generalized coordinates ``(x1, x2, x3)`` on an Arakawa-C grid with Lorenz
vertical staggering.  We implement the common Gal-Chen/basic
terrain-following (BTF) realization of those coordinates:

* ``x1 = x`` and ``x2 = y`` are unchanged Cartesian horizontal coordinates,
* ``x3`` is a flat-terrain height coordinate on ``[0, ztop]``; the physical
  height of a point is ``z = zs(x, y) + x3 * (1 - zs / ztop)``.

With that mapping the Jacobian of the transformation,
``J = dz/dx3 = 1 - zs/ztop``, depends on ``(x, y)`` only, and the metric
terms are ``dz/dx|_{x3} = dzs/dx * (1 - x3/ztop)`` (similarly for ``y``).
The contravariant vertical velocity used to advect through coordinate
surfaces is::

    u3 = ( w - u * dz/dx|x3 - v * dz/dy|x3 ) / J

Index conventions
-----------------
All fields carry a horizontal halo of width ``halo`` in both x and y; the
vertical direction has no halo.  The 4-point advection stencil needs width
2; the default is 3 so that *no interior result depends on the one-sided
edge treatment of derived face quantities* (face densities, face thetas) —
that extra cell is what makes a domain-decomposed run bit-identical to the
single-domain run (tests/dist).  Shapes:

=================== =============================== =========================
field               location                        shape
=================== =============================== =========================
scalar (rho, ...)   cell center                     (nx+2h, ny+2h, nz)
u-momentum          x face i at x = (i-h)*dx        (nx+2h+1, ny+2h, nz)
v-momentum          y face                          (nx+2h, ny+2h+1, nz)
w-momentum          z face k at z3 = z_f[k]         (nx+2h, ny+2h, nz+1)
=================== =============================== =========================

Interior cells are ``i in [h, h+nx)``; interior x faces ``i in [h, h+nx]``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Grid", "make_grid", "bell_mountain", "stretched_levels"]


def _as_levels(nz: int, ztop: float, z_faces: np.ndarray | None) -> np.ndarray:
    if z_faces is None:
        return np.linspace(0.0, ztop, nz + 1)
    z_faces = np.asarray(z_faces, dtype=np.float64)
    if z_faces.shape != (nz + 1,):
        raise ValueError(f"z_faces must have shape ({nz + 1},), got {z_faces.shape}")
    if z_faces[0] != 0.0 or not np.all(np.diff(z_faces) > 0):
        raise ValueError("z_faces must start at 0 and increase monotonically")
    return z_faces


@dataclass
class Grid:
    """Geometry container; construct through :func:`make_grid`.

    Attributes of interest to kernel code:

    * ``jac`` — the Jacobian J at scalar columns, shape (nx+2h, ny+2h).
    * ``jac_u`` / ``jac_v`` — J averaged to u/v faces.
    * ``dzdx_u[k-profile]`` — the metric ``dz/dx`` at u faces is separable:
      ``dzdx_u[:, :, None] * decay_c[None, None, :]`` with
      ``decay_c[k] = 1 - z_c[k]/ztop`` (and ``decay_f`` on w levels).
    """

    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    ztop: float
    halo: int

    # vertical structure (computational coordinate x3)
    z_f: np.ndarray        # (nz+1,) face levels
    z_c: np.ndarray        # (nz,)   center levels
    dz_c: np.ndarray       # (nz,)   cell thickness in x3
    dz_f: np.ndarray       # (nz+1,) distance between neighboring centers,
    #                        clamped to half-cells at top/bottom

    # terrain (includes halo)
    zs: np.ndarray         # (nxh, nyh) surface height at scalar points
    jac: np.ndarray        # (nxh, nyh) J at scalar points
    jac_u: np.ndarray      # (nxh+1, nyh)
    jac_v: np.ndarray      # (nxh, nyh+1)
    dzsdx_u: np.ndarray    # (nxh+1, nyh) d(zs)/dx at u faces
    dzsdy_v: np.ndarray    # (nxh, nyh+1) d(zs)/dy at v faces

    periodic_x: bool = True
    periodic_y: bool = True

    # decay profiles of the metric terms: 1 - x3/ztop
    decay_c: np.ndarray = field(default=None)  # (nz,)
    decay_f: np.ndarray = field(default=None)  # (nz+1,)

    def __post_init__(self) -> None:
        if self.decay_c is None:
            self.decay_c = 1.0 - self.z_c / self.ztop
        if self.decay_f is None:
            self.decay_f = 1.0 - self.z_f / self.ztop
        # C-contiguous by construction: a compiled body takes addresses, and
        # a subgrid is built from strided slices of the global arrays (a
        # copy of the same bytes; an array that already is one is kept)
        for name in ("zs", "jac", "jac_u", "jac_v", "dzsdx_u", "dzsdy_v"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name)))
        # the terrain is fixed once the grid is built; kernels ask every call
        self._flat = bool(np.all(self.zs == 0.0))

    # ------------------------------------------------------------------ sizes
    @property
    def nxh(self) -> int:
        """x extent including halo."""
        return self.nx + 2 * self.halo

    @property
    def nyh(self) -> int:
        """y extent including halo."""
        return self.ny + 2 * self.halo

    @property
    def shape_c(self) -> tuple[int, int, int]:
        """halo-inclusive shape of a cell-centered field."""
        return (self.nxh, self.nyh, self.nz)

    @property
    def shape_u(self) -> tuple[int, int, int]:
        return (self.nxh + 1, self.nyh, self.nz)

    @property
    def shape_v(self) -> tuple[int, int, int]:
        return (self.nxh, self.nyh + 1, self.nz)

    @property
    def shape_w(self) -> tuple[int, int, int]:
        return (self.nxh, self.nyh, self.nz + 1)

    @property
    def n_interior_cells(self) -> int:
        return self.nx * self.ny * self.nz

    # ------------------------------------------------------------- slicing
    @property
    def isl(self) -> tuple[slice, slice]:
        """(x, y) slices selecting interior cells of a centered field."""
        h = self.halo
        return (slice(h, h + self.nx), slice(h, h + self.ny))

    @property
    def isl_u(self) -> tuple[slice, slice]:
        """(x, y) slices selecting interior x faces of a u field
        (both boundary faces included)."""
        h = self.halo
        return (slice(h, h + self.nx + 1), slice(h, h + self.ny))

    @property
    def isl_v(self) -> tuple[slice, slice]:
        h = self.halo
        return (slice(h, h + self.nx), slice(h, h + self.ny + 1))

    def interior(self, arr: np.ndarray) -> np.ndarray:
        """View of the interior cells of a cell-centered (or w) field."""
        sx, sy = self.isl
        return arr[sx, sy]

    # --------------------------------------------------------- coordinates
    def x_c(self) -> np.ndarray:
        """x of cell centers, halo included; interior starts at dx/2."""
        return (np.arange(self.nxh) - self.halo + 0.5) * self.dx

    def y_c(self) -> np.ndarray:
        return (np.arange(self.nyh) - self.halo + 0.5) * self.dy

    def x_u(self) -> np.ndarray:
        """x of u faces, halo included."""
        return (np.arange(self.nxh + 1) - self.halo) * self.dx

    def y_v(self) -> np.ndarray:
        return (np.arange(self.nyh + 1) - self.halo) * self.dy

    def z3d_c(self) -> np.ndarray:
        """Physical height of cell centers, shape (nxh, nyh, nz)."""
        return self.zs[:, :, None] + self.z_c[None, None, :] * self.jac[:, :, None]

    def z3d_f(self) -> np.ndarray:
        """Physical height of w faces, shape (nxh, nyh, nz+1)."""
        return self.zs[:, :, None] + self.z_f[None, None, :] * self.jac[:, :, None]

    # ----------------------------------------------------------- metrics
    def dzdx_at_u(self) -> np.ndarray:
        """Metric dz/dx|_{x3} at u faces and cell-center levels,
        shape (nxh+1, nyh, nz)."""
        return self.dzsdx_u[:, :, None] * self.decay_c[None, None, :]

    def dzdy_at_v(self) -> np.ndarray:
        return self.dzsdy_v[:, :, None] * self.decay_c[None, None, :]

    def is_flat(self) -> bool:
        """True when there is no terrain (all metric terms vanish)."""
        return self._flat


def make_grid(
    nx: int,
    ny: int,
    nz: int,
    dx: float,
    dy: float,
    ztop: float,
    *,
    halo: int = 3,
    terrain: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    z_faces: np.ndarray | None = None,
    periodic_x: bool = True,
    periodic_y: bool = True,
) -> Grid:
    """Build a :class:`Grid`.

    Parameters
    ----------
    terrain
        ``zs = terrain(X, Y)`` evaluated on 2-D meshes of scalar-point
        coordinates; ``None`` means flat.  Terrain must stay well below
        ``ztop`` (we require ``zs < 0.8 * ztop``).
    z_faces
        optional stretched vertical face levels (``(nz+1,)``, starting at 0).
    """
    if nx < 1 or ny < 1 or nz < 2:
        raise ValueError("grid must have nx,ny >= 1 and nz >= 2")
    if halo < 2:
        raise ValueError("halo must be >= 2 for the 4-point advection stencil")
    z_f = _as_levels(nz, ztop, z_faces)
    z_c = 0.5 * (z_f[:-1] + z_f[1:])
    dz_c = np.diff(z_f)
    # distance between neighboring centers, defined on faces; the boundary
    # faces use the half cell so that one-sided differences stay scaled.
    dz_f = np.empty(nz + 1)
    dz_f[1:-1] = z_c[1:] - z_c[:-1]
    dz_f[0] = z_c[0] - z_f[0]
    dz_f[-1] = z_f[-1] - z_c[-1]

    nxh, nyh = nx + 2 * halo, ny + 2 * halo
    xc = (np.arange(nxh) - halo + 0.5) * dx
    yc = (np.arange(nyh) - halo + 0.5) * dy
    if terrain is None:
        zs = np.zeros((nxh, nyh))
    else:
        X, Y = np.meshgrid(xc, yc, indexing="ij")
        zs = np.asarray(terrain(X, Y), dtype=np.float64)
        if zs.shape != (nxh, nyh):
            raise ValueError("terrain() must return an (nxh, nyh) array")
        if np.any(zs < 0) or np.any(zs >= 0.8 * ztop):
            raise ValueError("terrain must satisfy 0 <= zs < 0.8 * ztop")
        if periodic_x:
            # make the terrain consistent with periodic wrap-around
            zs[:halo] = zs[nx : nx + halo]
            zs[nx + halo :] = zs[halo : 2 * halo]
        if periodic_y:
            zs[:, :halo] = zs[:, ny : ny + halo]
            zs[:, ny + halo :] = zs[:, halo : 2 * halo]

    jac = 1.0 - zs / ztop

    # u faces: average/difference of the two neighboring scalar columns.
    zs_u = np.empty((nxh + 1, nyh))
    zs_u[1:-1] = 0.5 * (zs[1:] + zs[:-1])
    zs_u[0] = zs[0]
    zs_u[-1] = zs[-1]
    jac_u = 1.0 - zs_u / ztop
    dzsdx_u = np.zeros((nxh + 1, nyh))
    dzsdx_u[1:-1] = (zs[1:] - zs[:-1]) / dx

    zs_v = np.empty((nxh, nyh + 1))
    zs_v[:, 1:-1] = 0.5 * (zs[:, 1:] + zs[:, :-1])
    zs_v[:, 0] = zs[:, 0]
    zs_v[:, -1] = zs[:, -1]
    jac_v = 1.0 - zs_v / ztop
    dzsdy_v = np.zeros((nxh, nyh + 1))
    dzsdy_v[:, 1:-1] = (zs[:, 1:] - zs[:, :-1]) / dy

    return Grid(
        nx=nx, ny=ny, nz=nz, dx=dx, dy=dy, ztop=ztop, halo=halo,
        z_f=z_f, z_c=z_c, dz_c=dz_c, dz_f=dz_f,
        zs=zs, jac=jac, jac_u=jac_u, jac_v=jac_v,
        dzsdx_u=dzsdx_u, dzsdy_v=dzsdy_v,
        periodic_x=periodic_x, periodic_y=periodic_y,
    )


def bell_mountain(height: float, half_width: float, x0: float, y0: float | None = None):
    """Witch-of-Agnesi bell mountain used by the paper's mountain-wave test
    (Satomura et al. st-MIP setup).  2-D ridge when ``y0 is None``."""

    def zs(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        r2 = ((X - x0) / half_width) ** 2
        if y0 is not None:
            r2 = r2 + ((Y - y0) / half_width) ** 2
        return height / (1.0 + r2)

    return zs


def stretched_levels(nz: int, dz0: float, ratio: float) -> np.ndarray:
    """Geometrically stretched vertical face levels: the first cell is
    ``dz0`` thick and each cell above is ``ratio`` times thicker — the
    usual boundary-layer-resolving vertical grid.  Returns an (nz+1,) face
    array starting at 0, ready for ``make_grid(..., z_faces=...)``."""
    if nz < 1 or dz0 <= 0 or ratio < 1.0:
        raise ValueError("need nz >= 1, dz0 > 0, ratio >= 1")
    dz = dz0 * ratio ** np.arange(nz)
    return np.concatenate([[0.0], np.cumsum(dz)])
