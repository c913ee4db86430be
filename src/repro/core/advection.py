"""Finite-volume flux-form advection with limited upwind-biased fluxes.

This implements the transport operator of the paper's Eqs. (1)-(4): all
prognostic quantities are advected in flux form by the (generalized
coordinate) mass fluxes

* ``fx = G_u rho u``   at x faces  (= ``state.rhou``),
* ``fy = G_v rho v``   at y faces  (= ``state.rhov``),
* ``fz = G rho u^3``   at w faces  (contravariant vertical mass flux,
  :func:`contravariant_mass_flux_w`).

Face values of the advected specific quantity use the 4-point
upwind-biased kappa=1/3 reconstruction limited by the Koren limiter
(paper Sec. II), falling back to 1st-order upwind on the first interior
vertical faces where the wide stencil does not fit.  The outermost vertical
faces carry zero flux (rigid lid / kinematic surface condition).

The x/y directions assume a valid halo of width >= 2 on the inputs; outputs
are valid on interior cells only (halo cells of the returned tendency are
garbage and must not be read).
"""
from __future__ import annotations

import ctypes

import numpy as np

from ..stencil import native
from ..stencil.spec import stencil
from .grid import Grid
from .limiter import Limiter, koren

__all__ = [
    "limited_face_flux",
    "flux_divergence_x",
    "flux_divergence_y",
    "flux_divergence_z",
    "contravariant_mass_flux_w",
    "MetricFlux",
    "mass_divergence",
    "advect_scalar",
    "advect_u",
    "advect_v",
    "advect_w",
    "ADVECTION_FLOPS_PER_FACE",
]

#: approximate floating-point operations per limited face flux, used by the
#: GPU cost model (validated against the instrumented counter in
#: tests/perf/test_costmodel.py)
ADVECTION_FLOPS_PER_FACE = 16


@stencil(reads=("phi", "flux"), writes=("face_flux",), halo=2,
         flops=ADVECTION_FLOPS_PER_FACE, loads=2, stores=1, probe=False)
def limited_face_flux(
    phi: np.ndarray, flux: np.ndarray, axis: int, limiter: Limiter = koren
) -> np.ndarray:
    """Limited upwind face fluxes along ``axis``.

    ``phi`` has N cells along ``axis``; ``flux`` has N-1 faces, where
    ``flux[m]`` sits between ``phi[m]`` and ``phi[m+1]``.  Returns fluxes on
    the N-3 interior faces ``m in [1, N-3]`` (those with a full 4-point
    stencil), i.e. the result is the face flux array sliced ``[1:-1]``.
    """
    p = np.moveaxis(phi, axis, 0)
    f = np.moveaxis(flux, axis, 0)[1:-1]
    a = p[:-3]
    b = p[1:-2]
    c = p[2:-1]
    d = p[3:]
    up_pos = b + 0.5 * limiter(b - a, c - b)
    up_neg = c + 0.5 * limiter(c - d, b - c)
    face = np.where(f >= 0.0, up_pos, up_neg)
    return np.moveaxis(f * face, 0, axis)


def _div_along(face_flux: np.ndarray, axis: int) -> np.ndarray:
    """Difference of consecutive face fluxes along ``axis``."""
    ff = np.moveaxis(face_flux, axis, 0)
    return np.moveaxis(ff[1:] - ff[:-1], 0, axis)


def flux_divergence_x(
    phi: np.ndarray, fx: np.ndarray, dx: float, limiter: Limiter = koren
) -> np.ndarray:
    """d(fx * phi_face)/dx for cells ``2..N-3`` along axis 0.

    ``phi``: (N, ...) cells; ``fx``: (N+1, ...) at faces with ``fx[i]``
    on the *left* face of cell ``i`` (the staggering of this package).
    Result shape: (N-4, ...) covering cells ``2..N-3``.
    """
    # convert to the between-cells convention: flux[m] = fx[m+1]
    ff = limited_face_flux(phi, fx[1:-1], axis=0, limiter=limiter)
    return _div_along(ff, 0) / dx


def flux_divergence_y(
    phi: np.ndarray, fy: np.ndarray, dy: float, limiter: Limiter = koren
) -> np.ndarray:
    """Same as :func:`flux_divergence_x` along axis 1."""
    ff = limited_face_flux(phi, fy[:, 1:-1], axis=1, limiter=limiter)
    return _div_along(ff, 1) / dy


def flux_divergence_z(
    phi: np.ndarray, fz: np.ndarray, dz_c: np.ndarray, limiter: Limiter = koren
) -> np.ndarray:
    """Vertical flux divergence for all cells along the last axis.

    ``phi``: (..., nz); ``fz``: (..., nz+1) with ``fz[..., 0]`` and
    ``fz[..., nz]`` the boundary faces (their flux is used as given —
    callers enforce the kinematic/rigid-lid conditions there).  Faces
    ``2..nz-2`` use the limited reconstruction; faces 1 and nz-1 use
    1st-order upwind.  ``dz_c``: (nz,) cell thicknesses.
    """
    nz = phi.shape[-1]
    if nz < 4:
        # tiny columns: everything 1st-order upwind
        face = np.where(fz[..., 1:-1] >= 0.0, phi[..., :-1], phi[..., 1:])
        ff = fz[..., 1:-1] * face
    else:
        ff = np.empty(fz[..., 1:-1].shape, dtype=np.result_type(phi, fz))
        ff[..., 1:-1] = limited_face_flux(phi, fz[..., 1:-1], axis=-1, limiter=limiter)
        f_lo = fz[..., 1]
        ff[..., 0] = f_lo * np.where(f_lo >= 0.0, phi[..., 0], phi[..., 1])
        f_hi = fz[..., nz - 1]
        ff[..., -1] = f_hi * np.where(f_hi >= 0.0, phi[..., nz - 2], phi[..., nz - 1])
    full = np.concatenate([fz[..., :1], ff, fz[..., -1:]], axis=-1)
    return (full[..., 1:] - full[..., :-1]) / dz_c


def contravariant_mass_flux_w(
    rhou: np.ndarray, rhov: np.ndarray, rhow: np.ndarray, grid: Grid
) -> np.ndarray:
    """Generalized-coordinate vertical mass flux ``G rho u^3`` at w faces.

    ``G rho u^3 = rho w - rho u dz/dx - rho v dz/dy``; the boundary faces
    (surface and lid) are set to exactly zero, which *is* the kinematic
    boundary condition in these coordinates.
    """
    out = np.zeros(grid.shape_w, dtype=rhow.dtype)
    # rho w = rhow / G
    out[:, :, 1:-1] = rhow[:, :, 1:-1] / grid.jac[:, :, None]
    if not grid.is_flat():
        # rho u dz/dx at (cell center, center level): average the u faces
        ax = (rhou / grid.jac_u[:, :, None]) * grid.dzsdx_u[:, :, None]
        ax_c = 0.5 * (ax[1:] + ax[:-1])
        ay = (rhov / grid.jac_v[:, :, None]) * grid.dzsdy_v[:, :, None]
        ay_c = 0.5 * (ay[:, 1:] + ay[:, :-1])
        horiz = ax_c + ay_c
        # to w faces (interior): vertical average, metric decays linearly
        out[:, :, 1:-1] -= (
            0.5 * (horiz[:, :, 1:] + horiz[:, :, :-1]) * grid.decay_f[None, None, 1:-1]
        )
    return out


class MetricFlux:
    """:func:`contravariant_mass_flux_w` on one grid, byte for byte: one
    compiled call where a verified library is loaded (csrc/acoustic.c,
    ``acoustic_metric_flux``), else that oracle.  Float64 like the
    metrics, so float32 momenta are rounded where the oracle rounds them:
    after the ``rhow`` division and on the store into the result."""

    def __init__(self, grid: Grid):
        self.grid = grid
        nxh, nyh, nz = grid.shape_c
        # the compiled body's operands: 2-D metrics and four short rows
        metrics = dict(jac=grid.jac, decay_f=grid.decay_f,
                       rows=np.empty(4 * (nyh + 1) * (nz + 1)))
        if not grid.is_flat():
            metrics.update(jac_u=grid.jac_u, jac_v=grid.jac_v,
                           dzsdx_u=grid.dzsdx_u, dzsdy_v=grid.dzsdy_v)
        #: the compiled body's grid operands by field name, else ``None``
        #: and ``_unbound`` says why a library could not take them; their
        #: struct in each library's layout
        self._fields = self._unbound = None
        self._structs: dict = {}
        bound = native.pointers(np.float64, metrics)
        if isinstance(bound, native.Unbound):
            self._unbound = bound
        else:
            self._fields = dict(zip(metrics, bound), nxh=nxh, nyh=nyh, nz=nz)
            self._rows = metrics["rows"]

    def args(self, lib):
        """The grid's ``metric_args`` in ``lib``'s layout (kept: a substep's
        or slow stage's struct points into it), else ``None``."""
        cls = lib.metric_args
        if self._fields is not None and cls not in self._structs:
            self._structs[cls] = cls(**self._fields)
        return self._structs.get(cls)

    def _momenta(self, rhou, rhov, rhow, dtype) -> "list | native.Unbound":
        """Addresses of the momenta (``None`` for an absent ``rhow``), or
        why the compiled body cannot take them."""
        if self._fields is None:
            return self._unbound
        g, named = self.grid, dict(rhou=rhou, rhov=rhov)
        if rhow is not None:
            named["rhow"] = rhow
        ptrs = native.pointers(
            np.float32 if dtype == np.float32 else np.float64, named,
            dict(rhou=g.shape_u, rhov=g.shape_v, rhow=g.shape_w))
        if isinstance(ptrs, native.Unbound) or rhow is not None:
            return ptrs
        return ptrs + [None]

    def __call__(self, rhou: np.ndarray, rhov: np.ndarray,
                 rhow: np.ndarray | None = None) -> np.ndarray:
        """``G rho u^3`` at w faces; ``rhow=None`` is an all-``+0.0``
        ``rhow`` (the metric part alone), which need not be divided."""
        g = self.grid
        dtype = rhou.dtype if rhow is None else rhow.dtype
        lib = native.kernels()
        if lib is not None:
            ptrs = self._momenta(rhou, rhov, rhow, dtype)
            if not isinstance(ptrs, native.Unbound):
                out = np.empty(g.shape_w, dtype)
                lib.metric_flux(ctypes.byref(self.args(lib)),
                                dtype == np.float32,
                                *ptrs, out.ctypes.data)
                return out
            native.unbound("metric fluxes", ptrs)
        if rhow is None:
            rhow = np.zeros(g.shape_w, dtype)
        return contravariant_mass_flux_w(rhou, rhov, rhow, g)


def mass_divergence(
    fx: np.ndarray, fy: np.ndarray, fz: np.ndarray, grid: Grid
) -> np.ndarray:
    """Divergence of the mass flux on interior cells (full-shape output,
    halo cells zero).  This is the continuity-equation operator."""
    out = np.zeros(grid.shape_c, dtype=fx.dtype)
    sx, sy = grid.isl
    h = grid.halo
    dfx = (fx[h + 1 : h + grid.nx + 1, sy] - fx[h : h + grid.nx, sy]) / grid.dx
    dfy = (fy[sx, h + 1 : h + grid.ny + 1] - fy[sx, h : h + grid.ny]) / grid.dy
    dfz = (fz[sx, sy, 1:] - fz[sx, sy, :-1]) / grid.dz_c[None, None, :]
    out[sx, sy] = dfx + dfy + dfz
    return out


@stencil(reads=("phi", "fx", "fy", "fz"), writes=("tend_phi",), halo=2,
         flops=80, loads=9, stores=1,
         # measured/table ratios sit at ~1.15-1.25 flops and ~19-21x
         # streamed bytes (NumPy materializes every temporary); these
         # bands hold a 1.5-2x margin and are far tighter than the
         # counters' defaults of (0.2, 5.0) / (0.25, 64.0)
         flops_band=(0.7, 2.0), bytes_band=(8.0, 40.0))
def advect_scalar(
    phi: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    grid: Grid,
    limiter: Limiter = koren,
) -> np.ndarray:
    """Advection tendency ``-div(F phi)`` of a cell-centered specific
    quantity ``phi`` (theta or q).  Returns a full-shape array valid on
    interior cells."""
    out = np.zeros(grid.shape_c, dtype=phi.dtype)
    h = grid.halo
    sx, sy = grid.isl

    divx = flux_divergence_x(phi, fx, grid.dx, limiter)
    out[sx, sy] = -divx[h - 2 : h - 2 + grid.nx, sy]

    divy = flux_divergence_y(phi, fy, grid.dy, limiter)
    out[sx, sy] -= divy[sx, h - 2 : h - 2 + grid.ny]

    divz = flux_divergence_z(phi[sx, sy], fz[sx, sy], grid.dz_c, limiter)
    out[sx, sy] -= divz
    return out


@stencil(reads=("u", "fx", "fy", "fz"), writes=("tend_u",), halo=2,
         flops=80, loads=9, stores=1)
def advect_u(
    u: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    grid: Grid,
    limiter: Limiter = koren,
) -> np.ndarray:
    """Advection tendency of x-momentum.

    ``u`` is the specific velocity at u faces; the control volume around a
    u face has x faces at cell centers, y faces at cell corners, and z faces
    at (u face, w level).  Mass fluxes are interpolated there by two-point
    averages, which keeps the discrete conservation telescoping.
    Valid on interior u faces ``[h, h+nx]``.
    """
    out = np.zeros(grid.shape_u, dtype=u.dtype)
    h = grid.halo
    slu_x, slu_y = grid.isl_u

    # x fluxes at cell centers: average neighboring u faces
    fxc = 0.5 * (fx[1:] + fx[:-1])          # (nxh, nyh, nz)
    ff = limited_face_flux(u, fxc, axis=0, limiter=limiter)
    # ff covers "faces" between u columns m,m+1 for m in [1, nxh-2];
    # the u face i has neighbors at centers i-1 (index i-2 in ff) and i.
    # u face i has right CV face at center i (ff position i-1) and left CV
    # face at center i-1 (position i-2); interior faces i in [h, h+nx].
    out[slu_x, slu_y] = -(
        ff[h - 1 : h + grid.nx, slu_y] - ff[h - 2 : h + grid.nx - 1, slu_y]
    ) / grid.dx

    # y fluxes at cell corners: average fy in x
    fyc = 0.5 * (fy[1:] + fy[:-1])          # (nxh-1? no: (nxh+1-1, nyh+1, nz))
    # fyc[i] sits at the corner column between u faces... u faces count nxh+1;
    # fyc has nxh entries aligned with u faces 0.5 shifted; corner for u face i
    # uses fy averaged from scalar columns i-1 and i -> index i-1 above.  We
    # need, for u face i, the y faces at (i, j+-1/2): fyc[i-1].
    ffy = limited_face_flux(u[1:-1], fyc[:, 1:-1], axis=1, limiter=limiter)
    # ffy indexed by (u face - 1) in x; along y it covers corner faces
    # m in [1, nyh-3] at position m-1.  The u CV at row j has corners m=j
    # (north) and m=j-1 (south).
    out[slu_x, slu_y] -= (
        ffy[h - 1 : h + grid.nx, h - 1 : h + grid.ny - 1]
        - ffy[h - 1 : h + grid.nx, h - 2 : h + grid.ny - 2]
    ) / grid.dy

    # z fluxes at (u face, w level): average fz in x
    fzu = np.empty((grid.nxh + 1, grid.nyh, grid.nz + 1), dtype=fz.dtype)
    fzu[1:-1] = 0.5 * (fz[1:] + fz[:-1])
    fzu[0] = fz[0]
    fzu[-1] = fz[-1]
    divz = flux_divergence_z(u[slu_x, slu_y], fzu[slu_x, slu_y], grid.dz_c, limiter)
    out[slu_x, slu_y] -= divz
    return out


@stencil(reads=("v", "fx", "fy", "fz"), writes=("tend_v",), halo=2,
         flops=80, loads=9, stores=1)
def advect_v(
    v: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    grid: Grid,
    limiter: Limiter = koren,
) -> np.ndarray:
    """Advection tendency of y-momentum (mirror of :func:`advect_u`)."""
    out = np.zeros(grid.shape_v, dtype=v.dtype)
    h = grid.halo
    slv_x, slv_y = grid.isl_v

    fyc = 0.5 * (fy[:, 1:] + fy[:, :-1])
    ff = limited_face_flux(v, fyc, axis=1, limiter=limiter)
    out[slv_x, slv_y] = -(
        ff[slv_x, h - 1 : h + grid.ny] - ff[slv_x, h - 2 : h + grid.ny - 1]
    ) / grid.dy

    # x mass fluxes at corners: fx averaged over rows j, j+1 sits at v face
    # j+1; the (nxh+1, nyh-1) result is aligned with v faces 1..nyh-1.
    fxc = 0.5 * (fx[:, 1:] + fx[:, :-1])
    ffx = limited_face_flux(v[:, 1:-1], fxc[1:-1], axis=0, limiter=limiter)
    # v face (i, j): east corner at u face i+1 (ffx position i-1),
    # west corner at u face i (position i-2), for i in [h, h+nx).
    out[slv_x, slv_y] -= (
        ffx[h - 1 : h + grid.nx - 1, h - 1 : h + grid.ny]
        - ffx[h - 2 : h + grid.nx - 2, h - 1 : h + grid.ny]
    ) / grid.dx

    fzv = np.empty((grid.nxh, grid.nyh + 1, grid.nz + 1), dtype=fz.dtype)
    fzv[:, 1:-1] = 0.5 * (fz[:, 1:] + fz[:, :-1])
    fzv[:, 0] = fz[:, 0]
    fzv[:, -1] = fz[:, -1]
    divz = flux_divergence_z(v[slv_x, slv_y], fzv[slv_x, slv_y], grid.dz_c, limiter)
    out[slv_x, slv_y] -= divz
    return out


@stencil(reads=("w", "fx", "fy", "fz"), writes=("tend_w",), halo=2,
         flops=80, loads=9, stores=1)
def advect_w(
    w: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    grid: Grid,
    limiter: Limiter = koren,
) -> np.ndarray:
    """Advection tendency of vertical momentum.

    ``w`` is the specific vertical velocity at w faces.  Control volumes
    are centered on w faces: horizontal fluxes are the x/y mass fluxes
    averaged to w levels, vertical fluxes are ``fz`` averaged to cell
    centers.  Valid on interior w faces ``k = 1..nz-1`` of interior
    columns; the boundary faces (k=0, k=nz) are left untouched (they are
    set by boundary conditions, not prognosed).
    """
    out = np.zeros(grid.shape_w, dtype=w.dtype)
    h = grid.halo
    sx, sy = grid.isl
    nz = grid.nz

    # vertical spacing of w control volumes = dz_f (distance between centers)
    # horizontal x fluxes at (u face, w level)
    fxw = np.empty((grid.nxh + 1, grid.nyh, nz + 1), dtype=fx.dtype)
    fxw[:, :, 1:-1] = 0.5 * (fx[:, :, 1:] + fx[:, :, :-1])
    fxw[:, :, 0] = fx[:, :, 0]
    fxw[:, :, -1] = fx[:, :, -1]
    divx = flux_divergence_x(w, fxw, grid.dx, limiter)
    out[sx, sy] = -divx[h - 2 : h - 2 + grid.nx, sy]

    fyw = np.empty((grid.nxh, grid.nyh + 1, nz + 1), dtype=fy.dtype)
    fyw[:, :, 1:-1] = 0.5 * (fy[:, :, 1:] + fy[:, :, :-1])
    fyw[:, :, 0] = fy[:, :, 0]
    fyw[:, :, -1] = fy[:, :, -1]
    divy = flux_divergence_y(w, fyw, grid.dy, limiter)
    out[sx, sy] -= divy[sx, h - 2 : h - 2 + grid.ny]

    # vertical fluxes at cell centers: average fz
    fzc = 0.5 * (fz[..., 1:] + fz[..., :-1])           # (..., nz) at centers
    wi = w[sx, sy]
    fzi = fzc[sx, sy]
    # between-w-faces convention along z: w has nz+1 "cells", fzi nz faces
    if nz + 1 >= 4:
        ffz = np.empty(fzi.shape, dtype=w.dtype)
        ffz[..., 1:-1] = limited_face_flux(wi, fzi, axis=-1, limiter=limiter)
        ffz[..., 0] = fzi[..., 0] * np.where(fzi[..., 0] >= 0.0, wi[..., 0], wi[..., 1])
        ffz[..., -1] = fzi[..., -1] * np.where(
            fzi[..., -1] >= 0.0, wi[..., -2], wi[..., -1]
        )
    else:
        ffz = fzi * np.where(fzi >= 0.0, wi[..., :-1], wi[..., 1:])
    out[sx, sy, 1:-1] -= (ffz[..., 1:] - ffz[..., :-1]) / grid.dz_f[None, None, 1:-1]
    # boundary w faces are not prognosed
    out[sx, sy, 0] = 0.0
    out[sx, sy, nz] = 0.0
    return out
