"""Planned implementations of the declared dycore stencils.

Each function is the fast twin of a reference kernel in ``repro.core``
and **byte-identical** to it (``tobytes()``, signed zeros included) for
every argument combination it accepts; for the rest (non-Koren limiters,
mixed dtypes, ndarray subclasses, sub-4-level columns) it returns
``NotImplemented`` and the executor runs the reference.  Identity holds
by construction — only two kinds of change are made (docs/STENCILS.md):

* *elementwise commuting*: a slice, a shift or an upwind select applied
  before an elementwise op picks the same bits the reference picks after
  it.  The Koren face value selects its stencil ``(a, b, c)`` or
  ``(d, c, b)`` per face first and evaluates the limiter once, on
  **unit-stride flat views**: a shift along x/y/z of a contiguous field
  is an offset of ``ny*nz`` / ``nz`` / ``1`` elements, and the positions
  that straddle a row are computed and never read.
* *same op, same operands, other memory*: every temporary lives in the
  plan's slab-sized arena (:mod:`repro.stencil.plan`) and is written
  with ``out=``; the Thomas factors ``cp``/``denom`` depend only on the
  operator, so they are computed once per operator, k-leading.

Nothing taken from ``pl.scratch`` is ever returned.
"""
from __future__ import annotations

import ctypes
from dataclasses import replace

import numpy as np

from .. import constants as c
from ..core.boundary import _STAGGER
from ..core.limiter import koren
from . import native
from .plan import NBUF, Plan, PlanCache
from .spec import FUSED_IMPLS, register_fused

__all__: list[str] = []


def _plain(*arrays) -> bool:
    """Same-dtype float32/float64 exact ndarrays (a subclass such as the
    FLOP-counting array must see the reference's own ufunc calls)."""
    dt_ = arrays[0].dtype
    return dt_.kind == "f" and dt_.itemsize in (4, 8) and all(
        type(a) is np.ndarray and a.dtype == dt_ for a in arrays)


# ------------------------------------------------------------ face sweep
def _faces(pl, pf, lo, hi, s, fa, out):
    """``out = fa * phi_face`` on the flat faces ``[lo, hi)`` of the
    contiguous field ``pf``; face ``i`` lies between ``pf[i]`` and
    ``pf[i + s]`` and carries the mass flux ``fa[i - lo]``.

    The reference evaluates ``b + 0.5*koren(b-a, c-b)`` and
    ``c + 0.5*koren(c-d, b-c)`` and keeps one by the sign of the flux;
    here the flux sign first blends the *operands* bitwise
    (``n ^ ((n ^ p) & mask)``, exact for every bit pattern), then the
    very same op sequence runs once.
    """
    n = hi - lo
    pi = pf.view(pl.bits)
    # five buffers, each as bits and as floats: the blended operands
    # down/up are read back as the gradients' inputs g2/g1, and the mask
    # and xor buffers are free for t3/sg once the blends are done
    m, x, base, down, up, t3, sg, fbase, g2, g1 = pl.sweep_views(n)
    np.greater_equal(fa, 0.0, out=m)
    np.negative(m, out=m)                       # all-ones where flux >= 0
    a, b, cc, d = (pi[lo + k * s:hi + k * s] for k in (-1, 0, 1, 2))
    np.bitwise_xor(b, cc, out=x)
    np.bitwise_and(x, m, out=x)
    np.bitwise_xor(cc, x, out=base)             # b if flux >= 0 else c
    np.bitwise_xor(b, x, out=down)              # c if flux >= 0 else b
    np.bitwise_xor(a, d, out=x)
    np.bitwise_and(x, m, out=x)
    np.bitwise_xor(d, x, out=up)                # a if flux >= 0 else d
    base = fbase                                # the same bytes, as floats
    np.subtract(base, g1, out=g1)
    np.subtract(g2, base, out=g2)
    # koren(g1, g2), op for op
    np.sign(g1, out=sg)
    np.abs(g1, out=g1)
    np.multiply(g2, sg, out=g2)
    np.multiply(2.0, g2, out=g2)
    np.add(g1, g2, out=t3)
    np.divide(t3, 3.0, out=t3)
    np.minimum(g2, t3, out=g2)
    np.multiply(2.0, g1, out=g1)
    np.minimum(g2, g1, out=g2)
    np.maximum(0.0, g2, out=g2)
    np.multiply(sg, g2, out=g2)
    np.multiply(0.5, g2, out=g2)
    np.add(base, g2, out=base)
    np.multiply(fa, base, out=out)


class _Sweep:
    """One contiguous field bound to a plan: slab views and face sweeps.

    Scratch buffer 5 holds the *aligned* mass flux ``FA`` (``FA[i]`` is
    the flux through face ``i`` of the field's own flat indexing), 6 the
    face fluxes ``F``, 1 the divergence ``D`` (free once ``F`` exists).
    """

    def __init__(self, plans, p, shape):
        self.p = p = np.ascontiguousarray(p)
        self.pl = plans(tuple(shape), p.dtype)
        #: the verified compiled kernels of this width, else ``None``
        self.lib = native.kernels(p.dtype)
        self.pf = p.reshape(-1)
        self.n1, self.n2 = p.shape[1:]
        self.row = self.n1 * self.n2

    def box(self, k, nb):
        """Buffer ``k`` as ``nb`` rows of the field's own shape."""
        return self.pl.scratch(k, nb * self.row).reshape(nb, self.n1, self.n2)

    def fluxes(self, axis, m0, m1, fill, off=0):
        """Face fluxes along ``axis`` into ``F[off:]``: for axis 0 the
        face rows ``[m0, m1)`` (face row m lies between rows m, m+1); for
        axes 1/2 every face of rows ``[m0, m1)`` with a full stencil.
        ``fill(FA3, m0, m1)`` writes the aligned mass flux."""
        row, n = self.row, (m1 - m0) * self.row
        fill(self.box(5, m1 - m0), m0, m1)
        s = (row, self.n2, 1)[axis]
        lo, hi = (0, n) if axis == 0 else (s, n - 2 * s)
        fa = self.pl.scratch(5, n)[lo:hi]
        out = self.pl.scratch(6, off + n)[off + lo:off + hi]
        if self.lib is None:
            _faces(self.pl, self.pf, m0 * row + lo, m0 * row + hi, s, fa, out)
        else:
            self.lib.faces(self.pf[m0 * row + lo:].ctypes.data, s,
                           fa.ctypes.data, out.ctypes.data, hi - lo)


# ------------------------------------------------------------- advection
@register_fused("limited_face_flux")
def _limited_face_flux(plans, phi, flux, axis, limiter=koren):
    if (limiter is not koren or phi.ndim != 3 or not _plain(phi, flux)
            or phi.shape[axis] < 4):
        return NotImplemented
    axis %= 3
    sw = _Sweep(plans, phi, phi.shape)
    n0 = phi.shape[0]
    valid, aligned = [slice(None)] * 3, [slice(None)] * 3
    valid[axis] = slice(1, phi.shape[axis] - 2)   # faces with a full stencil
    if axis:
        aligned[axis] = slice(0, -1)      # one face fewer than cells
    valid, aligned = tuple(valid), tuple(aligned)
    res = np.empty(flux[valid].shape, phi.dtype)

    def fill(fa3, m0, m1):
        fa3[aligned] = flux[m0:m1]

    lo, hi = (1, n0 - 2) if axis == 0 else (0, n0)
    for x0 in range(lo, hi, sw.pl.rows):
        x1 = min(x0 + sw.pl.rows, hi)
        sw.fluxes(axis, x0, x1, fill)
        f3 = sw.box(6, x1 - x0)
        if axis == 0:
            res[x0 - 1:x1 - 1] = f3
        else:
            res[x0:x1] = f3[valid]
    return res


#: csrc/advect.c's name for the staggering of the advected field
_SCALAR, _U, _V, _W = range(4)


def _advect(plans, variant, p, flux, grid, xsl, ysl, fill_x, fill_y, fill_z,
            zedge):
    """``-div(F p)`` of one staggered field: one compiled call where a
    verified library is loaded for its width, else slab by slab on the
    plan's arena — the same bytes either way.

    ``fill_*`` write the aligned mass flux of a direction; ``zedge(x0,
    x1, k)`` is the w-level mass flux at the bottom/top boundary face
    (``None`` for the w field itself, whose boundary faces carry no
    tendency)."""
    sw = _Sweep(plans, p, grid.shape_c)
    pl, row, n2 = sw.pl, sw.row, sw.n2
    out = np.zeros(p.shape, p.dtype)
    if sw.lib is not None:
        # _covers vouched for dtypes and shapes; the scratch is this
        # thread's plan (ctypes releases the GIL)
        fx, fy, fz = map(np.ascontiguousarray, flux)
        ptrs = native.pointers(p.dtype, dict(
            p=sw.p, fx=fx, fy=fy, fz=fz, out=out,
            dz=grid.dz_f if variant == _W else grid.dz_c, scratch=pl.arena))
        if not isinstance(ptrs, native.Unbound):
            sw.lib.advect(variant, *ptrs[:5], *grid.shape_c[1:], xsl.start,
                          xsl.stop, ysl.start, ysl.stop, grid.dx, grid.dy,
                          *ptrs[5:])
            return out
        native.unbound("advections", ptrs)
    for x0 in range(xsl.start, xsl.stop, pl.rows):
        x1 = min(x0 + pl.rows, xsl.stop)
        nb, n = x1 - x0, (x1 - x0) * row
        ov = out[x0:x1, ysl]
        f, d = pl.scratch(6, n + row), pl.scratch(1, n)
        f3, d3, p3 = sw.box(6, nb), sw.box(1, nb), sw.p[x0:x1]

        # x: cell row x gets (F[x] - F[x-1]) / dx; the upstream face row
        # of a slab is the last one of the slab before it
        if x0 == xsl.start:
            sw.fluxes(0, x0 - 1, x1, fill_x)
        else:
            f[:row] = pl.scratch(6, (pl.rows + 1) * row)[pl.rows * row:]
            sw.fluxes(0, x0, x1, fill_x, off=row)
        np.subtract(f[row:], f[:n], out=d)
        np.divide(d, grid.dx, out=d)
        np.negative(d3[:, ysl], out=ov)

        sw.fluxes(1, x0, x1, fill_y)
        lo, hi = 2 * n2, n - 2 * n2
        np.subtract(f[lo:hi], f[lo - n2:hi - n2], out=d[lo:hi])
        np.divide(d[lo:hi], grid.dy, out=d[lo:hi])
        np.subtract(ov, d3[:, ysl], out=ov)

        # z: limited faces 1..N-3, first-order upwind on faces 0 and N-2
        sw.fluxes(2, x0, x1, fill_z)
        fa3 = sw.box(5, nb)
        for k in (0, n2 - 2):
            fk = fa3[:, ysl, k]
            f3[:, ysl, k] = fk * np.where(fk >= 0.0, p3[:, ysl, k],
                                          p3[:, ysl, k + 1])
        np.subtract(f[1:n], f[:n - 1], out=d[1:])
        if zedge is None:
            np.divide(d3, grid.dz_f, out=d3)
            np.subtract(ov[..., 1:-1], d3[:, ysl, 1:-1], out=ov[..., 1:-1])
            ov[..., 0] = 0.0
            ov[..., -1] = 0.0
        else:
            np.subtract(f3[:, ysl, 0], zedge(x0, x1, 0), out=d3[:, ysl, 0])
            np.subtract(zedge(x0, x1, n2), f3[:, ysl, n2 - 2],
                        out=d3[:, ysl, n2 - 1])
            np.divide(d3, grid.dz_c, out=d3)
            np.subtract(ov, d3[:, ysl], out=ov)
    return out


def _covers(limiter, grid, shape, *fields) -> bool:
    # the reference divides by the float64 grid metrics, so a float32
    # field is a mixed-dtype call; the compiled body takes addresses, so
    # the shapes are checked here, for both bodies
    return (limiter is koren and grid.nz >= 4 and grid.halo >= 2
            and _plain(*fields)
            and fields[0].dtype == grid.dz_c.dtype
            and tuple(f.shape for f in fields)
            == (shape, grid.shape_u, grid.shape_v, grid.shape_w))


def _mean_into(dst, a, b):
    """``dst = 0.5 * (a + b)``."""
    np.add(a, b, out=dst)
    np.multiply(0.5, dst, out=dst)


def _to_levels(dst, src):
    """Cell-centre mass flux ``src`` averaged to the w levels of ``dst``
    (the boundary levels take the adjacent cell's value)."""
    _mean_into(dst[..., 1:-1], src[..., 1:], src[..., :-1])
    dst[..., 0] = src[..., 0]
    dst[..., -1] = src[..., -1]


@register_fused("advect_scalar")
def _advect_scalar(plans, phi, fx, fy, fz, grid, limiter=koren):
    if not _covers(limiter, grid, grid.shape_c, phi, fx, fy, fz):
        return NotImplemented
    sx, sy = grid.isl

    def fill_x(fa3, m0, m1):
        fa3[...] = fx[m0 + 1:m1 + 1]

    def fill_y(fa3, x0, x1):
        fa3[:, :-1] = fy[x0:x1, 1:-1]

    def fill_z(fa3, x0, x1):
        fa3[..., :-1] = fz[x0:x1, :, 1:-1]

    return _advect(plans, _SCALAR, phi, (fx, fy, fz), grid, sx, sy,
                   fill_x, fill_y, fill_z,
                   lambda x0, x1, k: fz[x0:x1, sy, k])


@register_fused("advect_u")
def _advect_u(plans, u, fx, fy, fz, grid, limiter=koren):
    if not _covers(limiter, grid, grid.shape_u, u, fx, fy, fz):
        return NotImplemented
    sx, sy = grid.isl_u

    # mass fluxes at the u control volume: two-point x averages
    def fill_x(fa3, m0, m1):
        _mean_into(fa3, fx[m0 + 1:m1 + 1], fx[m0:m1])

    def fill_y(fa3, x0, x1):
        _mean_into(fa3[:, :-1], fy[x0:x1, 1:-1], fy[x0 - 1:x1 - 1, 1:-1])

    def fill_z(fa3, x0, x1):
        _mean_into(fa3[..., :-1], fz[x0:x1, :, 1:-1],
                   fz[x0 - 1:x1 - 1, :, 1:-1])

    return _advect(plans, _U, u, (fx, fy, fz), grid, sx, sy,
                   fill_x, fill_y, fill_z,
                   lambda x0, x1, k: 0.5 * (fz[x0:x1, sy, k]
                                            + fz[x0 - 1:x1 - 1, sy, k]))


@register_fused("advect_v")
def _advect_v(plans, v, fx, fy, fz, grid, limiter=koren):
    if not _covers(limiter, grid, grid.shape_v, v, fx, fy, fz):
        return NotImplemented
    sx, sy = grid.isl_v
    sym = slice(sy.start - 1, sy.stop - 1)

    # two-point y averages; v columns 0 and nyh are never read
    def fill_x(fa3, m0, m1):
        _mean_into(fa3[:, 1:-1], fx[m0 + 1:m1 + 1, 1:], fx[m0 + 1:m1 + 1, :-1])

    def fill_y(fa3, x0, x1):
        _mean_into(fa3[:, :-1], fy[x0:x1, 1:], fy[x0:x1, :-1])

    def fill_z(fa3, x0, x1):
        _mean_into(fa3[:, 1:-1, :-1], fz[x0:x1, 1:, 1:-1],
                   fz[x0:x1, :-1, 1:-1])

    return _advect(plans, _V, v, (fx, fy, fz), grid, sx, sy,
                   fill_x, fill_y, fill_z,
                   lambda x0, x1, k: 0.5 * (fz[x0:x1, sy, k]
                                            + fz[x0:x1, sym, k]))


@register_fused("advect_w")
def _advect_w(plans, w, fx, fy, fz, grid, limiter=koren):
    if not _covers(limiter, grid, grid.shape_w, w, fx, fy, fz):
        return NotImplemented
    sx, sy = grid.isl

    def fill_x(fa3, m0, m1):
        _to_levels(fa3, fx[m0 + 1:m1 + 1])

    def fill_y(fa3, x0, x1):
        _to_levels(fa3[:, :-1], fy[x0:x1, 1:-1])

    def fill_z(fa3, x0, x1):
        _mean_into(fa3[..., :-1], fz[x0:x1, :, 1:], fz[x0:x1, :, :-1])

    return _advect(plans, _W, w, (fx, fy, fz), grid, sx, sy,
                   fill_x, fill_y, fill_z, None)


# ------------------------------------------------------------- diffusion
# out= chains with fresh temporaries (not yet on the plan: ROADMAP item 1)
def _lap_into(dest, phi, sx, sy, dx, dy):
    """``dest = _lap_on(phi, sx, sy, dx, dy)`` with two temporaries (same
    ``(A - 2C + B)/dx^2 + (E - 2C + F)/dy^2`` evaluation order)."""
    x0, x1 = sx.start, sx.stop
    y0, y1 = sy.start, sy.stop
    c2 = np.multiply(2.0, phi[sx, sy])
    tx = np.subtract(phi[x0 + 1 : x1 + 1, sy], c2)
    np.add(tx, phi[x0 - 1 : x1 - 1, sy], out=tx)
    np.divide(tx, dx ** 2, out=tx)
    ty = np.subtract(phi[sx, y0 + 1 : y1 + 1], c2, out=c2)
    np.add(ty, phi[sx, y0 - 1 : y1 - 1], out=ty)
    np.divide(ty, dy ** 2, out=ty)
    np.add(tx, ty, out=dest)


def _hlap(phi, grid, sx, sy):
    out = np.zeros_like(phi)
    _lap_into(out[sx, sy], phi, sx, sy, grid.dx, grid.dy)
    return out


@register_fused("horizontal_laplacian_c")
def _hlap_c(plans, phi, grid):
    return _hlap(phi, grid, *grid.isl)


@register_fused("horizontal_laplacian_u")
def _hlap_u(plans, u, grid):
    return _hlap(u, grid, *grid.isl_u)


@register_fused("horizontal_laplacian_v")
def _hlap_v(plans, v, grid):
    return _hlap(v, grid, *grid.isl_v)


@register_fused("horizontal_laplacian_w")
def _hlap_w(plans, w, grid):
    return _hlap(w, grid, *grid.isl)


@register_fused("hyperdiffusion_c")
def _hyperdiffusion_c(plans, phi, grid):
    h = grid.halo
    sx, sy = grid.isl
    sx1 = slice(h - 1, h + grid.nx + 1)
    sy1 = slice(h - 1, h + grid.ny + 1)
    out = np.zeros_like(phi)
    # the reference's first full-interior Laplacian is dead code (the
    # ring recomputes the interior); only the ring's values are read by
    # the outer Laplacian, so the rest of the buffer needs no zeroing
    ring = np.empty_like(phi)
    _lap_into(ring[sx1, sy1], phi, sx1, sy1, grid.dx, grid.dy)
    _lap_into(out[sx, sy], ring, sx, sy, grid.dx, grid.dy)
    np.negative(out[sx, sy], out=out[sx, sy])
    return out


@register_fused("vertical_diffusion_c")
def _vertical_diffusion_c(plans, phi, grid, kv):
    if phi.dtype != np.float64:
        return NotImplemented
    kv_f = np.broadcast_to(np.asarray(kv, dtype=np.float64), (grid.nz + 1,))
    jac = grid.jac[:, :, None]
    flux = np.zeros(grid.shape_w)
    t = np.subtract(phi[:, :, 1:], phi[:, :, :-1])
    np.multiply(kv_f[None, None, 1:-1], t, out=t)
    np.divide(t, (grid.dz_f[None, None, :] * jac)[:, :, 1:-1],
              out=flux[:, :, 1:-1])
    res = np.subtract(flux[:, :, 1:], flux[:, :, :-1])
    return np.divide(res, grid.dz_c[None, None, :] * jac, out=res)


# ------------------------------------------------------ pressure / solver
@register_fused("eos_pressure")
def _eos_pressure(plans, rhotheta_hat, grid):
    if rhotheta_hat.dtype != np.float64:
        return NotImplemented
    # the reference's five-op chain, in place on the one array returned
    res = np.divide(rhotheta_hat, grid.jac[:, :, None])
    np.multiply(c.RD, res, out=res)
    np.divide(res, c.P0, out=res)
    np.power(res, c.CP / c.CV, out=res)
    return np.multiply(c.P0, res, out=res)


def _factor(op):
    """Forward-elimination factors of ``op``, k-leading and contiguous
    (``cp[k]``, ``denom[k]`` never depend on the right-hand side, and the
    ten solves of a long step share three operators)."""
    fac = getattr(op, "_thomas_factors", None)
    if fac is None:
        n = op.diag.shape[-1]
        # copies: with one unknown a column the transpose is contiguous,
        # and ascontiguousarray would hand back (and factor) op's own arrays
        sub, den, cp = (np.array(a.reshape(-1, n).T, order="C")
                        for a in (op.sub, op.diag, op.sup))
        np.divide(cp[0], den[0], out=cp[0])
        t = np.empty_like(cp[0])
        for k in range(1, n):
            np.multiply(sub[k], cp[k - 1], out=t)
            np.subtract(den[k], t, out=den[k])
            np.divide(cp[k], den[k], out=cp[k])
        fac = op._thomas_factors = (sub, cp, den)
    return fac


#: columns of one compiled Thomas block (its n x THOMAS_BLOCK elimination
#: buffer stays in L1 for the n of every workload here)
THOMAS_BLOCK = 64


@register_fused("helmholtz_solve")
def _helmholtz_solve(plans, op, rhs_interior):
    rhs = rhs_interior
    if not _plain(rhs, op.sub, op.diag, op.sup) or rhs.shape != op.diag.shape:
        return NotImplemented
    sub, cp, den = _factor(op)
    n, ncol = den.shape
    pl = plans(op.grid.shape_c, rhs.dtype)
    shape = rhs.shape[:2] + (op.grid.nz + 1,)
    lib = native.kernels(np.float64)
    if lib is not None:
        # one compiled call; the factors are ours, k-leading and contiguous
        bc = min(ncol, THOMAS_BLOCK, pl.arena.size // n)
        w = np.empty(shape, rhs.dtype)
        ptrs = native.pointers(np.float64, dict(
            sub=sub, cp=cp, den=den, rhs=rhs, w=w, scratch=pl.arena))
        if not isinstance(ptrs, native.Unbound):
            lib.thomas(ncol, n, bc, *ptrs)
            return w
        native.unbound("solves", ptrs)
    w = np.zeros(shape, rhs.dtype)
    r2, w2 = rhs.reshape(ncol, n), w.reshape(ncol, op.grid.nz + 1)
    # all but the last buffer hold the transposed columns of one block,
    # the last one a level's worth of products
    bc = min(ncol, pl.cap, (pl.arena.size - pl.cap) // n)
    block = pl.arena[:n * bc].reshape(n, bc)
    for c0 in range(0, ncol, bc):
        c1 = min(c0 + bc, ncol)
        dp, t = block[:, :c1 - c0], pl.scratch(NBUF - 1, c1 - c0)
        dp[...] = r2[c0:c1].T
        np.divide(dp[0], den[0, c0:c1], out=dp[0])
        for k in range(1, n):
            np.multiply(sub[k, c0:c1], dp[k - 1], out=t)
            np.subtract(dp[k], t, out=t)
            np.divide(t, den[k, c0:c1], out=dp[k])
        for k in range(n - 2, -1, -1):
            np.multiply(cp[k, c0:c1], dp[k + 1], out=t)
            np.subtract(dp[k], t, out=dp[k])
        w2[c0:c1, 1:-1] = dp.T
    return w


# -------------------------------------------------------------- halo fill
@register_fused("fill_halos_state")
def _fill_halos_state(plans, state, names=None):
    """One compiled call per refresh (csrc/halo.c) where a library is
    loaded, else the reference fill: there is no planned twin."""
    lib = native.kernels(np.float64)
    if lib is None or not isinstance(names, (list, tuple, type(None))):
        return NotImplemented
    g = state.grid
    nxh, nyh = g.nxh, g.nyh
    arrays, shapes, desc = {}, {}, []
    for name in state.prognostic_names() if names is None else names:
        a = state.q.get(name)
        if a is None and name in _STAGGER:
            a = getattr(state, name)
        # a subclass (the FLOP counter) must see the reference's copies
        if type(a) is not np.ndarray:
            return NotImplemented
        sx, sy = _STAGGER.get(name, (False, False))
        arrays[name], shapes[name] = a, (nxh + sx, nyh + sy) + a.shape[2:]
        # rows, columns, bytes of one (x, y) column, staggering
        desc += (*a.shape[:2], a.strides[1], sx, sy)
    ptrs = native.pointers(next(iter(arrays.values())).dtype if arrays
                           else np.float64, arrays, shapes)
    if isinstance(ptrs, native.Unbound):
        native.unbound("halo fills", ptrs)
        return NotImplemented
    lib.halo_fill(len(ptrs), (ctypes.c_void_p * len(ptrs))(*ptrs),
                  (ctypes.c_long * len(desc))(*desc), g.halo, g.nx, g.ny,
                  g.periodic_x, g.periodic_y)
    return None


# ------------------------------------------------- compiled-body self-check
def native_check(lib) -> str:
    """What differs between ``lib``'s compiled bodies and their NumPy
    twins ("" when nothing does), in both widths: the face sweep over every
    four-cell stencil of signed zeros, ones, infinities, NaN and a subnormal
    under fluxes of both signs; the four advections on a grid of plateaus;
    then the halo fill against the reference fill."""
    with np.errstate(all="ignore"):
        for dtype, k in ((np.float64, lib.f64), (np.float32, lib.f32)):
            tiny = np.finfo(dtype).smallest_subnormal
            vals = np.array([0.0, -0.0, 1.0, -1.0, 3.25, np.inf, -np.inf,
                             np.nan, tiny], dtype)
            p = np.ascontiguousarray(
                np.stack(np.meshgrid(*[vals] * 4, indexing="ij"))).reshape(-1)
            n = p.size // 4             # face i: cells p[i - n] .. p[i + 2n]
            # 7 fluxes against 9 values a cell: every upwind triple meets
            # every flux (9 and 9**3 are both coprime to 7)
            fa = np.array([1.0, -1.0, 0.0, -0.0, 2.5, -tiny, np.inf],
                          dtype)[np.arange(n) % 7]
            want, got = np.empty(n, dtype), np.empty(n, dtype)
            _faces(Plan((1, n - 1, 0), p.dtype), p, n, 2 * n, n, fa, want)
            k.faces(p[n:].ctypes.data, n, fa.ctypes.data, got.ctypes.data, n)
            if not native.same(got, want):
                return f"faces_{p.dtype.name}"
    from ..core.grid import make_grid

    g64 = make_grid(3, 2, 4, 100.0, 130.0, 400.0)
    plans = PlanCache()
    for dtype in (np.float64, np.float32):  # no run has float32 metrics yet
        g = replace(g64, dz_c=g64.dz_c.astype(dtype),
                    dz_f=g64.dz_f.astype(dtype))
        flux = [native.wave(s, k).round(1).astype(dtype) for s, k in (
            (g.shape_u, 1.1), (g.shape_v, 1.7), (g.shape_w, 2.3))]
        for name, shape in (
                ("advect_scalar", g.shape_c), ("advect_u", g.shape_u),
                ("advect_v", g.shape_v), ("advect_w", g.shape_w)):
            runs, phi = [], native.wave(shape, 0.7).round(1).astype(dtype)
            for use in (lib, None):
                with native.using(use):
                    runs.append(FUSED_IMPLS[name](plans, phi, *flux, g))
            if not native.same(*runs):
                return f"{name}_{phi.dtype.name}"
    # the halo fill: 3 x 2 columns under a halo of 3 (overlapping copies),
    # periodic x with open y and the reverse, every staggering
    from ..core.boundary import fill_halos_state
    from ..core.state import State

    for px in (True, False):
        g = replace(g64, periodic_x=px, periodic_y=not px)
        runs = []
        for fill in (lambda st: _fill_halos_state(plans, st),
                     fill_halos_state.reference):
            st = State(g, *(native.wave(s, k) for s, k in (
                (g.shape_c, 0.3), (g.shape_u, 0.5), (g.shape_v, 0.7),
                (g.shape_w, 0.9), (g.shape_c, 1.1))),
                {"qv": native.wave(g.shape_c, 1.3)})
            with native.using(lib):
                fill(st)
            runs.append([st.get(n) for n in st.prognostic_names()])
        if not all(map(native.same, *runs)):
            return f"halo fill, periodic {'x' if px else 'y'}"
    return ""


# the warm-rain body registers itself beside these
from . import kessler  # noqa: E402,F401
