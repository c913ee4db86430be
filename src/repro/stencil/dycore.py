"""The fused entry points of the declared dycore stencils.

Each function stands in for a reference kernel in ``repro.core`` and is
**byte-identical** to it (``tobytes()``, signed zeros included) for every
argument combination it accepts; for the rest it returns
``NotImplemented`` and the executor runs the reference.  Two kinds:

* *compiled*: the Koren advection of all four staggerings and the Thomas
  solve are one call of their C body (``csrc/advect.c``,
  ``csrc/acoustic.c``) where a verified library is loaded, else the
  oracle; :func:`native_check` holds the C to the oracles at load time
  (docs/STENCILS.md "Compiled bodies").
* *planned*: the diffusion family and the EOS, which have no C body, are
  ``out=`` chains of the oracle's own operations.
"""
from __future__ import annotations

import ctypes
from dataclasses import replace

import numpy as np

from .. import constants as c
from ..core.boundary import _STAGGER
from ..core.limiter import koren
from . import native
from .plan import THOMAS_BLOCK, PlanCache
from .spec import FUSED_IMPLS, register_fused

__all__: list[str] = []


def _plain(*arrays) -> bool:
    """Same-dtype float32/float64 exact ndarrays (a subclass such as the
    FLOP-counting array must see the reference's own ufunc calls)."""
    dt_ = arrays[0].dtype
    return dt_.kind == "f" and dt_.itemsize in (4, 8) and all(
        type(a) is np.ndarray and a.dtype == dt_ for a in arrays)


# ------------------------------------------------------------- advection
#: csrc/advect.c's variants, in its order: the advected field's shape and
#: its interior slices, as grid attributes
_VARIANTS = (("shape_c", "isl"), ("shape_u", "isl_u"), ("shape_v", "isl_v"),
             ("shape_w", "isl"))


def _advect(plans, variant, p, fx, fy, fz, grid, limiter):
    """``-div(F p)`` of one staggered field in one compiled call where a
    verified library is loaded for its width, else ``NotImplemented``.

    The oracle divides by the float64 grid metrics, so a float32 field is
    a mixed-dtype call unless the grid's spacings are float32 too; the C
    takes addresses, so every shape is checked here."""
    shape, isl = _VARIANTS[variant]
    fields = (p, fx, fy, fz)
    if (limiter is not koren or grid.nz < 4 or grid.halo < 2
            or not _plain(*fields) or p.dtype != grid.dz_c.dtype
            or tuple(f.shape for f in fields) != (
                getattr(grid, shape), grid.shape_u, grid.shape_v,
                grid.shape_w)):
        return NotImplemented
    lib = native.kernels(p.dtype)
    if lib is None:
        return NotImplemented
    p, fx, fy, fz = map(np.ascontiguousarray, fields)
    out = np.zeros(p.shape, p.dtype)
    # the scratch is this thread's plan (ctypes releases the GIL)
    ptrs = native.pointers(p.dtype, dict(
        p=p, fx=fx, fy=fy, fz=fz, out=out,
        dz=grid.dz_f if shape == "shape_w" else grid.dz_c,
        scratch=plans(grid.shape_c, p.dtype).arena))
    if isinstance(ptrs, native.Unbound):
        native.unbound("advections", ptrs)
        return NotImplemented
    xsl, ysl = getattr(grid, isl)
    lib.advect(variant, *ptrs[:5], *grid.shape_c[1:], xsl.start, xsl.stop,
               ysl.start, ysl.stop, grid.dx, grid.dy, *ptrs[5:])
    return out


@register_fused("advect_scalar")
def _advect_scalar(plans, phi, fx, fy, fz, grid, limiter=koren):
    return _advect(plans, 0, phi, fx, fy, fz, grid, limiter)


@register_fused("advect_u")
def _advect_u(plans, u, fx, fy, fz, grid, limiter=koren):
    return _advect(plans, 1, u, fx, fy, fz, grid, limiter)


@register_fused("advect_v")
def _advect_v(plans, v, fx, fy, fz, grid, limiter=koren):
    return _advect(plans, 2, v, fx, fy, fz, grid, limiter)


@register_fused("advect_w")
def _advect_w(plans, w, fx, fy, fz, grid, limiter=koren):
    return _advect(plans, 3, w, fx, fy, fz, grid, limiter)


# ------------------------------------------------------------- diffusion
# out= chains with fresh temporaries (no C body yet: ROADMAP item 8)
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


@register_fused("helmholtz_solve")
def _helmholtz_solve(plans, op, rhs_interior):
    """One compiled call (csrc/acoustic.c) where a verified library is
    loaded, else ``NotImplemented``: columns innermost over the k-leading
    factors of ``op.thomas_factors()``, a :data:`THOMAS_BLOCK`-column block
    of the plan's arena at a time."""
    rhs = rhs_interior
    lib = native.kernels(np.float64)
    if (lib is None or not _plain(rhs, op.sub, op.diag, op.sup)
            or rhs.shape != op.diag.shape):
        return NotImplemented
    sub, cp, den = op.thomas_factors()
    n, ncol = den.shape
    w = np.empty(rhs.shape[:2] + (op.grid.nz + 1,), rhs.dtype)
    ptrs = native.pointers(np.float64, dict(
        sub=sub, cp=cp, den=den, rhs=rhs, w=w,
        scratch=plans(op.grid.shape_c, rhs.dtype).arena))
    if isinstance(ptrs, native.Unbound):
        native.unbound("solves", ptrs)
        return NotImplemented
    lib.thomas(ncol, n, min(ncol, THOMAS_BLOCK), *ptrs)
    return w


# -------------------------------------------------------------- halo fill
@register_fused("fill_halos_state")
def _fill_halos_state(plans, state, names=None):
    """One compiled call per refresh (csrc/halo.c) where a library is
    loaded, else the reference fill."""
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
    """What differs between ``lib``'s Koren bodies and the oracles of
    :mod:`repro.core.advection` ("" when nothing does), in both widths:
    the face sweep against ``limited_face_flux`` on a ``(4, n, 1)`` stack
    along axis 0, every four-cell stencil of signed zeros, ones, 3.25,
    infinities, NaN and a subnormal under fluxes of both signs; the four
    advections on a grid of plateaus whose spacings are of that width; then
    the halo fill against the reference fill."""
    from ..core import advection as adv
    from ..core.grid import make_grid
    from .executor import StencilExecutor, use_executor

    g64 = make_grid(3, 2, 4, 100.0, 130.0, 400.0)
    plans = PlanCache()
    # plateaus: runs of equal values, so zero gradients occur
    fluxes64 = [native.wave(s, f).round(1) for s, f in (
        (g64.shape_u, 1.1), (g64.shape_v, 1.7), (g64.shape_w, 2.3))]
    fields64 = {name: native.wave(getattr(g64, shape), 0.7).round(1)
                for name, shape in (("advect_scalar", "shape_c"),
                                    ("advect_u", "shape_u"),
                                    ("advect_v", "shape_v"),
                                    ("advect_w", "shape_w"))}
    # the oracles dispatch their face fluxes: to the oracle, uncounted
    with np.errstate(all="ignore"), use_executor(StencilExecutor("reference")):
        for dtype, k in ((np.float64, lib.f64), (np.float32, lib.f32)):
            tiny = np.finfo(dtype).smallest_subnormal
            vals = np.array([0.0, -0.0, 1.0, -1.0, 3.25, np.inf, -np.inf,
                             np.nan, tiny], dtype)
            p = np.ascontiguousarray(np.stack(np.meshgrid(
                *[vals] * 4, indexing="ij"))).reshape(4, -1, 1)
            n = p.shape[1]              # face i: cells p[0, i] .. p[3, i]
            # 7 fluxes against 9 values a cell: every upwind triple meets
            # every flux (9 and 9**3 are both coprime to 7)
            flux = np.zeros((3, n, 1), dtype)
            flux[1, :, 0] = np.array([1.0, -1.0, 0.0, -0.0, 2.5, -tiny,
                                      np.inf], dtype)[np.arange(n) % 7]
            got = np.empty(n, dtype)
            k.faces(p[1].ctypes.data, n, flux[1].ctypes.data,
                    got.ctypes.data, n)
            if not native.same(got, adv.limited_face_flux.reference(
                    p, flux, 0).reshape(-1)):
                return f"faces_{p.dtype.name}"
            g = replace(g64, dz_c=g64.dz_c.astype(dtype),
                        dz_f=g64.dz_f.astype(dtype))
            fluxes = [f.astype(dtype) for f in fluxes64]
            for name, field in fields64.items():
                phi = field.astype(dtype)
                with native.using(lib):
                    got = FUSED_IMPLS[name](plans, phi, *fluxes, g)
                want = getattr(adv, name).reference(phi, *fluxes, g)
                if got is NotImplemented or not native.same(got, want):
                    return f"{name}_{phi.dtype.name}"
    # the halo fill: 3 x 2 columns under a halo of 3 (overlapping copies),
    # periodic x with open y and the reverse, every staggering
    from ..core.boundary import fill_halos_state
    from ..core.state import State

    for px in (True, False):
        g = replace(g64, periodic_x=px, periodic_y=not px)
        fields = [native.wave(s, k) for s, k in (
            (g.shape_c, 0.3), (g.shape_u, 0.5), (g.shape_v, 0.7),
            (g.shape_w, 0.9), (g.shape_c, 1.1), (g.shape_c, 1.3))]
        runs = []
        for fill in (lambda st: _fill_halos_state(plans, st),
                     fill_halos_state.reference):
            st = State(g, *(a.copy() for a in fields[:5]),
                       {"qv": fields[5].copy()})
            with native.using(lib):
                fill(st)
            runs.append([st.get(n) for n in st.prognostic_names()])
        if not all(map(native.same, *runs)):
            return f"halo fill, periodic {'x' if px else 'y'}"
    return ""


# the warm-rain body registers itself beside these
from . import kessler  # noqa: E402,F401
