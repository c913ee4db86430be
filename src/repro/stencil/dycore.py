"""The compiled entries of the declared dycore stencils.

Each function stands in for a reference kernel in ``repro.core`` and is
one call of its C body (the Koren advection of all four staggerings:
``csrc/advect.c``; the halo fill: ``csrc/halo.c``) where a verified
library is in force, **byte-identical** to the oracle (``tobytes()``,
signed zeros included) for every argument combination it accepts; for the
rest, and always without a library, it returns ``NotImplemented`` and the
executor runs the oracle.  There is no other NumPy text of any kernel.
:func:`native_check` holds the C to the oracles at load time
(docs/STENCILS.md "Compiled bodies").
"""
from __future__ import annotations

import ctypes
from dataclasses import replace

import numpy as np

from ..core.boundary import _STAGGER
from ..core.limiter import koren
from . import native
from .plan import PlanCache
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
    # the oracles dispatch their face fluxes: to the oracle, uncounted (the
    # reference executor holds the library off, so each compiled call
    # below names ``lib`` itself)
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
