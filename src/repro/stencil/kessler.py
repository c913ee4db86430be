"""The compiled warm-rain body: :func:`repro.physics.kessler.kessler_step`
(with its sedimentation) as the C segments of ``csrc/kessler.c`` and,
between them, the scheme's every ``exp`` and ``pow`` as NumPy ufuncs,
all on the five interior buffers of the integrator's
:class:`~repro.core.acoustic.AcousticScratch` (the model hands it over;
a caller without one gets a fresh one).

NumPy's float64 ``exp`` and ``pow`` are SIMD routines whose results differ
from libm's (on an AVX-512 host 917 of 20 000 ``exp`` arguments, 992-1113
of 20 000 ``pow`` bases per exponent) and do not depend on stride,
alignment or chunking, so those passes stay NumPy's, written with
``out=`` into that scratch, and the C does the arithmetic.  The oracle evaluates
``es(T)`` three times on the saturation adjustment's ``T``; the same bits
are read once here, so a step takes two ``exp`` passes instead of four.
The precipitation it returns is that scratch too (copy it to keep it
past the integrator's next step).

Like every compiled body, it has one NumPy text, the oracle: the
load-time reference and the body that runs without a library (the
executor counts it as a reference dispatch).
"""
from __future__ import annotations

import ctypes

import numpy as np

from .. import constants as c
from ..core.acoustic import AcousticScratch
from ..physics import saturation as sat, sedimentation as sed
from ..physics.kessler import KesslerConfig
from . import native
from .spec import register_fused

__all__: list[str] = []

_FIELDS = ("rho", "rhotheta", "qv", "qc", "qr")


class _Args(ctypes.Structure):
    """``kessler_args`` of csrc/kessler.c, field for field."""

    _fields_ = (
        [(n, ctypes.c_long) for n in (
            "nyh nz h nx ny sedimented evaporation saturation").split()]
        + [(n, ctypes.c_double) for n in (
            "dt k1 qc0 k2 rd p0 lv cp eps lv_cp es0 ta t00 tb tetens_num "
            "vt_coef rho_sfc dt_sub frac").split()]
        + [(n, ctypes.c_void_p) for n in (
            "jac dz_c rho rhotheta qv qc qr precip b0 b1 b2 b3 b4").split()])


@register_fused("kessler_step")
def _kessler_step(state, ref, dt, cfg=None, scratch=None):
    lib = native.kernels()
    # a float32 state, one without the warm species, or a FLOP-counting
    # wrapper of a field runs the oracle's own ufunc calls (as the other
    # compiled entries decline them)
    ptrs = (None if lib is None or not state.q.keys() >= set(_FIELDS[2:])
            else state.pointers())
    if ptrs is None or isinstance(ptrs, native.Unbound):
        return NotImplemented
    cfg = cfg or KesslerConfig()
    g = state.grid
    s = scratch or AcousticScratch(g)
    b, (precip, precip_dt) = [a.reshape(-1) for a in s.i], s.precip
    precip[...] = 0.0
    names = state.layout.names
    a = _Args(g.nyh, g.nz, g.halo, g.nx, g.ny, cfg.sedimentation,
              cfg.evaporation, cfg.saturation_adjust, dt, cfg.autoconv_rate,
              cfg.autoconv_threshold, cfg.accretion_rate, c.RD, c.P0, c.LV,
              c.CP, c.RD / c.RV, c.LV / c.CP, sat._ES0, sat._A, sat._T00,
              sat._B, sat._A * (sat._T00 - sat._B), sed._VT_COEF,
              sed._RHO_SFC, 0.0, 0.0, native.address(g.jac),
              native.address(g.dz_c), *(ptrs[names.index(n)] for n in _FIELDS),
              precip.ctypes.data, *(r.ctypes.data for r in b))
    ref_a = ctypes.byref(a)
    b0, b1, b2, b3, b4 = b

    if cfg.sedimentation:
        # the oracle's CFL loop, its floats included
        remaining, dz_min = dt, float(g.dz_c.min())
        for _ in range(64):
            lib.kessler(ref_a, 0)
            _powers(lib, b1, b4, (sed._VT_EXP, b1))
            vmax = lib.kessler(ref_a, 1)
            if vmax <= 0.0:
                break
            a.dt_sub = dt_sub = min(remaining, sed.MAX_CFL * dz_min / vmax)
            a.frac = dt_sub / dt
            lib.kessler(ref_a, 2)
            remaining -= dt_sub
            if remaining <= 1e-12:
                break
    lib.kessler(ref_a, 3)
    np.power(b0, c.CP / c.CV, out=b0)
    _powers(lib, b1, b4, (0.875, b1))
    lib.kessler(ref_a, 4)
    np.power(b2, c.KAPPA, out=b2)
    if cfg.evaporation or cfg.saturation_adjust:
        if cfg.evaporation:
            _powers(lib, b1, b4, (0.2046, b3), (0.525, b1))
        lib.kessler(ref_a, 5)
        np.exp(b4, out=b4)
        if cfg.evaporation:
            lib.kessler(ref_a, 6)
            if cfg.saturation_adjust:
                np.exp(b4, out=b4)
    lib.kessler(ref_a, 7)

    if state.precip_accum is None:
        state.precip_accum = np.zeros((g.nx, g.ny))
    np.multiply(precip, dt, out=precip_dt)
    state.precip_accum += precip_dt
    return precip


def _powers(lib, base, packed, *pairs) -> None:
    """``dst = base ** y`` for each ``(y, dst)`` (only the last ``dst`` may
    be ``base``), by NumPy on the entries of ``base`` that are not ``+0.0``,
    packed to the front of ``packed``: ``+0.0 ** y`` is ``+0.0`` for every
    ``y > 0``, and NumPy's result for one entry does not depend on the
    others.  Most cells hold no rain, and a zero base costs NumPy's ``pow``
    three times a positive one."""
    n = base.size
    m = lib.pack(base.ctypes.data, n, packed.ctypes.data)
    for i, (y, dst) in enumerate(pairs):
        out = packed[:m] if i == len(pairs) - 1 else dst[:m]
        np.power(packed[:m], y, out=out)
        lib.unpack(base.ctypes.data, n, out.ctypes.data, m, dst.ctypes.data)


def native_check(lib) -> str:
    """What differs between ``lib``'s warm-rain body and the oracle ("" when
    nothing does): one step on a 4 x 3 x 6 terrain grid whose 20 m levels
    make the rain fall in five sub-steps (rain in half the cells), with
    cloud water at and around
    the autoconversion threshold, sub- and super-saturated cells, signed
    zeros and a NaN vapor cell; then again with a NaN rain cell and a NaN
    density cell (their fall speed ends the CFL loop at once), without
    evaporation and saturation adjustment."""
    from ..core.grid import make_grid
    from ..core.state import State
    from ..physics.kessler import kessler_step

    g = make_grid(4, 3, 6, 100.0, 100.0, 120.0,
                  terrain=lambda x, y: 8.0 + 6.0 * np.sin(x / 70.0 + y))
    wave, shape = native.wave, g.shape_c
    rho = 1.1 + 0.2 * wave(shape, 0.37)
    q = {"qv": (0.013 + 0.006 * wave(shape, 0.29)) * rho,
         "qc": np.resize([0.0, -0.0, 1e-3, 1.2e-3, 8e-4, 3e-3], shape) * rho,
         # rain in half the cells, none (+0.0: not raised) in the rest
         "qr": np.maximum(3e-3 * wave(shape, 0.53), 0.0).round(5) * rho}
    q["qr"][3, 5, ::3], q["qv"][5, 3, 1] = -0.0, np.nan
    names = (*_FIELDS, "precip", "precip_accum")
    for nan_rain, cfg in (("", KesslerConfig()), (", NaN rain", KesslerConfig(
            evaporation=False, saturation_adjust=False))):
        if nan_rain:
            q["qr"][4, 4, 2] = rho[6, 3, 4] = np.nan
        runs = []
        for compiled in (True, False):
            st = State(g, rho.copy(), None, None, None,
                       (300.0 + 10.0 * wave(shape, 0.41)) * rho,
                       {k: v.copy() for k, v in q.items()})
            with native.using(lib), np.errstate(all="ignore"):
                precip = (_kessler_step(st, None, 5.0, cfg) if compiled
                          else kessler_step.reference(st, None, 5.0, cfg))
            runs.append([*map(st.get, _FIELDS), precip, st.precip_accum])
        for name, got, want in zip(names, *runs):
            if not native.same(got, want):
                return f"kessler step, {name}{nan_rain}"
    return ""
