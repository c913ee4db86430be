"""The compiled warm-rain body: :func:`repro.physics.kessler.kessler_step`
with its sedimentation as one call of ``csrc/kessler.c``, whose every
``exp`` and ``pow`` is the loop NumPy itself runs (docs/STENCILS.md "The
loop rule"), on the five interior buffers of the integrator's
:class:`~repro.core.acoustic.AcousticScratch` (the model hands it over; a
caller without one gets a fresh one).  The precipitation it returns is
that scratch too (copy it to keep it past the integrator's next step); the
call adds it, times ``dt``, to the state's accumulator.  A row of a
captured step (:mod:`repro.core.program`): a replay runs the warm rain with
no Python at all.

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
from ..physics.kessler import KesslerConfig, kessler_step
from . import native
from .spec import register_fused

__all__: list[str] = []

_FIELDS = ("rho", "rhotheta", "qv", "qc", "qr")


@register_fused("kessler_step")
def _kessler_step(state, ref, dt, cfg=None, scratch=None):
    lib = native.kernels()
    # a float32 state, one without the warm species or a FLOP-counting
    # wrapper of a field runs the oracle (as the other entries decline them)
    ptrs = (None if lib is None or not state.q.keys() >= set(_FIELDS[2:])
            else state.pointers())
    if ptrs is None or isinstance(ptrs, native.Unbound):
        return NotImplemented
    cfg, g = cfg or KesslerConfig(), state.grid
    s = scratch or AcousticScratch(g)
    if state.precip_accum is None:
        state.precip_accum = np.zeros((g.nx, g.ny))
    lay = state.layout
    lib.kessler(ctypes.byref(lib.kessler_args(
        nyh=g.nyh, nz=g.nz, h=g.halo, nx=g.nx, ny=g.ny,
        sedimented=cfg.sedimentation, evaporation=cfg.evaporation,
        saturation=cfg.saturation_adjust, dt=dt, k1=cfg.autoconv_rate,
        qc0=cfg.autoconv_threshold, k2=cfg.accretion_rate, rd=c.RD, p0=c.P0,
        lv=c.LV, cp=c.CP, eps=c.RD / c.RV, lv_cp=c.LV / c.CP, es0=sat._ES0,
        ta=sat._A, t00=sat._T00, tb=sat._B,
        tetens_num=sat._A * (sat._T00 - sat._B), vt_coef=sed._VT_COEF,
        vt_exp=sed._VT_EXP, rho_sfc=sed._RHO_SFC, max_cfl=sed.MAX_CFL,
        dz_min=float(g.dz_c.min()), gamma=c.CP / c.CV, kappa=c.KAPPA,
        jac=native.address(g.jac), dz_c=native.address(g.dz_c),
        **{n: ptrs[lay.names.index(n)] for n in _FIELDS},
        **{f"b{k}": b.ctypes.data for k, b in enumerate(s.i)},
        precip=s.precip.ctypes.data,
        accum=state.address + 8 * lay.offsets[-1])))
    return s.precip


def native_check(lib) -> str:
    """What differs between ``lib``'s warm-rain body and the oracle ("" when
    nothing does): one step on a 4 x 3 x 6 terrain grid whose 20 m levels
    make the rain fall in five sub-steps (rain in half the cells), with
    cloud water at and around the autoconversion threshold, sub- and
    super-saturated cells, signed zeros and a NaN vapor cell; then again
    with a NaN rain cell and a NaN density cell (their fall speed ends the
    CFL loop at once), without evaporation and saturation adjustment, onto
an accumulator that already holds rain (the first run's starts unset)."""
    from ..core.grid import make_grid
    from ..core.state import State

    g = make_grid(4, 3, 6, 100.0, 100.0, 120.0,
                  terrain=lambda x, y: 8.0 + 6.0 * np.sin(x / 70.0 + y))
    wave, shape = native.wave, g.shape_c
    rho = 1.1 + 0.2 * wave(shape, 0.37)
    q = {"qv": (0.013 + 0.006 * wave(shape, 0.29)) * rho,
         "qc": np.resize([0.0, -0.0, 1e-3, 1.2e-3, 8e-4, 3e-3], shape) * rho,
         # rain in half the cells, none (+0.0: not raised) in the rest
         "qr": np.maximum(3e-3 * wave(shape, 0.53), 0.0).round(5) * rho}
    q["qr"][3, 5, ::3], q["qv"][5, 3, 1] = -0.0, np.nan
    for nan_rain, cfg in (("", KesslerConfig()), (", NaN rain", KesslerConfig(
            evaporation=False, saturation_adjust=False))):
        if nan_rain:
            q["qr"][4, 4, 2] = rho[6, 3, 4] = np.nan
        runs = []
        for compiled in (True, False):
            st = State(g, rho.copy(), None, None, None,
                       (300.0 + 10.0 * wave(shape, 0.41)) * rho,
                       {k: v.copy() for k, v in q.items()},
                       precip_accum=wave((g.nx, g.ny), 0.61, 2.0)
                       if nan_rain else None)
            with native.using(lib), np.errstate(all="ignore"):
                precip = (_kessler_step(st, None, 5.0, cfg) if compiled
                          else kessler_step.reference(st, None, 5.0, cfg))
            runs.append([*map(st.get, _FIELDS), precip, st.precip_accum])
        for name, got, want in zip((*_FIELDS, "precip", "precip_accum"),
                                   *runs):
            if not native.same(got, want):
                return f"kessler step, {name}{nan_rain}"
    return ""
