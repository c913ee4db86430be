"""The compiled bodies (repro.stencil.native): the same bytes as their
oracles, and a loader whose every failure ends on the NumPy bodies with a
typed reason.

``np.array_equal`` calls -0.0 and +0.0 equal; the compiled bodies promise
more — the same *bytes* as their textbook oracles in ``repro.core`` — so
everything here compares ``tobytes()``.  Inputs are drawn to hit what a
select-first, flat, row-carrying body could get wrong: the ``nz = 4``
minimum, all three axes, non-contiguous inputs, constant fields
(``sign(0)``), signed zeros in field and flux, and single-signed fluxes.  NaN/inf inputs must give non-finite output at the
same positions and the same bytes everywhere else; NaN *payload* bits are
exempt (IEEE leaves them to the implementation, and a select before the
arithmetic may propagate a different operand's payload than one after
it).

Where no C compiler exists only the tests that need a library skip, with
the loader's own reason; the others (``CC=/nonexistent`` runs, the cache
trust rules, the packaged sources) run everywhere.
"""
import ast
import ctypes
import functools
import hashlib
import os
import pathlib
import shutil
import stat
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Experiment, RunSpec
from repro.constants import WATER_SPECIES
from repro.core import advection as adv
from repro.core.acoustic import (ACOUSTIC_FIELDS, AcousticGeometry,
                                 AcousticStepper, SubstepBinding,
                                 build_context)
from repro.core.boundary import fill_halos_state, rayleigh_coefficient
from repro.core.grid import Grid, make_grid
from repro.core.helmholtz import HelmholtzOperator, helmholtz_brackets
from repro.core.limiter import koren, minmod
from repro.core.pressure import eos_pressure, exner
from repro.core.reference import make_reference_state
from repro.core.model import run_lockstep
from repro.core.rk3 import (DynamicsConfig, Rk3Integrator, StageBinding,
                            slow_tendencies)
from repro.core.state import State, state_from_reference
from repro.physics.kessler import KesslerConfig, kessler_step
from repro.physics.saturation import saturation_mixing_ratio
from repro.physics.sedimentation import MAX_CFL, terminal_velocity
from repro.stencil import (StencilExecutor, load_dycore_specs, native,
                           use_executor)
from repro.stencil.spec import FUSED_IMPLS
from repro.workloads.sounding import constant_stability_sounding

load_dycore_specs()
LIB = native.library()
needs_library = pytest.mark.skipif(
    LIB.state == "no-compiler", reason=f"compiled bodies unavailable: "
                                       f"{LIB.detail}")
SETTINGS = settings(max_examples=60, deadline=None)
SRC = os.path.dirname(os.path.dirname(os.path.dirname(native.__file__)))
_ORACLE = StencilExecutor("reference")


def _entries(lib) -> list:
    """``(name, function)`` of every compiled entry of ``lib``: its struct
    layouts and constants are not calls into it."""
    return [(name, fn) for name, fn in vars(lib.f64).items()
            if not isinstance(fn, (type, int))]

#: how a field or a flux is filled
KINDS = ("normal", "constant", "signed_zeros", "positive", "negative",
         "plateaus")


def _fill(rng, kind, shape, dtype):
    if kind == "normal":
        a = rng.normal(size=shape)
    elif kind == "constant":
        a = np.full(shape, 3.25)
    elif kind == "signed_zeros":
        a = rng.choice([0.0, -0.0, 1.5, -1.5], size=shape)
    elif kind == "plateaus":            # runs of equal values: zero gradients
        a = np.round(rng.normal(size=shape))
    else:
        a = np.abs(rng.normal(size=shape)) * (1 if kind == "positive" else -1)
    return a.astype(dtype)


def _strided(a):
    """The same values behind a non-contiguous view."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


def _oracle(sf, *args):
    with use_executor(_ORACLE):
        return sf.reference(*args)


def _same_bytes(name, got, want):
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes(), name


@needs_library
def test_a_compiler_means_a_loaded_library():
    assert LIB.state == "loaded", LIB.report()
    assert LIB.clones and len(LIB.hash) == 16
    assert native.COUNTS["loaded"] >= 1


# ------------------------------------ (a) the face sweep against the oracle
def _face_sweep(phi, flux, axis):
    """``limited_face_flux`` by advect.c's face sweep alone: the field and
    its fluxes turned to put ``axis`` first, made contiguous, and swept
    from the second cell row with a stride of one row."""
    p = np.ascontiguousarray(np.moveaxis(phi, axis, 0))
    fa = np.ascontiguousarray(np.moveaxis(flux, axis, 0)[1:-1])
    out = np.empty(fa.shape, p.dtype)
    row = p[0].size
    LIB.f64.faces(p[1:].ctypes.data, row, fa.ctypes.data, out.ctypes.data,
                  out.size)
    return np.moveaxis(out, 0, axis)


@needs_library
@SETTINGS
@given(n0=st.integers(4, 13), n1=st.integers(4, 11), n2=st.integers(4, 9),
       axis=st.sampled_from([0, 1, 2, -1]),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["phi", "flux"]), strided=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_face_sweep_compiled_equals_oracle(n0, n1, n2, axis, kinds, bad,
                                           where, strided, seed):
    """Along every axis, non-finite cells or fluxes included (infinities
    keep their sign; only NaN payloads are exempt)."""
    rng = np.random.default_rng(seed)
    shape = [n0, n1, n2]
    phi = _fill(rng, kinds[0], shape, np.float64)
    shape[axis] -= 1
    flux = _fill(rng, kinds[1], shape, np.float64)
    if bad is not None:
        target = phi if where == "phi" else flux
        target.flat[rng.integers(0, target.size, size=5)] = bad
    if strided:
        phi, flux = _strided(phi), _strided(flux)
    with np.errstate(all="ignore"):
        got = _face_sweep(phi, flux, axis)
        want = adv.limited_face_flux.reference(phi, flux, axis)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert native.same(got, want)


#: advect.c's variants, in its order: the advected field's shape and its
#: interior slices, as grid attributes
_VARIANTS = {"advect_scalar": ("shape_c", "isl"),
             "advect_u": ("shape_u", "isl_u"),
             "advect_v": ("shape_v", "isl_v"),
             "advect_w": ("shape_w", "isl")}


def _advect(name, p, fx, fy, fz, g):
    """``-div(F p)`` of one staggered field by advect.c's advection alone,
    on contiguous copies, as the slow stage calls it: zeros, then the
    interior of the field's staggering."""
    shape, isl = _VARIANTS[name]
    p, fx, fy, fz = map(np.ascontiguousarray, (p, fx, fy, fz))
    out = np.zeros(p.shape)
    dz = g.dz_f if shape == "shape_w" else g.dz_c
    arena = np.zeros(5 * (g.nyh + 1) * (g.nz + 1))
    xsl, ysl = getattr(g, isl)
    LIB.f64.advect(list(_VARIANTS).index(name),
                   *(a.ctypes.data for a in (p, fx, fy, fz, out)),
                   *g.shape_c[1:], xsl.start, xsl.stop, ysl.start, ysl.stop,
                   g.dx, g.dy, dz.ctypes.data, arena.ctypes.data)
    return out


@needs_library
@SETTINGS
@given(nx=st.integers(3, 11), ny=st.integers(1, 9), nz=st.integers(4, 9),
       halo=st.sampled_from([2, 3]), name=st.sampled_from(sorted(_VARIANTS)),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       strided=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_advect_compiled_equals_oracle(nx, ny, nz, halo, name, kinds, strided,
                                       seed):
    """Each of the four advections (the slow stage's only compiled
    advection) == its oracle byte for byte, for fields and fluxes of every
    kind; the oracle also sees them as strided views."""
    rng = np.random.default_rng(seed)
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=100.0, dy=130.0, ztop=90.0 * nz,
                  halo=halo)
    fx, fy, fz = (_fill(rng, kinds[1], s, np.float64)
                  for s in (g.shape_u, g.shape_v, g.shape_w))
    phi = _fill(rng, kinds[0], getattr(g, _VARIANTS[name][0]), np.float64)
    got = _advect(name, phi, fx, fy, fz, g)
    if strided:
        phi, fx, fz = _strided(phi), _strided(fx), _strided(fz)
    _same_bytes(name, got, _oracle(getattr(adv, name), phi, fx, fy, fz, g))


# --------------------------------------------- (b) the acoustic substep
def _stage(terrain, dtype=np.float64):
    bump = (lambda x, y: 600.0 * np.exp(-((x - 12e3) / 4e3) ** 2)) \
        if terrain else None
    g = make_grid(12, 8, 10, 2000.0, 2000.0, 10000.0, terrain=bump)
    ref = make_reference_state(g, constant_stability_sounding())
    base = state_from_reference(g, ref, u0=10.0)
    x = g.x_c()[:, None, None]
    base.rhotheta += base.rho * 0.5 * np.exp(-(((x - 12e3) / 3e3) ** 2))
    fill_halos_state(base)
    p_ref = eos_pressure(ref.rhotheta_c * g.jac[:, :, None], g)
    forcing, _ = slow_tendencies(base, DynamicsConfig(dt=4.0, ns=4), koren)
    if dtype != np.float64:
        base = _astype(base, dtype)
    return base, forcing, build_context(base, ref, p_ref), ref


def _astype(state, dtype):
    """A copy of ``state`` in ``dtype`` (its own block)."""
    return State(state.grid, *(state.get(n).astype(dtype) for n in
                               ("rho", "rhou", "rhov", "rhow", "rhotheta")),
                 {n: a.astype(dtype) for n, a in state.q.items()},
                 state.time)


@needs_library
@pytest.mark.parametrize("terrain", [False, True])
@pytest.mark.parametrize("div_damp", [0.1, 0.0])
@pytest.mark.parametrize("beta", [0.55, 1.0])
def test_substep_compiled_equals_numpy_chain(terrain, div_damp, beta):
    base, forcing, ctx, ref = _stage(terrain)
    steppers = []
    for lib in (LIB, None):
        with native.using(lib):
            steppers.append(AcousticStepper(base, forcing, ctx, ref, 2.0, 3,
                                            beta=beta, div_damp=div_damp))
    compiled, chain = steppers
    assert compiled._args is not None and chain._args is None
    for _ in range(3):          # the first substep has no damping history
        for s in steppers:
            fill_halos_state(s.st, s.substep())
        for name in ACOUSTIC_FIELDS:
            _same_bytes(name, compiled.st.get(name), chain.st.get(name))
        _same_bytes("pp_prev", compiled.pp_prev, chain.pp_prev)


@needs_library
def test_substep_declines_operands_it_cannot_take_by_address(monkeypatch):
    """A float32 state, a field of another grid's shape or a strided one
    runs the NumPy chain (which rounds, or raises, as it always did), and
    says so: a typed reason naming the first operand, counted once a stage
    (where the stage binds) and printed by the executor's report."""
    base, forcing, ctx, ref = _stage(False, np.float32)
    monkeypatch.setattr(native, "UNBOUND", Counter())
    stepper = AcousticStepper(base, forcing, ctx, ref, 2.0, 3)
    assert stepper._args is None
    assert str(stepper._unbound) == "unbound: rho float32"
    for _ in range(3):
        stepper.substep()
    assert native.UNBOUND == Counter({("acoustic stages", "rho float32"): 1})
    assert "; 1 acoustic stages on NumPy (rho float32)" in \
        StencilExecutor("fused").report()
    base, forcing, ctx, ref = _stage(False)
    forcing.r_u = forcing.r_u[:-1]
    stepper = AcousticStepper(base, forcing, ctx, ref, 2.0, 3)
    assert stepper._args is None
    assert stepper._unbound == native.Unbound("r_u", f"shape {forcing.r_u.shape}")
    base, forcing, ctx, ref = _stage(True)
    ctx.grid.jac = ctx.grid.jac.T.copy().T          # the bug: a strided view
    assert str(AcousticStepper(base, forcing, ctx, ref, 2.0, 3)._unbound) == \
        "unbound: jac not C-contiguous"
    with native.using(None):                    # no library: nothing declined
        assert AcousticStepper(base, forcing, ctx, ref, 2.0, 3)._unbound is None


# ----------------------------------- (b2) the metric flux against the oracle
def _hill(x, y):
    return 200.0 + 150.0 * np.sin(x / 700.0) * np.cos(y / 900.0)


@needs_library
@SETTINGS
@given(nx=st.integers(1, 9), ny=st.integers(1, 7), nz=st.integers(2, 7),
       halo=st.sampled_from([2, 3]), terrain=st.booleans(),
       dtype=st.sampled_from([np.float64, np.float32]),
       rhow_given=st.booleans(), kind=st.sampled_from(KINDS),
       strided=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_metric_flux_compiled_equals_oracle(nx, ny, nz, halo, terrain, dtype,
                                            rhow_given, kind, strided, seed):
    """One object, both call sites (the substep's ``m_now``, the slow
    tendencies' ``fz`` / ``m_s``): compiled == the oracle, float32 momenta
    rounded on the store; a strided momentum is declined with its reason
    and runs the oracle, as does every call without a library."""
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, nz, 100.0, 130.0, 400.0 * nz, halo=halo,
                  terrain=_hill if terrain else None)
    rhou, rhov, rhow = (_fill(rng, kind, s, dtype)
                        for s in (g.shape_u, g.shape_v, g.shape_w))
    if strided:
        rhov = _strided(rhov)
    w = rhow if rhow_given else None
    flux = adv.MetricFlux(g)
    before = Counter(native.UNBOUND)
    runs = []
    for lib in (LIB, None):
        with native.using(lib):
            runs.append(flux(rhou, rhov, w))
    declined = native.UNBOUND - before
    assert declined == (Counter({("metric fluxes", "rhov not C-contiguous"): 1})
                        if strided else Counter())
    oracle = adv.contravariant_mass_flux_w(
        rhou, rhov, rhow if rhow_given else np.zeros(g.shape_w, dtype), g)
    for got in runs:
        _same_bytes("metric_flux", got, oracle)


@needs_library
def test_the_substep_reaches_no_numpy_chain(monkeypatch):
    """With a library loaded, a terrain substep runs neither the metric
    flux's oracle nor the NumPy Thomas solve."""
    base, forcing, ctx, ref = _stage(True)
    with use_executor(StencilExecutor("fused")):
        stepper = AcousticStepper(base, forcing, ctx, ref, 2.0, 3)
        assert stepper._args is not None
        stepper.substep()               # factors the operator (NumPy, once)
        for name in ("divide", "subtract"):     # both chains' first ufuncs
            monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail(name))
        stepper.substep()
        stepper.substep()


@needs_library
@pytest.mark.parametrize("workload, ranks", [
    ("real-case", (2, 2)), ("warm-bubble", (2, 2)), ("warm-bubble", (3, 1))])
def test_every_rank_runs_the_compiled_substep(workload, ranks, monkeypatch):
    """A rank's grid is built from slices of the global one; its metrics
    used to be strided views, so every rank's substep took the NumPy chain,
    silently.  Now no substep, advection, metric flux or solve of a
    decomposed run declines, and the rank states are the NumPy bodies'
    bytes."""
    numpy_substeps = []
    chain = AcousticStepper._substep_numpy
    monkeypatch.setattr(AcousticStepper, "_substep_numpy", lambda self: (
        numpy_substeps.append(self), chain(self)))
    spec = RunSpec(workload, nx=16, ny=12, nz=8, steps=2, backend="multigpu",
                   ranks=ranks)
    states = {}
    for lib in (LIB, None):
        before = Counter(native.UNBOUND)
        with native.using(lib):
            exp = Experiment(spec).prepare()
            exp.run()
        assert bool(numpy_substeps) == (lib is None), \
            f"{workload}: {len(numpy_substeps)} substeps on NumPy"
        assert native.UNBOUND - before == Counter()
        states[lib is None] = [np.ascontiguousarray(st.get(n)).tobytes()
                               for st in exp.rank_states
                               for n in st.prognostic_names()]
    assert states[False] == states[True]


# ------- (b3) warm rain, the halo fill, the linearization and the operator
def _rain_case(rng, nx, ny, nz, terrain, nan, dz=40.0):
    """A warm-rain state whose rain falls in several sub-steps (on levels
    ``dz`` = 40 m apart): sub- and super-saturated vapor, cloud water at and
    around the autoconversion threshold, rain in about half the cells,
    signed zeros, and (``nan``) one NaN cell of that field."""
    ztop = dz * nz
    g = make_grid(nx, ny, nz, 500.0, 500.0, ztop, terrain=(
        lambda x, y: 0.05 * ztop * (1.0 + np.sin(x / 700.0 + y / 900.0)))
        if terrain else None)
    shape = g.shape_c
    rho = 1.0 + 0.2 * rng.random(shape)
    rhotheta = (290.0 + 15.0 * rng.random(shape)) * rho
    p = eos_pressure(rhotheta, g)
    qvs = saturation_mixing_ratio(p, rhotheta / rho * exner(p))
    qv = qvs * rng.uniform(0.8, 1.2, shape)
    qc = rng.choice([0.0, -0.0, 1e-3, 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9),
                     5e-4, 3e-3], shape)
    qr = np.where(rng.random(shape) < 0.5, 0.0,
                  rng.uniform(1e-4, 4e-3, shape))
    qr[rng.random(shape) < 0.05] = -0.0
    q = {"qv": qv * rho, "qc": qc * rho, "qr": qr * rho}
    fields = dict(q, rho=rho)
    if nan is not None:
        sx, sy = g.isl
        fields[nan][sx, sy].flat[rng.integers(0, nx * ny * nz)] = np.nan
    return g, rho, rhotheta, q


#: how the sedimentation's CFL loop ends: after a few sub-steps (40 m
#: levels), on its cap of 64 sub-steps (centimetre levels), or on
#: ``remaining <= 1e-12`` with 5e-13 s left after one sub-step
ENDS = ("steps", "cap", "remainder")


@needs_library
@SETTINGS
@given(nx=st.integers(1, 7), ny=st.integers(1, 5), nz=st.integers(2, 9),
       terrain=st.booleans(), nan=st.sampled_from([None, "rho", "qv", "qr"]),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2 ** 16), end=st.sampled_from(ENDS))
@example(nx=4, ny=3, nz=6, terrain=True, nan=None, flags=(True, True, True),
         seed=11, end="cap")
@example(nx=4, ny=3, nz=6, terrain=True, nan=None, flags=(True, True, True),
         seed=12, end="remainder")
@example(nx=4, ny=3, nz=6, terrain=False, nan="qr", flags=(True, True, True),
         seed=13, end="steps")          # a NaN fall speed ends the loop
@example(nx=1, ny=1, nz=2, terrain=False, nan=None, flags=(False, False, False),
         seed=925, end="remainder")     # no rain: nothing falls, no sub-step
def test_kessler_compiled_equals_oracle(nx, ny, nz, terrain, nan, flags, seed,
                                        end):
    """The one-call body (NumPy's own exp / pow loops) == the oracle, every
    field byte for byte (halos too; NaN payloads exempt), the precipitation
    and its accumulation included, whichever processes are switched on and
    wherever the CFL loop ends."""
    rng = np.random.default_rng(seed)
    g, rho, rhotheta, q = _rain_case(rng, nx, ny, nz, terrain, nan,
                                     0.01 if end == "cap" else 40.0)
    cfg = KesslerConfig(sedimentation=flags[0], evaporation=flags[1],
                        saturation_adjust=flags[2])
    dt = 10.0
    if end == "remainder":      # the first sub-step's, plus 5e-13 s
        sx, sy = g.isl
        jac = g.jac[sx, sy][:, :, None]
        vmax = float(terminal_velocity(
            np.maximum(q["qr"][sx, sy], 0.0) / jac, rho[sx, sy] / jac).max())
        # no rain falls (or a NaN fall speed): the loop has no sub-step to cut
        x = MAX_CFL * float(g.dz_c.min()) / vmax if vmax > 0.0 else dt
        dt = x + 5e-13 if 0.0 < x < dt else dt
    runs = []
    for body in (FUSED_IMPLS["kessler_step"], None):
        state = State(g, rho.copy(), None, None, None,
                      rhotheta.copy(), {k: v.copy() for k, v in q.items()})
        with native.using(LIB), np.errstate(all="ignore"):
            precip = (body(state, None, dt, cfg) if body
                      else _oracle(kessler_step, state, None, dt, cfg))
        assert precip is not NotImplemented
        runs.append([*map(state.get, ("rho", "rhotheta", "qv", "qc", "qr")),
                     precip, state.precip_accum])
    for got, want in zip(*runs):
        assert native.same(got, want)


@needs_library
def test_the_warm_rain_is_one_call(monkeypatch):
    """With a library a warm-rain step crosses into C once: the CFL loop
    and every ``exp`` and ``pow`` run there, on NumPy's own loops, and no
    ``np.power`` or ``np.exp`` runs from Python (here the rain falls in
    several sub-steps)."""
    rng = np.random.default_rng(5)
    g, rho, rhotheta, q = _rain_case(rng, 5, 4, 6, True, None)
    state = State(g, rho, None, None, None, rhotheta, q)
    calls = Counter()

    def counted(name, fn):
        return lambda *a, **k: (calls.update([name]), fn(*a, **k))[1]

    for name, fn in _entries(LIB):
        monkeypatch.setattr(LIB.f64, name, counted(name, fn))
    ex = StencilExecutor("fused")
    with native.using(LIB), use_executor(ex), monkeypatch.context() as m:
        for name in ("power", "exp"):
            m.setattr(np, name, counted(f"np.{name}", getattr(np, name)))
        kessler_step(state, None, 10.0)
    assert calls == Counter({"kessler": 1})
    assert ex.calls == Counter(kessler_step=1) and ex.accelerated == 1


@needs_library
def test_kessler_declines_what_it_cannot_take(monkeypatch):
    """A float32 state, or one holding a field as a wrapper (the FLOP
    counter's), runs the oracle: a reference dispatch, not a decline, so
    nothing is counted.  (A strided field no longer exists: every field is
    a view of its state's block.)"""
    rng = np.random.default_rng(3)
    g, rho, rhotheta, q = _rain_case(rng, 4, 3, 5, False, None)
    impl = FUSED_IMPLS["kessler_step"]
    monkeypatch.setattr(native, "UNBOUND", Counter())
    with native.using(LIB):
        state = State(g, rho.astype(np.float32), None, None, None,
                      rhotheta.astype(np.float32),
                      {k: v.astype(np.float32) for k, v in q.items()})
        assert impl(state, None, 10.0) is NotImplemented
        assert native.UNBOUND == Counter()
        state = State(g, rho, None, None, None, rhotheta, q)
        state.q["qc"] = state.q["qc"].view(_Sub)
        assert type(state.q["qc"]) is _Sub
        assert impl(state, None, 10.0) is NotImplemented
    assert native.UNBOUND == Counter()


@needs_library
@SETTINGS
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), nz=st.integers(2, 4),
       halo=st.integers(1, 3), periodic=st.tuples(st.booleans(), st.booleans()),
       names=st.sampled_from([None, ["rho"], ["rhou", "rhov", "rhow"],
                              ["rhotheta", "qv", "qr"], ["rhov", "rhou"], []]),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2 ** 16))
def test_halo_fill_compiled_equals_reference(nx, ny, nz, halo, periodic,
                                             names, dtype, seed):
    """One compiled call per refresh == the reference fill: periodic and
    open, every staggering, halos wider than the interior (overlapping
    copies), any field list, both widths."""
    rng = np.random.default_rng(seed)
    g = replace(make_grid(nx, ny, nz, 100.0, 100.0, 100.0 * nz,
                          periodic_x=periodic[0], periodic_y=periodic[1]),
                halo=halo)              # the model's grids take halo >= 2
    arrays = [rng.normal(size=s).astype(dtype) for s in (
        g.shape_c, g.shape_u, g.shape_v, g.shape_w, g.shape_c, g.shape_c,
        g.shape_c)]
    runs = []
    for body in (FUSED_IMPLS["fill_halos_state"], None):
        state = State(g, *(a.copy() for a in arrays[:5]),
                      {"qv": arrays[5].copy(), "qr": arrays[6].copy()})
        with native.using(LIB):
            out = (body(state, names) if body
                   else _oracle(fill_halos_state, state, names))
        assert out is None
        runs.append([state.get(n) for n in state.prognostic_names()])
    for got, want in zip(*runs):
        _same_bytes("fill_halos_state", got, want)


@needs_library
@SETTINGS
@given(nx=st.integers(1, 12), ny=st.integers(1, 9), nz=st.integers(2, 12),
       beta=st.sampled_from([0.55, 1.0]), seed=st.integers(0, 2 ** 16))
def test_operator_assembly_compiled_equals_numpy(nx, ny, nz, beta, seed):
    """One compiled call per (dtau, beta) from the brackets == the NumPy
    scaling of ``HelmholtzOperator`` plus its ``thomas_factors`` (blocks of
    64 columns and a remainder); a non-positive diagonal raises either way."""
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, nz, 100.0, 100.0, 100.0 * nz)
    thf = np.abs(rng.normal(size=g.shape_w)) + 280.0
    cp = np.abs(rng.normal(size=g.shape_c)) * 50.0 + 350.0
    brackets = helmholtz_brackets(g, thf, cp)
    ops = []
    for lib in (LIB, None):
        with native.using(lib):
            op = HelmholtzOperator(g, thf, cp, 0.05, beta, brackets)
            ops.append((op.sup, op.sub, op.diag, *op.thomas_factors()))
    for got, want in zip(*ops):
        _same_bytes("helmholtz operator", got, want)
    for lib in (LIB, None):
        with native.using(lib), pytest.raises(ValueError, match="diagonal"):
            HelmholtzOperator(g, thf, -cp, 50.0, beta)


@needs_library
@pytest.mark.parametrize("terrain", [False, True])
def test_linearization_compiled_equals_numpy(terrain):
    """``build_context``'s compiled pass == its NumPy, the Helmholtz
    brackets included; a float32 state is declined, counted."""
    base, _, _, ref = _stage(terrain)
    g = base.grid
    p_ref = eos_pressure(ref.rhotheta_c * g.jac[:, :, None], g)
    ctxs = []
    for lib in (LIB, None):
        with native.using(lib):
            ctx = build_context(base, ref, p_ref)
            ctx.helmholtz(0.5, 0.55)
            ctxs.append(ctx)
    compiled, chain = ctxs
    for name in ("cp_lin", "pc", "rho_ref_hat", "theta_xf", "theta_yf",
                 "theta_wf"):
        _same_bytes(name, getattr(compiled, name), getattr(chain, name))
    for got, want in zip(compiled.brackets, chain.brackets):
        _same_bytes("brackets", got, want)
    base32, *_ = _stage(terrain, np.float32)
    before = Counter(native.UNBOUND)
    with native.using(LIB):
        assert build_context(base32, ref, p_ref).brackets is None
    assert native.UNBOUND - before == Counter(
        {("contexts", "rho float32"): 1})


@needs_library
def test_a_warm_bubble_step_dispatches_nothing_to_the_reference():
    """With a library loaded every stencil dispatch of a single-domain
    warm-bubble step, warm rain and halo fills included, is served by a
    planned or compiled body, and nothing is declined."""
    before = Counter(native.UNBOUND)
    with native.using(LIB):
        exp = Experiment(RunSpec("warm-bubble", nx=12, ny=10, nz=8, steps=2,
                                 stencil_backend="fused")).prepare()
        exp.run()
    ex = exp.executor
    stats = ex.stats()
    assert stats["fallbacks"] == 0 and stats["accelerated"] > 0
    assert ex.calls["kessler_step"] and ex.calls["fill_halos_state"]
    assert native.UNBOUND - before == Counter()
    assert ", 0 reference)" in ex.report()


@needs_library
@pytest.mark.parametrize("workload", ["warm-bubble", "real-case"])
def test_the_reference_backend_calls_nothing_in_the_library(workload,
                                                            monkeypatch):
    """``stencil_backend="reference"`` means every oracle: with a library
    loaded, a long step (the substep, the linearization, the operator, the
    velocities, the terrain metric flux, the warm rain and the halo fills
    included) makes no call into it, and ends on the bytes of the fused
    step, which calls it."""
    calls = Counter()

    def counted(name, fn):
        return lambda *a, **k: (calls.update([name]), fn(*a, **k))[1]

    for name, fn in _entries(LIB):
        monkeypatch.setattr(LIB.f64, name, counted(name, fn))
    fields = {}
    for backend in ("reference", "fused"):
        with native.using(LIB):
            exp = Experiment(RunSpec(workload, nx=12, ny=10, nz=8, steps=1,
                                     stencil_backend=backend)).prepare()
            calls.clear()
            exp.advance(1)
        fields[backend] = [exp.state.get(n).tobytes()
                           for n in exp.state.prognostic_names()]
        assert (sum(calls.values()) == 0) == (backend == "reference"), calls
    assert exp.executor.fallbacks == 0 and exp.executor.accelerated > 0
    assert fields["reference"] == fields["fused"]


# ---------------- (b4) one call a substep, one binding an integrator
def _moist_case(rng, nx, ny, nz, halo, terrain):
    """A small perturbed moist state with valid halos: vapour everywhere,
    cloud in a few columns, vertical momentum at the interior faces."""
    g = make_grid(nx, ny, nz, 2000.0, 2000.0, 1000.0 * nz, halo=halo,
                  terrain=(lambda x, y: 300.0 + 200.0 * np.sin(x / 3000.0)
                           * np.cos(y / 5000.0)) if terrain else None)
    ref = make_reference_state(g, constant_stability_sounding())
    st = state_from_reference(g, ref, u0=10.0, v0=-4.0)
    st.rhotheta += st.rho * rng.uniform(-0.5, 0.5, g.shape_c)
    st.rhow[:, :, 1:-1] += rng.normal(scale=0.2, size=g.shape_c[:2] + (nz - 1,))
    st.q["qv"][...] = st.rho * 1e-3 * rng.random(g.shape_c)
    st.q["qc"][:2] = st.rho[:2] * 1e-4
    fill_halos_state(st)
    return g, ref, eos_pressure(ref.rhotheta_c * g.jac[:, :, None], g), st


@needs_library
@SETTINGS
@given(nx=st.integers(3, 7), ny=st.integers(1, 6), nz=st.integers(4, 7),
       halo=st.sampled_from([2, 3]), terrain=st.booleans(),
       beta=st.sampled_from([0.55, 1.0]), div_damp=st.sampled_from([0.0, 0.1]),
       seed=st.integers(0, 2 ** 16))
def test_rk_stages_compiled_equal_the_oracles(nx, ny, nz, halo, terrain, beta,
                                              div_damp, seed):
    """One long step (three whole RK stages on one integrator, so the
    second and third rebind what the first bound): with a library ==
    ``native.using(None)``, every field byte for byte."""
    g, ref, p_ref, st0 = _moist_case(np.random.default_rng(seed), nx, ny, nz,
                                     halo, terrain)
    cfg = DynamicsConfig(dt=4.0, ns=2, beta=beta, div_damp=div_damp)
    runs = []
    for lib in (LIB, None):
        with native.using(lib), use_executor(StencilExecutor("fused")):
            rk = Rk3Integrator(g, ref, cfg, p_ref)
            new, = run_lockstep([rk.step_phases(st0.copy())],
                                lambda states, names: fill_halos_state(
                                    states[0], names))
        assert (rk.binding.substep is None) == (lib is None)
        runs.append([new.get(n) for n in new.prognostic_names()])
    for got, want in zip(*runs):
        _same_bytes("rk stage", got, want)


@needs_library
@SETTINGS
@given(nx=st.integers(1, 7), ny=st.integers(1, 6), nz=st.integers(2, 6),
       halo=st.sampled_from([2, 3]), kind=st.sampled_from(KINDS),
       dtype=st.sampled_from([np.float64, np.float32]), strided=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_velocities_compiled_equal_the_oracle(nx, ny, nz, halo, kind, dtype,
                                              strided, seed):
    """``State.velocities`` in one compiled call == its NumPy, zero and
    signed-zero densities included (NaN payloads exempt); a float32 state
    or a field held as a wrapper is declined with its reason, counted, and
    runs the NumPy."""
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, nz, 100.0, 130.0, 100.0 * nz, halo=halo)
    rho = _fill(rng, kind, g.shape_c, dtype)
    rhou, rhov, rhow = (_fill(rng, "normal", s, dtype)
                        for s in (g.shape_u, g.shape_v, g.shape_w))
    state = State(g, rho, rhou, rhov, rhow, rho.copy())
    if strided:
        state.rhov = state.rhov.view(_Sub)
    before = Counter(native.UNBOUND)
    runs = []
    for lib in (LIB, None):
        with native.using(lib), np.errstate(all="ignore"):
            runs.append(state.velocities())
    why = ("rho float32" if dtype == np.float32 else
           "rhov a _Sub" if strided else None)
    assert native.UNBOUND - before == (
        Counter({("velocities", why): 1}) if why else Counter())
    for got, want in zip(*runs):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert native.same(got, want)


# ------------------------------------- (b5) one call a stage, its declines
@functools.cache
def _rank_grid():
    """A rank of a 2x2 real-case decomposition: a subgrid whose metrics
    are slices of the global ones (strided views once, which every
    compiled body declined without a word)."""
    from repro.dist.decomposition import decompose, make_subgrid
    from repro.workloads.real_case import make_real_case

    g = make_real_case(nx=12, ny=10, nz=6).grid
    return make_subgrid(g, decompose(g.nx, g.ny, 2, 2, min_cells=g.halo)[3])


def _slow_state(rng, g, zeroed=(), lone=None, bad=None, kinds=None):
    """A stage state on ``g``: every species present, those in ``zeroed``
    all ``+0.0`` except (``lone``) one ``-0.0`` in the first of them, in
    the interior, the halo or a halo corner; ``bad`` puts a NaN or an inf
    in ``rhou`` or a zero in ``rho``.  ``kinds`` (two of :data:`KINDS`)
    fills the advected scalars (theta and each ``q / rho``) and the
    momenta over a density of powers of two, which divides them exactly."""
    h = g.halo
    if kinds is None:
        rho = 1.0 + 0.1 * rng.random(g.shape_c)

        def scalar(mean, scale):
            return mean + scale * rng.random(g.shape_c)

        def momentum(shape):
            return rng.normal(size=shape)
    else:
        rho = 2.0 ** rng.integers(-1, 2, g.shape_c)

        def scalar(mean, scale):
            return _fill(rng, kinds[0], g.shape_c, np.float64)

        def momentum(shape):
            return _fill(rng, kinds[1], shape, np.float64)
    q = {n: np.zeros(g.shape_c) if n in zeroed else rho * scalar(0.0, 1e-3)
         for n in WATER_SPECIES}
    if lone and zeroed:
        at = {"interior": (h, h, 1), "halo": (0, h, 1),
              "corner": (0, 0, 0)}[lone]
        q[next(n for n in WATER_SPECIES if n in zeroed)][at] = -0.0
    st = State(g, rho, momentum(g.shape_u), momentum(g.shape_v),
               momentum(g.shape_w), rho * scalar(300.0, 1.0), q)
    if bad in ("nan", "inf"):
        st.rhou.flat[rng.integers(st.rhou.size)] = float(bad)
    elif bad == "rho0":
        st.rho.flat[rng.integers(st.rho.size)] = 0.0
    return st


def _stage_runs(st, cfg, limiter=koren, sponge=None, base=None, idle=None,
                geom=None):
    """(result, executor) of the stage with a binding and a library, then of
    the NumPy text on the oracles, each on an executor of its own."""
    geom = geom or AcousticGeometry(st.grid, SimpleNamespace(
        rho_c=np.ones(st.grid.shape_c)))
    runs = []
    for lib in (LIB, None):
        ex = StencilExecutor("fused")
        with native.using(lib), use_executor(ex), np.errstate(all="ignore"):
            binding = StageBinding(geom)
            out = slow_tendencies(st, cfg, limiter, sponge, base,
                                  geom.metric_flux,
                                  None if idle is None else list(idle),
                                  binding)
        runs.append((out, ex, binding))
    return runs


def _assert_same_stage(got, want):
    (forcing, q_tend), (f_want, q_want) = got, want
    for name in ("r_u", "r_v", "r_w", "r_theta", "fx_s", "fy_s", "w_s",
                 "m_s"):
        a, b = getattr(forcing, name), getattr(f_want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert native.same(a, b), name
    assert list(q_tend) == list(q_want)
    for name, tend in q_tend.items():
        assert (tend is None) == (q_want[name] is None), name
        assert tend is None or native.same(tend, q_want[name]), name


@needs_library
@SETTINGS
@given(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["rhotheta", "qv", "rhov", "rhow"]),
       terrain=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_nonfinite_inputs_land_where_the_oracle_puts_them(bad, where,
                                                          terrain, seed):
    """NaN and infinities in an advected field (theta, a species, a
    velocity, whose momentum is a flux too) end where the oracles put
    them, with the oracles' bytes everywhere else (NaN payloads exempt),
    and the stage still takes them in one call."""
    rng = np.random.default_rng(seed)
    g = make_grid(7, 6, 5, 100.0, 130.0, 2000.0,
                  terrain=_hill if terrain else None)
    st0 = _slow_state(rng, g, zeroed={"qr"})
    target = st0.get(where)
    target.flat[rng.integers(0, target.size, size=5)] = bad
    before = Counter(native.UNBOUND)
    (got, _, binding), (want, *_) = _stage_runs(st0, DynamicsConfig())
    assert binding.args is not None
    assert native.UNBOUND - before == Counter()
    _assert_same_stage(got, want)


@needs_library
@SETTINGS
@given(kind=st.sampled_from(["flat", "terrain", "rank"]),
       nx=st.integers(1, 11), ny=st.integers(1, 9), nz=st.integers(4, 9),
       periodic=st.booleans(), halo=st.sampled_from([2, 3]),
       kinds=st.none() | st.tuples(st.sampled_from(KINDS),
                                   st.sampled_from(KINDS)),
       coriolis=st.booleans(), sponge=st.booleans(),
       zeroed=st.sets(st.sampled_from(WATER_SPECIES)),
       lone=st.sampled_from([None, "interior", "halo", "corner"]),
       bad=st.sampled_from([None, None, "nan", "inf", "rho0"]),
       stage=st.sampled_from(["first", "base", "dirty base", "later"]),
       seed=st.integers(0, 2 ** 16))
def test_slow_stage_compiled_equals_oracle(kind, nx, ny, nz, periodic, halo,
                                           kinds, coriolis, sponge, zeroed,
                                           lone, bad, stage, seed):
    """One compiled ``slow_stage`` == the NumPy text on the oracles: every
    forcing field and species tendency byte for byte (NaN payloads
    exempt), the same skipped set and the same dispatch counts, on flat,
    terrain and rank grids, periodic or open, fields and fluxes of every
    kind (constant, plateaus, signed zeros, single-signed), any subset of
    species zeroed with or without a lone ``-0.0``; a NaN or inf flux or a
    zero density takes the full path.  Nothing is declined.  The stage is
    the advection's only compiled caller, so this is the advection's
    identity test."""
    rng = np.random.default_rng(seed)
    if kind == "rank":
        g = _rank_grid()
    else:
        g = make_grid(nx, ny, nz, 100.0, 130.0, 400.0 * nz, halo=halo,
                      periodic_x=periodic, periodic_y=not periodic,
                      terrain=_hill if kind == "terrain" else None)
    st0 = _slow_state(rng, g, zeroed, lone, bad, kinds)
    base = None
    if stage != "first":
        base = st0.copy()
        if stage == "dirty base" and zeroed:
            base.q[sorted(zeroed)[0]][g.halo, g.halo, 0] = 1e-6
    idle = [n for n in WATER_SPECIES if n in zeroed] \
        if stage == "later" else None
    cfg = DynamicsConfig(coriolis_f=1e-4 if coriolis else 0.0)
    ray = rayleigh_coefficient(g, 0.4 * g.ztop, 60.0)[1] if sponge else None
    before = Counter(native.UNBOUND)
    (got, ex, binding), (want, ex_want, _) = _stage_runs(
        st0, cfg, sponge=ray, base=base, idle=idle)
    assert binding.args is not None
    assert native.UNBOUND - before == Counter()
    _assert_same_stage(got, want)
    # (the oracles' own face-flux dispatches aside)
    assert ex.calls == Counter({k: n for k, n in ex_want.calls.items()
                                if k.startswith("advect")})
    assert (ex.skipped, ex.inactive) == (ex_want.skipped, ex_want.inactive)
    if bad:
        assert ex.skipped == 0
        assert all(t is not None for t in got[1].values())


def _halo_one_grid():
    """A halo-1 grid (make_grid refuses one): a halo-2 grid's metrics
    without their outer ring."""
    g = make_grid(4, 3, 5, 100.0, 130.0, 500.0, halo=2)
    c = (slice(1, -1), slice(1, -1))
    return Grid(nx=4, ny=3, nz=5, dx=g.dx, dy=g.dy, ztop=g.ztop, halo=1,
                z_f=g.z_f, z_c=g.z_c, dz_c=g.dz_c, dz_f=g.dz_f,
                **{n: getattr(g, n)[c] for n in (
                    "zs", "jac", "jac_u", "jac_v", "dzsdx_u", "dzsdy_v")})


class _Sub(np.ndarray):
    pass


@needs_library
@pytest.mark.parametrize("why", [
    "rho float32", "rho a _Sub", "limiter minmod",
    "nz 3 < 4", "halo 1 < 2", "fluxes past the exact sum test"])
def test_the_slow_stage_declines_what_it_does_not_take(why):
    """Each reason the stage declines is counted once, as one ``"slow
    stages"`` :class:`native.Unbound`, and the NumPy text runs: the
    oracle's bytes (a halo-1 grid: the oracle's error).  Fluxes whose
    magnitudes sum past 2^1021 are finite, but whether NumPy's sum of them
    overflows is the oracle's to say."""
    rng = np.random.default_rng(7)
    g = (make_grid(4, 3, 3, 100.0, 130.0, 900.0) if why.startswith("nz") else
         _halo_one_grid() if why.startswith("halo") else
         make_grid(4, 3, 5, 100.0, 130.0, 500.0, terrain=_hill))
    st0 = _slow_state(rng, g, zeroed={"qr", "qh"})
    if why == "rho float32":
        st0 = _astype(st0, np.float32)
    if why == "rho a _Sub":
        st0.rho = st0.rho.view(_Sub)
    if why.startswith("fluxes"):
        st0.rhou *= 1e306
    cfg = DynamicsConfig()
    limiter = minmod if why.startswith("limiter") else koren
    before = Counter(native.UNBOUND)
    if why.startswith("halo"):
        with pytest.raises(ValueError, match="broadcast"):
            _stage_runs(st0, cfg, limiter)
    else:
        (got, *_), (want, *_) = _stage_runs(st0, cfg, limiter)
        _assert_same_stage(got, want)
    declined = native.UNBOUND - before          # the text's bodies count too
    assert {k: n for k, n in declined.items() if k[0] == "slow stages"} == {
        ("slow stages", why): 1}


@needs_library
def test_a_stage_is_one_ctypes_call(monkeypatch):
    """With a library loaded an RK stage's slow tendencies cross into C
    once, take their operands' addresses from the state's block (no
    ``native.pointers`` call), dispatch nothing through the executor (it
    is credited instead) and record one phase span."""
    from repro.obs import TraceSession, use_session

    base, _, ctx, ref = _stage(True)
    geom = ctx.geom
    calls = Counter()

    def counted(name, fn):
        return lambda *a, **k: (calls.update([name]), fn(*a, **k))[1]

    monkeypatch.setattr(LIB.f64, "slow_stage",
                        counted("slow_stage", LIB.f64.slow_stage))
    monkeypatch.setattr(native, "pointers", counted("pointers",
                                                    native.pointers))
    monkeypatch.setattr(StencilExecutor, "call",
                        lambda *a: pytest.fail("dispatched"))
    ex, session = StencilExecutor("fused"), TraceSession("t")
    with native.using(LIB), use_executor(ex), use_session(session):
        binding = StageBinding(geom)
        calls.clear()
        slow_tendencies(base, DynamicsConfig(), koren, None, None,
                        geom.metric_flux, None, binding)
    assert calls == Counter({"slow_stage": 1})
    # a dry state: theta's transport runs, every species' is skipped
    assert ex.calls == Counter(advect_u=1, advect_v=1, advect_w=1,
                               advect_scalar=1)
    assert ex.skipped == len(base.q) == 7 and ex.accelerated == 4
    assert [s.name for s in session.spans] == ["slow_tendencies"]


@needs_library
@pytest.mark.parametrize("terrain", [False, True])
def test_a_substep_is_one_ctypes_call(terrain, monkeypatch):
    """With a library loaded a substep crosses into C once and makes no
    ``native.pointers`` call, no executor dispatch and no inner span; a
    stage on its integrator's binding takes the state's, the context's and
    the operator's addresses as they were taken once per block, and checks
    only a forcing the NumPy text made, in one ``native.pointers`` call."""
    from repro.obs import TraceSession, use_session

    base, forcing, ctx, ref = _stage(terrain)
    calls = Counter()

    def counted(name, fn):
        return lambda *a, **k: (calls.update([name]), fn(*a, **k))[1]

    for name, fn in _entries(LIB):
        monkeypatch.setattr(LIB.f64, name, counted(name, fn))
    monkeypatch.setattr(native, "pointers", counted("pointers",
                                                    native.pointers))
    ex, session = StencilExecutor("fused"), TraceSession("t")
    with native.using(LIB), use_executor(ex), use_session(session):
        first = AcousticStepper(base, forcing, ctx, ref, 2.0, 3)
        # the operator's (assembled for this dtau), the integrator's, the
        # context's (once per context) and the NumPy forcing's
        assert calls == Counter({"operator": 1, "pointers": 4})
        calls.clear()
        stepper = AcousticStepper(base, forcing, ctx, ref, 2.0, 3,
                                  binding=first.binding)
        assert stepper.binding is first.binding
        assert calls == Counter({"pointers": 1})
        calls.clear()
        for _ in range(3):
            stepper.substep()
    assert calls == Counter({"substep": 3})
    assert sum(ex.calls.values()) == 0
    assert [s.name for s in session.spans] == ["acoustic_substep"] * 3


@needs_library
def test_a_later_stage_reads_the_flags_the_stage_before_decided():
    """On one binding: a first stage runs compiled, then a first stage
    whose fluxes of 1e306 the compiled guard sends to the NumPy text (its
    sum overflows, so every species is active there, though the compiled
    scan had flagged ``qr`` and ``qh``), then a later stage compiled.
    The later stage takes the NumPy stage's inactive set, not the flags
    the binding holds: its bytes and sets equal the NumPy text's."""
    rng = np.random.default_rng(11)
    g = make_grid(6, 5, 5, 100.0, 130.0, 500.0, terrain=_hill)
    geom = AcousticGeometry(g, SimpleNamespace(rho_c=np.ones(g.shape_c)))
    cfg = DynamicsConfig()
    zeroed = {"qr", "qh"}
    states = [_slow_state(rng, g, zeroed) for _ in range(3)]
    states[1].rhou[...] = 1e306
    before = Counter(native.UNBOUND)
    with native.using(LIB), use_executor(StencilExecutor("fused")), \
            np.errstate(all="ignore"):
        binding = StageBinding(geom)
        slow_tendencies(states[0], cfg, koren, None, None,
                        geom.metric_flux, None, binding, 0)
        _, q_numpy = slow_tendencies(states[1], cfg, koren, None, None,
                                     geom.metric_flux, None, binding, 0)
        names = list(states[1].q)
        assert {n for n, f in zip(names, binding.idle[0]) if f} == zeroed
        idle = [n for n, t in q_numpy.items() if t is None]
        assert idle == []
        runs = []
        for b in (binding, None):
            ex = StencilExecutor("fused")
            with use_executor(ex):
                out = slow_tendencies(states[2], cfg, koren, None, None,
                                      geom.metric_flux, list(idle), b, 1)
            runs.append((out, ex))
    declined = native.UNBOUND - before
    assert declined == Counter({
        ("slow stages", "fluxes past the exact sum test"): 1})
    (got, ex), (want, ex_want) = runs
    _assert_same_stage(got, want)
    assert all(t is not None for t in got[1].values())
    assert (ex.skipped, ex.inactive) == (ex_want.skipped, ex_want.inactive)
    assert not binding.idle[1, :len(names)].any()


@needs_library
@SETTINGS
@given(nx=st.integers(1, 8), ny=st.integers(1, 6), nz=st.integers(4, 7),
       terrain=st.booleans(), zeroed=st.sets(st.sampled_from(WATER_SPECIES)),
       coriolis=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_a_later_stage_sets_its_state_up_as_the_numpy_text_does(
        nx, ny, nz, terrain, zeroed, coriolis, seed):
    """A later stage reads the stage state it refills (``into`` is the
    state): compiled and on the NumPy text, each on its own copy of that
    state, the forcing's ``fx_s`` / ``fy_s`` are copies of its ``rhou`` /
    ``rhov`` from before the refill (no view of its block), and the
    refilled block is the base's, byte for byte between the two bodies."""
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, nz, 100.0, 130.0, 400.0 * nz,
                  terrain=_hill if terrain else None)
    geom = AcousticGeometry(g, SimpleNamespace(rho_c=np.ones(g.shape_c)))
    base, stage = (_slow_state(rng, g, zeroed) for _ in range(2))
    assert stage.layout is base.layout
    cfg = DynamicsConfig(coriolis_f=1e-4 if coriolis else 0.0)
    before = Counter(native.UNBOUND)
    runs = []
    for lib in (LIB, None):
        st_ = stage.copy()
        with native.using(lib), use_executor(StencilExecutor("fused")):
            binding = StageBinding(geom)
            out = slow_tendencies(st_, cfg, koren, None, base,
                                  geom.metric_flux, sorted(zeroed), binding,
                                  1, st_)
        runs.append((out, st_, binding))
    (got, st_got, binding), (want, st_want, _) = runs
    assert binding.args is not None
    assert native.UNBOUND - before == Counter()
    _assert_same_stage(got, want)
    assert st_got.block.tobytes() == st_want.block.tobytes() \
        == base.block.tobytes()
    for (forcing, _), st_ in ((got, st_got), (want, st_want)):
        for flux, name in ((forcing.fx_s, "rhou"), (forcing.fy_s, "rhov")):
            assert not np.shares_memory(flux, st_.block), name
            assert flux.tobytes() == stage.get(name).tobytes(), name


def _idle_sets(monkeypatch):
    """Record, per RK stage and in order, the rank's grid, whether it was a
    first stage, the inactive set the stage used and the one a scan of
    every species would have found (``slow_tendencies`` called first
    without the earlier stage's set, and without the stage state to set
    up: the stage's own call refills a later stage's state)."""
    import repro.core.rk3 as rk3

    seen = []
    slow = rk3.slow_tendencies

    def recorded(*args):
        full = slow(*args[:6])[1]
        forcing, q_tend = slow(*args)
        seen.append((id(args[0].grid), args[6] is None,
                     *(sorted(n for n, t in q.items() if t is None)
                       for q in (q_tend, full))))
        return forcing, q_tend

    monkeypatch.setattr(rk3, "slow_tendencies", recorded)
    return seen


@pytest.mark.parametrize("workload, extra", [
    ("warm-bubble", {}), ("shear-layer", {"ice": True}),
    ("vortex", {"backend": "multigpu", "ranks": (2, 2)})])
def test_only_the_first_stage_scans_every_species(workload, extra,
                                                  monkeypatch):
    """An RK stage after the first scans only the species the stage before
    found inactive, and only their stage field: the set equals a scan of
    every species at every stage, on a warm bubble past its first rain
    (rain and cloud planted), on the shear layer with ice and every species
    planted (nothing is inactive) and on a 2x2 vortex with a cloud three
    cells from a rank boundary, where an exchange puts the neighbour's
    transport into two idle ranks' halos in the middle of a step (so the
    earlier stage's set alone is not enough)."""
    import repro.api as api

    seen = _idle_sets(monkeypatch)
    make_case = api.make_case
    planted = {"warm-bubble": ("qc", "qr"), "vortex": ("qc",),
               "shear-layer": WATER_SPECIES}[workload]

    def seeded(*a, **k):
        case = make_case(*a, **k)
        st = case.state
        h = st.grid.halo
        blob = (slice(h + 2, h + 6), slice(h + 3, h + 5), slice(2, 5))
        for name in planted:
            st.q[name][blob] = 1e-3 * st.rho[blob]
        return case

    monkeypatch.setattr(api, "make_case", seeded)
    spec = RunSpec(workload, nx=16, ny=16, nz=8, steps=2, **extra)
    Experiment(spec).prepare().run()
    assert seen and all(used == full for *_, used, full in seen)
    later = [full for _, first, _, full in seen if not first]
    assert len(later) == 2 * (len(seen) - len(later))
    # skipped after a first stage, except where every species is present
    assert any(later) == (workload != "shear-layer")
    assert any(len(full) < len(WATER_SPECIES) for *_, full in seen)
    # per rank, a set that shrank after the first stage of its step (the
    # decomposed vortex: a rank whose halo received the neighbour's cloud)
    shrank = False
    for rank in {key for key, *_ in seen}:
        sets = [(first, full) for key, first, _, full in seen if key == rank]
        shrank |= any(not first and set(full) < set(sets[i - 1][1])
                      for i, (first, full) in enumerate(sets) if i)
    assert shrank == (workload == "vortex")


@pytest.mark.parametrize("spec", [
    RunSpec("warm-bubble", nx=12, ny=12, nz=8, steps=2),
    RunSpec("real-case", nx=16, ny=16, nz=8, steps=2, backend="multigpu",
            ranks=(2, 2))], ids=["warm-bubble", "real-case-2x2"])
def test_the_stage_fluxes_are_the_stage_state_unwritten(spec, monkeypatch):
    """A first stage's ``SlowForcing.fx_s`` / ``fy_s`` are the base's own
    ``rhou`` / ``rhov``, not copies; a later stage's, which refills the
    state it read, are copies of that state's fluxes from before the
    refill.  Nothing writes them from the slow tendencies to the end of
    the stage (substeps, exchanges and ``finish`` included)."""
    import repro.core.rk3 as rk3

    slow, init, finish = (rk3.slow_tendencies, AcousticStepper.__init__,
                          AcousticStepper.finish)
    stages = []

    def aliased(state, *args):
        base, into = args[3], args[8]
        before = [state.rhou.tobytes(), state.rhov.tobytes()]
        forcing, q_tend = slow(state, *args)
        fluxes = (forcing.fx_s, forcing.fy_s)
        if state is base:
            assert fluxes[0] is state.rhou and fluxes[1] is state.rhov
        else:
            assert state is into
            assert not any(np.shares_memory(f, state.block) for f in fluxes)
            assert [f.tobytes() for f in fluxes] == before
        return forcing, q_tend

    def snapshot(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.fluxes = [a.tobytes() for a in (self.forcing.fx_s,
                                             self.forcing.fy_s)]

    def checked(self, *args):
        out = finish(self, *args)
        stages.append(self.fluxes == [a.tobytes() for a in (
            self.forcing.fx_s, self.forcing.fy_s)])
        return out

    monkeypatch.setattr(rk3, "slow_tendencies", aliased)
    monkeypatch.setattr(AcousticStepper, "__init__", snapshot)
    monkeypatch.setattr(AcousticStepper, "finish", checked)
    before = native.PROGRAMS["replayed"]
    Experiment(spec).prepare().run()
    ranks = 4 if spec.ranks else 1
    # a replayed step runs the recorded program, not these stages
    steps = spec.steps - (native.PROGRAMS["replayed"] - before)
    assert steps >= 1
    assert stages == [True] * (3 * steps * ranks)


def _side_by_side(*works):
    """Run each callable in its own thread at once (a short switch
    interval interleaves them finely); their results, or what they
    raised, in order."""
    import threading

    out = [None] * len(works)

    def run(i):
        try:
            out[i] = works[i]()
        except BaseException as exc:    # reported by the caller's assertion
            out[i] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(works))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return out


def _advanced(spec, steps, exp=None):
    """The prognostic bytes of ``exp`` (a fresh run of ``spec``) after
    ``steps`` more steps."""
    exp = exp or Experiment(spec).prepare()
    exp.advance(steps)
    return [np.ascontiguousarray(exp.state.get(n)).tobytes()
            for n in exp.state.prognostic_names()]


def test_two_integrators_prepared_together_step_apart():
    """Two runs prepared, and stepped once, in one thread, then stepped
    side by side in two threads: each integrator computes in its own
    scratch, neither rebinds, and both give their serial bytes."""
    specs = [RunSpec("warm-bubble", nx=16, ny=16, nz=8, seed=s)
             for s in (1, 2)]
    serial = [_advanced(spec, 4) for spec in specs]
    exps = [Experiment(spec).prepare() for spec in specs]
    for exp in exps:
        exp.advance(1)
    bound = [exp.model.integrator.binding for exp in exps]
    assert bound[0].scratch is not bound[1].scratch
    for exp, binding in zip(exps, bound):
        assert binding.scratch is exp.model.integrator.geom.scratch
    threaded = _side_by_side(*(
        (lambda exp=exp: _advanced(None, 3, exp)) for exp in exps))
    assert threaded == serial
    assert [exp.model.integrator.binding for exp in exps] == bound


def test_one_integrator_stepped_from_two_threads_in_turn():
    """A run advanced one step at a time, alternately by two threads,
    keeps its one binding and scratch and gives its serial bytes."""
    import queue
    import threading

    spec = RunSpec("real-case", nx=16, ny=16, nz=8, seed=3)
    serial = _advanced(spec, 4)
    exp = Experiment(spec).prepare()
    inbox, done = [queue.Queue(), queue.Queue()], queue.Queue()

    def worker(i):
        while inbox[i].get():
            try:
                exp.advance(1)
                done.put(exp.model.integrator.binding)
            except BaseException as exc:  # reported by the assertion below
                done.put(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    try:
        bound = []
        for step in range(4):
            inbox[step % 2].put(True)
            bound.append(done.get(timeout=300))
    finally:
        for box in inbox:
            box.put(False)
        for t in threads:
            t.join(timeout=60)
    assert _advanced(None, 0, exp) == serial
    assert all(binding is bound[0] for binding in bound)
    assert bound[0].scratch is exp.model.integrator.geom.scratch


# ------------------------------------------------ (c) without a compiler
def _state_sha(workload):
    state = Experiment(RunSpec(workload, nx=16, ny=16, nz=8,
                               steps=3)).prepare().run().state
    h = hashlib.sha256()
    for name in state.prognostic_names():
        h.update(np.ascontiguousarray(state.get(name)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["warm-bubble", "real-case"])
def test_no_compiler_is_a_reason_not_a_different_field(workload, tmp_path):
    probe = textwrap.dedent(f"""
        from tests.stencil.test_native import _state_sha, native
        print(_state_sha({workload!r}), native.library().state,
              native.COUNTS["no-compiler"])
    """)
    env = dict(os.environ, CC="/nonexistent", PYTHONPATH=SRC,
               XDG_CACHE_HOME=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", probe], env=env, text=True,
                          capture_output=True, timeout=300,
                          cwd=os.path.dirname(SRC))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [_state_sha(workload), "no-compiler", "1"]
    assert not os.listdir(tmp_path)             # nothing was built


def test_the_compiler_is_identified_by_its_file(tmp_path, monkeypatch):
    """Resolved path, ``st_mtime_ns`` and ``st_size`` name the compiler in
    the hash; a program that runs but is no compiler (``CC=/bin/false``)
    is ``no-compiler``, found out only when something must be built."""
    cc = tmp_path / "mycc"
    cc.write_text("#!/bin/sh\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("CC", str(cc))
    argv, identity = native._compiler()
    st = os.stat(cc)
    assert argv == [str(cc)]
    assert identity == f"{cc.resolve()} {st.st_mtime_ns} {st.st_size}"
    os.utime(cc, ns=(st.st_atime_ns, st.st_mtime_ns + 1000))
    assert native._compiler()[1] != identity
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    lib = native.load()
    assert lib.state == "no-compiler" and lib.f64 is None
    assert os.listdir(tmp_path / "cache" / "repro-asuca") == []


@needs_library
def test_a_warm_load_runs_no_process(monkeypatch):
    """A cache hit spawns nothing, and a process that only loads never
    imports ``subprocess``."""
    monkeypatch.setattr(native, "_spawn", lambda *argv: pytest.fail("spawn"))
    assert native.load().state == "loaded"
    probe = ("import sys; from repro.stencil import native; "
             "print(native.library().state, 'subprocess' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], text=True,
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.stdout.split() == ["loaded", "False"], done.stderr


# ------------------------------------------------------ (d) the self-check
@needs_library
def test_the_battery_calls_no_patchable_global():
    """The load-time battery holds the slow stage (``StageBinding.run``)
    to the NumPy text it names (``rk3._slow_numpy``): a plant over
    ``rk3.slow_tendencies`` of another signature, made before the first
    load of a fresh process, never runs inside it."""
    probe = ("from repro.core import rk3; "
             "rk3.slow_tendencies = lambda state: None; "
             "from repro.stencil import native; "
             "print(native.library().state)")
    done = subprocess.run([sys.executable, "-c", probe], text=True,
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.stdout.split() == ["loaded"], done.stderr


@needs_library
def test_swapped_minimum_is_rejected_at_load(tmp_path, monkeypatch):
    """``minimum(a, b)`` and ``minimum(b, a)`` differ in the sign of a zero
    and in which NaN survives: a body that is almost NumPy's must not be
    used."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    numpys = "    REAL t = a < b ? a : b;\n    return a != a ? a : t;\n"
    assert numpys in sources["advect.c"]
    sources["advect.c"] = sources["advect.c"].replace(
        numpys, "    REAL t = b < a ? b : a;\n    return b != b ? b : t;\n")
    before = native.COUNTS["self-check-failed"]
    lib = native.load(sources)
    assert lib.state == "self-check-failed" and lib.detail.startswith("faces")
    assert lib.f64 is None and lib.hash != LIB.hash
    assert native.COUNTS["self-check-failed"] == before + 1
    with native.using(lib):                     # a rejected library is no library
        assert native.kernels() is None


@needs_library
@pytest.mark.parametrize("body, old, new", [
    ("metric flux", "t[c * nz + k] / jac[c] * dzs[c]",
     "t[c * nz + k] * dzs[c] / jac[c]"),
    ("thomas solve", "d[j] = (d[j] - s[j] * dm[j]) / e[j];",
     "d[j] = (d[j] - s[j] * dm[j]) * (1.0 / e[j]);")])
def test_a_reordered_acoustic_body_is_rejected_at_load(body, old, new,
                                                       tmp_path, monkeypatch):
    """Dividing before multiplying, or by a reciprocal, rounds differently:
    the load-time battery reaches the metric flux on its own and the
    Thomas block through the substep that solves with it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    assert old in sources["acoustic.c"]
    sources["acoustic.c"] = sources["acoustic.c"].replace(old, new)
    lib = native.load(sources)
    detail = {"thomas solve": "acoustic substep, flat grid"}.get(body, body)
    assert lib.state == "self-check-failed" and lib.detail.startswith(detail)
    assert lib.f64 is None


@needs_library
@pytest.mark.parametrize("source, body, old, new", [
    ("acoustic.c", "Helmholtz operator", "cp[c] = cp[c] / den[c];",
     "cp[c] = cp[c] * (1.0 / den[c]);"),
    ("acoustic.c", "linearization",
     "pc[i] = (p_t[i] - p_ref[i]) - cp_lin[i] * rt[i];",
     "pc[i] = p_t[i] - (p_ref[i] + cp_lin[i] * rt[i]);"),
    ("kessler.c", "kessler step", "const double tb = rt[k] * pi - a->tb;",
     "const double tb = rt[k] * (pi - a->tb / rt[k]);"),
    ("kessler.c", "kessler step", "nan |= vt != vt;", ""),
    ("halo.c", "halo fill", "memmove(dst + i * d[6] + j * d[9],",
     "memmove(dst + i * d[6],"),
    ("halo.c", "halo strips", "const char *src = fields[d[1]] + d[4];",
     "const char *src = fields[d[0]] + d[4];")])
def test_a_changed_step_body_is_rejected_at_load(source, body, old, new,
                                                 tmp_path, monkeypatch):
    """Another order of operations rounds differently, a fall speed whose
    NaN is dropped lets the rain fall in more sub-steps, a zero-gradient
    edge that forgets its inner stride fills one halo cell, and a strip
    read from the receiving rank's own field is not its neighbour's: the
    load-time battery reaches the operator, the linearization, the warm
    rain, the halo fill and the decomposed exchange each on its own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    assert old in sources[source]
    sources[source] = sources[source].replace(old, new)
    lib = native.load(sources)
    assert lib.state == "self-check-failed" and lib.detail.startswith(body)
    assert lib.f64 is None


@needs_library
@pytest.mark.parametrize("body, old, new", [
    ("stage theta transport, terrain grid",
     "/ a->dz_c[k]\n                    / a->jac[c];",
     "/ (a->dz_c[k] * a->jac[c]);"),
    ("acoustic substep, terrain grid",
     "    if (a->metric)\n        acoustic_metric_flux(a->metric, 0, a->rhou, "
     "a->rhov, 0, a->m_now);\n", "")])
def test_a_changed_substep_is_rejected_at_load(body, old, new, tmp_path,
                                               monkeypatch):
    """The one-call substep's own work is on the battery: ``dws`` divided
    by the product of its two divisors rounds differently, and a substep
    that skips the terrain metric flux reads a stale ``m_now``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    assert old in sources["acoustic.c"]
    sources["acoustic.c"] = sources["acoustic.c"].replace(old, new)
    lib = native.load(sources)
    assert lib.state == "self-check-failed" and lib.detail.startswith(body)
    assert lib.f64 is None


@needs_library
@pytest.mark.parametrize("body, old, new", [
    ("slow stage, terrain grid", "(((e[k] + e[nz + k]) + w[k])",
     "(((e[k] + w[k]) + e[nz + k])"),
    ("slow stage, flat grid", "        acc |= b;\n", "        acc |= b << 1;\n")])
def test_a_changed_slow_stage_is_rejected_at_load(body, old, new, tmp_path,
                                                  monkeypatch):
    """The one-call stage's own work is on the battery: Coriolis averaged
    in another order rounds differently, and a zero test that ignores the
    sign bit skips the transport of a species whose only nonzero byte is a
    lone ``-0.0``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    assert sources["acoustic.c"].count(old) == 1
    sources["acoustic.c"] = sources["acoustic.c"].replace(old, new)
    lib = native.load(sources)
    assert lib.state == "self-check-failed" and lib.detail == body
    assert lib.f64 is None


@needs_library
def test_the_self_check_reaches_the_advection_through_the_slow_stage(
        tmp_path, monkeypatch):
    """The advection has no entry of its own: the slow stage is its one
    caller, and the battery's slow stage its check.  A y divergence
    divided term by term rounds differently."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    old = "o[i] = o[i] - (fyb[i] - fyb[i - n2]) / dy;"
    assert sources["advect.c"].count(old) == 1
    sources["advect.c"] = sources["advect.c"].replace(
        old, "o[i] = o[i] - fyb[i] / dy + fyb[i - n2] / dy;")
    lib = native.load(sources)
    assert lib.state == "self-check-failed"
    assert lib.detail == "slow stage, flat grid" and lib.f64 is None


@needs_library
def test_the_library_hash_is_the_units_compiled(tmp_path, monkeypatch):
    """The cache key hashes the translation units handed to the compiler,
    not only the sources they are made of: an edit to how ``_units``
    composes them is a fresh build, never the old library found under the
    old name."""
    shipped = os.path.join(native.cache_dir(), f"native-{LIB.hash}.so")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    os.makedirs(tmp_path / "repro-asuca", mode=0o700)
    shutil.copy2(shipped, tmp_path / "repro-asuca")
    found = native.load()
    assert (found.state, found.hash, found.build_s) == ("loaded", LIB.hash, 0)
    units = native._units
    monkeypatch.setattr(native, "_units", lambda sources, clones: tuple(
        unit + "#define REPRO_EDITED 1\n" for unit in units(sources, clones)))
    lib = native.load()
    assert lib.state == "loaded" and lib.hash != LIB.hash and lib.build_s > 0
    assert sorted(os.listdir(tmp_path / "repro-asuca")) == sorted(
        f"native-{h}.so" for h in (LIB.hash, lib.hash))


@needs_library
def test_the_library_hash_covers_the_numpy_it_calls(tmp_path, monkeypatch):
    """The bodies call NumPy's own loops and include its headers: another
    NumPy version is another library, built afresh."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
    lib = native.load()
    assert lib.state == "loaded" and lib.hash != LIB.hash and lib.build_s > 0


@needs_library
def test_a_source_that_does_not_compile_is_build_failed(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    sources["acoustic.c"] += "\nthis is not C\n"
    lib = native.load(sources)
    assert lib.state == "build-failed" and "error" in lib.detail
    assert os.listdir(tmp_path / "repro-asuca") == []      # no leftovers


# ------------------------------------------ (d2) layouts read from the C
@needs_library
def test_a_library_is_bound_to_the_layouts_it_was_built_from(tmp_path,
                                                             monkeypatch):
    """``kessler_args`` and ``stage_args`` each gain a trailing field, and
    two of the warm rain's doubles swap places: the library built from
    that text loads with both structs 8 bytes larger, and its battery,
    whose call sites fill every struct by field name, passes (a layout
    fixed at import bound to a library built from an edited source
    segfaulted in the warm rain; the swap failed the battery)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    for source, name in (("kessler.c", "kessler_args"),
                         ("acoustic.c", "stage_args")):
        end = f"}} {name};"
        assert sources[source].count(end) == 1
        sources[source] = sources[source].replace(end,
                                                  f"    long spare;\n{end}")
    swap = "double gamma, kappa;"
    assert sources["kessler.c"].count(swap) == 1
    sources["kessler.c"] = sources["kessler.c"].replace(
        swap, "double kappa, gamma;")
    lib = native.load(sources)
    assert lib.state == "loaded", lib.report()
    assert lib.hash != LIB.hash
    for name in ("kessler_args", "stage_args"):
        cls = getattr(lib.f64, name)
        assert ctypes.sizeof(cls) == ctypes.sizeof(getattr(LIB.f64, name)) + 8
        assert cls._fields_[-1] == ("spare", ctypes.c_long)
    assert (lib.f64.kessler_args.kappa.offset
            < lib.f64.kessler_args.gamma.offset)


@needs_library
def test_the_thomas_block_is_read_from_the_library(tmp_path, monkeypatch):
    """``THOMAS_BLOCK`` is read from the C: a library built with
    128-column blocks loads and passes its battery, and a substep binding
    on it holds a ``col`` of ``128 * (nz + 1)`` doubles (a Python copy of
    the constant sized that buffer, so a larger C value wrote past it)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    old = "#define THOMAS_BLOCK 64"
    assert sources["acoustic.c"].count(old) == 1
    sources["acoustic.c"] = sources["acoustic.c"].replace(
        old, "#define THOMAS_BLOCK 128")
    lib = native.load(sources)
    assert lib.state == "loaded", lib.report()
    assert (lib.f64.THOMAS_BLOCK, LIB.f64.THOMAS_BLOCK) == (128, 64)
    g = make_grid(5, 4, 6, 100.0, 130.0, 600.0)
    geom = AcousticGeometry(g, SimpleNamespace(rho_c=np.ones(g.shape_c)))
    with native.using(lib):
        binding = SubstepBinding(geom)
    assert binding.args is not None
    assert binding.col.dtype == np.float64
    assert binding.col.shape == (128 * (g.nz + 1),)


@needs_library
@pytest.mark.parametrize("field", [
    "float x;", "double pair[2];", "double *q[2 * NO_SUCH_DEFINE];",
    "atomic_long n;", "int (*entry)(void *);"])
def test_a_field_the_reader_does_not_take_is_build_failed(field, tmp_path,
                                                          monkeypatch):
    """The reader takes ``long``, ``int``, ``double``, pointers and arrays
    of pointers sized by ``#define`` expressions; any other field ends the
    load ``build-failed`` naming the struct, before anything is built."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    end = "} moisture_args;"
    assert sources["acoustic.c"].count(end) == 1
    sources["acoustic.c"] = sources["acoustic.c"].replace(
        end, f"    {field}\n{end}")
    lib = native.load(sources)
    assert lib.state == "build-failed" and lib.f64 is None
    assert lib.detail.startswith("struct moisture_args: cannot read"), \
        lib.detail
    assert list(tmp_path.rglob("*.so")) == []


def test_no_python_mirror_of_a_c_struct():
    """Every struct a compiled call takes is read from the C text: no class
    in the package subclasses a ctypes struct."""
    mirrors = []
    for path in sorted((pathlib.Path(SRC) / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(b).split(".")[-1] in (
                        "Structure", "Union", "LittleEndianStructure",
                        "BigEndianStructure") for b in node.bases):
                mirrors.append(f"{path.name}::{node.name}")
    assert mirrors == []


# ------------------------------------------------- (e) the cache directory
@needs_library
def test_two_processes_building_one_hash_leave_one_file(tmp_path):
    probe = "from repro.stencil import native; print(native.library().report())"
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path))
    procs = [subprocess.Popen([sys.executable, "-c", probe], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0 and out.startswith("native[loaded]"), out + err
    assert os.listdir(tmp_path / "repro-asuca") == [f"native-{LIB.hash}.so"]


def test_a_cache_directory_others_can_write_is_refused(tmp_path, monkeypatch):
    import tempfile

    shared = tmp_path / "cache" / "repro-asuca"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    assert not native._trusted(str(shared), stat.S_ISDIR)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # refused: the per-uid temp directory (created 0700) is used instead
    private = native.cache_dir()
    assert private == str(tmp_path / f"repro-asuca-{os.getuid()}")
    assert os.stat(private).st_mode & 0o777 == 0o700
    # ... and with that one open to others too there is no cache at all
    os.chmod(private, 0o777)
    assert native.cache_dir() is None
    if LIB.state != "no-compiler":
        lib = native.load()
        assert lib.state == "cache-unwritable" and lib.f64 is None


def test_a_planted_symlink_is_not_a_cache_directory(tmp_path, monkeypatch):
    """Another user can pre-plant ``<tmp>/repro-asuca-<uid>`` as a symlink
    to a directory the victim owns and re-point it later: the name itself
    must be a real directory of the caller's, whatever it points at."""
    import tempfile

    mine = tmp_path / "mine"
    mine.mkdir(mode=0o700)
    assert native._trusted(str(mine), stat.S_ISDIR)
    for parent in ("cache", "tmp"):
        (tmp_path / parent).mkdir()
    names = (tmp_path / "cache" / "repro-asuca",
             tmp_path / "tmp" / f"repro-asuca-{os.getuid()}")
    for name in names:
        name.symlink_to(mine, target_is_directory=True)
        assert not native._trusted(str(name), stat.S_ISDIR)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    assert native.cache_dir() is None
    assert os.listdir(mine) == []
    # ... and a library that is a symlink is rebuilt over, never loaded
    names[0].unlink()
    planted = tmp_path / "cache" / "repro-asuca" / f"native-{LIB.hash}.so"
    planted.parent.mkdir(mode=0o700)
    planted.symlink_to(mine / "evil.so")
    assert not native._trusted(str(planted))
    if LIB.state != "no-compiler":
        assert native.load().state == "loaded" and not planted.is_symlink()


# ------------------------------------------------------- observability
def test_executor_stats_and_report_carry_the_native_entry(monkeypatch):
    monkeypatch.setattr(native, "UNBOUND", Counter())
    # no run of this process was tiled (a tiled one adds "tiles")
    monkeypatch.setattr(native, "TILES", Counter())
    ex = StencilExecutor("fused")
    s = ex.stats()
    assert {"dispatches", "accelerated", "fallbacks", "allocations",
            "reuses"} <= set(s)
    assert s["native"]["state"] == LIB.state in native.STATES
    assert set(s["native"]) == {"state", "detail", "hash", "clones", "build_s",
                                "unbound", "programs"}
    assert f"native[{LIB.state}]" in ex.report()
    # a declined call is a per-call fact: counted, never a load state
    native.unbound("solves", native.Unbound("rhs", "not C-contiguous"))
    s = ex.stats()["native"]
    assert s["unbound"] == {"solves": {"rhs not C-contiguous": 1}}
    assert s["state"] == LIB.state and "unbound" not in native.STATES
    assert ex.report().endswith("; 1 solves on NumPy (rhs not C-contiguous)")


def test_sources_ship_as_package_data(tmp_path):
    """An installed layout (``build_py`` into a scratch directory) carries
    the ``.c`` files where ``importlib.resources`` finds them, and no
    shared object."""
    pytest.importorskip("setuptools")
    root = os.path.dirname(SRC)
    built = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base",
         str(tmp_path), "build_py", "--build-lib", str(tmp_path / "lib")],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert built.returncode == 0, built.stderr
    probe = textwrap.dedent("""
        from importlib import resources
        from repro.stencil import native
        csrc = resources.files("repro.stencil") / "csrc"
        assert sorted(p.name for p in csrc.iterdir()) == sorted(native.SOURCES)
        assert all(native.read_sources()[n] == (csrc / n).read_text()
                   for n in native.SOURCES)
        print(native.__file__)
    """)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, cwd=str(tmp_path),
                          env=dict(os.environ, PYTHONPATH=str(tmp_path / "lib")))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(str(tmp_path / "lib"))
    assert not [f for _, _, files in os.walk(tmp_path / "lib")
                for f in files if f.endswith(".so")]
