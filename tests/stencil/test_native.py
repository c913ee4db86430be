"""The compiled bodies (repro.stencil.native): the same bytes as their
oracles, and a loader whose every failure ends on the NumPy bodies with a
typed reason.

``np.array_equal`` calls -0.0 and +0.0 equal; the compiled bodies promise
more — the same *bytes* as their textbook oracles in ``repro.core`` — so
everything here compares ``tobytes()``.  Inputs are drawn to hit what a
select-first, flat, row-carrying body could get wrong: the ``nz = 4``
minimum, all three axes, both float widths, non-contiguous inputs,
constant fields (``sign(0)``), signed zeros in field and flux, and
single-signed fluxes.  NaN/inf inputs must give non-finite output at the
same positions and the same bytes everywhere else; NaN *payload* bits are
exempt (IEEE leaves them to the implementation, and a select before the
arithmetic may propagate a different operand's payload than one after
it).

Where no C compiler exists only the tests that need a library skip, with
the loader's own reason; the others (``CC=/nonexistent`` runs, the cache
trust rules, the packaged sources) run everywhere.
"""
import hashlib
import os
import stat
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment, RunSpec
from repro.constants import WATER_SPECIES
from repro.core import advection as adv
from repro.core.acoustic import ACOUSTIC_FIELDS, AcousticStepper, build_context
from repro.core.boundary import fill_halos_state
from repro.core.grid import make_grid
from repro.core.helmholtz import HelmholtzOperator, helmholtz_brackets
from repro.core.limiter import koren, minmod
from repro.core.pressure import eos_pressure, exner
from repro.core.reference import make_reference_state
from repro.core.model import run_lockstep
from repro.core.rk3 import DynamicsConfig, Rk3Integrator, slow_tendencies
from repro.core.state import State, state_from_reference
from repro.physics.kessler import KesslerConfig, kessler_step
from repro.physics.saturation import saturation_mixing_ratio
from repro.stencil import (StencilExecutor, load_dycore_specs, native,
                           use_executor)
from repro.stencil.plan import PlanCache
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

#: how a field or a flux is filled
KINDS = ("normal", "constant", "signed_zeros", "positive", "negative",
         "plateaus")
_FIELD_SHAPE = {"advect_scalar": "shape_c", "advect_u": "shape_u",
                "advect_v": "shape_v", "advect_w": "shape_w"}


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


def _advect_case(rng, nx, ny, nz, halo, kinds, dtype=np.float64):
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=100.0, dy=130.0, ztop=90.0 * nz,
                  halo=halo)
    fx, fy, fz = (_fill(rng, kinds[1], s, dtype)
                  for s in (g.shape_u, g.shape_v, g.shape_w))
    return g, fx, fy, fz


def _compiled(name, *args):
    """One fused entry point with the library loaded: its compiled body."""
    with native.using(LIB):
        out = FUSED_IMPLS[name](PlanCache(), *args)
    assert out is not NotImplemented, name
    return out


@needs_library
def test_a_compiler_means_a_loaded_library():
    assert LIB.state == "loaded", LIB.report()
    assert LIB.clones and len(LIB.hash) == 16
    assert native.COUNTS["loaded"] >= 1


@needs_library
def test_planned_entry_points_take_the_compiled_branch(monkeypatch):
    """What the identity tests below compare *is* the compiled body, and
    without a library the entry point hands the call to the oracle."""
    taken = []
    monkeypatch.setattr(LIB.f64, "advect", lambda *a: taken.append(a[0]))
    rng = np.random.default_rng(0)
    g, fx, fy, fz = _advect_case(rng, 6, 5, 5, 2, ("normal", "normal"))
    phi = rng.normal(size=g.shape_c)
    for name, variant in (("advect_scalar", 0), ("advect_w", 3)):
        field = rng.normal(size=getattr(g, _FIELD_SHAPE[name]))
        with native.using(LIB):
            FUSED_IMPLS[name](PlanCache(), field, fx, fy, fz, g)
        assert taken[-1] == variant
    with native.using(None):
        assert FUSED_IMPLS["advect_scalar"](PlanCache(), phi, fx, fy, fz,
                                            g) is NotImplemented
    assert len(taken) == 2


# ------------------------------------------- (a) advection against the oracle
@needs_library
@SETTINGS
@given(nx=st.integers(3, 11), ny=st.integers(1, 9), nz=st.integers(4, 9),
       halo=st.sampled_from([2, 3]), name=st.sampled_from(sorted(_FIELD_SHAPE)),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       strided=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_advect_compiled_equals_oracle(nx, ny, nz, halo, name, kinds, strided,
                                       seed):
    rng = np.random.default_rng(seed)
    g, fx, fy, fz = _advect_case(rng, nx, ny, nz, halo, kinds)
    phi = _fill(rng, kinds[0], getattr(g, _FIELD_SHAPE[name]), np.float64)
    if strided:
        phi, fx, fz = _strided(phi), _strided(fx), _strided(fz)
    _same_bytes(name, _compiled(name, phi, fx, fy, fz, g),
                _oracle(getattr(adv, name), phi, fx, fy, fz, g))


@needs_library
@SETTINGS
@given(nx=st.integers(3, 9), ny=st.integers(1, 7), nz=st.integers(4, 7),
       name=st.sampled_from(sorted(_FIELD_SHAPE)),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       seed=st.integers(0, 2 ** 16))
def test_advect_float32_compiled_equals_oracle(nx, ny, nz, name, kinds, seed):
    """The grid's metrics are float64, so no run reaches the float32
    advection yet (ROADMAP item 5 will); on a grid whose spacings are
    float32 it is the oracle's float32 arithmetic, byte for byte."""
    rng = np.random.default_rng(seed)
    g, fx, fy, fz = _advect_case(rng, nx, ny, nz, 2, kinds, np.float32)
    g32 = replace(g, dz_c=g.dz_c.astype(np.float32),
                  dz_f=g.dz_f.astype(np.float32))
    phi = _fill(rng, kinds[0], getattr(g, _FIELD_SHAPE[name]), np.float32)
    compiled = _compiled(name, phi, fx, fy, fz, g32)
    assert compiled.dtype == np.float32
    _same_bytes(name, compiled,
                _oracle(getattr(adv, name), phi, fx, fy, fz, g32))


def _face_sweep(phi, flux, axis):
    """``limited_face_flux`` by advect.c's face sweep alone: the field and
    its fluxes turned to put ``axis`` first, made contiguous, and swept
    from the second cell row with a stride of one row."""
    p = np.ascontiguousarray(np.moveaxis(phi, axis, 0))
    fa = np.ascontiguousarray(np.moveaxis(flux, axis, 0)[1:-1])
    out = np.empty(fa.shape, p.dtype)
    row = p[0].size
    kernels = LIB.f64 if p.dtype == np.float64 else LIB.f32
    kernels.faces(p[1:].ctypes.data, row, fa.ctypes.data, out.ctypes.data,
                  out.size)
    return np.moveaxis(out, 0, axis)


@needs_library
@SETTINGS
@given(n0=st.integers(4, 13), n1=st.integers(4, 11), n2=st.integers(4, 9),
       axis=st.sampled_from([0, 1, 2, -1]),
       dtype=st.sampled_from([np.float32, np.float64]),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["phi", "flux"]), strided=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_face_sweep_compiled_equals_oracle(n0, n1, n2, axis, dtype, kinds,
                                           bad, where, strided, seed):
    """Along every axis, both widths, non-finite cells or fluxes included
    (infinities keep their sign; only NaN payloads are exempt)."""
    rng = np.random.default_rng(seed)
    shape = [n0, n1, n2]
    phi = _fill(rng, kinds[0], shape, dtype)
    shape[axis] -= 1
    flux = _fill(rng, kinds[1], shape, dtype)
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


@needs_library
@SETTINGS
@given(name=st.sampled_from(sorted(_FIELD_SHAPE)),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["phi", "fx", "fz"]), seed=st.integers(0, 2 ** 16))
def test_nonfinite_inputs_land_where_the_oracle_puts_them(name, bad, where,
                                                          seed):
    rng = np.random.default_rng(seed)
    g, fx, fy, fz = _advect_case(rng, 7, 6, 5, 2, ("normal", "normal"))
    phi = rng.normal(size=getattr(g, _FIELD_SHAPE[name]))
    target = {"phi": phi, "fx": fx, "fz": fz}[where]
    target.flat[rng.integers(0, target.size, size=5)] = bad
    with np.errstate(all="ignore"):
        compiled = _compiled(name, phi, fx, fy, fz, g)
        oracle = _oracle(getattr(adv, name), phi, fx, fy, fz, g)
    assert np.array_equal(np.isnan(compiled), np.isnan(oracle))
    # infinities keep their sign; only NaN payloads are exempt
    _same_bytes(name, np.where(np.isnan(compiled), 0.0, compiled),
                np.where(np.isnan(oracle), 0.0, oracle))


@needs_library
def test_compiled_advection_declines_what_it_does_not_cover():
    """Non-Koren limiters, mixed dtypes, ndarray subclasses and nz < 4 go
    to the oracle (``NotImplemented``), never to a guess, and are not
    counted as declined operands."""
    rng = np.random.default_rng(0)
    g, fx, fy, fz = _advect_case(rng, 6, 5, 5, 2, ("normal", "normal"))
    phi = rng.normal(size=g.shape_c)
    run = FUSED_IMPLS["advect_scalar"]
    cache = PlanCache()
    before = Counter(native.UNBOUND)

    class Sub(np.ndarray):
        pass

    g3, fx3, fy3, fz3 = _advect_case(rng, 6, 5, 3, 2, ("normal", "normal"))
    with native.using(LIB):
        assert run(cache, phi, fx, fy, fz, g) is not NotImplemented
        assert run(cache, phi, fx, fy, fz, g, limiter=minmod) is NotImplemented
        # float32 fields against the float64 grid metrics are a mixed call
        f32 = [a.astype(np.float32) for a in (phi, fx, fy, fz)]
        assert run(cache, *f32, g) is NotImplemented
        assert run(cache, phi.astype(np.float32), fx, fy, fz,
                   g) is NotImplemented
        assert run(cache, phi.view(Sub), fx, fy, fz, g) is NotImplemented
        assert run(cache, rng.normal(size=g3.shape_c), fx3, fy3, fz3,
                   g3) is NotImplemented
    assert native.UNBOUND - before == Counter()


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
    forcing, _ = slow_tendencies(base, ref, DynamicsConfig(dt=4.0, ns=4), koren)
    if dtype != np.float64:
        for name in base.prognostic_names():
            base.set(name, base.get(name).astype(dtype))
    return base, forcing, build_context(base, ref, p_ref), ref


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
def _rain_case(rng, nx, ny, nz, terrain, nan):
    """A warm-rain state whose rain falls in several sub-steps (40 m
    levels): sub- and super-saturated vapor, cloud water at and around the
    autoconversion threshold, rain in about half the cells, signed zeros,
    and (``nan``) one NaN cell of that field."""
    ztop = 40.0 * nz
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


@needs_library
@SETTINGS
@given(nx=st.integers(1, 7), ny=st.integers(1, 5), nz=st.integers(2, 9),
       terrain=st.booleans(), nan=st.sampled_from([None, "rho", "qv", "qr"]),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2 ** 16))
def test_kessler_compiled_equals_oracle(nx, ny, nz, terrain, nan, flags, seed):
    """The hybrid body (C segments, NumPy exp / pow) == the oracle, every
    field byte for byte (halos too; NaN payloads exempt), the precipitation
    and its accumulation included, whichever processes are switched on."""
    rng = np.random.default_rng(seed)
    g, rho, rhotheta, q = _rain_case(rng, nx, ny, nz, terrain, nan)
    cfg = KesslerConfig(sedimentation=flags[0], evaporation=flags[1],
                        saturation_adjust=flags[2])
    runs = []
    for body in (FUSED_IMPLS["kessler_step"], None):
        state = State(g, rho.copy(), g.zeros_u(), g.zeros_v(), g.zeros_w(),
                      rhotheta.copy(), {k: v.copy() for k, v in q.items()})
        with native.using(LIB), np.errstate(all="ignore"):
            precip = (body(PlanCache(), state, None, 10.0, cfg) if body
                      else _oracle(kessler_step, state, None, 10.0, cfg))
        assert precip is not NotImplemented
        runs.append([*map(state.get, ("rho", "rhotheta", "qv", "qc", "qr")),
                     precip, state.precip_accum])
    for got, want in zip(*runs):
        assert native.same(got, want)


@needs_library
def test_kessler_declines_what_it_cannot_take(monkeypatch):
    """A float32 state runs the oracle (a reference dispatch, not a
    decline); a strided field is declined with its reason, counted."""
    rng = np.random.default_rng(3)
    g, rho, rhotheta, q = _rain_case(rng, 4, 3, 5, False, None)
    impl = FUSED_IMPLS["kessler_step"]
    monkeypatch.setattr(native, "UNBOUND", Counter())
    with native.using(LIB):
        state = State(g, rho.astype(np.float32), None, None, None,
                      rhotheta.astype(np.float32),
                      {k: v.astype(np.float32) for k, v in q.items()})
        assert impl(PlanCache(), state, None, 10.0) is NotImplemented
        assert native.UNBOUND == Counter()
        state = State(g, rho, None, None, None, rhotheta,
                      dict(q, qc=_strided(q["qc"])))
        assert impl(PlanCache(), state, None, 10.0) is NotImplemented
    assert native.UNBOUND == Counter(
        {("warm-rain steps", "qc not C-contiguous"): 1})


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
            out = (body(PlanCache(), state, names) if body
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

    for width in ("f64", "f32"):
        kernels = getattr(LIB, width)
        for name, fn in vars(kernels).items():
            monkeypatch.setattr(kernels, name, counted(name, fn))
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


# ---------------- (b4) one call a substep, one binding an integrator a thread
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
    signed-zero densities included (NaN payloads exempt); a float32 or
    strided field is declined with its reason, counted, and runs the
    NumPy."""
    rng = np.random.default_rng(seed)
    g = make_grid(nx, ny, nz, 100.0, 130.0, 100.0 * nz, halo=halo)
    rho = _fill(rng, kind, g.shape_c, dtype)
    rhou, rhov, rhow = (_fill(rng, "normal", s, dtype)
                        for s in (g.shape_u, g.shape_v, g.shape_w))
    if strided:
        rhov = _strided(rhov)
    state = State(g, rho, rhou, rhov, rhow, rho.copy())
    before = Counter(native.UNBOUND)
    runs = []
    for lib in (LIB, None):
        with native.using(lib), np.errstate(all="ignore"):
            runs.append(state.velocities())
    why = ("rho float32" if dtype == np.float32 else
           "rhov not C-contiguous" if strided else None)
    assert native.UNBOUND - before == (
        Counter({("velocities", why): 1}) if why else Counter())
    for got, want in zip(*runs):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert native.same(got, want)


@needs_library
@pytest.mark.parametrize("terrain", [False, True])
def test_a_substep_is_one_ctypes_call(terrain, monkeypatch):
    """With a library loaded a substep crosses into C once and makes no
    ``native.pointers`` call, no executor dispatch and no inner span; a
    stage on its integrator's binding checks its operands in one
    ``native.pointers`` call."""
    from repro.obs import TraceSession, use_session

    base, forcing, ctx, ref = _stage(terrain)
    calls = Counter()

    def counted(name, fn):
        return lambda *a, **k: (calls.update([name]), fn(*a, **k))[1]

    for name, fn in vars(LIB.f64).items():
        monkeypatch.setattr(LIB.f64, name, counted(name, fn))
    monkeypatch.setattr(native, "pointers", counted("pointers",
                                                    native.pointers))
    ex, session = StencilExecutor("fused"), TraceSession("t")
    with native.using(LIB), use_executor(ex), use_session(session):
        first = AcousticStepper(base, forcing, ctx, ref, 2.0, 3)
        # the operator's (assembled for this dtau), the integrator's, the
        # stage's
        assert calls == Counter({"operator": 1, "pointers": 3})
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


def _idle_sets(monkeypatch):
    """Record, per RK stage and in order, the rank's grid, whether it was a
    first stage, the inactive set the stage used and the one a scan of
    every species would have found (``slow_tendencies`` called again
    without the earlier stage's set)."""
    import repro.core.rk3 as rk3

    seen = []
    slow = rk3.slow_tendencies

    def recorded(*args):
        forcing, q_tend = slow(*args)
        full = slow(*args[:7])[1]
        seen.append((id(args[0].grid), args[7] is None,
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
    """``SlowForcing.fx_s`` / ``fy_s`` are the stage state's own ``rhou`` /
    ``rhov``, not copies: nothing writes them from the slow tendencies to
    the end of the stage (substeps, exchanges and ``finish`` included)."""
    import repro.core.rk3 as rk3

    slow, init, finish = (rk3.slow_tendencies, AcousticStepper.__init__,
                          AcousticStepper.finish)
    stages = []

    def aliased(state, *args):
        forcing, q_tend = slow(state, *args)
        assert forcing.fx_s is state.rhou and forcing.fy_s is state.rhov
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
    Experiment(spec).prepare().run()
    ranks = 4 if spec.ranks else 1
    assert stages == [True] * (3 * spec.steps * ranks)


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
    """Two runs prepared, and stepped once, in one thread (so each
    integrator's binding holds that thread's scratch), then stepped side by
    side in two threads: each thread binds its own scratch, and both give
    their serial bytes."""
    specs = [RunSpec("warm-bubble", nx=16, ny=16, nz=8, seed=s)
             for s in (1, 2)]
    serial = [_advanced(spec, 4) for spec in specs]
    exps = [Experiment(spec).prepare() for spec in specs]
    for exp in exps:
        exp.advance(1)
    bound = [exp.model.integrator.binding for exp in exps]
    assert bound[0].scratch is bound[1].scratch     # the one thread's
    threaded = _side_by_side(*(
        (lambda exp=exp: _advanced(None, 3, exp)) for exp in exps))
    assert threaded == serial
    rebound = [exp.model.integrator.binding for exp in exps]
    assert rebound[0].scratch is not rebound[1].scratch
    assert bound[0].scratch not in (rebound[0].scratch, rebound[1].scratch)


def test_one_integrator_stepped_from_two_threads_in_turn():
    """A run advanced one step at a time, alternately by two threads,
    rebinds on every switch and gives its serial bytes."""
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
                done.put(exp.model.integrator.binding.scratch)
            except BaseException as exc:  # reported by the assertion below
                done.put(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    try:
        scratch = []
        for step in range(4):
            inbox[step % 2].put(True)
            scratch.append(done.get(timeout=300))
    finally:
        for box in inbox:
            box.put(False)
        for t in threads:
            t.join(timeout=60)
    assert _advanced(None, 0, exp) == serial
    assert scratch[0] is scratch[2] and scratch[1] is scratch[3]
    assert scratch[0] is not scratch[1]


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
        assert native.kernels(np.float64) is None


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
@pytest.mark.parametrize("width", ["f64", "f32"])
def test_the_self_check_reaches_the_advection_of_both_widths(width,
                                                             monkeypatch):
    """No run has float32 grid metrics yet, so the load-time battery is
    the float32 advection's only traffic: it must be on it."""
    from repro.stencil import dycore

    assert dycore.native_check(LIB) == ""
    monkeypatch.setattr(getattr(LIB, width), "advect", lambda *a: None)
    assert dycore.native_check(LIB) == f"advect_scalar_float{width[1:]}"


@needs_library
def test_a_source_that_does_not_compile_is_build_failed(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = native.read_sources()
    sources["acoustic.c"] += "\nthis is not C\n"
    lib = native.load(sources)
    assert lib.state == "build-failed" and "error" in lib.detail
    assert os.listdir(tmp_path / "repro-asuca") == []      # no leftovers


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
    ex = StencilExecutor("fused")
    s = ex.stats()
    assert {"dispatches", "accelerated", "fallbacks", "allocations",
            "reuses"} <= set(s)
    assert s["native"]["state"] == LIB.state in native.STATES
    assert set(s["native"]) == {"state", "detail", "hash", "clones", "build_s",
                                "unbound"}
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
