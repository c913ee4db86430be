"""Byte identity of the planned kernels, on generated inputs.

``np.array_equal`` calls -0.0 and +0.0 equal; the planned bodies promise
more — the same *bytes* as their textbook oracles in ``repro.core`` — so
everything here compares ``tobytes()``.  Inputs are drawn to hit what a
select-first, flat, slab-blocked body could get wrong: extents that are
not a multiple of the slab, slabs of one row (every carried face row
exercised), the ``nz = 4`` minimum, all three axes, both float widths,
non-contiguous inputs, constant fields (``sign(0)``), signed zeros in
field and flux, and single-signed fluxes.

NaN/inf inputs must give non-finite output at the same positions and the
same bytes everywhere else; NaN *payload* bits are exempt (IEEE leaves
them to the implementation, and a blend before the arithmetic may
propagate a different operand's payload than a select after it).

System level: the default (``auto``) backend equals ``reference`` after
three steps on four workloads and three execution backends.
"""
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.stencil.plan as plan_mod
from repro.api import Experiment, RunSpec
from repro.core import advection as adv
from repro.core.grid import make_grid
from repro.core.helmholtz import HelmholtzOperator, helmholtz_solve
from repro.core.limiter import minmod
from repro.stencil import StencilExecutor, load_dycore_specs, use_executor
from repro.stencil.plan import Plan, PlanCache
from repro.stencil.spec import FUSED_IMPLS

load_dycore_specs()
_ORACLE = StencilExecutor("reference")
SETTINGS = settings(max_examples=60, deadline=None)

#: how a field or a flux is filled
KINDS = ("normal", "constant", "signed_zeros", "positive", "negative",
         "plateaus")
#: slab sizes in bytes: one-row slabs, a few rows, the production block
BLOCKS = (1, 2048, plan_mod.BLOCK_BYTES)


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


@contextmanager
def _block(nbytes):
    old, plan_mod.BLOCK_BYTES = plan_mod.BLOCK_BYTES, nbytes
    try:
        yield
    finally:
        plan_mod.BLOCK_BYTES = old


def _planned(name, block, *args):
    """The planned body on a private plan cache with ``block``-byte
    slabs; checks the arena bound and that the result escapes it."""
    cache = PlanCache()
    with _block(block):
        out = FUSED_IMPLS[name](cache, *args)
        if out is not NotImplemented:
            for (shape, dtype), pl in cache.items.items():
                assert pl.arena.nbytes <= Plan.arena_bound(shape, dtype)
                assert not np.shares_memory(out, pl.arena), name
    return out


def _oracle(sf, *args):
    with use_executor(_ORACLE):
        return sf.reference(*args)


def _same_bytes(name, got, want):
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes(), name


# ------------------------------------------------------ limited_face_flux
@SETTINGS
@given(n0=st.integers(4, 13), n1=st.integers(4, 11), n2=st.integers(4, 9),
       axis=st.sampled_from([0, 1, 2, -1]),
       dtype=st.sampled_from([np.float32, np.float64]),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       block=st.sampled_from(BLOCKS), strided=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_limited_face_flux_bytes(n0, n1, n2, axis, dtype, kinds, block,
                                 strided, seed):
    rng = np.random.default_rng(seed)
    shape = [n0, n1, n2]
    phi = _fill(rng, kinds[0], shape, dtype)
    shape[axis] -= 1
    flux = _fill(rng, kinds[1], shape, dtype)
    if strided:
        phi, flux = _strided(phi), _strided(flux)
    _same_bytes("limited_face_flux",
                _planned("limited_face_flux", block, phi, flux, axis),
                _oracle(adv.limited_face_flux, phi, flux, axis))


@SETTINGS
@given(axis=st.sampled_from([0, 1, 2]), bad=st.sampled_from(
           [np.nan, np.inf, -np.inf]),
       where=st.sampled_from(["phi", "flux"]), seed=st.integers(0, 2 ** 16))
def test_nonfinite_inputs_stay_in_place(axis, bad, where, seed):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(9, 8, 7))
    shape = [9, 8, 7]
    shape[axis] -= 1
    flux = rng.normal(size=shape)
    target = phi if where == "phi" else flux
    target.flat[rng.integers(0, target.size, size=5)] = bad
    with np.errstate(all="ignore"):
        got = _planned("limited_face_flux", 2048, phi, flux, axis)
        want = _oracle(adv.limited_face_flux, phi, flux, axis)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    # infinities keep their sign; only NaN payloads are exempt
    _same_bytes("nonfinite", np.where(np.isnan(got), 0.0, got),
                np.where(np.isnan(want), 0.0, want))


# ---------------------------------------------------------------- advect_*
_FIELD_SHAPE = {"advect_scalar": "shape_c", "advect_u": "shape_u",
                "advect_v": "shape_v", "advect_w": "shape_w"}


def _advect_case(rng, nx, ny, nz, halo, kinds, dtype=np.float64):
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=100.0, dy=130.0, ztop=90.0 * nz,
                  halo=halo)
    fx, fy, fz = (_fill(rng, kinds[1], s, dtype)
                  for s in (g.shape_u, g.shape_v, g.shape_w))
    return g, fx, fy, fz


@SETTINGS
@given(nx=st.integers(3, 11), ny=st.integers(1, 9), nz=st.integers(4, 9),
       halo=st.sampled_from([2, 3]), name=st.sampled_from(sorted(_FIELD_SHAPE)),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       block=st.sampled_from(BLOCKS), strided=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_advect_bytes(nx, ny, nz, halo, name, kinds, block, strided, seed):
    rng = np.random.default_rng(seed)
    g, fx, fy, fz = _advect_case(rng, nx, ny, nz, halo, kinds)
    phi = _fill(rng, kinds[0], getattr(g, _FIELD_SHAPE[name]), np.float64)
    if strided:
        phi, fz = _strided(phi), _strided(fz)
    sf = getattr(adv, name)
    _same_bytes(name, _planned(name, block, phi, fx, fy, fz, g),
                _oracle(sf, phi, fx, fy, fz, g))


def test_planned_kernels_decline_what_they_do_not_cover():
    """Non-Koren limiters, mixed dtypes, ndarray subclasses and nz < 4
    fall back to the oracle (``NotImplemented``), never to a guess."""
    rng = np.random.default_rng(0)
    g, fx, fy, fz = _advect_case(rng, 6, 5, 5, 2, ("normal", "normal"))
    phi = rng.normal(size=g.shape_c)
    run = FUSED_IMPLS["advect_scalar"]
    cache = PlanCache()
    assert run(cache, phi, fx, fy, fz, g) is not NotImplemented
    assert run(cache, phi, fx, fy, fz, g, limiter=minmod) is NotImplemented
    # float32 fields against the float64 grid metrics are a mixed call
    f32 = [a.astype(np.float32) for a in (phi, fx, fy, fz)]
    assert run(cache, *f32, g) is NotImplemented
    assert run(cache, phi.astype(np.float32), fx, fy, fz, g) is NotImplemented

    class Sub(np.ndarray):
        pass

    assert run(cache, phi.view(Sub), fx, fy, fz, g) is NotImplemented
    lff = FUSED_IMPLS["limited_face_flux"]
    assert lff(cache, phi.view(Sub), fx[1:-1], 0) is NotImplemented
    assert lff(cache, phi[..., :3], fz[..., 1:3], 2) is NotImplemented
    assert lff(cache, phi[0], fx[0, 1:], 0) is NotImplemented       # 2-D
    g3, fx3, fy3, fz3 = _advect_case(rng, 6, 5, 3, 2, ("normal", "normal"))
    assert run(cache, rng.normal(size=g3.shape_c), fx3, fy3, fz3,
               g3) is NotImplemented


# --------------------------------------------------------- helmholtz_solve
@SETTINGS
@given(nx=st.integers(2, 12), ny=st.integers(1, 9), nz=st.integers(4, 12),
       kind=st.sampled_from(KINDS), block=st.sampled_from(BLOCKS),
       strided=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_helmholtz_solve_bytes(nx, ny, nz, kind, block, strided, seed):
    from repro.core.pressure import eos_pressure, linearization_coefficient

    rng = np.random.default_rng(seed)
    g = make_grid(nx=nx, ny=ny, nz=nz, dx=100.0, dy=100.0, ztop=100.0 * nz)
    rt = np.abs(rng.normal(size=g.shape_c)) * 30.0 + 250.0
    thf = np.abs(rng.normal(size=g.shape_w)) + 280.0
    op = HelmholtzOperator(
        g, thf, linearization_coefficient(_oracle(eos_pressure, rt, g), rt),
        dtau=0.05, beta=0.6)
    for _ in range(2):                      # the second solve reuses factors
        rhs = _fill(rng, kind, (g.nxh, g.nyh, nz - 1), np.float64)
        if strided:
            rhs = _strided(rhs)
        _same_bytes("helmholtz_solve",
                    _planned("helmholtz_solve", block, op, rhs),
                    _oracle(helmholtz_solve, op, rhs))


# ------------------------------------------------------------ system level
_CASES = {
    "warm-bubble": {},
    "real-case": {},            # terrain branch of the acoustic substep
    "vortex": {},
    "shear-layer": {"ice": True},
}


def _run(workload, stencil_backend, **kw):
    spec = RunSpec(workload=workload, steps=3, nx=16, ny=16, nz=8,
                   stencil_backend=stencil_backend, **_CASES[workload], **kw)
    return Experiment(spec).prepare().run().state


def _fields(state, interior=False):
    g = state.grid
    sl = (slice(g.halo, g.halo + g.nx), slice(g.halo, g.halo + g.ny))
    return {n: np.ascontiguousarray(state.get(n)[sl] if interior
                                    else state.get(n)).tobytes()
            for n in state.prognostic_names()}


@pytest.mark.parametrize("workload", sorted(_CASES))
def test_auto_equals_reference_on_every_backend(workload):
    ref = _run(workload, "reference")
    for backend in ("cpu", "gpu"):
        assert _fields(_run(workload, "auto", backend=backend)) == \
            _fields(ref), (workload, backend)
    # a gathered state's halos are refilled, not computed
    decomposed = _run(workload, "auto", backend="multigpu", ranks=(2, 2))
    assert _fields(decomposed, interior=True) == _fields(ref, interior=True)


def test_two_threads_equal_their_serial_runs():
    """The plan arenas and the acoustic scratch are per thread: two runs
    advanced side by side do not compute in each other's temporaries
    (they did: a non-finite ``rho``, or finite garbage)."""
    specs = [RunSpec("vortex", nx=24, ny=24, nz=12, steps=5, seed=s)
             for s in (1, 2)]
    serial = [_fields(Experiment(spec).prepare().run().state)
              for spec in specs]
    threaded: list = [None, None]

    def work(i):
        try:
            threaded[i] = _fields(Experiment(specs[i]).prepare().run().state)
        except BaseException as exc:     # reported by the assertion below
            threaded[i] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial
