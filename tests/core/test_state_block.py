"""One block per State: the layout, the ``set`` and ``validate``
contracts, what a warm long step allocates and binds, and that what a
caller holds is never written again.  Runs with and without a compiler
(``CC=/bin/false``); the allocation count is gated only with one."""
import contextlib
import ctypes
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.api import Experiment, RunSpec
from repro.core import program
from repro.core.grid import make_grid
from repro.core.state import (
    LayoutError,
    NumericalBlowup,
    State,
    layout,
    zeros_state,
)
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.ensemble import runner as ensemble_runner
from repro.serve import ForecastService, GpuFleet, JobState, Submission
from repro.stencil import native

COMPILED = native.library().state == "loaded"
SERVE_16 = RunSpec("warm-bubble", nx=16, ny=16, nz=8)
DECOMP_2X2 = RunSpec("real-case", nx=32, ny=32, nz=16, backend="multigpu",
                     ranks=(2, 2), seed=1)


def _states(exp) -> list:
    return exp.rank_states if exp.rank_states is not None else [exp.state]


def _bytes(st: State) -> bytes:
    precip = b"" if st.precip_accum is None else st.precip_accum.tobytes()
    return st.block.tobytes() + precip


# ------------------------------------------------------------ the layout
def test_fields_are_views_of_one_block_at_the_layout_offsets():
    g = make_grid(5, 4, 3, 100.0, 100.0, 300.0)
    st = zeros_state(g, species=("qv", "qc"))
    assert st.layout is layout(g, ("qv", "qc"))
    assert st.layout is not layout(g, ("qc", "qv"))
    assert st.layout.names == ("rho", "rhou", "rhov", "rhow", "rhotheta",
                               "qv", "qc")
    for name, offset, shape in zip(st.layout.names, st.layout.offsets,
                                   st.layout.shapes):
        a = st.get(name)
        assert type(a) is np.ndarray and a.flags.c_contiguous
        assert a.shape == shape and a.base is st.block
        assert a.ctypes.data == st.address + 8 * offset
    assert st.pointers() == [st.address + 8 * o for o in
                             st.layout.offsets[:-1]]
    # a copy is one block copy; assign refills a state of the same layout
    st.rho[...] = 2.0
    st.precip_accum = np.ones((g.nx, g.ny))
    cp = st.copy()
    assert cp.block is not st.block and _bytes(cp) == _bytes(st)
    other = zeros_state(g, species=("qv", "qc"))
    assert other.assign(st) is other and _bytes(other) == _bytes(st)
    with pytest.raises(LayoutError):
        zeros_state(g).assign(st)


def test_set_writes_into_the_view_and_never_rebinds():
    g = make_grid(4, 3, 3, 100.0, 100.0, 300.0)
    st = zeros_state(g, species=("qv",))
    views = [st.get(n) for n in st.prognostic_names()]
    st.set("rhou", np.full(g.shape_u, 3.0))
    st.rhotheta = np.full(g.shape_c, 4.0)
    st.q["qv"] = np.full(g.shape_c, 5.0)
    assert [st.get(n) for n in st.prognostic_names()] == views
    assert (st.rhou == 3.0).all() and (st.rhotheta == 4.0).all()
    assert (st.q["qv"] == 5.0).all()
    for name, value in (("rho", np.zeros(g.shape_u)),        # shape
                        ("rhow", np.zeros(g.shape_w, np.float32)),  # dtype
                        ("rhov", 1.0),                        # not an array
                        ("qr", np.zeros(g.shape_c))):         # not a field
        with pytest.raises(LayoutError, match=name):
            st.set(name, value)
    with pytest.raises(LayoutError):
        st.q["qr"] = np.zeros(g.shape_c)
    assert [st.get(n) for n in st.prognostic_names()] == views
    # a wrapper of the field's own bytes (the FLOP counter's) is held as
    # it is; the state is then no compiled body's
    wrapped = st.rho.view(type("Wrapper", (np.ndarray,), {}))
    st.set("rho", wrapped)
    assert st.rho is wrapped
    assert str(st.pointers()) == "unbound: rho a Wrapper"


# -------------------------------------------------------------- validate
def _valid_state():
    exp = Experiment(RunSpec("warm-bubble", nx=8, ny=8, nz=6)).prepare()
    return exp.state.copy()


def test_validate_passes_nan_in_a_halo_only():
    st = _valid_state()
    st.rhotheta[0, 0, 0] = np.nan
    st.q["qr"][-1, 2, 1] = -np.inf
    st.validate(step=7)


def test_the_oracle_check_passes_a_halo_nan_and_names_an_interior_one():
    """Without a library the NumPy check decides alone (with one, the
    compiled row decides and the NumPy names the field: the tests above)."""
    st = _valid_state()
    h = st.grid.halo
    st.rhotheta[0, 0, 0] = np.nan
    with native.using(None):
        st.validate(step=7)
        st.q["qc"][h, h + 1, 2] = np.inf
        with pytest.raises(NumericalBlowup) as err:
            st.validate(step=7)
    assert err.value.field == "qc"


@pytest.mark.parametrize("name", ["rhov", "qc"])
def test_validate_names_the_field_of_an_interior_nan(name):
    st = _valid_state()
    st.time = 12.5
    h = st.grid.halo
    st.rhou[0, 0, 0] = np.nan                   # a halo: not the culprit
    st.get(name)[h + 1, h + 2, 1] = np.nan
    with pytest.raises(NumericalBlowup) as err:
        st.validate(step=3)
    assert (err.value.field, err.value.time, err.value.step) == (
        name, 12.5, 3)
    assert f"non-finite values in {name!r}" in str(err.value)


def test_validate_still_catches_non_positive_density():
    st = _valid_state()
    h = st.grid.halo
    st.rho[h, h, 0] = 0.0
    with pytest.raises(NumericalBlowup, match="density") as err:
        st.validate()
    assert err.value.field == "rho"


# ------------------------------------------- allocations of a warm step
# NumPy data allocations of >= 1 KiB, counted by a ``PyDataMem`` handler
# that forwards to libc, installed through the C API's
# ``PyDataMem_SetHandler`` (slot 304 of its table) for the length of a
# ``with _allocations()``.  An array keeps the handler that allocated it,
# so the handler and its callbacks live as long as the module.
# (``tracemalloc`` records NumPy's blocks in ``np.lib.tracemalloc_domain``
# but only while they are alive: it tells what outlives a step, not what a
# step allocated.)
_V, _N = ctypes.c_void_p, ctypes.c_size_t
_LIBC = ctypes.CDLL(None)
for _fn, _args in (("malloc", [_N]), ("calloc", [_N, _N]),
                   ("realloc", [_V, _N]), ("free", [_V])):
    getattr(_LIBC, _fn).restype = None if _fn == "free" else _V
    getattr(_LIBC, _fn).argtypes = _args
_SIZES: list = []
_ON = [False]


def _note(n: int) -> None:
    if _ON[0] and n >= 1024:
        _SIZES.append(n)


# libc's functions are bound as defaults: an array this handler allocated
# may be freed at interpreter exit, after the module's globals are gone
_CALLBACKS = (
    ctypes.CFUNCTYPE(_V, _V, _N)(
        lambda _, n, f=_LIBC.malloc: (_note(n), f(n))[1]),
    ctypes.CFUNCTYPE(_V, _V, _N, _N)(
        lambda _, k, n, f=_LIBC.calloc: (_note(k * n), f(k, n))[1]),
    ctypes.CFUNCTYPE(_V, _V, _V, _N)(
        lambda _, p, n, f=_LIBC.realloc: (_note(n), f(p, n))[1]),
    ctypes.CFUNCTYPE(None, _V, _V, _N)(lambda _, p, n, f=_LIBC.free: f(p)))


class _Handler(ctypes.Structure):
    """``PyDataMem_Handler``: a name, a version, the allocator's context
    and its four functions."""

    _fields_ = [("name", ctypes.c_char * 127), ("version", ctypes.c_uint8),
                *((f, _V) for f in ("ctx", "malloc", "calloc", "realloc",
                                    "free"))]


_HANDLER = _Handler(b"repro-count", 1, None,
                    *(ctypes.cast(f, _V) for f in _CALLBACKS))
_TAG = ctypes.create_string_buffer(b"mem_handler")
_new = ctypes.PYFUNCTYPE(ctypes.py_object, _V, _V, _V)(
    ("PyCapsule_New", ctypes.pythonapi))
_get = ctypes.PYFUNCTYPE(_V, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_CAPSULE = _new(ctypes.addressof(_HANDLER), ctypes.addressof(_TAG), None)
_SET_HANDLER = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.py_object)(
    ctypes.cast(_get(np._core._multiarray_umath._ARRAY_API, None),
                ctypes.POINTER(_V))[304])


@contextlib.contextmanager
def _allocations():
    old = _SET_HANDLER(_CAPSULE)
    assert np._core.multiarray.get_handler_name() == "repro-count"
    _SIZES.clear()
    _ON[0] = True
    try:
        yield _SIZES
    finally:
        _ON[0] = False
        _SET_HANDLER(old)


@pytest.mark.parametrize("spec, tiles", [
    (SERVE_16, None), (DECOMP_2X2, None),
    (RunSpec("warm-bubble", nx=48, ny=48, nz=24, backend="cpu", seed=3),
     (2, 1))], ids=["single-domain", "2x2", "tiled"])
def test_a_warm_long_step_allocates_one_block_a_rank(spec, tiles,
                                                    monkeypatch, capsys):
    """With a compiler a warm long step, a replayed one (the whole step,
    its warm rain and relaxation too, one call of the recorded program,
    whose stamps are preallocated), makes one NumPy allocation of >= 1 KiB
    a rank (a host tile of a tiled run too), its base block (the step's
    only NumPy block still alive after it: the integrator keeps it as a
    stage state and returns the block it replaces), and calls neither
    ``native.pointers`` nor ``State.copy``.  Without one the oracles
    allocate: the count is reported, not gated."""
    with monkeypatch.context() as m:
        m.setattr(program, "host_tiles", lambda grid: tiles)
        exp = Experiment(spec).prepare()
    assert exp.model.config.physics_enabled
    exp.advance(2)
    calls = Counter()
    for owner, name in ((native, "pointers"), (State, "copy")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _n=name, _f=fn, **k: (
            calls.update([_n]), _f(*a, **k))[1])
    ranks = len(exp._states)
    replayed = native.PROGRAMS["replayed"]
    tracemalloc.start()
    try:
        with _allocations() as sizes:
            exp.advance(1)
        kept = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    # the measured step replays the program its first step recorded
    assert native.PROGRAMS["replayed"] - replayed == int(COMPILED)
    blocks = sorted(st.block.nbytes for st in exp._states)
    if not COMPILED:
        with capsys.disabled():
            print(f"\n[no compiler] a warm {spec.workload} long step: "
                  f"{len(sizes)} NumPy allocations >= 1 KiB for {ranks} "
                  f"rank(s)")
        return
    assert len(sizes) <= ranks, sizes
    assert sorted(t.size for t in kept.traces if t.size >= 1024) == blocks
    assert calls == Counter()


# ------------------------------------------------- no silent fallback
@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
@pytest.mark.parametrize("spec", [
    RunSpec("warm-bubble", nx=48, ny=48, nz=24, backend="cpu", seed=3),
    RunSpec("real-case", nx=32, ny=32, nz=16, backend="multigpu",
            ranks=(2, 2), metrics=True, seed=3),
    SERVE_16,
    RunSpec("vortex", nx=24, ny=24, nz=12, seed=3),
], ids=["dycore_cpu", "decomp_2x2", "serve_16x16x8", "ensemble_vortex"])
def test_warm_steps_decline_nothing(spec):
    """The benchmark's specs, a library loaded: warm steps count no
    ``native.Unbound`` (every compiled body took its call), the first
    step records a program and the next two replay it (no ``programs``
    decline, and the generator runs one window, the recording one: no
    later step builds a context), and every field stays an exact
    C-contiguous float64 view of its state's block."""
    first = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    exp = Experiment(spec).prepare()
    exp.advance(1)
    before = Counter(native.UNBOUND)
    exp.advance(2)
    assert native.UNBOUND - before == Counter()
    assert not any(body == "programs"
                   for body, _ in native.UNBOUND - first[0])
    programs = Counter(native.PROGRAMS) - first[1]
    assert (programs["recorded"], programs["replayed"]) == (1, 2)
    assert programs["generator"] == 1
    for st in _states(exp):
        assert isinstance(st.pointers(), list)
        for name in st.prognostic_names():
            a = st.get(name)
            assert type(a) is np.ndarray and a.dtype == np.float64
            assert a.flags.c_contiguous and a.base is st.block


# ----------------------------------------------- what a caller holds
@pytest.mark.parametrize("spec", [SERVE_16, DECOMP_2X2],
                         ids=["state", "rank_states"])
def test_a_held_state_is_never_written_again(spec):
    """``Experiment.state`` / ``rank_states`` held across later
    ``advance`` calls keep their bytes: every step returns a block of its
    own, and the integrator's stage states are never handed out."""
    exp = Experiment(spec).prepare()
    exp.advance(1)
    held = list(_states(exp))
    snapshot = [_bytes(st) for st in held]
    replayed = native.PROGRAMS["replayed"]
    exp.advance(3)
    assert native.PROGRAMS["replayed"] - replayed == 3 * COMPILED
    assert all(a is not b for a, b in zip(held, _states(exp)))
    assert [_bytes(st) for st in held] == snapshot


def test_results_cache_hits_and_contributions_keep_their_bytes(monkeypatch):
    """A ``RunResult.state``, a ``ResultCache`` hit and an ensemble
    member's contribution keep their bytes across later jobs on the same
    thread (each job records a program and replays its later steps), and
    a finished member holds no program."""
    first = Experiment(SERVE_16).prepare().run()
    kept = _bytes(first.state)
    Experiment(RunSpec("warm-bubble", nx=16, ny=16, nz=8, seed=5)
               ).prepare().run()
    assert _bytes(first.state) == kept

    svc = ForecastService(GpuFleet(2), policy="fifo")
    spec = RunSpec("warm-bubble", nx=16, ny=16, nz=8, steps=2)
    svc.run([Submission(0.0, spec), Submission(50.0, spec),
             Submission(60.0, RunSpec("vortex", nx=16, ny=16, nz=8,
                                      steps=2))])
    original, hit, _ = svc.jobs
    assert hit.state is JobState.CACHED
    assert _bytes(hit.result.state) == _bytes(original.result.state)
    Experiment(spec).prepare().run()
    assert _bytes(hit.result.state) == _bytes(
        Experiment(spec).prepare().run().state)

    held = []
    contribution = ensemble_runner.member_contribution

    def keep(result, member):
        c = contribution(result, member)
        held.append((c, {k: v.copy() for k, v in c.fields.items()}))
        return c

    finished = []
    finish = Experiment._finish

    def finishing(self, wall):
        finished.append(self)
        return finish(self, wall)

    monkeypatch.setattr(ensemble_runner, "member_contribution", keep)
    monkeypatch.setattr(Experiment, "_finish", finishing)
    replayed = native.PROGRAMS["replayed"]
    EnsembleRunner(EnsembleSpec(base=RunSpec("vortex", nx=16, ny=16, nz=8,
                                             steps=2), members=3, seed=1),
                   fleet=2).run()
    assert native.PROGRAMS["replayed"] - replayed == 3 * COMPILED
    assert len(finished) == 3
    assert all(exp.model.integrator.program is None for exp in finished)
    assert len(held) == 3
    for c, fields in held:
        assert all(np.array_equal(c.fields[k], v) for k, v in fields.items())
