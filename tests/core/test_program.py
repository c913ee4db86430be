"""A captured long step (repro.core.program): a replayed window equals the
generator it was recorded from, byte for byte and count for count, on a
team of threads as on one; an aborted replay credits nothing and reruns
the generator; what the key or the driver excludes declines, counted once
a step.  Runs with and without a compiler (``CC=/bin/false``): without one
nothing is recorded and the generator runs every step."""
import ctypes
import gc
import os
import threading
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Experiment, RunSpec
from repro.core import acoustic, program, rk3
from repro.core.advection import advect_scalar
from repro.core.boundary import RelaxationBC, fill_halos_state
from repro.core.grid import bell_mountain, make_grid
from repro.core.limiter import koren
from repro.core.model import AsucaModel, ModelConfig
from repro.core.reference import make_reference_state
from repro.core.rk3 import DynamicsConfig
from repro.core.state import NumericalBlowup
from repro.dist.multigpu import MultiGpuAsuca
from repro.obs.trace import CAPTURE, TraceSession, use_session
from repro.resilience.faults import FaultInjector, FaultPlan, RankCrash
from repro.stencil import native
from repro.stencil.executor import StencilExecutor, use_executor
from repro.workloads.icnoise import apply_ic_noise
from repro.workloads.sounding import tropospheric_sounding

COMPILED = native.library().state == "loaded"
STEPS = 4           # the recording step and three replays


def _build(ranks=(1, 1), periodic=(True, True), halo=3, moist=True,
           sponge=True, coriolis=True, terrain=True, n=(5, 4, 6), seed=0,
           dtype=np.float64, faults=None, **dynamics):
    """A fresh driver and its initial rank states."""
    (px, py), (nx, ny, nz) = ranks, n
    grid = make_grid(nx * px, ny * py, nz, 1000.0, 1000.0, 8000.0, halo=halo,
                     periodic_x=periodic[0], periodic_y=periodic[1],
                     terrain=bell_mountain(300.0, 2000.0, 500.0 * nx * px,
                                           500.0 * ny * py)
                     if terrain else None)
    ref = make_reference_state(grid, tropospheric_sounding())
    config = ModelConfig(
        DynamicsConfig(dt=2.0, ns=4, coriolis_f=1e-4 if coriolis else 0.0,
                       rayleigh_depth=2000.0 if sponge else 0.0, **dynamics),
        physics_enabled=moist)
    relax = None if all(periodic) else RelaxationBC(grid, width=2)
    model = AsucaModel(grid, ref, config, relaxation=relax)
    state = model.initial_state(u0=6.0, v0=-4.0, dtype=dtype)
    apply_ic_noise(state, seed=seed, theta_noise=0.5, wind_noise=1.0)
    if moist:
        state.q["qv"][...] = 0.012 * np.exp(-grid.z3d_c() / 3000.0) * state.rho
        state.q["qc"][...] = 2e-3 * state.rho
    model._exchange(state, None)
    for name in ("rhou", "rhov", "rhotheta") if relax else ():
        relax.set_target(name, state.get(name).copy())
    if (px, py) == (1, 1):
        return model, [state]
    machine = MultiGpuAsuca(grid, ref, px, py, config, relaxation=relax,
                            fault_injector=faults)
    return machine, machine.scatter_state(state)


def _integrators(driver) -> list:
    ranks = driver.ranks if isinstance(driver, MultiGpuAsuca) else [driver]
    return [rank.integrator for rank in ranks]


def _step(driver, states):
    if isinstance(driver, AsucaModel):
        return [driver.step(states[0])]
    return driver.step(states)


def _bytes(states) -> list:
    return [st.block.tobytes() + (b"" if st.precip_accum is None
                                  else st.precip_accum.tobytes())
            for st in states]


def _run(params, steps, traced, generator=False, team=None):
    """Every step's bytes and everything a run counts: executor, declines,
    traffic, programs; with ``traced`` the spans and the message log.
    ``team``: the team size every replay walks on (default: the
    affinity mask's)."""
    driver, states = _build(**params)
    ex = StencilExecutor("fused")
    sess = TraceSession()
    before = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    enter, team_size = program.enter, program.team_size
    if generator:
        program.enter = lambda windows, why: None
    if team is not None:
        program.team_size = lambda ranks: team
    out = []
    try:
        with use_executor(ex), \
                use_session(sess) if traced else nullcontext():
            for _ in range(steps):
                states = _step(driver, states)
                out.append(_bytes(states))
    finally:
        program.enter, program.team_size = enter, team_size
    assert all(s.dur >= 0 for s in sess.spans)
    prog = _integrators(driver)[0].program
    if COMPILED and not generator and team is not None:
        assert prog.team == (team if prog.team_why is None else 1)
    comm = getattr(driver, "comm", None)
    counts = {
        "calls": ex.calls, "accelerated": ex.accelerated,
        "fallbacks": ex.fallbacks, "skipped": ex.skipped,
        "inactive": ex.inactive,
        "unbound": Counter(native.UNBOUND) - before[0],
        "traffic": comm and (comm.stats.messages, comm.stats.bytes_total,
                             dict(comm.stats.by_pair)),
    }
    events = traced and (
        [(s.name, s.cat, s.pid, s.tid, s.args) for s in sess.spans],
        comm and [(r.seq, r.src, r.dst, r.tag, r.nbytes,
                   r.t_collect is None) for r in comm.message_log])
    return out, counts, events, Counter(native.PROGRAMS) - before[1]


@settings(max_examples=14, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ranks=st.sampled_from([(1, 1), (2, 2), (3, 1)]),
       periodic=st.sampled_from([(True, True), (False, False),
                                 (True, False)]),
       halo=st.sampled_from([2, 3]), moist=st.booleans(),
       sponge=st.booleans(), coriolis=st.booleans(), terrain=st.booleans(),
       n=st.tuples(st.integers(3, 6), st.integers(3, 5), st.integers(4, 7)),
       seed=st.integers(0, 2 ** 16), traced=st.booleans())
def test_replay_equals_the_generator(ranks, periodic, halo, moist, sponge,
                                     coriolis, terrain, n, seed, traced):
    """Three replays after the recording step: every block byte, every
    count, the traffic and (traced) every span and message, as the
    generator makes them."""
    n = (max(n[0], halo), max(n[1], halo), n[2])
    params = dict(ranks=ranks, periodic=periodic, halo=halo, moist=moist,
                  sponge=sponge, coriolis=coriolis, terrain=terrain, n=n,
                  seed=seed)
    got, counts, events, programs = _run(params, STEPS, traced)
    want, want_counts, want_events, _ = _run(params, STEPS, traced,
                                             generator=True)
    assert got == want
    assert counts == want_counts
    assert events == want_events
    assert not any(body == "programs" for body, _ in counts["unbound"])
    if COMPILED:
        assert programs["recorded"] == 1
        assert programs["replayed"] == STEPS - 1
    else:
        assert programs == Counter()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ranks=st.sampled_from([(2, 2), (3, 1), (1, 2)]),
       periodic=st.sampled_from([(True, True), (False, False)]),
       halo=st.sampled_from([2, 3]), moist=st.booleans(),
       sponge=st.booleans(), team=st.sampled_from([1, 2, 3]),
       n=st.tuples(st.integers(3, 6), st.integers(3, 5), st.integers(4, 6)),
       seed=st.integers(0, 2 ** 16))
def test_a_team_walk_equals_the_serial_walk_and_the_generator(
        ranks, periodic, halo, moist, sponge, team, n, seed):
    """Three replays walked by a team of 1, 2 or 3 threads (more than
    ranks, too): every block byte, every count, the traffic, and the
    spans' names and order, as the one-thread walk and the generator make
    them; no replayed span runs backwards (``_run`` checks every span)."""
    params = dict(ranks=ranks, periodic=periodic, halo=halo, moist=moist,
                  sponge=sponge, n=(max(n[0], halo), max(n[1], halo), n[2]),
                  seed=seed)
    runs = [_run(params, STEPS, True, team=team),
            _run(params, STEPS, True, team=1),
            _run(params, STEPS, True, generator=True)]
    for got, counts, events, _ in runs[1:]:
        assert got == runs[0][0]
        assert counts == runs[0][1]
        assert events == runs[0][2]
    if COMPILED:
        assert runs[0][3]["replayed"] == STEPS - 1


@pytest.mark.parametrize("spec", [
    RunSpec("warm-bubble", nx=12, ny=10, nz=6, steps=STEPS),
    RunSpec("mountain-wave", nx=12, ny=8, nz=8, steps=STEPS),
    RunSpec("shear-layer", nx=16, ny=4, nz=8, steps=STEPS),
    RunSpec("vortex", nx=12, ny=12, nz=6, steps=STEPS),
    RunSpec("real-case", nx=16, ny=16, nz=8, steps=STEPS,
            backend="multigpu", ranks=(2, 2), metrics=True),
], ids=lambda s: s.workload)
def test_every_workload_replays_its_generator(spec, monkeypatch):
    """The named workloads end to end: the returned state's bytes equal a
    run on the generator alone."""
    before = Counter(native.PROGRAMS)
    got = Experiment(spec).prepare().run().state
    replayed = Counter(native.PROGRAMS) - before
    monkeypatch.setattr(program, "enter", lambda windows, why: None)
    want = Experiment(spec).prepare().run().state
    assert _bytes([got]) == _bytes([want])
    assert replayed["replayed"] == (STEPS - 1 if COMPILED else 0)


def test_a_wrapper_that_resumes_with_next_keeps_the_replay(monkeypatch):
    """A tracer may wrap the long step in a generator of its own that
    resumes it with ``next``: the window's outcome travels on the window,
    so the replay still stands for the stages."""
    from repro.core.rk3 import Rk3Integrator

    phases = Rk3Integrator.step_phases

    def wrapped(self, state):
        gen = phases(self, state)
        try:
            while True:
                yield next(gen)
        except StopIteration as stop:
            return stop.value

    want, want_counts, _, _ = _run({}, STEPS, False, generator=True)
    monkeypatch.setattr(Rk3Integrator, "step_phases", wrapped)
    got, counts, _, programs = _run({}, STEPS, False)
    assert got == want and counts == want_counts
    assert programs["replayed"] == (STEPS - 1 if COMPILED else 0)


def test_every_window_entry_reports_its_calls(monkeypatch):
    """The recording is behind ``native``: every compiled entry a window
    calls is a :class:`native.Recorded`, so a call site cannot forget
    to record: the entry names the recorder keeps are the library's
    recorded entries."""
    lib = native.kernels()
    if lib is None:
        assert not COMPILED
        return
    recorded = {e.name for e in vars(lib).values()
                if isinstance(e, native.Recorded)}
    *_, rec = _recorded(monkeypatch)
    assert {name for name, _, _ in rec.rows} == recorded
    assert not isinstance(lib.run_program, native.Recorded)


def test_every_recorded_entry_takes_one_struct_and_returns_int():
    """A row is ``int entry(void *)``: every recorded entry's ctypes
    function takes one pointer and returns a C int."""
    lib = native.kernels()
    if lib is None:
        assert not COMPILED
        return
    entries = [e for e in vars(lib).values() if isinstance(e, native.Recorded)]
    assert len(entries) == 6
    for e in entries:
        assert e.fn.argtypes == (ctypes.c_void_p,), e.name
        assert e.fn.restype is ctypes.c_int, e.name


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_every_row_address_is_a_recorded_entry(monkeypatch):
    """A row stores its entry's function address: one of the loaded
    library's recorded entries, the one its name says."""
    lib = native.kernels()
    *_, prog, rec = _recorded(monkeypatch)
    entries = {e.name: e.address for e in vars(lib).values()
               if isinstance(e, native.Recorded)}
    assert [address for _, address, _ in rec.rows] == \
        [entries[name] for name, _, _ in rec.rows]
    assert prog.rows[:, 0].tolist() == [address for _, address, _
                                        in rec.rows]
    assert set(prog.rows[:, 0].tolist()) == set(entries.values())


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
@pytest.mark.parametrize("spec, nrow", [
    (RunSpec("warm-bubble", nx=16, ny=16, nz=8, steps=1), 32),
    (RunSpec("real-case", nx=16, ny=16, nz=8, steps=1, backend="multigpu",
             ranks=(2, 2)), 89)], ids=["1x1", "2x2"])
def test_every_row_is_a_call_the_window_made(spec, nrow, monkeypatch):
    """The recorded rows' entries are, in order, the ``native.Recorded``
    calls the window made, nothing inserted (a stage's copies run inside
    its ``slow_stage`` row); only an exchange point's strip table row
    points into the program's own chunks."""
    made = []
    call = native.Recorded.__call__

    def called(self, *args):
        if CAPTURE.get() is not None:
            made.append(self.name)
        return call(self, *args)

    monkeypatch.setattr(native.Recorded, "__call__", called)
    recorders = []
    init = program.StepProgram.__init__
    monkeypatch.setattr(program.StepProgram, "__init__", lambda self, rec,
                        lib: (recorders.append(rec), init(self, rec, lib))[1])
    exp = Experiment(spec).prepare()
    exp.advance(1)
    (rec,) = recorders
    assert [name for name, _, _ in rec.rows] == made
    assert len(made) == nrow
    assert {name for name, _, chunk in rec.rows
            if chunk.refs} == {"halo_strips"}
    assert all(chunk.refs for name, _, chunk in rec.rows
               if name == "halo_strips")
    exp.run()


def _reach(roots) -> list:
    """Every object reachable from ``roots`` through the package's
    objects, tuples, lists and dicts."""
    seen, todo = {}, list(roots)
    while todo:
        obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("repro."):
            todo.extend(getattr(obj, "__dict__", {}).values())
            todo.extend(getattr(obj, name, None) for cls in type(obj).__mro__
                        for name in getattr(cls, "__slots__", ()))
    return list(seen.values())


def _held(roots) -> list:
    """``(address, end)`` of every array's memory and every ctypes struct
    or array reachable from ``roots``."""
    out = []
    for obj in _reach(roots):
        if isinstance(obj, np.ndarray):
            at = obj.__array_interface__["data"][0]
            out.append((at, at + obj.nbytes))
        elif isinstance(obj, (ctypes.Structure, ctypes.Array)):
            at = ctypes.addressof(obj)
            out.append((at, at + ctypes.sizeof(obj)))
    return out


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
@pytest.mark.parametrize("ranks", [(1, 1), (2, 2)])
def test_every_address_outside_the_blocks_lies_in_what_the_program_keeps(
        ranks, monkeypatch):
    """An address word of the arena that is neither relocated nor the
    program's own lies inside an array or ctypes object reachable from
    the program's ``keep``."""
    recorders = []
    init = program.StepProgram.__init__

    def spied(self, rec, lib):
        recorders.append(rec)
        init(self, rec, lib)

    monkeypatch.setattr(program.StepProgram, "__init__", spied)
    driver, states = _build(ranks=ranks)
    _step(driver, states)
    prog = _integrators(driver)[0].program
    (rec,) = recorders
    relocated = {at // 8 for at in prog.relocs[:, 0].tolist()}
    own = {chunk.at + w for chunk in rec.chunks for w in chunk.refs or ()}
    skip, words = relocated | own, prog.arena.tolist()
    addresses = {words[chunk.at + w] for chunk in rec.chunks
                 for w, m in enumerate(chunk.mask)
                 if m and chunk.at + w not in skip} - {0}
    held = _held(prog.keep)
    assert len(addresses) > 30
    assert [hex(a) for a in sorted(addresses)
            if not any(lo <= a < hi for lo, hi in held)] == []


def _recorded(monkeypatch, team=2, ranks=(2, 2)):
    """A driver stepped once on a team of ``team`` (recording its
    program), the program and its recorder."""
    recorders = []
    init = program.StepProgram.__init__

    def spied(self, rec, lib):
        recorders.append(rec)
        init(self, rec, lib)

    monkeypatch.setattr(program.StepProgram, "__init__", spied)
    monkeypatch.setattr(program, "team_size", lambda ranks: team)
    driver, states = _build(ranks=ranks)
    states = _step(driver, states)
    (rec,) = recorders
    return driver, states, _integrators(driver)[0].program, rec


def _inside(value: int, arrays) -> bool:
    return any(a.ctypes.data <= value < a.ctypes.data + a.nbytes
               for a in arrays)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
@pytest.mark.parametrize("ranks", [(2, 2), (3, 1)])
def test_every_scratch_address_of_a_rank_lies_in_its_own_scratch(
        ranks, monkeypatch):
    """Every address word of rank r's rows that lies in a rank's scratch
    lies in rank r's, its integrator's, which the program keeps: a team
    worker computes in the scratch of the rank whose run it takes."""
    driver, _, prog, rec = _recorded(monkeypatch, ranks=ranks)
    assert prog.team == 2 and prog.team_why is None
    scratch = [it.geom.scratch for it in _integrators(driver)]
    assert len(set(map(id, scratch))) == len(scratch)
    for rank, kept in enumerate(prog.keep):
        assert any(obj is scratch[rank] for obj in kept)
    words = prog.arena.view(np.uint64).tolist()
    found = Counter()
    for *_, chunk in rec.rows:
        for w, m in enumerate(chunk.mask):
            value = words[chunk.at + w]
            if m and chunk.rank >= 0 and any(_inside(value, s.arrays())
                                             for s in scratch):
                assert _inside(value, scratch[chunk.rank].arrays())
                found[chunk.rank] += 1
    assert sorted(found) == list(range(len(scratch)))
    assert min(found.values()) > 50


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_a_cross_rank_address_walks_alone_and_declines_team_once_a_step(
        monkeypatch):
    """A row of rank 1 that points into rank 0's stage state, and one that
    points into rank 0's scratch (each a planted moisture finish of no
    species, which writes nothing): the program walks on a team of 1,
    counting one ``team`` decline a replayed step, and steps as the
    generator does."""
    freeze = program.Recorder.freeze
    want, want_counts, _, _ = _run(dict(ranks=(2, 2)), STEPS, False,
                                   generator=True)
    for into in ("block", "scratch"):
        def planted(self, into=into):
            other = self.integrators[0]
            args = self.lib.moisture_args(nq=0)
            args.q[0] = native.address(other.stage_state.block
                                       if into == "block"
                                       else other.geom.scratch.rhs)
            self.rank = 1
            self.entry(self.lib.moisture, args)
            self.rank = -1
            return freeze(self)

        monkeypatch.setattr(program.Recorder, "freeze", planted)
        got, counts, _, programs = _run(dict(ranks=(2, 2)), STEPS, False,
                                        team=2)
        assert got == want, into
        why = "address of rank 0 in rank 1's row"
        assert counts["unbound"].pop(("team", why)) == STEPS - 1, into
        assert counts == want_counts, into
        assert programs["replayed"] == STEPS - 1, into


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_a_replay_outlives_what_the_integrators_drop():
    """The program keeps what its rows point at: integrators that drop
    their context, their stage and substep bindings and their scratch
    after the recording, the freed memory then reused, replay byte for
    byte as the generator runs, with no decline and no second recording
    (the context row writes the EOS pressure it reads into the kept
    scratch; the warm rain computes in the integrator's new one)."""
    params = dict(ranks=(2, 2))
    want, _, _, _ = _run(params, STEPS, False, generator=True)
    driver, states = _build(**params)
    got, litter = [], []
    before = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    with use_executor(StencilExecutor("fused")):
        for k in range(STEPS):
            states = _step(driver, states)
            got.append(_bytes(states))
            its = _integrators(driver)
            if k == 0:
                for it in its:
                    it.ctx = it.stage = it.binding = it.geom._scratch = None
            else:
                assert all(it.binding is None for it in its)
            gc.collect()
            litter += [np.full(2 ** e, np.nan) for e in range(4, 16)
                       for _ in range(8)]
    assert got == want
    assert Counter(native.UNBOUND) == before[0]
    programs = Counter(native.PROGRAMS) - before[1]
    assert programs["recorded"] == 1
    assert programs["replayed"] == STEPS - 1


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_the_eos_is_inside_the_window(monkeypatch):
    """The context row computes the EOS pressure it reads: after a
    driver's first step no Python EOS runs, and every step, recorded or
    replayed, counts what the generator counts, one ``eos_pressure``
    dispatch a rank included, as the Python EOS counted it."""
    from repro.core.pressure import eos_pressure

    def per_step(generator):
        driver, states = _build(ranks=(2, 2))
        ex, steps = StencilExecutor("fused"), []
        with use_executor(ex), monkeypatch.context() as m:
            if generator:
                m.setattr(program, "enter", lambda windows, why: None)
            for k in range(STEPS):
                before = (Counter(ex.calls), ex.accelerated, ex.fallbacks)
                states = _step(driver, states)
                steps.append((Counter(ex.calls) - before[0],
                              ex.accelerated - before[1],
                              ex.fallbacks - before[2]))
                if k == 0 and not generator:
                    m.setattr(eos_pressure, "reference", lambda *a, **kw:
                              pytest.fail("a Python EOS ran"))
        return steps

    replayed = per_step(False)
    assert replayed == per_step(True)
    assert all(calls["eos_pressure"] == 4 and fallbacks == 0
               for calls, _, fallbacks in replayed)


# ------------------------------------------------------------ aborts
def _aborted(params, rank=0, team=None) -> list:
    """A replay, then a step whose rank ``rank`` holds a flux of 1e308,
    on the program (on a team of ``team``) and on the generator alone:
    each run's raise, bytes, counts, spans and traffic."""
    runs = []
    for generator in (False, True):
        driver, states = _build(**params)
        ex = StencilExecutor("fused")
        sess = TraceSession()
        before = Counter(native.UNBOUND)
        enter, team_size = program.enter, program.team_size
        if generator:
            program.enter = lambda windows, why: None
        if team is not None:
            program.team_size = lambda ranks: team
        try:
            with use_executor(ex), use_session(sess), \
                    np.errstate(all="ignore"):
                states = _step(driver, _step(driver, states))
                h = states[rank].grid.halo
                states[rank].rhou[h + 1, h + 1, 1] = 1e308
                with pytest.raises(NumericalBlowup) as err:
                    _step(driver, states)
        finally:
            program.enter, program.team_size = enter, team_size
        comm = getattr(driver, "comm", None)
        runs.append((
            (err.value.field, err.value.time, err.value.step),
            _bytes(states), ex.calls, ex.accelerated, ex.skipped,
            Counter(native.UNBOUND) - before,
            [(s.name, s.cat, s.args) for s in sess.spans],
            comm and comm.stats.messages))
    return runs


@pytest.mark.parametrize("ranks", [(1, 1), (2, 2)])
def test_an_aborted_replay_credits_nothing(ranks):
    """A flux of 1e308 on a replayed step: the slow stage's exact-sum guard
    cannot decide the idle species' skip, its row returns 1, the replay
    stops and the generator reruns the step from its input.  The raise,
    the bytes and every count equal a run on the generator alone."""
    generator_windows = native.PROGRAMS["generator"]
    runs = _aborted(dict(ranks=ranks, moist=False))
    assert runs[0] == runs[1]
    assert (runs[0][5][("slow stages", "fluxes past the exact sum test")]
            >= 1) == COMPILED
    # the recording step, then the aborted one
    assert native.PROGRAMS["generator"] - generator_windows == 2 * COMPILED


@pytest.mark.parametrize("rank", [0, 3], ids=["worker0", "worker1"])
def test_an_aborted_team_walk_credits_nothing(rank):
    """The flux of 1e308 in a rank that worker 0 owns (rank 0), or worker
    1 (rank 3) of a team of 2: the failing row ends its run, no run is
    taken after it, nothing is credited, and the generator's rerun gives
    the raise, bytes and counts of a run on the generator alone."""
    generator_windows = native.PROGRAMS["generator"]
    replayed = native.PROGRAMS["replayed"]
    runs = _aborted(dict(ranks=(2, 2), moist=False), rank, team=2)
    assert runs[0] == runs[1]
    assert native.PROGRAMS["generator"] - generator_windows == 2 * COMPILED
    assert native.PROGRAMS["replayed"] - replayed == COMPILED


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
@pytest.mark.parametrize("ranks", [(1, 1), (2, 2)])
def test_a_replay_that_aborts_after_its_last_row_reruns_exactly(ranks):
    """The worst abort: every row ran (the stage state, the flux copies
    and the EOS's memory all rewritten), then the walk reports a failure.
    The generators rerun the window from the base: the bytes and counts
    of a run on the generator alone."""
    params = dict(ranks=ranks)
    want, want_counts, _, _ = _run(params, STEPS, False, generator=True)
    run = program.StepProgram.replay

    def failing(self, windows):
        walk = self.run
        self.run = lambda stamps: walk(stamps) or self.nrow
        try:
            return run(self, windows)
        finally:
            self.run = walk

    program.StepProgram.replay = failing
    try:
        got, counts, _, programs = _run(params, STEPS, False)
    finally:
        program.StepProgram.replay = run
    assert got == want and counts == want_counts
    assert (programs["recorded"], programs["replayed"]) == (1, 0)


# ----------------------------------------------------------- declines
@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
@pytest.mark.parametrize("params, why", [
    (dict(dtype=np.float32), "rho float32"),
    (dict(ranks=(2, 2), faults=FaultInjector(FaultPlan.parse("drop@1"))),
     "faults transport planned"),
], ids=["float32", "transport-faults"])
def test_what_the_key_excludes_declines_once_a_step(params, why):
    driver, states = _build(**params)
    before = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    for k in range(3):
        if isinstance(driver, MultiGpuAsuca):
            driver.faults.begin_step(k)
        states = _step(driver, states)
    assert (Counter(native.UNBOUND) - before[0])["programs", why] == 3
    assert (Counter(native.PROGRAMS) - before[1])["recorded"] == 0


def _numpy_theta(state, forcing):
    """An oracle dispatch (``advect_scalar`` has no compiled entry of its
    own) added to the forcing."""
    forcing.r_theta += 1e-3 * advect_scalar(
        state.rhotheta / state.rho, state.rhou, state.rhov, state.rhow,
        state.grid, koren)


def _fill_a_copy(state, forcing):
    """A compiled halo fill of a state made inside the window."""
    fill_halos_state(state.copy(), ["rhotheta"])


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
@pytest.mark.parametrize("extra, why", [
    (_numpy_theta, "advect_scalar NumPy in a window"),
    (_fill_a_copy, "exchange of a state outside the step"),
], ids=["numpy-dispatch", "exchange-of-a-copy"])
def test_work_no_row_can_replay_declines_the_recording(extra, why,
                                                       monkeypatch):
    """``extra`` planted after every RK stage's slow tendencies of a
    16x16x8 run: an oracle's work is in no row, so a replay would leave it
    out; a strip slot in a copy, which is freed before any replay, lies in
    no block of the step.  The window records nothing, every step counts
    one typed ``programs`` decline, and the bytes are the generator's."""
    stage = rk3.slow_tendencies

    def planted(state, *args):
        forcing, q_tend = stage(state, *args)
        extra(state, forcing)
        return forcing, q_tend

    monkeypatch.setattr(rk3, "slow_tendencies", planted)
    params = dict(n=(16, 16, 8))
    got, counts, _, programs = _run(params, 3, False)
    assert got == _run(params, 3, False, generator=True)[0]
    assert counts["unbound"] == Counter({("programs", why): 3})
    assert (programs["recorded"], programs["replayed"]) == (0, 0)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_a_thread_change_replays():
    """A program holds nothing of a thread: a 2x2 run stepped in turn from
    two threads records once, replays every later step with no decline,
    and gives the bytes of a run stepped on one thread."""
    want, _, _, _ = _run(dict(ranks=(2, 2)), STEPS, False)
    driver, states = _build(ranks=(2, 2))
    before = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    got, box = [], [states]

    def step():
        box[0] = _step(driver, box[0])
        got.append(_bytes(box[0]))

    for k in range(STEPS):
        if k % 2:
            t = threading.Thread(target=step)
            t.start()
            t.join()
        else:
            step()
    assert got == want
    assert Counter(native.UNBOUND) - before[0] == Counter()
    programs = Counter(native.PROGRAMS) - before[1]
    assert (programs["recorded"], programs["replayed"]) == (1, STEPS - 1)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_a_layout_change_declines_once_and_records_again():
    """A step on a state of another layout (one species fewer) is outside
    the program's key: it counts one ``layout changed`` decline and
    records there; the next step replays."""
    from repro.core.state import State

    driver, states = _build()
    for _ in range(2):
        states = _step(driver, states)
    st = states[0]
    q = {name: field for name, field in st.q.items() if name != "qh"}
    narrower = State(st.grid, st.rho, st.rhou, st.rhov, st.rhow,
                     st.rhotheta, q, time=st.time,
                     precip_accum=st.precip_accum)
    before = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    _step(driver, _step(driver, [narrower]))
    unbound = Counter(native.UNBOUND) - before[0]
    assert unbound == Counter({("programs", "layout changed"): 1})
    programs = Counter(native.PROGRAMS) - before[1]
    assert (programs["recorded"], programs["replayed"]) == (1, 1)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_a_crash_only_plan_replays():
    """``crash@3`` changes nothing the window does: steps 0-2 record and
    replay, step 3 crashes before any work."""
    driver, states = _build(ranks=(2, 2), faults=FaultInjector(
        FaultPlan.parse("crash@3")))
    before = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    for _ in range(3):
        states = _step(driver, states)
    with pytest.raises(RankCrash):
        _step(driver, states)
    assert Counter(native.UNBOUND) - before[0] == Counter()
    programs = Counter(native.PROGRAMS) - before[1]
    assert (programs["recorded"], programs["replayed"]) == (1, 2)


def test_the_team_follows_the_affinity_mask(monkeypatch):
    """The team is one thread a CPU of the process's affinity mask, at
    most one a rank; under ``taskset -c 0`` (CI runs this file so too) a
    2x2 program walks alone, on the one-thread walk."""
    cpus = len(os.sched_getaffinity(0))
    assert program.team_size(1) == 1
    assert program.team_size(4) == min(cpus, 4)
    driver, states = _build(ranks=(2, 2))
    for _ in range(2):
        states = _step(driver, states)
    prog = _integrators(driver)[0].program
    if COMPILED:
        assert prog.team == min(cpus, 4) and prog.team_why is None
        if cpus == 1:
            assert prog.header.team == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert program.team_size(4) == 1


@pytest.mark.skipif(not COMPILED, reason="needs the compiled bodies")
def test_the_stamps_are_made_by_the_first_traced_replay(monkeypatch):
    """Untraced replays make no stamps; a traced team walk makes them and
    counts its measured speedup, which the stats and report carry."""
    monkeypatch.setattr(program, "team_size", lambda ranks: 2)
    driver, states = _build(ranks=(2, 2))
    for _ in range(3):
        states = _step(driver, states)
    prog = _integrators(driver)[0].program
    assert prog.stamps is None
    before = Counter(native.PROGRAMS)
    with use_session(TraceSession()):
        _step(driver, states)
    assert prog.stamps.shape == (2 * prog.nrow,)
    walked = Counter(native.PROGRAMS) - before
    assert 0 < walked["busy_s"] and 0 < walked["wall_s"]
    assert native.walk_speedup() > 0
    assert native.library().stats()["programs"]["team"] >= 2
    report = native.library().report()
    assert "widest team" in report and "team walk" in report


def test_release_drops_the_program():
    """``release()`` drops the program; after ``Experiment.run`` no
    integrator of the run, single-domain or 2x2, holds a program or an
    :class:`~repro.core.acoustic.AcousticScratch`."""
    driver, states = _build()
    for _ in range(2):
        states = _step(driver, states)
    integrator = driver.integrator
    assert (integrator.program is not None) == COMPILED
    integrator.release()
    assert integrator.program is None
    for spec in (RunSpec("warm-bubble", nx=8, ny=8, nz=6, steps=2),
                 RunSpec("real-case", nx=16, ny=16, nz=8, steps=2,
                         backend="multigpu", ranks=(2, 2))):
        exp = Experiment(spec).prepare()
        exp.advance(1)
        ranks = exp.machine.ranks if exp.machine else [exp.model]
        integrators = [model.integrator for model in ranks]

        def scratch():
            return [obj for obj in _reach(integrators)
                    if isinstance(obj, acoustic.AcousticScratch)]

        assert len(scratch()) == len(integrators)
        exp.run()
        assert scratch() == []
        assert all(it.program is None for it in integrators)


def test_without_a_library_nothing_is_recorded(monkeypatch):
    """The generator is the path without a library: no program, no
    decline, every window run by the stages."""
    monkeypatch.setattr(native, "kernels", lambda: None)
    stages = Counter()
    run = type(driver_integrator := _build()[0].integrator)._stages

    def counted(self, *args):
        stages.update(["window"])
        return (yield from run(self, *args))

    monkeypatch.setattr(type(driver_integrator), "_stages", counted)
    driver, states = _build()
    before = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    for _ in range(3):
        states = _step(driver, states)
    assert driver.integrator.program is None
    assert stages["window"] == 3
    assert Counter(native.PROGRAMS) - before[1] == Counter()
    assert not any(body == "programs" for body, _ in
                   Counter(native.UNBOUND) - before[0])
