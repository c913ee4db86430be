"""Host tiles (:func:`repro.core.program.host_tiles`): a large ``cpu`` run
steps its domain as tiles whose one program the team walks, and nothing a
caller reads tells it from an untiled run: the whole block (halos
included) after every step, the state read between steps, checkpoints
written and restored either way, crash recovery, the counts.  The tests
that compare monkeypatch the tiling decision, not the affinity mask, so
they hold on one CPU (``taskset -c 0``) and without a library too."""
import contextlib
import os
import pathlib
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment, RunSpec
from repro.core import program
from repro.core.grid import make_grid
from repro.dist.multigpu import MultiGpuAsuca
from repro.obs.trace import TraceSession, use_session
from repro.stencil import native

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
LIB = native.library()
DYCORE_CPU = RunSpec("warm-bubble", nx=48, ny=48, nz=24, backend="cpu",
                     seed=3)
#: the four workloads, each at the drawn grid: the real case is open and
#: relaxes, the others are periodic
WORKLOADS = ("warm-bubble", "real-case", "shear-layer", "vortex")
HALO = 3


def experiment(spec: RunSpec, tiles, physics=None, rain=False
               ) -> Experiment:
    """A prepared run of ``spec`` stepped as ``tiles`` (None: untiled);
    ``rain``: cloud and rain water above the autoconversion threshold
    planted in a block of columns of its initial state."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(program, "host_tiles", lambda grid: tiles)
        exp = Experiment(spec).prepare()
    assert (len(exp.driver.ranks) > 1) == (tiles is not None)
    if physics is not None:
        exp.model.config.physics_enabled = physics
    if rain:
        st, h = exp.case.state, exp.grid.halo
        blob = (slice(h, h + 3), slice(h + 1, h + exp.grid.ny - 1),
                slice(0, exp.grid.nz // 2))
        st.q["qc"][blob] = 4e-3 * st.rho[blob]
        st.q["qr"][blob] = 3e-3 * st.rho[blob]
        # the run's states and its cold-restart states, from the planted one
        exp._step_to(exp.driver.scatter(st), st)
        exp._initial = exp.rank_states
    return exp


@contextlib.contextmanager
def library(loaded: bool):
    with native.using(LIB if loaded else None):
        yield


@st.composite
def tiled_specs(draw):
    """A small run of one workload and a tiling of at least a halo of
    cells a tile: ``(spec, tiles)``."""
    t = draw(st.sampled_from([2, 3]))
    tiles = draw(st.sampled_from([(t, 1), (1, t)]))
    nx = draw(st.integers(HALO * tiles[0], 14))
    ny = draw(st.integers(HALO * tiles[1], 14))
    spec = RunSpec(draw(st.sampled_from(WORKLOADS)), nx=nx, ny=ny,
                   nz=draw(st.integers(4, 8)), backend="cpu",
                   seed=draw(st.integers(0, 9)))
    return spec, tiles


# ------------------------------------------------------------- equality
def blocks(exp: Experiment) -> bytes:
    st_ = exp.state
    precip = b"" if st_.precip_accum is None else st_.precip_accum.tobytes()
    return st_.block.tobytes() + np.float64(st_.time).tobytes() + precip


@settings(max_examples=14, deadline=None)
@given(tiled_specs(), st.integers(1, 3), st.booleans(), st.booleans(),
       st.booleans(), st.booleans())
def test_tiled_equals_untiled_bitwise(drawn, steps, physics, read, loaded,
                                      rain):
    """The whole block, halos included, and the precipitation
    accumulator, after ``steps`` steps (after every step where the state
    is read between steps: a read gathers, and the real case's snapshot
    writes the gathered halos), and the vortex track series; ``rain``:
    with rain falling."""
    spec, tiles = drawn
    spec = replace(spec, steps=steps)
    with library(loaded):
        runs = [experiment(spec, t, physics, rain and physics is not False)
                for t in (None, tiles)]
        for _ in range(steps):
            for exp in runs:
                exp.advance(1)
                if read and hasattr(exp.case, "snapshot"):
                    exp.gather()
                    exp.case.snapshot(0.0)
            if read:
                assert blocks(runs[0]) == blocks(runs[1])
        results = [exp.run() for exp in runs]
    assert blocks(runs[0]) == blocks(runs[1])
    assert results[0].series == results[1].series
    assert [r.halo_messages for r in results] == [0, 0]
    assert results[1].retry_stats is None
    # a finished run releases the tile integrators' buffers too
    assert all(rank.integrator.stage_state is None
               for rank in runs[1].driver.ranks)


# ---------------------------------------------------- checkpoints, crash
@settings(max_examples=6, deadline=None)
@given(tiled_specs(), st.booleans())
def test_checkpoints_are_the_same_bytes_and_restore_either_way(drawn,
                                                               loaded):
    spec, tiles = drawn
    with tempfile.TemporaryDirectory() as tmp, library(loaded):
        dirs = [os.path.join(tmp, name) for name in ("single", "tiled")]
        for d, t in zip(dirs, (None, tiles)):
            experiment(replace(spec, steps=2, checkpoint_every=1,
                               checkpoint_dir=d), t).run()
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            assert (pathlib.Path(dirs[0], name).read_bytes()
                    == pathlib.Path(dirs[1], name).read_bytes()), name
        # each restores under the other, and goes on as an unbroken run
        straight = experiment(replace(spec, steps=3), None).run().state
        for d, t in zip(dirs, (tiles, None)):
            resumed = experiment(replace(spec, steps=3, resume=True,
                                         checkpoint_dir=d), t)
            assert resumed.resumed_from == 2
            got = resumed.run().state
            assert got.block.tobytes() == straight.block.tobytes()


@settings(max_examples=6, deadline=None)
@given(tiled_specs(), st.integers(1, 3), st.booleans(), st.booleans(),
       st.booleans())
def test_crash_recovery_equals_an_uninterrupted_run(drawn, k, checkpoint,
                                                    loaded, rain):
    """``crash@k``, recovered from the newest checkpoint (or, without
    checkpoints, by a cold restart from the initial state), rain falling
    or not: the block and the precipitation accumulator."""
    spec, tiles = drawn
    with tempfile.TemporaryDirectory() as tmp, library(loaded):
        extra = (dict(checkpoint_every=1, checkpoint_dir=tmp) if checkpoint
                 else {})
        crashed = experiment(replace(spec, steps=4, faults=f"crash@{k}",
                                     **extra), tiles, rain=rain)
        crashed.run()
        straight = experiment(replace(spec, steps=4), None, rain=rain)
        straight.run()
    assert crashed.recoveries == 1
    assert blocks(crashed) == blocks(straight)


@pytest.mark.parametrize("loaded", [True, False], ids=["library", "oracles"])
def test_rain_falls_alike_tiled_untiled_and_replayed(loaded, monkeypatch):
    """The 24x24x12 warm bubble with rain planted, through ``crash@2``
    restored from a checkpoint: tiled (a replayed program where a library
    is loaded), untiled, and untiled on the generator alone end on the
    same block and the same precipitation accumulator, which holds
    rain."""
    if loaded and LIB.state != "loaded":
        pytest.skip(f"native[{LIB.state}]")
    spec = replace(DYCORE_CPU, nx=24, ny=24, nz=12, steps=4,
                   faults="crash@2", checkpoint_every=1)
    ends = []
    with tempfile.TemporaryDirectory() as tmp, library(loaded):
        for k, tiles in enumerate([(2, 1), None, None]):
            with monkeypatch.context() as m:
                if k == 2:
                    m.setattr(program, "enter", lambda windows, why: None)
                replayed = native.PROGRAMS["replayed"]
                exp = experiment(replace(spec, checkpoint_dir=os.path.join(
                    tmp, str(k))), tiles, rain=True)
                assert exp.run().recoveries == 1
                assert (native.PROGRAMS["replayed"] > replayed) == (
                    loaded and k < 2)
            ends.append(blocks(exp))
    assert ends[0] == ends[1] == ends[2]
    assert exp.state.precip_accum.max() > 0


# --------------------------------------------------------------- counts
@pytest.mark.parametrize("workload", ["warm-bubble", "real-case"])
@pytest.mark.parametrize("loaded", [True, False], ids=["library", "oracles"])
def test_a_tiled_run_counts_its_modeled_domains_dispatches(loaded, workload):
    """The ``stencil[...]`` counts of a run are the modeled domain's: the
    1x1 fill at every refresh point and after every relaxing step (the
    real case relaxes), each kernel once, and a transport skipped where
    every tile skipped it (with ``seed=3`` the real case's tiles disagree
    on an active tracer)."""
    if loaded and LIB.state != "loaded":
        pytest.skip(f"native[{LIB.state}]")
    spec = replace(DYCORE_CPU, workload=workload, steps=3)
    with library(loaded):
        runs = [experiment(spec, t) for t in (None, (2, 1))]
        stats = [exp.run().stencil_stats for exp in runs]
    fills = [exp.executor.calls["fill_halos_state"] for exp in runs]
    assert fills[0] == fills[1] > 0
    assert [exp.executor.calls for exp in runs[1:]] == [runs[0].executor.calls]
    for s in stats:
        s.pop("native")
    assert stats[0]["skipped"] > 0
    assert stats[1] == stats[0]


def test_the_tiles_keep_no_message_log():
    """Nothing collects the tiles' comm, so a traced tiled run logs no
    message (a modeled decomposition's comm still does)."""
    exp = experiment(replace(DYCORE_CPU, nx=24, ny=24, nz=12), (2, 1))
    tiles = exp.driver.gather.__self__          # the tiles' MultiGpuAsuca
    modeled = MultiGpuAsuca(exp.grid, exp.case.ref, 2, 1, exp.model.config)
    with use_session(TraceSession("tiles")):
        for driver in (exp.driver, modeled.driver()):
            states = driver.scatter(exp.case.state)
            for i in range(3):
                states = driver.step(states, i)
    assert tiles.comm.message_log == []
    assert len(modeled.comm.message_log) > 0
    assert tiles.comm.stats.messages > 0       # the tiles did exchange


@pytest.mark.skipif(LIB.state != "loaded", reason=f"native[{LIB.state}]")
def test_the_dycore_cpu_spec_records_once_and_replays():
    """Tiled, the benchmark's single-domain spec records one program over
    its tiles and replays it (as ``test_warm_steps_decline_nothing``
    counts untiled); the single-domain integrator is never stepped, so
    its acoustic scratch is never allocated."""
    first = (Counter(native.UNBOUND), Counter(native.PROGRAMS))
    exp = experiment(DYCORE_CPU, (2, 1))
    exp.advance(3)
    assert native.UNBOUND - first[0] == Counter()
    programs = Counter(native.PROGRAMS) - first[1]
    assert (programs["recorded"], programs["replayed"]) == (1, 2)
    assert programs["generator"] == 1
    assert exp.model.integrator.geom._scratch is None
    held = exp.state
    assert exp.state is held                # one gather while it is held
    gathered = weakref.ref(held)
    del held
    assert gathered() is None               # the run keeps no copy


@pytest.mark.skipif(LIB.state != "loaded" or program.team_size(2) < 2,
                    reason="needs a library and two CPUs")
def test_a_dycore_cpu_run_reports_its_tiles_and_the_walk():
    """Unpatched: a 48x48x24 ``cpu`` run steps as tiles, sends no halo
    message a product sees, and reports its tiling and the team walk's
    measured speedup."""
    t = min(program.team_size(48 // HALO), 48 * 48 * 24 // program.TILE_CELLS)
    assert program.host_tiles(make_grid(48, 48, 24, 1e3, 1e3, 1e4)) == (t, 1)
    name = f"{t}x1"
    tiled = native.TILES[name]
    exp = Experiment(replace(DYCORE_CPU, steps=3, metrics=True)).prepare()
    assert len(exp.driver.ranks) == t and exp.machine is None
    assert native.TILES[name] == tiled + 1
    result = exp.run()
    assert (result.halo_messages, result.halo_bytes) == (0, 0)
    # the tilings this process ran, by name
    assert name in result.stencil_stats["native"]["tiles"].split(",")
    report = native.library().report()
    assert ", tiles " in report and "team walk" in report
    assert native.walk_speedup() > 0


# ------------------------------------------------------------- decision
@pytest.mark.parametrize("shape", [(16, 16, 8), (24, 24, 12), (32, 32, 12),
                                   (32, 32, 16), (24, 24, 10), (32, 4, 16)])
def test_the_benchmark_shapes_below_the_break_even_are_untiled(shape):
    """The shapes of serve_stream's jobs, the ensemble's members and
    decomp_2x2's single-domain run hold fewer cells a tile than the
    break-even on two CPUs."""
    nx, ny, nz = shape
    assert nx * ny * nz < 2 * program.TILE_CELLS    # on any team
    assert program.host_tiles(make_grid(nx, ny, nz, 1e3, 1e3, 1e4)) is None


def test_one_cpu_or_no_library_steps_one_domain(monkeypatch):
    grid = make_grid(48, 48, 24, 1e3, 1e3, 1e4)
    with native.using(None):
        assert program.host_tiles(grid) is None
    monkeypatch.setattr(program, "team_size", lambda ranks: 1)
    assert program.host_tiles(grid) is None


def test_an_untiled_run_imports_no_tile_machine():
    probe = ("import sys; from repro.api import Experiment, RunSpec; "
             "exp = Experiment(RunSpec('warm-bubble', nx=16, ny=16, nz=8, "
             "steps=2, backend='cpu')); exp.run(); "
             "print(len(exp.driver.ranks), 'repro.dist.multigpu' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], text=True,
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.stdout.split() == ["1", "False"], done.stderr
