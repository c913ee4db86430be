"""The active-tracer set is exact: skipping the transport of an all-zero
species never changes a byte.

An RK stage skips ``q / rho``, ``advect_scalar`` and the stage update of
every species whose stage *and* base fields are all ``+0.0`` (halos
included).  Every test runs the same computation twice — with the
shipped predicate, and with it patched to call nothing zero (the full
path; a test-local monkeypatch, there is no shipped switch) — and
compares ``tobytes()``: ``np.array_equal`` calls -0.0 and +0.0 equal,
and the sign of zero is the whole argument.

Where the inputs are non-finite the two runs must be non-finite at the
same positions and byte-equal everywhere else; NaN *payload* bits are
exempt (IEEE leaves them to the implementation).
"""
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import repro.api as api
import repro.core.rk3 as rk3
from repro.api import Experiment, RunSpec
from repro.constants import WATER_SPECIES
from repro.core.acoustic import AcousticStepper, build_context
from repro.core.boundary import fill_halos_state
from repro.core.grid import bell_mountain, make_grid
from repro.core.model import AsucaModel, ModelConfig, run_lockstep
from repro.core.reference import make_reference_state
from repro.core.rk3 import DynamicsConfig, Rk3Integrator, slow_tendencies
from repro.core.state import zero_bits
from repro.stencil import StencilExecutor, native, use_executor
from repro.workloads.sounding import constant_stability_sounding

SETTINGS = settings(max_examples=40, deadline=None)
#: where a lone -0.0 is planted: (i, j, k) with negative = from the end
#: (at the lowest level, where the full path turns an interior -0.0 into
#: +0.0 — a predicate that called -0.0 zero would leave it)
SPOTS = {"interior": (5, 5, 0), "halo": (1, 5, 0), "corner": (0, -1, 0)}


@contextmanager
def _full_path():
    """Force the skip off: no field is ever all-zero (and no stage is
    compiled, since the compiled stage scans in C)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rk3, "_zero_bits", lambda a: False)
        mp.setattr(rk3, "StageBinding", lambda geom: None)
        yield


def _case(dtype=np.float64, terrain=False, periodic=(True, True),
          check_finite=True):
    """A small model and a perturbed moist-free state with valid halos."""
    grid = make_grid(
        10, 9, 8, 1000.0, 1000.0, 8000.0,
        terrain=bell_mountain(400.0, 2500.0, x0=5000.0) if terrain else None,
        periodic_x=periodic[0], periodic_y=periodic[1])
    ref = make_reference_state(grid, constant_stability_sounding())
    cfg = DynamicsConfig(dt=4.0, ns=4, check_finite=check_finite)
    model = AsucaModel(grid, ref, ModelConfig(dynamics=cfg))
    st = model.initial_state(u0=8.0, v0=-3.0, dtype=dtype)
    x = grid.x_c()[:, None, None]
    st.rhotheta += (st.rho * np.exp(-(((x - 5000.0) / 2000.0) ** 2))).astype(dtype)
    fill_halos_state(st)
    return model, st


def _seed(st, names, rng):
    """A small positive mixing ratio in every named species."""
    for name in names:
        st.q[name][...] = st.rho * (1e-3 * rng.random(st.rho.shape)).astype(st.dtype)
    fill_halos_state(st, list(names))


def _long_step(model, st, *, full=False):
    """One RK3 long step of a copy of ``st`` on a fresh executor.  The
    opening refresh-everything exchange is left out (the halos are valid)
    so that a value planted in a halo is still there when the first stage
    looks."""
    def refresh(states, names):
        if names is not None:
            fill_halos_state(states[0], names)

    rk = Rk3Integrator(model.grid, model.ref, model.config.dynamics,
                       model.p_ref)
    ex = StencilExecutor("fused")
    with use_executor(ex), (_full_path() if full else nullcontext()):
        new, = run_lockstep([rk.step_phases(st.copy())], refresh)
    return new, ex


def _one_stage(model, stage, base):
    """Second RK stage by hand: tendencies at ``stage``, added to ``base``."""
    cfg, ref = model.config.dynamics, model.ref
    forcing, q_tend = slow_tendencies(stage, cfg,
                                      model.integrator.limiter, base=base)
    stepper = AcousticStepper(base, forcing,
                              build_context(base, ref, model.p_ref),
                              ref, cfg.dt / 2, 2)
    for _ in range(2):
        fill_halos_state(stepper.st, stepper.substep())
    # the full list whatever was skipped: every rank exchanges the same
    assert stepper.finish(q_tend) == list(WATER_SPECIES)
    return q_tend, stepper.st


def _fields(state, interior=False):
    g = state.grid
    sl = (slice(g.halo, g.halo + g.nx), slice(g.halo, g.halo + g.ny))
    return {n: np.ascontiguousarray(state.get(n)[sl] if interior
                                    else state.get(n)).tobytes()
            for n in state.prognostic_names()}


def _assert_same(a, b):
    """Byte equality, NaN payloads exempt."""
    for n in a.prognostic_names():
        x, y = a.get(n), b.get(n)
        nan = np.isnan(x)
        assert (nan == np.isnan(y)).all(), n
        assert np.where(nan, 0, x).tobytes() == np.where(nan, 0, y).tobytes(), n


# ------------------------------------------------ (a) generated inputs
@SETTINGS
@given(zeroed=hs.sets(hs.sampled_from(WATER_SPECIES)),
       minus=hs.sampled_from([None, *SPOTS]),
       dtype=hs.sampled_from([np.float32, np.float64]),
       terrain=hs.booleans(),
       periodic=hs.tuples(hs.booleans(), hs.booleans()),
       seed=hs.integers(0, 2**16))
def test_long_step_is_byte_identical_to_the_full_path(
        zeroed, minus, dtype, terrain, periodic, seed):
    model, st = _case(dtype, terrain, periodic)
    _seed(st, [n for n in WATER_SPECIES if n not in zeroed],
          np.random.default_rng(seed))
    planted = None
    if minus is not None and zeroed:
        planted = sorted(zeroed)[0]
        st.q[planted][SPOTS[minus]] = -0.0
    skipping, ex = _long_step(model, st)
    full, ex_full = _long_step(model, st, full=True)
    assert _fields(skipping) == _fields(full)
    assert ex_full.skipped == 0
    # a zero species is skipped in all three stages, a -0.0 makes it active
    # in the first (the stage update turns an interior one into +0.0, the
    # exchange overwrites a halo one)
    idle = len(zeroed) - (planted is not None)
    assert 3 * idle <= ex.skipped <= 3 * len(zeroed)
    assert ex.calls["advect_scalar"] + ex.skipped == 3 * (1 + len(WATER_SPECIES))


def test_minus_zero_is_active_and_plus_zero_is_not():
    model, st = _case()
    plus = st.rho * 0.0
    # one predicate: the name patched above is core.state's, which the
    # checkpoint codec also asks
    assert rk3._zero_bits is zero_bits
    assert rk3._zero_bits(plus) and not rk3._zero_bits(-plus)
    assert rk3._zero_bits(plus.astype(np.float32))
    assert not rk3._zero_bits((-plus).astype(np.float32))
    st.q["qc"][SPOTS["corner"]] = -0.0
    _, q_tend = slow_tendencies(st, model.config.dynamics,
                                model.integrator.limiter)
    assert q_tend["qc"] is not None and q_tend["qr"] is None


# ------------------------------------- (b) inputs that break the argument
@pytest.mark.parametrize("check_finite", [True, False])
@pytest.mark.parametrize("poison", ["nan_rhou", "inf_rhou", "zero_rho"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_flux_or_zero_rho_takes_the_full_path(poison, check_finite):
    """``0 * inf`` and ``0 / 0`` are NaN in the oracle, so a zero species
    does *not* stay zero: the guards must send these inputs down the full
    path, blow-up and error message included."""
    model, st = _case(check_finite=check_finite)
    _seed(st, ["qv"], np.random.default_rng(1))
    if poison == "zero_rho":
        st.rho[5, 5, 3] = 0.0
    else:
        st.rhou[5, 5, 3] = np.nan if poison == "nan_rhou" else np.inf

    # one stage: the zero species blows up in the full path, so it must
    # not have been skipped
    q_tend, skipping = _one_stage(model, st, st)
    with _full_path():
        _, full = _one_stage(model, st, st)
    assert q_tend["qc"] is not None
    assert np.isnan(full.q["qc"]).any()
    _assert_same(skipping, full)

    # the long step: the same fields, or the same error
    def outcome(full):
        try:
            return _long_step(model, st, full=full)[0]
        except FloatingPointError as err:
            return err

    skipping, full = outcome(False), outcome(True)
    if check_finite:
        assert isinstance(skipping, FloatingPointError)
        assert str(skipping) == str(full)
    else:
        _assert_same(skipping, full)


# --------------------------------------------- (c) stage state != base state
@pytest.mark.parametrize("zero_in", ["stage", "base"])
def test_species_zero_in_only_one_of_stage_and_base_is_active(zero_in):
    model, base = _case()
    _seed(base, ["qv", "qc"], np.random.default_rng(2))
    stage = base.copy()
    (stage if zero_in == "stage" else base).q["qc"][...] = 0.0
    q_tend, skipping = _one_stage(model, stage, base)
    with _full_path():
        _, full = _one_stage(model, stage, base)
    assert q_tend["qc"] is not None          # zero on one side only: active
    assert q_tend["qr"] is None              # zero on both: skipped
    assert _fields(skipping) == _fields(full)


# ------------------------------------------------------- (d) system level
_CASES = {
    "warm-bubble": {},
    "real-case": {},
    "vortex": {},
    "shear-layer": {"ice": True},
}


def _run(workload="warm-bubble", seed_state=None, **kw):
    """Three steps through the public API; ``seed_state(state)`` edits the
    initial condition before the backend is built."""
    spec = RunSpec(workload=workload, nx=16, ny=16, nz=8,
                   **{"steps": 3, **_CASES[workload], **kw})
    with pytest.MonkeyPatch.context() as mp:
        if seed_state is not None:
            make_case = api.make_case

            def seeded(*a, **k):
                case = make_case(*a, **k)
                seed_state(case.state)
                return case

            mp.setattr(api, "make_case", seeded)
        exp = Experiment(spec).prepare()
        return exp.run().state, exp


def _assert_every_backend_equals_full_path(workload, seed_state=None):
    with _full_path():
        full, exp = _run(workload, seed_state, backend="cpu")
        assert exp.executor.skipped == 0
    runs = {}
    for backend in ("cpu", "gpu"):
        state, runs[backend] = _run(workload, seed_state, backend=backend)
        assert _fields(state) == _fields(full), (workload, backend)
    # a gathered state's halos are refilled, not computed
    state, runs["multigpu"] = _run(workload, seed_state, backend="multigpu",
                                   ranks=(2, 2))
    assert _fields(state, interior=True) == _fields(full, interior=True)
    return runs


@pytest.mark.parametrize("workload", sorted(_CASES))
def test_workloads_equal_the_full_path_on_every_backend(workload):
    runs = _assert_every_backend_equals_full_path(workload)
    if workload != "shear-layer":            # ice off: four species never form
        assert runs["cpu"].executor.skipped >= 3 * 3 * 4
        assert {"qi", "qs", "qg", "qh"} <= set(runs["cpu"].executor.inactive)


def test_the_report_and_the_phase_span_say_what_was_skipped():
    _, exp = _run("warm-bubble", metrics=True)      # a traced (gpu) run
    assert ("48 of 72 scalar transports skipped (inactive: qr qi qs qg qh)"
            in exp.executor.report())
    active = {name: [s.args["active"] for s in exp.session.spans
                     if s.name == name]
              for name in ("slow_tendencies", "advect_moisture")}
    assert active["slow_tendencies"] == 3 * ["qv"] + 6 * ["qv qc"]
    # the NumPy text (no library) nests its own span, with the same set
    assert active["advect_moisture"] == (
        [] if native.library().f64 else active["slow_tendencies"])


def test_nothing_is_skipped_when_every_species_is_present():
    def seed_state(state):
        _seed(state, WATER_SPECIES, np.random.default_rng(3))

    runs = _assert_every_backend_equals_full_path("warm-bubble", seed_state)
    for exp in runs.values():
        stats = exp.executor.stats()
        assert stats["skipped"] == 0 and stats["inactive"] == []
        assert "skipped" not in exp.executor.report()


def test_ranks_that_disagree_about_activity_stay_in_lock_step():
    """Cloud in one rank's interior, touching one neighbour's halo: two
    ranks transport ``qc`` while two skip it, every rank still exchanges
    the same field list, and the gathered run equals the single domain."""
    def seed_state(state):
        h = state.grid.halo
        state.q["qc"][h + 6:h + 8, h + 3:h + 5, 2:5] = \
            1e-3 * state.rho[h + 6:h + 8, h + 3:h + 5, 2:5]

    _, exp = _run("vortex", seed_state, steps=0, backend="multigpu",
                  ranks=(2, 2))
    cloudy = [bool(st.q["qc"].any()) for st in exp.rank_states]
    assert sorted(cloudy) == [False, False, True, True]
    runs = _assert_every_backend_equals_full_path("vortex", seed_state)
    # qv qr qi qs qg qh everywhere, qc on the cloud-free ranks
    assert runs["cpu"].executor.skipped == 3 * 3 * 6
    assert runs["multigpu"].executor.skipped > 4 * 3 * 3 * 6
    assert runs["multigpu"].executor.calls["advect_scalar"] > 4 * 3 * 3 * 1


# ------------------------------------------------------------ (e) resume
def test_resumed_after_crash_equals_uninterrupted_on_the_dry_vortex(tmp_path):
    """Activity is recomputed from the restored state, never stored."""
    clean, _ = _run("vortex", steps=5)
    resumed, exp = _run("vortex", steps=5, faults="crash@3",
                        checkpoint_every=2, checkpoint_dir=str(tmp_path))
    assert exp.recoveries == 1
    assert _fields(resumed) == _fields(clean)
    assert sorted(exp.executor.inactive) == sorted(WATER_SPECIES)
