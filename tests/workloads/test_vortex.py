"""The balanced warm-core vortex: initial balance, CFL-safe defaults,
track recording, and seeded-member reproducibility."""
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Experiment, RunSpec
from repro.core import program
from repro.workloads.vortex import make_vortex_case, rankine_wind


# ------------------------------------------------------------ wind profile
def test_rankine_profile_shape():
    vmax, rmax = 20.0, 10e3
    r = np.array([0.0, 0.5 * rmax, rmax, 2 * rmax, 4 * rmax])
    v = rankine_wind(r, vmax, rmax)
    assert v[0] == 0.0
    assert v[1] == pytest.approx(0.5 * vmax)
    assert v[2] == pytest.approx(vmax)          # peak at rmax
    assert v[2] > v[3] > v[4] > 0.0             # decaying tail
    # classic Rankine (alpha=1) decays 1/r
    v1 = rankine_wind(r, vmax, rmax, alpha=1.0)
    assert v1[3] == pytest.approx(vmax / 2)


# --------------------------------------------------------------- balance
def test_initial_state_is_balanced():
    """Gradient-wind + hydrostatic construction: the unperturbed vortex
    barely moves — vertical wind stays a tiny fraction of vmax."""
    exp = Experiment(RunSpec("vortex", nx=24, ny=24, nz=10, steps=5))
    exp.run()
    case = exp.case
    g = case.grid
    _, _, w = case.state.velocities()
    max_w = float(np.abs(w[g.isl]).max())
    assert max_w < 0.01 * case.vmax
    # the wind field survives near its analytic amplitude
    assert case.max_wind() == pytest.approx(case.vmax, rel=0.25)


def test_center_recovered_at_domain_center():
    case = make_vortex_case(nx=24, ny=24, nz=10, seed=None)
    cx, cy = case.center_of_low()
    assert (cx, cy) == pytest.approx(case.center, abs=case.grid.dx)
    assert case.min_surface_p_pert() < 0.0      # a low, not a high


def test_defaults_are_cfl_safe():
    case = make_vortex_case()
    adv, acoustic = case.courant_numbers()
    assert 0.0 < adv < 0.5
    assert 0.0 < acoustic < 0.5


def test_rmax_clamped_to_fit_small_domains():
    # a jittered rmax larger than the untapered core is clamped, never
    # rejected — an ensemble member must stay runnable
    case = make_vortex_case(nx=16, ny=16, nz=8, rmax=50e3)
    r_cut = 0.45 * min(case.grid.nx * case.grid.dx,
                       case.grid.ny * case.grid.dy)
    assert case.rmax == pytest.approx(0.55 * r_cut)


# ----------------------------------------------------------------- track
def test_track_series_records_every_step():
    series = Experiment(RunSpec("vortex", nx=16, ny=16, nz=8, steps=4)
                        ).run().series
    assert len(series["t"]) == 4
    assert series["t"] == sorted(series["t"])
    for key in ("cx", "cy", "max_wind", "min_p_pert"):
        assert len(series[key]) == 4
    assert all(w > 0 for w in series["max_wind"])
    assert all(p < 0 for p in series["min_p_pert"])


def test_track_replay_is_idempotent():
    # crash-recovery replays steps; time-keyed points overwrite instead
    # of duplicating
    result = Experiment(RunSpec("vortex", nx=16, ny=16, nz=8, seed=3,
                                steps=2, faults="crash@1")).run()
    assert result.recoveries == 1       # step 0 was stepped twice
    assert len(result.series["t"]) == 2


@pytest.mark.parametrize("faults", [None, "crash@2"], ids=["straight", "crash"])
def test_every_backend_records_the_same_track(monkeypatch, faults):
    """``Experiment`` records the track after every step on every backend:
    one domain, one device, a 2x2 decomposition and host tiles give the
    same series bit for bit, and a crash-recovery replay overwrites the
    points it steps again."""
    spec = RunSpec("vortex", nx=16, ny=16, nz=8, steps=3, seed=3,
                   faults=faults)
    series = {backend: Experiment(replace(spec, backend=backend, ranks=ranks)
                                  ).run().series
              for backend, ranks in (("cpu", None), ("gpu", None),
                                     ("multigpu", (2, 2)))}
    monkeypatch.setattr(program, "host_tiles", lambda grid: (2, 1))
    tiled = Experiment(replace(spec, backend="cpu")).prepare()
    assert len(tiled.driver.ranks) == 2
    series["tiles"] = tiled.run().series
    assert len(series["cpu"]["t"]) == 3
    for backend, got in series.items():
        assert got == series["cpu"], backend


# ------------------------------------------------------------ seeded members
def _run(seed: int):
    return Experiment(RunSpec("vortex", nx=16, ny=16, nz=8, seed=seed,
                              steps=2)).run().state


def test_seed_reproduces_bitwise():
    a, b = (_run(seed=7) for _ in range(2))
    assert np.array_equal(a.rhotheta, b.rhotheta)
    assert np.array_equal(a.rhou, b.rhou)


def test_different_seeds_diverge():
    a, b = _run(seed=1), _run(seed=2)
    assert not np.array_equal(a.rhotheta, b.rhotheta)


def test_physics_variant_moistens_the_core():
    case = make_vortex_case(nx=16, ny=16, nz=8, physics=True)
    qv = case.state.q["qv"]
    assert float(qv.max()) > 0.0
