"""Property-based tests of decomposition + halo exchange: for arbitrary
domain sizes, process grids and random field content, the exchange must
reproduce the single-domain fill (periodic wrap or open zero-gradient, per
axis) on every rank."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boundary import fill_halos_state
from repro.core.grid import make_grid
from repro.core.model import ModelConfig
from repro.core.reference import make_reference_state
from repro.core.state import state_from_reference
from repro.dist.decomposition import decompose
from repro.dist.multigpu import MultiGpuAsuca
from repro.workloads.sounding import constant_stability_sounding


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(9, 20),
    ny=st.integers(9, 20),
    px=st.integers(1, 3),
    py=st.integers(1, 3),
    periodic_x=st.booleans(),
    periodic_y=st.booleans(),
    halo=st.integers(2, 3),
    seed=st.integers(0, 1000),
)
def test_exchange_equals_periodic_fill_random(
        nx, ny, px, py, periodic_x, periodic_y, halo, seed):
    """Every field stagger, process grid, per-axis edge treatment and halo
    width: the compiled exchange leaves on each rank, halos and corners
    included, what the single-domain fill leaves in the global field."""
    g = make_grid(nx=nx, ny=ny, nz=3, dx=500.0, dy=500.0, ztop=3000.0,
                  halo=halo, periodic_x=periodic_x, periodic_y=periodic_y)
    ref = make_reference_state(g, constant_stability_sounding())
    machine = MultiGpuAsuca(g, ref, px, py, ModelConfig())
    gstate = state_from_reference(g, ref)
    r = np.random.default_rng(seed)
    for name in gstate.prognostic_names():
        gstate.get(name)[...] += r.normal(size=gstate.get(name).shape)
    # make the periodic seams consistent (computed fields always are)
    h = g.halo
    if periodic_x:
        gstate.rhou[h + g.nx] = gstate.rhou[h]
    if periodic_y:
        gstate.rhov[:, h + g.ny] = gstate.rhov[:, h]

    states = machine.scatter_state(gstate)
    machine.exchange_all(states, None)
    assert machine.comm.pending() == 0

    fill_halos_state(gstate)
    for sub, stt in zip(machine.subs, states):
        for name in stt.prognostic_names():
            loc = stt.get(name)
            ex = 1 if name == "rhou" else 0
            ey = 1 if name == "rhov" else 0
            glob = gstate.get(name)[
                sub.x0 : sub.x0 + sub.nx + 2 * h + ex,
                sub.y0 : sub.y0 + sub.ny + 2 * h + ey,
            ]
            np.testing.assert_array_equal(loc, glob, err_msg=f"{name}@{sub.rank}")


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(6, 200),
    ny=st.integers(6, 200),
    px=st.integers(1, 8),
    py=st.integers(1, 8),
)
def test_decompose_partition_properties(nx, ny, px, py):
    if nx < 3 * px or ny < 3 * py:
        with_room = False
    else:
        with_room = True
    if not with_room:
        with pytest.raises(ValueError):
            decompose(nx, ny, px, py)
        return
    subs = decompose(nx, ny, px, py)
    assert len(subs) == px * py
    # exact, non-overlapping cover
    cover = np.zeros((nx, ny), dtype=int)
    for s in subs:
        assert s.nx >= 3 and s.ny >= 3
        cover[s.x0 : s.x0 + s.nx, s.y0 : s.y0 + s.ny] += 1
    assert np.all(cover == 1)
    # balance within one cell
    assert max(s.nx for s in subs) - min(s.nx for s in subs) <= 1
    assert max(s.ny for s in subs) - min(s.ny for s in subs) <= 1
    # rank numbering bijective and row-major
    assert sorted(s.rank for s in subs) == list(range(px * py))
    for s in subs:
        assert s.rank == s.cx * py + s.cy


@settings(max_examples=15, deadline=None)
@given(
    px=st.integers(1, 4), py=st.integers(1, 4),
    periodic_x=st.booleans(), periodic_y=st.booleans(),
)
def test_neighbor_relation_symmetric(px, py, periodic_x, periodic_y):
    """If A says B is its +x neighbor, B must say A is its -x neighbor."""
    subs = decompose(3 * px + 1, 3 * py + 1, px, py)
    by_rank = {s.rank: s for s in subs}
    for s in subs:
        for (dx, dy) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = s.neighbor(dx, dy, periodic_x, periodic_y)
            if nb is None:
                continue
            back = by_rank[nb].neighbor(-dx, -dy, periodic_x, periodic_y)
            assert back == s.rank
