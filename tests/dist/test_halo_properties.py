"""Property-based tests of decomposition + halo exchange: for arbitrary
domain sizes, process grids, field subsets, axes, dtypes and random field
content, the exchange must reproduce the single-domain fill (periodic wrap
or open zero-gradient, per axis) on every rank, with the compiled strip
runner and with its oracle."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boundary import STAGGER, strip_table
from repro.core.grid import make_grid
from repro.core.model import ModelConfig
from repro.core.reference import make_reference_state
from repro.core.state import State, state_from_reference
from repro.dist.decomposition import decompose
from repro.dist.multigpu import MultiGpuAsuca
from repro.stencil import native
from repro.workloads.sounding import constant_stability_sounding

NAMES = ["rho", "rhou", "rhov", "rhow", "rhotheta", "qv", "qc"]


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
    dtype=st.sampled_from([np.float64, np.float32]),
    names=st.lists(st.sampled_from(NAMES), min_size=1, unique=True),
    axes=st.sampled_from([(0,), (1,), (0, 1)]),
    compiled=st.booleans(),
)
def test_exchange_equals_periodic_fill_random(
        nx, ny, px, py, periodic_x, periodic_y, halo, seed, dtype, names,
        axes, compiled):
    """Every field stagger and subset, process grid, per-axis edge
    treatment, halo width, axes and dtype: the exchange leaves on each
    rank, halos and corners included, what the single-domain (1 x 1)
    strip table leaves in the global field, with the compiled runner and
    with the oracle alike; the traffic per rank pair is the table's."""
    g = make_grid(nx=nx, ny=ny, nz=3, dx=500.0, dy=500.0, ztop=3000.0,
                  halo=halo, periodic_x=periodic_x, periodic_y=periodic_y)
    ref = make_reference_state(g, constant_stability_sounding())
    base = state_from_reference(g, ref)
    r = np.random.default_rng(seed)
    gstate = State(g, *((a + r.normal(size=a.shape)).astype(dtype) for a in (
        base.rho, base.rhou, base.rhov, base.rhow, base.rhotheta)),
        {q: r.random(g.shape_c).astype(dtype) for q in ("qv", "qc")})
    # make the periodic seams consistent (computed fields always are)
    h = g.halo
    if periodic_x:
        gstate.rhou[h + g.nx] = gstate.rhou[h]
    if periodic_y:
        gstate.rhov[:, h + g.ny] = gstate.rhov[:, h]

    runs = []
    for lib in (native.library() if compiled else None, None):
        machine = MultiGpuAsuca(g, ref, px, py, ModelConfig())
        states = machine.scatter_state(gstate)
        with native.using(lib):
            machine.exchange_all(states, names, axes=axes)
        runs.append(states)
    for a, b in zip(*runs):                     # compiled == oracle
        for name in names:
            assert a.get(name).tobytes() == b.get(name).tobytes(), name

    fields = [gstate.get(name) for name in names]
    wrap = [(0, 0) if p else (None, None) for p in (periodic_x, periodic_y)]
    strip_table([(g.nx, g.ny)], [wrap], names,
                [(a.shape, a.itemsize) for a in fields], axes, h).copy(fields)
    for sub, stt in zip(machine.subs, runs[0]):
        for name in names:
            sx, sy = STAGGER.get(name, (False, False))
            glob = gstate.get(name)[sub.x0 : sub.x0 + sub.nx + 2 * h + sx,
                                    sub.y0 : sub.y0 + sub.ny + 2 * h + sy]
            np.testing.assert_array_equal(stt.get(name), glob,
                                          err_msg=f"{name}@{sub.rank}")

    layout = [(stt.get(name).shape, stt.get(name).itemsize)
              for name in names for stt in runs[0]]
    table = strip_table([(sub.nx, sub.ny) for sub in machine.subs],
                        [machine.topology.neighbours(sub)
                         for sub in machine.subs], names, layout, axes, h)
    by_pair = Counter()
    for src, dst, _, nbytes in table.messages:
        by_pair[src, dst] += nbytes
    assert machine.comm.stats.by_pair == by_pair
    assert machine.comm.stats.messages == len(table.messages)


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
