"""Tests of the 2-D decomposition and the Table I mesh law."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.decomposition import (
    TABLE1_CONFIGS,
    Subdomain,
    decompose,
    make_subgrid,
    table1_mesh,
)
from repro.core.grid import make_grid, bell_mountain

#: (GPUs, mesh) rows exactly as printed in the paper's Table I
PAPER_TABLE1 = {
    (2, 3): (636, 760, 48),
    (4, 5): (1268, 1264, 48),
    (6, 9): (1900, 2272, 48),
    (8, 10): (2532, 2524, 48),
    (10, 12): (3164, 3028, 48),
    (12, 14): (3796, 3532, 48),
    (12, 16): (3796, 4036, 48),
    (14, 18): (4428, 4540, 48),
    (16, 20): (5060, 5044, 48),
    (18, 20): (5692, 5044, 48),
    (18, 22): (5692, 5548, 48),
    (20, 22): (6324, 5548, 48),
    (20, 24): (6324, 6052, 48),
    (22, 24): (6956, 6052, 48),
}


def test_table1_reproduced_exactly():
    """Every row of the paper's Table I follows from the 320x256 block +
    4-cell overlap law."""
    for (px, py), mesh in PAPER_TABLE1.items():
        assert table1_mesh(px, py) == mesh, (px, py)


def test_table1_configs_match_gpu_counts():
    counts = [px * py for px, py in TABLE1_CONFIGS]
    assert counts == [6, 20, 54, 80, 120, 168, 192, 252, 320, 360, 396, 440,
                      480, 528]


def test_decompose_covers_domain():
    subs = decompose(100, 77, 4, 3)
    assert len(subs) == 12
    # exact cover, no overlap
    cover = np.zeros((100, 77), dtype=int)
    for s in subs:
        cover[s.x0 : s.x0 + s.nx, s.y0 : s.y0 + s.ny] += 1
    assert np.all(cover == 1)


def test_decompose_balance():
    subs = decompose(101, 50, 4, 5)
    sizes = {(s.nx, s.ny) for s in subs}
    xs = {s.nx for s in subs}
    assert max(xs) - min(xs) <= 1


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose(10, 10, 0, 1)
    with pytest.raises(ValueError):
        decompose(8, 8, 4, 1)  # 2 cells per rank < min_cells=3


def test_neighbors_periodic_and_open():
    subs = decompose(30, 30, 3, 2)
    s = subs[0]  # (cx=0, cy=0)
    assert s.neighbor(-1, 0, True, True) == 2 * 2  # wraps to cx=2
    assert s.neighbor(-1, 0, False, True) is None
    assert s.neighbor(0, -1, True, True) == 1      # wraps to cy=1
    assert s.neighbor(0, -1, True, False) is None
    assert s.neighbor(1, 0, False, False) == 2     # rank = cx*py + cy


def test_rank_numbering_row_major():
    subs = decompose(30, 30, 3, 2)
    for s in subs:
        assert s.rank == s.cx * 2 + s.cy


def test_make_subgrid_slices_geometry():
    terr = bell_mountain(height=300.0, half_width=3000.0, x0=8000.0)
    g = make_grid(16, 12, 6, 1000.0, 1000.0, 8000.0, terrain=terr)
    subs = decompose(16, 12, 2, 2)
    for sub in subs:
        loc = make_subgrid(g, sub)
        assert loc.nx == sub.nx and loc.ny == sub.ny
        # terrain in the local interior matches the global interior slice
        h = g.halo
        np.testing.assert_array_equal(
            loc.zs[h : h + sub.nx, h : h + sub.ny],
            g.zs[h + sub.x0 : h + sub.x0 + sub.nx, h + sub.y0 : h + sub.y0 + sub.ny],
        )
        # including the halo region (true neighbor geometry, not a copy)
        np.testing.assert_array_equal(
            loc.zs, g.zs[sub.x0 : sub.x0 + sub.nx + 2 * h,
                         sub.y0 : sub.y0 + sub.ny + 2 * h],
        )
        assert not loc.periodic_x and not loc.periodic_y


#: the 2-D metric arrays of a Grid and their extra (u-face, v-face) extent
_METRICS = {"zs": (0, 0), "jac": (0, 0), "jac_u": (1, 0), "jac_v": (0, 1),
            "dzsdx_u": (1, 0), "dzsdy_v": (0, 1)}


@settings(max_examples=40, deadline=None)
@given(px=st.integers(1, 3), py=st.integers(1, 3), terrain=st.booleans(),
       halo=st.sampled_from([2, 3]), extra=st.tuples(st.integers(0, 4),
                                                     st.integers(0, 4)))
def test_subgrid_metrics_are_contiguous_copies_of_the_global_slices(
        px, py, terrain, halo, extra):
    """A compiled body takes addresses: every rank's 2-D metrics are
    C-contiguous (they were strided views of the global arrays, and every
    rank's substep silently ran on NumPy) and hold the bytes of the global
    slice, which is what keeps decomposed == single-domain."""
    nx, ny = 3 * px + extra[0], 3 * py + extra[1]
    hill = bell_mountain(height=300.0, half_width=500.0, x0=900.0, y0=700.0)
    g = make_grid(nx, ny, 4, 100.0, 120.0, 4000.0, halo=halo,
                  terrain=hill if terrain else None)
    for sub in decompose(nx, ny, px, py):
        loc = make_subgrid(g, sub)
        for name, (ex, ey) in _METRICS.items():
            got = getattr(loc, name)
            want = getattr(g, name)[sub.x0:sub.x0 + sub.nx + 2 * halo + ex,
                                    sub.y0:sub.y0 + sub.ny + 2 * halo + ey]
            assert got.flags.c_contiguous, name
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
