"""2-D (Px x Py) domain decomposition (paper Sec. V).

"We decompose the given grid in both the x and y directions (2D
decomposition) and allocate each sub domain to a single GPU.  Since the z
dimension is relatively small ... each GPU is responsible for all the
elements in the z direction."

Table I of the paper follows a simple law this module encodes: every GPU
holds a 320 x 256 x 48 block and adjacent blocks share a 4-cell overlap
(two halo cells contributed by each side), so the global mesh is::

    nx = 320 Px - 4 (Px - 1),   ny = 256 Py - 4 (Py - 1),   nz = 48

which reproduces every row of the table exactly (e.g. 22 x 24 GPUs ->
6956 x 6052 x 48).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.grid import Grid

__all__ = [
    "Subdomain",
    "Topology",
    "decompose",
    "table1_mesh",
    "TABLE1_CONFIGS",
    "make_subgrid",
]

#: the (Px x Py) configurations of the paper's Table I
TABLE1_CONFIGS: list[tuple[int, int]] = [
    (2, 3), (4, 5), (6, 9), (8, 10), (10, 12), (12, 14), (12, 16),
    (14, 18), (16, 20), (18, 20), (18, 22), (20, 22), (20, 24), (22, 24),
]

#: per-GPU block and shared overlap of the paper's weak-scaling runs
BLOCK_NX, BLOCK_NY, BLOCK_NZ, OVERLAP = 320, 256, 48, 4


def table1_mesh(px: int, py: int) -> tuple[int, int, int]:
    """Global mesh size for a (px x py) GPU grid — the paper's Table I."""
    return (
        BLOCK_NX * px - OVERLAP * (px - 1),
        BLOCK_NY * py - OVERLAP * (py - 1),
        BLOCK_NZ,
    )


@dataclass(frozen=True)
class Subdomain:
    """One rank's slice of the global interior grid."""

    rank: int
    cx: int                 #: x coordinate in the process grid
    cy: int
    px: int
    py: int
    x0: int                 #: global interior offset of the local interior
    y0: int
    nx: int                 #: local interior extent
    ny: int

    def neighbor(self, dx: int, dy: int, periodic_x: bool, periodic_y: bool) -> int | None:
        """Rank of the neighbor at (cx+dx, cy+dy), or None at an open
        edge.  Rank numbering is row-major in (cx, cy)."""
        nx_, ny_ = self.cx + dx, self.cy + dy
        if periodic_x:
            nx_ %= self.px
        elif not 0 <= nx_ < self.px:
            return None
        if periodic_y:
            ny_ %= self.py
        elif not 0 <= ny_ < self.py:
            return None
        return nx_ * self.py + ny_

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"Subdomain(rank={self.rank}, ({self.cx},{self.cy}) of "
                f"{self.px}x{self.py}, x0={self.x0}, y0={self.y0}, "
                f"{self.nx}x{self.ny})")


@dataclass(frozen=True)
class Topology:
    """Process-grid shape plus the per-axis boundary treatment.

    This is the *single* owner of the periodic-vs-open decision for a
    decomposed run: build it once from the global grid's periodicity
    flags (:meth:`from_grid`) and pass it to every consumer
    (:class:`~repro.dist.halo.HaloExchanger`,
    :class:`~repro.dist.multigpu.MultiGpuAsuca`).  Edge ranks of a
    non-periodic axis have no neighbor there and apply the open
    (zero-gradient) fill instead of wrapping — previously that choice
    was re-derived independently in ``halo.py`` and ``multigpu.py`` and
    could desynchronize.
    """

    px: int
    py: int
    periodic_x: bool
    periodic_y: bool

    @classmethod
    def from_grid(cls, grid: Grid, px: int, py: int) -> "Topology":
        """The canonical constructor: boundary treatment comes from the
        global grid's periodicity flags, per axis."""
        return cls(px=px, py=py, periodic_x=grid.periodic_x,
                   periodic_y=grid.periodic_y)

    def periodic(self, axis: int) -> bool:
        """Does ``axis`` (0 = x, 1 = y) wrap at the global edge?"""
        return self.periodic_x if axis == 0 else self.periodic_y

    def neighbor(self, sub: Subdomain, dx: int, dy: int) -> int | None:
        """Rank at (cx+dx, cy+dy) from ``sub``, or None at an open edge."""
        return sub.neighbor(dx, dy, self.periodic_x, self.periodic_y)

    def axis_neighbor(self, sub: Subdomain, axis: int,
                      direction: int) -> int | None:
        """Neighbor one step along ``axis`` in ``direction`` (+1/-1)."""
        if axis == 0:
            return self.neighbor(sub, direction, 0)
        return self.neighbor(sub, 0, direction)


def decompose(
    nx: int, ny: int, px: int, py: int, *, min_cells: int = 3
) -> list[Subdomain]:
    """Split an (nx, ny) interior into px x py near-equal subdomains.

    Remainder cells go to the lowest-coordinate ranks (standard block
    distribution).  Every subdomain must be at least ``min_cells`` (the
    halo width) cells wide so a halo comes from a single neighbor.
    """
    if px < 1 or py < 1:
        raise ValueError("process grid must be at least 1x1")
    if nx < min_cells * px or ny < min_cells * py:
        raise ValueError(
            f"{nx}x{ny} interior too small for a {px}x{py} decomposition "
            f"(needs >= {min_cells} cells per rank per direction)"
        )
    xs = _block_sizes(nx, px)
    ys = _block_sizes(ny, py)
    x_offsets = np.concatenate([[0], np.cumsum(xs)[:-1]])
    y_offsets = np.concatenate([[0], np.cumsum(ys)[:-1]])
    subs = []
    for cx in range(px):
        for cy in range(py):
            rank = cx * py + cy
            subs.append(
                Subdomain(
                    rank=rank, cx=cx, cy=cy, px=px, py=py,
                    x0=int(x_offsets[cx]), y0=int(y_offsets[cy]),
                    nx=int(xs[cx]), ny=int(ys[cy]),
                )
            )
    return subs


def _block_sizes(n: int, p: int) -> np.ndarray:
    base, rem = divmod(n, p)
    return np.array([base + (1 if i < rem else 0) for i in range(p)])


def make_subgrid(global_grid: Grid, sub: Subdomain) -> Grid:
    """Local grid of one rank, with geometry arrays *sliced* from the
    global grid so that distributed arithmetic is bit-identical to the
    single-domain run (halo regions carry the true neighbor geometry).
    The :class:`Grid` keeps contiguous copies of the slices."""
    g = global_grid
    h = g.halo
    # global arrays span [0, nx + 2h); local interior [x0, x0+nxl) maps to
    # global [h + x0, h + x0 + nxl); the local array spans 2h more.
    gx0 = sub.x0
    gy0 = sub.y0
    sl_x = slice(gx0, gx0 + sub.nx + 2 * h)
    sl_y = slice(gy0, gy0 + sub.ny + 2 * h)
    sl_xu = slice(gx0, gx0 + sub.nx + 2 * h + 1)
    sl_yv = slice(gy0, gy0 + sub.ny + 2 * h + 1)
    return Grid(
        nx=sub.nx, ny=sub.ny, nz=g.nz, dx=g.dx, dy=g.dy, ztop=g.ztop, halo=h,
        z_f=g.z_f, z_c=g.z_c, dz_c=g.dz_c, dz_f=g.dz_f,
        zs=g.zs[sl_x, sl_y],
        jac=g.jac[sl_x, sl_y],
        jac_u=g.jac_u[sl_xu, sl_y],
        jac_v=g.jac_v[sl_x, sl_yv],
        dzsdx_u=g.dzsdx_u[sl_xu, sl_y],
        dzsdy_v=g.dzsdy_v[sl_x, sl_yv],
        periodic_x=False,  # halos always come from exchange, never wrap
        periodic_y=False,
        decay_c=g.decay_c,
        decay_f=g.decay_f,
    )
