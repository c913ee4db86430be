"""Boundary conditions: halo refreshes, the kinematic surface condition,
Rayleigh damping and relaxation (Davies) lateral boundaries.

The paper's mountain-wave benchmark uses periodic lateral boundaries
(Sec. IV-B); the real-data run uses externally supplied boundary data with
relaxation.  Vertically the model has a rigid free-slip lid and the
kinematic terrain condition ``u^3 = 0`` at the surface.

Every halo refresh, single-domain or decomposed, is one :class:`Strips`
table of byte copies (:func:`strip_table`) in the paper's geometry (Sec. V,
Figs. 6 and 8): x strips, then y strips spanning the x halos just filled
(corners in two hops); a neighbour's interior strip, or at an open edge the
zero gradient.  The single-domain fill is the table of a 1x1 topology whose
periodic axes wrap onto the rank itself; ``csrc/halo.c`` runs a table in
one compiled call and :meth:`Strips.copy` is its oracle.
"""
from __future__ import annotations

import copy
import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..stencil import native
from ..stencil.spec import stencil
from .grid import Grid
from .state import State

__all__ = [
    "STAGGER",
    "Strips",
    "strip_table",
    "fill_table",
    "state_table",
    "fill_halos_state",
    "apply_kinematic_surface",
    "rayleigh_coefficient",
    "RelaxationBC",
]

#: (staggered along x, staggered along y) of the face-staggered fields; a
#: staggered axis has one more face than cells.  Every other field (the
#: water species) sits on cell centres.
STAGGER: dict[str, tuple[bool, bool]] = {
    "rho": (False, False),
    "rhou": (True, False),
    "rhov": (False, True),
    "rhow": (False, False),
    "rhotheta": (False, False),
}
_CENTRED = (False, False)


@dataclass(eq=False)
class Strips:
    """One halo refresh as a table of byte copies over a flat field list.

    Field slot ``f * ranks + r`` is field ``f`` of rank ``r``, laid out as
    ``layout[slot] = (shape, itemsize)`` (C order).  A row of ``rows``
    reads ``(dst, src, nbytes, dst offset, src offset, outer count, dst
    outer stride, src outer stride, inner count, dst inner stride, src
    inner stride)`` and copies ``nbytes`` for every (outer, inner) pair,
    rows in order, each copy a ``memmove``.  A broadcast (the open edge's
    zero gradient) is a row whose src inner stride is 0.

    ``messages`` holds, per neighbour strip in row order, ``(src rank, dst
    rank, tag, nbytes)`` with ``tag = (field, axis, "+" | "-")``: the
    direction the data travels.
    """

    rows: np.ndarray
    layout: tuple
    messages: tuple
    #: the compiled runner's binding (:func:`repro.stencil.dycore.run_strips`):
    #: the library's ``strips_args`` layout and the slot addresses it last
    #: ran over, them as a C array, and the struct over it by reference
    bound: tuple | None = field(default=None, repr=False)

    def in_blocks(self, names, layouts) -> "Strips":
        """This table over the rank states' blocks instead of their fields:
        slot ``r`` is rank ``r``'s block (``layouts[r]``, a
        :class:`~repro.core.state.Layout`), and every row's offsets gain
        its fields' offsets in that block; the same bytes move."""
        n_ranks = len(layouts)
        offsets = np.array([lay.offsets[lay.names.index(name)]
                            * lay.dtype.itemsize
                            for name in names for lay in layouts], dtype="l")
        rows = self.rows.copy()
        rows[:, 3] += offsets[rows[:, 0]]
        rows[:, 4] += offsets[rows[:, 1]]
        rows[:, :2] %= n_ranks
        return Strips(rows, tuple(((lay.size,), lay.dtype.itemsize)
                                  for lay in layouts), self.messages)

    def copy(self, fields: list) -> None:
        """The oracle: every row as one NumPy assignment between byte views
        (NumPy reads an overlapping source first, as ``memmove`` does)."""
        if [(a.shape, a.itemsize) for a in fields] != list(self.layout):
            raise ValueError("fields do not match the strip table's layout")
        for dst, src, n, do, so, no, dso, sso, ni, dsi, ssi in \
                self.rows.tolist():
            # a view past its buffer's end, or over a buffer that is not
            # C-contiguous, raises: no row reads or writes outside its slot
            np.ndarray((no, ni, n), np.uint8, fields[dst], do,
                       (dso, dsi, 1))[...] = np.ndarray(
                (no, ni, n), np.uint8, fields[src], so, (sso, ssi, 1))


def strip_table(extents, neighbours, names, layout, axes, h: int) -> Strips:
    """The strip table of one refresh of ``names`` along ``axes``.

    ``extents[r]`` is rank ``r``'s interior ``(nx, ny)`` and
    ``neighbours[r][axis]`` its ``(low, high)`` neighbour ranks along that
    axis (``None``: an open edge).  Rows run x before y, then field by
    field; within one (axis, field) every receive (by receiver, low side
    first) before every open-edge fill, then the seam row of a rank that
    is its own periodic neighbour on a staggered axis (``arr[h + n] =
    arr[h]``: the two images of the seam face agree exactly)."""
    n_ranks = len(extents)
    if len(layout) != len(names) * n_ranks:
        raise ValueError(f"{len(layout)} fields for {len(names)} names on "
                         f"{n_ranks} ranks")
    for slot, (shape, _) in enumerate(layout):
        name, (nx, ny) = names[slot // n_ranks], extents[slot % n_ranks]
        sx, sy = STAGGER.get(name, _CENTRED)
        if tuple(shape[:2]) != (nx + 2 * h + sx, ny + 2 * h + sy):
            raise ValueError(f"{name} on rank {slot % n_ranks}: shape "
                             f"{shape} is not its grid's")

    def geometry(f, r, axis):
        """slot, outer count, outer stride and bytes of one cell along
        ``axis`` of field ``f`` on rank ``r``"""
        shape, itemsize = layout[f * n_ranks + r]
        unit = math.prod(shape[axis + 1:]) * itemsize
        return (f * n_ranks + r, math.prod(shape[:axis]), shape[axis] * unit,
                unit)

    rows, messages = [], []
    for axis in sorted(axes):
        for f, name in enumerate(names):
            e = int(STAGGER.get(name, _CENTRED)[axis])
            receives, fills = [], []
            for r in range(n_ranks):
                dst, outer, dstride, unit = geometry(f, r, axis)
                n = extents[r][axis]
                lo, hi = neighbours[r][axis]
                for side, nb in ((0, lo), (h + n + e, hi)):
                    if nb is None:
                        # zero gradient from the last interior cell
                        # (staggered: the boundary face itself)
                        edge = h if side == 0 else h + n + e - 1
                        fills.append((dst, dst, unit, side * unit,
                                      edge * unit, outer, dstride, dstride,
                                      h, unit, 0))
                        continue
                    src, src_outer, sstride, src_unit = geometry(f, nb, axis)
                    if (src_outer, src_unit) != (outer, unit):
                        raise ValueError(f"{name}: ranks {nb} and {r} do "
                                         f"not share an edge along {axis}")
                    # toward +axis, the sender's last h interior cells
                    # fill the low halo; toward -axis its first h (faces
                    # [h+1, 2h+1) when staggered) fill the high halo
                    start = extents[nb][axis] if side == 0 else h + e
                    receives.append((dst, src, h * unit, side * unit,
                                     start * unit, outer, dstride, sstride,
                                     1, 0, 0))
                    messages.append((nb, r, (name, axis, "-" if side else "+"),
                                     outer * h * unit))
                if e and lo == hi == r:
                    fills.append((dst, dst, unit, (h + n) * unit, h * unit,
                                  outer, dstride, dstride, 1, 0, 0))
            rows += receives + fills
    return Strips(np.array(rows, dtype="l").reshape(-1, 11), tuple(layout),
                  tuple(messages))


@functools.lru_cache(maxsize=256)
def _fill_strips(nx, ny, h, periodic, names, layout) -> Strips:
    wrap = tuple((0, 0) if p else (None, None) for p in periodic)
    return strip_table([(nx, ny)], [wrap], names, layout, (0, 1), h)


def fill_table(grid: Grid, names, fields) -> Strips:
    """The single-domain fill of ``fields`` (named ``names``): the strip
    table of a 1x1 topology, whose periodic axes wrap onto the rank itself
    (cached per grid shape, names and layout)."""
    return _fill_strips(grid.nx, grid.ny, grid.halo,
                        (grid.periodic_x, grid.periodic_y), tuple(names),
                        tuple([(a.shape, a.itemsize) for a in fields]))


@functools.lru_cache(maxsize=256)
def _state_strips(nx, ny, h, periodic, names, lay) -> Strips:
    fields = [(lay.shapes[lay.names.index(name)], lay.dtype.itemsize)
              for name in names]
    return _fill_strips(nx, ny, h, periodic, names, tuple(fields)
                        ).in_blocks(names, [lay])


def state_table(state: State, names=None) -> Strips:
    """:func:`fill_table` of ``names`` (all prognostics when ``None``) over
    ``state``'s block (cached per grid shape, names and layout)."""
    g = state.grid
    names = state.prognostic_names() if names is None else names
    return _state_strips(g.nx, g.ny, g.halo, (g.periodic_x, g.periodic_y),
                         tuple(names), state.layout)


@stencil(reads=("prognostics",), writes=("prognostics",), halo=0,
         flops=1, loads=1, stores=1, stage="boundary",
         # measured ratios: 3.0 flops, ~4x bytes (five fields, two axes)
         flops_band=(1.5, 4.5), bytes_band=(2.0, 8.0),
         probe=False)
def fill_halos_state(state: State, names: Iterable[str] | None = None) -> None:
    """Fill halos of the named prognostic fields (all when ``None``):
    periodic wrap or open zero-gradient per axis, as ``grid`` says."""
    state_table(state, names).copy([state.block])


def apply_kinematic_surface(state: State) -> None:
    """Set the boundary w faces of ``rhow``.

    Surface: ``w = u dz/dx + v dz/dy`` (flow parallel to terrain), hence
    ``G rho w = G * (rho u dzs/dx + rho v dzs/dy)`` with metric decay 1 at
    the ground.  Lid: ``w = 0``.
    """
    g = state.grid
    if g.is_flat():
        state.rhow[:, :, 0] = 0.0
    else:
        ax = (state.rhou[:, :, 0] / g.jac_u) * g.dzsdx_u
        ay = (state.rhov[:, :, 0] / g.jac_v) * g.dzsdy_v
        horiz = 0.5 * (ax[1:] + ax[:-1]) + 0.5 * (ay[:, 1:] + ay[:, :-1])
        state.rhow[:, :, 0] = g.jac * horiz
    state.rhow[:, :, -1] = 0.0


def rayleigh_coefficient(
    grid: Grid, depth: float, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh sponge-layer damping rate [1/s] on centers and w faces.

    Zero below ``ztop - depth``; ``sin^2`` ramp up to ``1/tau`` at the lid.
    This absorbs vertically propagating mountain waves (st-MIP setup).
    """
    if depth <= 0.0:
        return np.zeros(grid.nz), np.zeros(grid.nz + 1)
    z0 = grid.ztop - depth

    def coef(z):
        s = np.clip((z - z0) / depth, 0.0, 1.0)
        return (np.sin(0.5 * np.pi * s) ** 2) / tau

    return coef(grid.z_c), coef(grid.z_f)


class RelaxationBC:
    """Davies lateral relaxation toward externally prescribed fields.

    Nudges each prognostic variable toward boundary data inside a band of
    ``width`` interior cells along non-periodic edges, with weight
    decreasing from ``1/tau`` at the edge to zero inward (cosine ramp).
    Boundary data may be time-dependent: :meth:`set_target` installs a new
    target (the real-case workload updates it hourly, mirroring the JMA
    forecast-driven boundaries of the paper's Fig. 12 run).
    """

    def __init__(self, grid: Grid, width: int = 5, tau: float = 60.0):
        if width < 1:
            raise ValueError("relaxation width must be >= 1")
        self.grid = grid
        self.width = width
        self.tau = tau
        self.targets: dict[str, np.ndarray] = {}
        #: global index of a state's first (halo) cell; see :meth:`at`
        self.origin = (0, 0)
        self._weight_c = self._make_weight(grid.nxh, grid.nyh)
        self._weight_u = self._make_weight(grid.nxh + 1, grid.nyh)
        self._weight_v = self._make_weight(grid.nxh, grid.nyh + 1)
        #: (field shape, dt, origin) -> the relaxation coefficient,
        #: (field shape, dtype) -> a scratch field of the NumPy text, and
        #: (library's struct, layout, dt, origin) -> a view's :meth:`row`: shared by
        #: the rank views (their NumPy texts run one at a time; a row
        #: computes in registers)
        self._work: dict = {}

    def _make_weight(self, nx_tot: int, ny_tot: int) -> np.ndarray:
        g, w = self.grid, self.width
        h = g.halo
        wx = np.zeros(nx_tot)
        wy = np.zeros(ny_tot)
        ramp = np.cos(0.5 * np.pi * np.arange(w) / w) ** 2
        if not g.periodic_x:
            wx[h : h + w] = np.maximum(wx[h : h + w], ramp)
            wx[nx_tot - h - w : nx_tot - h] = np.maximum(
                wx[nx_tot - h - w : nx_tot - h], ramp[::-1]
            )
            wx[:h] = 1.0
            wx[nx_tot - h :] = 1.0
        if not g.periodic_y:
            wy[h : h + w] = np.maximum(wy[h : h + w], ramp)
            wy[ny_tot - h - w : ny_tot - h] = np.maximum(
                wy[ny_tot - h - w : ny_tot - h], ramp[::-1]
            )
            wy[:h] = 1.0
            wy[ny_tot - h :] = 1.0
        return np.maximum(wx[:, None], wy[None, :]) / self.tau

    def set_target(self, name: str, target: np.ndarray) -> None:
        self.targets[name] = target
        # every view's row holds the old targets: the next step binds anew
        # (and a captured step keyed on the row records again)
        self._work.clear()

    def weight_for(self, arr: np.ndarray) -> np.ndarray:
        """The (x, y) weight field matching an array's staggering."""
        if arr.shape[:2] == self._weight_u.shape:
            return self._weight_u
        if arr.shape[:2] == self._weight_v.shape:
            return self._weight_v
        return self._weight_c

    def at(self, x0: int, y0: int) -> "RelaxationBC":
        """Rank-local view for a subdomain whose halo-inclusive arrays
        start at global index ``(x0, y0)``.  The view *shares* this
        object's targets and weights, so a later :meth:`set_target` here
        reaches every rank."""
        view = copy.copy(self)
        view.origin = (x0, y0)
        return view

    def row(self, lay, dt: float) -> "_Row | native.Unbound | None":
        """The compiled relaxation of states of ``lay`` over ``dt`` on this
        view: its struct, every address but the fields' set, built once
        until the next :meth:`set_target`; or why a loaded library cannot
        take the targets (a target not float64, not C-contiguous or not
        of its field's shape); ``None`` without a library.  A captured step
        keys on it: a new target records again."""
        lib = native.kernels()
        if lib is None:
            return None
        key = (lib.relax_args, lay, dt, self.origin)
        row = self._work.get(key)
        if row is None:
            row = self._work[key] = self._bind(lib, lay, dt)
        return row

    def _bind(self, lib, lay, dt: float) -> "_Row | native.Unbound":
        if len(self.targets) > lib.RELAX_MAXF:
            return native.Unbound("relaxation", f"{len(self.targets)} targets")
        args = lib.relax_args(nf=len(self.targets))
        index, shape, held = [], [], []
        for n, (name, target) in enumerate(self.targets.items()):
            if name not in lay.names:
                return native.Unbound(name, "not a field of the layout")
            i = lay.names.index(name)
            fshape = lay.shapes[i]
            window = target[self._here(fshape)]
            if (type(target) is not np.ndarray or target.dtype != np.float64
                    or not target.flags.c_contiguous
                    or window.shape != fshape):
                return native.Unbound(f"{name} target", "not a float64 "
                                      "C-contiguous field of its shape")
            coef = self._coef(fshape, dt, target)
            index.append(i)
            shape += [*fshape, *(s // 8 for s in target.strides[:2])]
            args.t[n] = window.__array_interface__["data"][0]
            args.c[n] = native.address(coef)
            held += [target, coef]
        table = np.array(shape, np.int64)
        args.shape = native.address(table)
        return _Row(args, index, [table, *held])

    def _here(self, shape) -> tuple:
        """This view's window of a global field of a state field's shape."""
        x0, y0 = self.origin
        return slice(x0, x0 + shape[0]), slice(y0, y0 + shape[1])

    def _coef(self, shape, dt: float, target: np.ndarray) -> np.ndarray:
        """``dt w / (1 + dt w)`` on a field of ``shape`` (z broadcast)."""
        key = (shape, dt, self.origin)
        coef = self._work.get(key)
        if coef is None:
            factor = dt * self.weight_for(target)[self._here(shape)]
            if len(shape) == 3:
                factor = factor[:, :, None]
            coef = self._work[key] = factor / (1.0 + factor)
        return coef

    def apply(self, state: State, dt: float) -> None:
        """Relax the state toward the installed targets over ``dt``.
        Point-wise, so on a rank-local view (:meth:`at`) halo cells relax
        exactly as the neighbor's interior does — no exchange is needed
        afterwards.  One compiled call (csrc/halo.c ``boundary_relax``, a
        row of a captured step) where :meth:`row` binds, else the NumPy
        below, its oracle: the same bytes."""
        row = self.row(state.layout, dt)
        ptrs = state.pointers() if isinstance(row, _Row) else row
        if isinstance(ptrs, list):
            row.args.f[:len(row.index)] = [ptrs[i] for i in row.index]
            native.kernels().relax(ctypes.byref(row.args))
            return
        if ptrs is not None:
            native.unbound("relaxation", ptrs)
        self._relax_numpy(state, dt)

    def _relax_numpy(self, state: State, dt: float) -> None:
        """:meth:`apply`'s NumPy text (its oracle)."""
        for name, target in self.targets.items():
            arr = state.get(name)
            coef = self._coef(arr.shape, dt, target)
            dtype = np.result_type(arr, target, coef)
            tmp = self._work.get((arr.shape, dtype))
            if tmp is None:
                tmp = self._work[arr.shape, dtype] = np.empty(arr.shape, dtype)
            # arr -= coef * (arr - target), in place: the same operations
            np.subtract(arr, target[self._here(arr.shape)], out=tmp)
            np.multiply(coef, tmp, out=tmp)
            np.subtract(arr, tmp, out=arr)


class _Row:
    """A view's bound relaxation: the struct, the layout index of each
    relaxed field, and the arrays its addresses point into."""

    __slots__ = ("args", "index", "held")

    def __init__(self, args, index: list, held: list):
        self.args, self.index, self.held = args, index, held
