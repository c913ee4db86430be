"""Prognostic model state in generalized-coordinate flux form.

The conserved (prognostic) variables follow the paper's Eqs. (1)-(4): the
density-weighted quantities divided by the coordinate Jacobian.  With our
Jacobian convention ``G = dz/dx3`` (``G = 1/J`` in the paper's notation) the
variables stored here are

=========== ========================= ============================
attribute   meaning                   grid location
=========== ========================= ============================
``rho``     G * rho                   cell centers
``rhou``    G_u * rho * u             x faces
``rhov``    G_v * rho * v             y faces
``rhow``    G * rho * w               z faces
``rhotheta``G * rho * theta_m         cell centers
``q[name]`` G * rho * q_alpha         cell centers (7 species)
=========== ========================= ============================

Integrating ``rho * dx * dy * dx3`` over computational cells gives physical
mass exactly, which is what the conservation tests assert.

All arrays carry the horizontal halo of the owning :class:`~repro.core.grid.Grid`.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import math

import numpy as np

from .. import constants as c
from ..stencil import native
from .grid import Grid
from .reference import ReferenceState

__all__ = ["Layout", "LayoutError", "NumericalBlowup", "State", "layout",
           "zero_bits", "zeros_state", "state_from_reference"]

#: the dynamic fields, in block order (the water species follow them)
DYNAMIC = ("rho", "rhou", "rhov", "rhow", "rhotheta")


class NumericalBlowup(FloatingPointError):
    """A prognostic ``field`` left the finite (density: the positive) range
    at model ``time``, after long step ``step`` (``None``: not counted).
    The compiled bodies raise no floating-point warnings, so
    :meth:`State.validate` is the tripwire."""

    def __init__(self, what: str, field: str, time: float,
                 step: int | None = None):
        where = f"t={time}" + ("" if step is None else f", long step {step}")
        super().__init__(f"{what} at {where}")
        self.field, self.time, self.step = field, time, step


class LayoutError(ValueError):
    """A value that does not fit a field of a State's block: another shape
    or dtype, not an array, not a field of the layout."""


def zero_bits(a: np.ndarray) -> bool:
    """Every byte of ``a`` is zero.  A test on bits, not ``== 0``: a
    ``-0.0`` keeps its sign through ``-0.0 + -0.0``, so it is not zero.
    Decides what the RK3 stage and the checkpoint codec may skip."""
    return not a.view(f"u{a.itemsize}").max()


class Layout:
    """Where each field of a State lives in its one contiguous block:
    ``names`` (the dynamic fields, then the species), their staggered
    ``shapes`` and element ``offsets`` (C order: a shape gives the
    strides), then the interior slot of the precipitation accumulator.
    One per (grid shape, species, dtype): :func:`layout`."""

    def __init__(self, shapes: tuple, species: tuple, dtype: str):
        c_, u, v, w, precip = shapes
        self.names = (*DYNAMIC, *species)
        self.shapes = (c_, u, v, w, c_, *[c_] * len(species), precip)
        ends = [0, *itertools.accumulate(map(math.prod, self.shapes))]
        self.offsets, self.size = tuple(ends[:-1]), ends[-1]
        self.dtype = np.dtype(dtype)


@functools.lru_cache(maxsize=64)
def _layout(*key) -> Layout:
    return Layout(*key)


def layout(grid: Grid, species, dtype=np.float64) -> Layout:
    """The shared :class:`Layout` of ``grid``, ``species`` (in that order)
    and ``dtype``."""
    return _layout((grid.shape_c, grid.shape_u, grid.shape_v, grid.shape_w,
                    (grid.nx, grid.ny)), tuple(species), np.dtype(dtype).str)


def _put(held: np.ndarray, value, name: str) -> np.ndarray:
    """What field ``name`` (now ``held``) holds once ``value`` is set:
    ``value`` itself where it views exactly those bytes (a FLOP-counting
    wrapper), else ``held`` with ``value`` written in."""
    if value is held:
        return held
    if (not isinstance(value, np.ndarray) or value.shape != held.shape
            or value.dtype != held.dtype):
        raise LayoutError(f"{name}: {getattr(value, 'dtype', type(value))} "
                          f"{getattr(value, 'shape', '')} does not fit "
                          f"{held.dtype} {held.shape}")
    if (value.__array_interface__["data"][0], value.strides) == (
            held.__array_interface__["data"][0], held.strides):
        return value
    np.copyto(held, value)
    return held


class _Species(dict):
    """A state's water species: setting one writes into its view."""

    def __setitem__(self, name, value) -> None:
        if name not in self:
            raise LayoutError(f"{name}: not a species of the layout")
        dict.__setitem__(self, name, _put(self[name], value, name))


#: what :meth:`State.__getattr__` makes on first use
_VIEWS = frozenset({"_slot", "_views", "_dyn", "_q", "_ptrs"})


def _dynamic(i: int) -> property:
    return property(lambda self: self._dyn[i],
                    lambda self, value: self.set(DYNAMIC[i], value))


class State:
    """The prognostic arrays: views into one contiguous ``block`` laid out
    by ``layout``.  A field is never rebound to other memory (:meth:`set`),
    so a block copy is a state copy, and a compiled body takes the block's
    base address plus the layout's offsets (:meth:`pointers`).
    ``State(grid, rho, ...)`` copies the arrays given into a fresh block
    in the first one's dtype (a field not given is zero; the species in
    ``q``'s order)."""

    rho, rhou, rhov, rhow, rhotheta = map(_dynamic, range(5))

    def __init__(self, grid: Grid, rho=None, rhou=None, rhov=None, rhow=None,
                 rhotheta=None, q: dict | None = None, time: float = 0.0,
                 precip_accum: np.ndarray | None = None):
        given = (rho, rhou, rhov, rhow, rhotheta, *(q or {}).values())
        lay = layout(grid, q or (), next(
            (a.dtype for a in given if a is not None), np.float64))
        self._bind(grid, lay, np.zeros(lay.size, lay.dtype), time, False)
        for view, value in zip(self._views, given):
            if value is not None:
                view[...] = value
        self.precip_accum = precip_accum

    @classmethod
    def of(cls, grid: Grid, lay: Layout, block: np.ndarray, time: float = 0.0,
           precip: bool = False) -> "State":
        """The state whose fields are ``block``'s (nothing copied)."""
        st = cls.__new__(cls)
        st._bind(grid, lay, block, time, precip)
        return st

    def _bind(self, grid, lay, block, time, precip) -> None:
        self.grid, self.layout, self.block, self.time = grid, lay, block, time
        self._precip = precip
        #: the block's base address
        self.address = block.__array_interface__["data"][0]

    def __getattr__(self, name: str):
        """The field views and every field's address (layout order), made
        on the first use of any: a replayed step never looks at its base's
        fields, so it makes none."""
        if name not in _VIEWS:
            raise AttributeError(name)
        lay, block = self.layout, self.block
        *views, self._slot = [block[o:o + math.prod(s)].reshape(s) for o, s
                              in zip(lay.offsets, lay.shapes)]
        self._views, self._dyn = tuple(views), views[:5]
        self._q = _Species(zip(lay.names[5:], views[5:]))
        self._ptrs = [self.address + o * lay.dtype.itemsize
                      for o in lay.offsets[:-1]]
        return object.__getattribute__(self, name)

    # ------------------------------------------------------------- basics
    @property
    def q(self) -> dict[str, np.ndarray]:
        """The water species by name (setting one writes into it)."""
        return self._q

    @property
    def precip_accum(self) -> np.ndarray | None:
        """Accumulated surface precipitation [kg m^-2 == mm], interior
        cells: the block's last slot, ``None`` until the microphysics
        first sets it.  Setting it writes into the slot (in the state's
        dtype)."""
        return self._slot if self._precip else None

    @precip_accum.setter
    def precip_accum(self, value) -> None:
        self._precip = value is not None
        if value is None:
            self._slot[...] = 0
        else:
            self._slot = _put(self._slot, np.asanyarray(value, self.dtype),
                              "precip_accum")

    @property
    def dtype(self) -> np.dtype:
        return self.layout.dtype

    def copy(self) -> "State":
        """A state of its own: one copy of the block."""
        return State.of(self.grid, self.layout, self.block.copy(), self.time,
                        self._precip)

    def assign(self, src: "State") -> "State":
        """Make this state a copy of ``src``, of the same layout: one copy
        into this state's block (one compiled call where a library is
        loaded: a captured step's input copy is a row)."""
        if src.layout is not self.layout:
            raise LayoutError("assign between states of different layouts")
        lib = native.kernels()
        if lib is None or not (self.block.flags.c_contiguous
                               and src.block.flags.c_contiguous):
            np.copyto(self.block, src.block)
        else:
            lib.copy(ctypes.byref(lib.copy_args(
                dst=self.address, src=src.address, bytes=self.block.nbytes)))
        self.time, self._precip = src.time, src._precip
        return self

    def prognostic_names(self) -> list[str]:
        return [*DYNAMIC, *self._q]

    def get(self, name: str) -> np.ndarray:
        if name in self._q:
            return self._q[name]
        return getattr(self, name)

    def set(self, name: str, value: np.ndarray) -> None:
        """Write ``value`` into field ``name``'s view (:class:`LayoutError`
        on another shape or dtype): a field is never rebound to other
        memory, and a view of exactly its bytes (a FLOP-counting wrapper)
        is held as it is."""
        if name in self._q:
            self._q[name] = value
        elif name in DYNAMIC:
            i = DYNAMIC.index(name)
            self._dyn[i] = _put(self._dyn[i], value, name)
        else:
            raise LayoutError(f"{name}: not a field of the layout")

    def pointers(self) -> "list[int] | native.Unbound":
        """Every field's address (layout order): the block's base plus the
        layout's offsets, taken once per block; or why a compiled body
        cannot take the state (not float64, a field held as a wrapper)."""
        if self.layout.dtype != np.float64:
            return native.Unbound("rho", self.layout.dtype.name)
        for name, a, view in zip(self.layout.names,
                                 [*self._dyn, *self._q.values()], self._views):
            if a is not view:
                return native.Unbound(name, f"a {type(a).__name__}")
        return self._ptrs

    def validate(self, step: int | None = None) -> None:
        """Raise :class:`NumericalBlowup` if any array is non-finite or
        density is non-positive in the interior — the model driver calls
        this after long step ``step`` when ``check_finite`` is on.  One
        compiled call where a library takes the state (csrc/halo.c
        ``state_validate``: a captured step's row, whose nonzero return
        aborts a replay), and only a state it finds wrong runs the NumPy
        below, its oracle, which names the field.  There, one pass over the
        block first: its sum is finite only if every value is, and only a
        sum that is not (a non-finite halo value, or an overflow) runs the
        per-field interior scan."""
        g = self.grid
        lib = native.kernels()
        ptrs = None if lib is None else self.pointers()
        if isinstance(ptrs, list) and len(ptrs) <= lib.STATE_MAXF:
            args = lib.validate_args(nxh=g.nxh, nyh=g.nyh, nz=g.nz, h=g.halo,
                                     nx=g.nx, ny=g.ny, nf=len(ptrs))
            args.f[:len(ptrs)] = ptrs
            if not lib.validate(ctypes.byref(args)):
                return
        if not math.isfinite(np.add.reduce(self.block)):
            for name in self.prognostic_names():
                if not np.all(np.isfinite(g.interior(self.get(name)))):
                    raise NumericalBlowup(f"non-finite values in {name!r}",
                                          name, self.time, step)
        if not g.interior(self.rho).min() > 0:
            raise NumericalBlowup("non-positive density", "rho", self.time,
                                  step)

    # --------------------------------------------------------- diagnostics
    def velocities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical velocities (u at x faces, v at y faces, w at z faces)
        reconstructed from the G-weighted momenta.  Uses simple two-point
        averages for face densities, one-sided at domain edges.  One
        compiled call (csrc/acoustic.c, ``state_velocities``) where a
        verified library takes the float64 fields, else the NumPy below,
        its oracle: the same bytes."""
        g = self.grid
        lib = native.kernels()
        if lib is not None:
            ptrs = self.pointers()
            if not isinstance(ptrs, native.Unbound):
                out = (np.empty(g.shape_u), np.empty(g.shape_v),
                       np.empty(g.shape_w))
                lib.velocities(*g.shape_c, *ptrs[:4],
                               *(a.ctypes.data for a in out))
                return out
            native.unbound("velocities", ptrs)
        rho_u = np.empty(g.shape_u, dtype=self.dtype)
        rho_u[1:-1] = 0.5 * (self.rho[1:] + self.rho[:-1])
        rho_u[0] = self.rho[0]
        rho_u[-1] = self.rho[-1]
        # self.rho is G-weighted with the scalar-column G; face G cancels
        # approximately -- we reconstruct with the G-weighted face density,
        # which is exactly consistent with how rhou was built.
        u = self.rhou / rho_u

        rho_v = np.empty(g.shape_v, dtype=self.dtype)
        rho_v[:, 1:-1] = 0.5 * (self.rho[:, 1:] + self.rho[:, :-1])
        rho_v[:, 0] = self.rho[:, 0]
        rho_v[:, -1] = self.rho[:, -1]
        v = self.rhov / rho_v

        rho_w = np.empty(g.shape_w, dtype=self.dtype)
        rho_w[:, :, 1:-1] = 0.5 * (self.rho[:, :, 1:] + self.rho[:, :, :-1])
        rho_w[:, :, 0] = self.rho[:, :, 0]
        rho_w[:, :, -1] = self.rho[:, :, -1]
        w = self.rhow / rho_w
        return u, v, w

    def theta_m(self) -> np.ndarray:
        """Moist potential temperature ``theta_m = rhotheta / rho``."""
        return self.rhotheta / self.rho

    def pressure(self) -> np.ndarray:
        """Full pressure from the equation of state (paper Eq. 5),
        ``p = p0 * (Rd * rho * theta_m / p0) ** (cp/cv)``.

        The G weights cancel in ``rhotheta / G`` only when divided out; we
        need the physical ``rho * theta_m`` so divide by G here."""
        jac = self.grid.jac[:, :, None]
        rhotheta_phys = self.rhotheta / jac
        return c.P0 * (c.RD * rhotheta_phys / c.P0) ** (c.CP / c.CV)

    def total_mass(self) -> float:
        """Physical mass of the interior domain (exact FVM invariant)."""
        g = self.grid
        cell = g.interior(self.rho) * g.dz_c[None, None, :]
        return float(cell.sum() * g.dx * g.dy)

    def total_water_mass(self) -> float:
        g = self.grid
        tot = 0.0
        for arr in self.q.values():
            tot += float((g.interior(arr) * g.dz_c[None, None, :]).sum())
        return tot * g.dx * g.dy

    def mixing_ratio(self, name: str) -> np.ndarray:
        """Diagnostic mixing ratio ``q_alpha = (G rho q) / (G rho)``."""
        return self.q[name] / self.rho


def zeros_state(grid: Grid, dtype=np.float64, species=c.WATER_SPECIES) -> State:
    lay = layout(grid, species, dtype)
    return State.of(grid, lay, np.zeros(lay.size, lay.dtype))


def state_from_reference(
    grid: Grid,
    ref: ReferenceState,
    *,
    u0: float = 0.0,
    v0: float = 0.0,
    dtype=np.float64,
    species=c.WATER_SPECIES,
) -> State:
    """Initialize a state in exact discrete hydrostatic balance with an
    optional uniform horizontal wind.  ``rhow`` starts at zero; with terrain
    the flow is *not* initially parallel to coordinate surfaces, which is the
    standard impulsive start of the mountain-wave test."""
    st = zeros_state(grid, dtype=dtype, species=species)
    jac3 = grid.jac[:, :, None]
    st.rho[...] = (ref.rho_c * jac3).astype(dtype)
    st.rhotheta[...] = (ref.rho_c * ref.theta_c * jac3).astype(dtype)

    # u faces: average neighboring G*rho columns
    grho = ref.rho_c * jac3
    grho_u = np.empty(grid.shape_u)
    grho_u[1:-1] = 0.5 * (grho[1:] + grho[:-1])
    grho_u[0] = grho[0]
    grho_u[-1] = grho[-1]
    st.rhou[...] = (u0 * grho_u).astype(dtype)

    grho_v = np.empty(grid.shape_v)
    grho_v[:, 1:-1] = 0.5 * (grho[:, 1:] + grho[:, :-1])
    grho_v[:, 0] = grho[:, 0]
    grho_v[:, -1] = grho[:, -1]
    st.rhov[...] = (v0 * grho_v).astype(dtype)
    return st
