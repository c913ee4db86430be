"""The compiled entry of the halo fill, and the load-time check of the
bodies the slow stage, the halo refreshes, the relaxation and the state
check run.

:func:`run_strips` runs one strip table as one call of ``csrc/halo.c``'s
strip runner where a verified library is in force; the single-domain
fill's entry (``fill_halos_state``) is the 1x1 topology's table, and
it is **byte-identical** to the oracle (``tobytes()``, signed zeros
included) for every argument it accepts; for the rest, and always without
a library, it returns ``NotImplemented`` and the executor runs the
oracle.  The advection has no entry of its own: its C body
(``csrc/advect.c``) runs inside the one compiled call of an RK stage
(``slow_stage``, :class:`~repro.core.rk3.StageBinding`), and a stage the
binding declines runs the oracles.  :func:`native_check` holds the face
sweep and the strip runner to their oracles at load time
(docs/STENCILS.md "Compiled bodies").
"""
from __future__ import annotations

import ctypes
from dataclasses import replace

import numpy as np

from ..core.boundary import state_table
from . import native
from .spec import register_fused

__all__: list[str] = []


# ------------------------------------------------------------ halo strips
def run_strips(strips, blocks: list, addresses: list) -> None:
    """Run one strip table (:class:`~repro.core.boundary.Strips`) over
    ``blocks`` (its slots, at ``addresses``): one compiled call
    (csrc/halo.c) where a library is loaded, else the oracle,
    ``strips.copy``."""
    if _strips(strips, addresses) is NotImplemented:
        strips.copy(blocks)


def _strips(strips, addresses: list):
    lib = native.kernels()
    if lib is None:
        return NotImplemented
    # the slots of the last call keep their C array and struct (a refresh
    # inside one stage meets the same blocks)
    key, bound = (lib.strips_args, addresses), strips.bound
    if bound is None or bound[0] != key:
        slots = np.array(addresses, np.uintp)
        bound = strips.bound = (key, slots, ctypes.byref(lib.strips_args(
            nrow=len(strips.rows), rows=native.address(strips.rows),
            fields=native.address(slots))))
    lib.halo_strips(bound[2])
    return None


@register_fused("fill_halos_state")
def _fill_halos_state(state, names=None):
    """One compiled call per refresh where a library is loaded, else the
    reference fill: the strip table of a 1x1 topology over the state's
    block."""
    if (native.kernels() is None
            or not isinstance(names, (list, tuple, type(None)))):
        return NotImplemented
    return _strips(state_table(state, names), [state.address])


# ------------------------------------------------- compiled-body self-check
def native_check(lib) -> str:
    """What differs between ``lib``'s face sweep and halo strip runner and
    their oracles ("" when nothing does): the sweep against
    ``limited_face_flux`` on a ``(4, n, 1)`` stack along axis 0, every
    four-cell stencil of signed zeros, ones, 3.25, infinities, NaN and a
    subnormal under fluxes of both signs; then the strip runner: the
    single-domain fill, and a 2 x 2 open and a 3 x 1 periodic exchange
    point; then the Davies relaxation and the state check.  The
    advections are held to their oracles inside the slow stage
    (:func:`repro.core.acoustic.native_check`); the state copy is a
    ``memcpy``."""
    from ..core import advection as adv
    from ..core.boundary import fill_halos_state, strip_table
    from ..core.grid import make_grid
    from ..core.state import State

    tiny = np.finfo(np.float64).smallest_subnormal
    vals = np.array([0.0, -0.0, 1.0, -1.0, 3.25, np.inf, -np.inf, np.nan,
                     tiny])
    p = np.ascontiguousarray(np.stack(np.meshgrid(
        *[vals] * 4, indexing="ij"))).reshape(4, -1, 1)
    n = p.shape[1]                      # face i: cells p[0, i] .. p[3, i]
    # 7 fluxes against 9 values a cell: every upwind triple meets every
    # flux (9 and 9**3 are both coprime to 7)
    flux = np.zeros((3, n, 1))
    flux[1, :, 0] = np.array([1.0, -1.0, 0.0, -0.0, 2.5, -tiny,
                              np.inf])[np.arange(n) % 7]
    got = np.empty(n)
    lib.f64.faces(p[1].ctypes.data, n, flux[1].ctypes.data, got.ctypes.data,
                  n)
    with np.errstate(all="ignore"):
        want = adv.limited_face_flux.reference(p, flux, 0).reshape(-1)
    if not native.same(got, want):
        return "faces_float64"
    # the halo fill: 3 x 2 columns under a halo of 3 (overlapping copies),
    # periodic x with open y and the reverse, every staggering
    base = make_grid(3, 2, 4, 100.0, 130.0, 400.0)
    for px in (True, False):
        g = replace(base, periodic_x=px, periodic_y=not px)
        fields = [native.wave(s, k) for s, k in (
            (g.shape_c, 0.3), (g.shape_u, 0.5), (g.shape_v, 0.7),
            (g.shape_w, 0.9), (g.shape_c, 1.1), (g.shape_c, 1.3))]
        runs = []
        for fill in (_fill_halos_state, fill_halos_state.reference):
            st = State(g, *(a.copy() for a in fields[:5]),
                       {"qv": fields[5].copy()})
            with native.using(lib):
                fill(st)
            runs.append([st.get(n) for n in st.prognostic_names()])
        if not all(map(native.same, *runs)):
            return f"halo fill, periodic {'x' if px else 'y'}"
    # two exchange points (rank: interior, (x, y) neighbours, None at an
    # open edge): 2 x 2 ranks with open edges, and 3 x 1 periodic ranks,
    # each its own y neighbour (the seam row)
    names = ("rho", "rhou", "rhov")
    for case, ranks in (
            ("2 x 2 open", [((4, 3), ((None, 2), (None, 1))),
                            ((4, 3), ((None, 3), (0, None))),
                            ((3, 3), ((0, None), (None, 3))),
                            ((3, 3), ((1, None), (2, None)))]),
            ("3 x 1 periodic", [((4, 3), ((2, 1), (0, 0))),
                                ((3, 3), ((0, 2), (1, 1))),
                                ((3, 3), ((1, 0), (2, 2)))])):
        fields = {f"{name}@{r}": native.wave(
            (nx + 6 + (name == "rhou"), ny + 6 + (name == "rhov"), 2),
            0.1 + 0.3 * r)
            for name in names for r, ((nx, ny), _) in enumerate(ranks)}
        strips = strip_table([n for n, _ in ranks], [nb for _, nb in ranks],
                             names, [(a.shape, a.itemsize)
                                     for a in fields.values()], (0, 1), 3)
        got = {k: a.copy() for k, a in fields.items()}
        with native.using(lib):
            if _strips(strips, [a.ctypes.data for a in got.values()]
                       ) is NotImplemented:
                return f"halo strips, {case}"
        want = [a.copy() for a in fields.values()]
        strips.copy(want)
        if not all(map(native.same, got.values(), want)):
            return f"halo strips, {case}"
    return _relax_check(lib) or _validate_check(lib)


def _relax_check(lib) -> str:
    """The Davies relaxation against its NumPy text: a 5 x 4 open domain
    and a 2 x 2 rank view of it at (2, 1), every staggering, a target
    with a NaN, an infinity and a signed zero."""
    from ..core.boundary import RelaxationBC
    from ..core.grid import make_grid
    from ..core.state import State

    wave = native.wave
    whole = make_grid(5, 4, 3, 100.0, 130.0, 300.0, periodic_x=False,
                      periodic_y=False)
    bc = RelaxationBC(whole, width=2, tau=7.0)
    for k, (name, shape) in enumerate((
            ("rho", whole.shape_c), ("rhou", whole.shape_u),
            ("rhov", whole.shape_v), ("rhow", whole.shape_w),
            ("qv", whole.shape_c))):
        target = wave(shape, 0.3 + 0.2 * k, 1.0)
        target.reshape(-1)[k:k + 3] = (np.nan, np.inf, -0.0)
        bc.set_target(name, target)
    for view, g in ((bc, whole), (bc.at(2, 1), make_grid(
            2, 2, 3, 100.0, 130.0, 300.0, periodic_x=False,
            periodic_y=False))):
        runs = []
        for relax in (view.apply, view._relax_numpy):
            st = State(g, *(wave(s, k, 1.5) for s, k in (
                (g.shape_c, 0.7), (g.shape_u, 0.9), (g.shape_v, 1.1),
                (g.shape_w, 1.3), (g.shape_c, 1.7))),
                {"qv": wave(g.shape_c, 1.9, 0.5)})
            with native.using(lib), np.errstate(all="ignore"):
                relax(st, 5.0)
            runs.append(st.block.copy())
        if not native.same(*runs):
            return f"relaxation, origin {view.origin}"
    return ""


def _validate_check(lib) -> str:
    """The state check against its NumPy text (raises or not): a valid
    state, a halo-only NaN, then one interior NaN or infinity in each
    field, at its first and last interior cell, and a density of +0.0,
    -0.0 and -1 there."""
    from ..core.grid import make_grid
    from ..core.state import NumericalBlowup, State

    g = make_grid(3, 2, 3, 100.0, 130.0, 300.0)
    h = g.halo
    valid = State(g, native.wave(g.shape_c, 0.7, 2.0), *(
        native.wave(s, k) for s, k in ((g.shape_u, 0.9), (g.shape_v, 1.1),
                                       (g.shape_w, 1.3), (g.shape_c, 1.7))),
        {"qv": native.wave(g.shape_c, 1.9)})
    cases = [(None, None, 0.0), ("rhotheta", (0, 0, 0), np.nan)]
    for name in valid.prognostic_names():
        cases += [(name, (h, h, 0), np.nan), (name, (
            h + g.nx - 1, h + g.ny - 1, -1), -np.inf)]
    cases += [("rho", (h + 1, h, 1), v) for v in (0.0, -0.0, -1.0)]
    for name, at, value in cases:
        st = valid.copy()
        if name is not None:
            st.get(name)[at] = value
        outcomes = []
        for use in (lib, None):
            with native.using(use):
                try:
                    st.validate()
                    outcomes.append(None)
                except NumericalBlowup as err:
                    outcomes.append(err.field)
        if outcomes[0] != outcomes[1]:
            return f"state check, {name} {value} at {at}"
    return ""


# the warm-rain body registers itself beside these
from . import kessler  # noqa: E402,F401
