"""Stale halos found by running: differential halo poisoning (LINT04, LINT06).

Each :data:`MATRIX` configuration runs a real driver for two long steps,
twice, with different poison in every stale halo ring: an interior byte
that differs between the runs, or a run that raises, is a stale-halo read.
A dispatch site whose outputs can be poisoned without changing the
returned state is dead.  The runs that locate a finding, and LINT06's,
take the oracles, whose dispatches name the kernel.  docs/ANALYSIS.md has
the rules; paths that do not run are not checked.
"""
from __future__ import annotations

import hashlib
import inspect
import sys
import traceback
import weakref
from dataclasses import dataclass

import numpy as np

from .. import constants as c
from ..core.boundary import STAGGER, RelaxationBC, strip_table
from ..core.grid import bell_mountain, make_grid
from ..core.model import AsucaModel, ModelConfig, run_lockstep
from ..core.reference import make_reference_state
from ..core.rk3 import DynamicsConfig, StageBinding
from ..core.state import State
from ..dist.decomposition import Topology, decompose
from ..dist.multigpu import MultiGpuAsuca
from ..physics.surface import SurfaceConfig
from ..stencil import native
from ..stencil.executor import StencilExecutor, use_executor
from ..stencil.spec import REGISTRY
from ..workloads.icnoise import apply_ic_noise
from ..workloads.sounding import tropospheric_sounding
from .findings import Finding

__all__ = ["Config", "MATRIX", "poison_findings"]

STEPS = 2
#: a field of each horizontal staggering, by which strip_table knows it
_NAMES = {(0, 0): "rho", (1, 0): "rhou", (0, 1): "rhov"}
#: what a declaration writes when its kernel updates the state in place
_STATE = {*STAGGER, *c.WATER_SPECIES, "prognostics", "precip"}
_LOCKSTEP = run_lockstep.__code__
#: the poison's range: finite and positive, so that a poisoned density
#: takes the same branches in both runs (``rho.min() > 0``, zero tests)
_POISON = (0.5, 2.0)


@dataclass(frozen=True)
class Config:
    """A driven configuration (1x1 ranks: the single-domain driver).  All
    are moist with terrain, Coriolis, a sponge and surface forcing, so the
    compiled stages run and a captured program replays; an open one
    relaxes toward its initial state."""

    ranks: tuple = (1, 1)
    periodic: tuple = (True, True)
    halo: int = 3
    ice: bool = False

    def __str__(self) -> str:
        edges = "/".join("periodic" if p else "open" for p in self.periodic)
        return (f"{self.ranks[0]}x{self.ranks[1]} {edges}, halo {self.halo}"
                + ", ice" * self.ice)

    def build(self):
        """A fresh :class:`~repro.core.model.Driver`, its initial rank
        states, its global grid."""
        (px, py), (per_x, per_y) = self.ranks, self.periodic
        grid = make_grid(6 * px, 6 * py, 6, 1000.0, 1000.0, 8000.0,
                         halo=self.halo, periodic_x=per_x, periodic_y=per_y,
                         terrain=bell_mountain(300.0, 2000.0, 3000.0 * px,
                                               3000.0 * py))
        ref = make_reference_state(grid, tropospheric_sounding())
        config = ModelConfig(
            DynamicsConfig(dt=2.0, ns=4, coriolis_f=1e-4,
                           rayleigh_depth=2000.0),
            physics_enabled=True, ice_enabled=self.ice,
            surface=SurfaceConfig(heat_flux=200.0, radiation_tau=3600.0))
        relax = None if per_x and per_y else RelaxationBC(grid, width=2)
        model = AsucaModel(grid, ref, config, relaxation=relax)
        state = model.initial_state(u0=6.0, v0=-4.0)
        apply_ic_noise(state, seed=0, theta_noise=0.5, wind_noise=1.0)
        for name, q in (("qv", 0.012 * np.exp(-grid.z3d_c() / 3000.0)),
                        ("qc", 2e-3), ("qi", 1e-4)):
            state.q[name][...] = q * state.rho
        model._exchange(state, None)
        for name in ("rhou", "rhov", "rhotheta") if relax else ():
            relax.set_target(name, state.get(name).copy())
        if (px, py) == (1, 1):
            return model.driver(), [state], grid
        machine = MultiGpuAsuca(grid, ref, px, py, config, relaxation=relax)
        return machine.driver(), machine.scatter_state(state), grid


MATRIX = (Config(), Config(periodic=(False, False), halo=2, ice=True),
          Config((2, 2), (False, False)), Config((3, 1), halo=2))


class _Run(StencilExecutor):
    """One run under the hooks: poison on ``axes``, the log of outer
    dispatches (and body lines with ``locate``), the in-step dispatch
    sites, and the site ``kill`` whose outputs are poisoned."""

    def __init__(self, seed: int, axes=(0, 1), locate=False, kill=None):
        super().__init__("fused")
        self.rng = np.random.default_rng(seed)
        self.axes, self.locate, self.kill = set(axes), locate, kill
        #: (nx, ny) shape -> (masks, box); the dispatch / line log; sites
        self.geoms, self.log, self.sites = {}, [], {}
        #: run_lockstep resumes the ranks in order: this counts the resumes
        self.resumed, self.depth, self.at, self.error = -1, 0, None, None

    def geometry(self, arr: np.ndarray):
        """(poisoned cells per axis, interior box) of a rank field of any
        staggering, from the strip tables; None for an array without halos."""
        key, h = arr.shape[:2], self.h
        if arr.ndim > 1 and key not in self.geoms:
            self.geoms[key] = None
            for r, (nx, ny) in enumerate(self.extents):
                s = (key[0] - nx - 2 * h, key[1] - ny - 2 * h)
                if s in _NAMES:
                    break
            else:
                return None
            layout = [((nx + 2 * h + s[0], ny + 2 * h + s[1]), 1)
                      for nx, ny in self.extents]
            masks = [np.zeros(key, bool), np.zeros(key, bool)]
            for axis, m in enumerate(masks):
                for dst, _, n, do, _, no, dso, _, ni, dsi, _ in strip_table(
                        self.extents, self.neighbours, [_NAMES[s]], layout,
                        (axis,), h).rows.tolist():
                    if dst == r:
                        np.ndarray((no, ni, n), bool, m, do,
                                   (dso, dsi, 1))[...] = True
            keep = [np.flatnonzero(~m.any(axis=1 - a))
                    for a, m in enumerate(masks)]
            self.geoms[key] = masks, tuple(slice(k[0], k[-1] + 1)
                                           for k in keep)
        return self.geoms.get(key)

    def digest(self, arrays) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for a in arrays:
            geom = self.geometry(a)
            h.update((a if geom is None else a[geom[1]]).tobytes())
        return h.digest()

    # ---------------------------------------------------- records, poison
    def track(self, arr, rank, interior=None, poisoned=()) -> None:
        """``arr`` was refreshed when its interior was ``interior``."""
        key, (masks, box), records = id(arr), self.geometry(arr), \
            self.records[rank]
        records[key] = [weakref.ref(arr, lambda _: records.pop(key, None)),
                        masks, box,
                        arr[box].tobytes() if interior is None else interior,
                        set(poisoned)]

    def observe(self, ranks=None) -> None:
        """Poison every stale (array, axis) not poisoned yet, of the
        running rank (only its long step writes its arrays) or ``ranks``."""
        ranks = [self.resumed % len(self.records)] if ranks is None else ranks
        for ref, masks, box, interior, poisoned in [
                rec for r in ranks for rec in list(self.records[r].values())]:
            if poisoned >= self.axes:
                continue
            arr = ref()
            if arr is None or arr[box].tobytes() == interior:
                continue
            for axis in self.axes - poisoned:
                arr[masks[axis]] = self.rng.uniform(
                    *_POISON, (int(masks[axis].sum()),) + arr.shape[2:])
            poisoned |= self.axes

    def refresh(self, fill, states, names) -> None:
        self.observe(range(len(states)))
        fill()
        for rank, st in enumerate(states):
            for name in names or st.prognostic_names():
                self.track(st.get(name), rank)

    def copied(self, copy, st: State) -> State:
        new = copy(st)
        for name in st.prognostic_names():
            for rank, records in enumerate(self.records):
                rec = records.get(id(st.get(name)))
                if rec is not None:
                    self.track(new.get(name), rank, rec[3], rec[4])
        return new

    def staged(self, out, base, into):
        """A compiled stage's result: where it ran, the stage state
        ``into`` it refilled from ``base`` inherits ``base``'s record."""
        if into is not None and not isinstance(out, native.Unbound):
            self.copied(lambda _: into, base)
        return out

    # ------------------------------------------------------------- hooks
    def call(self, sf, args, kwargs):
        caller = sys._getframe(2)
        site = (sf.spec.name, caller.f_code.co_filename, caller.f_lineno)
        self.observe()
        self.depth += 1
        try:
            out = super().call(sf, args, kwargs)
        finally:
            self.depth -= 1
        arrays = [a for a in (out if isinstance(out, tuple) else (out,))
                  if isinstance(a, np.ndarray)]
        if arrays and not _STATE & set(sf.spec.writes) and any(
                f.f_code is _LOCKSTEP for f, _ in traceback.walk_stack(caller)):
            self.sites.setdefault(site, None)
            for a in arrays if site == self.kill else ():
                a[...] = self.rng.uniform(*_POISON, a.shape)
        if not self.depth:
            self.log.append((("dispatch", *site), self.digest(arrays)))
        return out

    def trace(self, frame, event, arg):
        """The global tracer: a local one for the generator frames
        run_lockstep resumes, directly or through ``yield from``, and for
        the frames they call (a stale halo that an expression there reads
        before a dispatch is poisoned first).  The frames those call are
        not traced: a kernel's NumPy text may write a cell that is also a
        refresh destination (a periodic boundary face) and read it again
        before the refresh."""
        back = frame.f_back
        if not (self.axes or self.locate) or back is None \
                or frame.f_code.co_filename == __file__:
            return None
        if back.f_code is _LOCKSTEP:
            if not frame.f_code.co_flags & inspect.CO_GENERATOR:
                return None
            self.resumed += 1
            return self.line
        traced = back.f_trace == self.line
        return (self.line if traced and back.f_code.co_flags
                & inspect.CO_GENERATOR else None)

    def line(self, frame, event, arg):
        if event in ("line", "return"):
            self.observe()
            if self.locate and self.at is not None:
                live = [rec[0]() for records in self.records
                        for rec in records.values()]
                self.log.append((("line", *self.at),
                                 self.digest(a for a in live if a is not None)))
            self.at = frame.f_code.co_filename, frame.f_lineno
        return self.line

    def drive(self, cfg: Config) -> list:
        """The digest of what each of two long steps of ``cfg`` returns
        (``error`` keeps what a run raised)."""
        driver, states, grid = cfg.build()
        subs = decompose(grid.nx, grid.ny, *cfg.ranks, min_cells=grid.halo)
        topology = Topology.from_grid(grid, *cfg.ranks)
        self.h, self.extents = grid.halo, [(s.nx, s.ny) for s in subs]
        self.neighbours = [topology.neighbours(sub) for sub in subs]
        #: per rank: id(array) -> [weakref, masks, box, interior, poisoned]
        self.records = [{} for _ in subs]
        refresh = driver.refresh
        driver.refresh = lambda sts, names: self.refresh(
            lambda: refresh(sts, names), sts, names)
        out, tracer = [], sys.gettrace()
        copy, assign, run = State.copy, State.assign, StageBinding.run
        # a copy, or a stage state filled from its base (in NumPy or by the
        # compiled stage), inherits the source's refresh record
        State.copy = lambda st: self.copied(copy, st)
        State.assign = lambda dst, src: self.copied(
            lambda st: assign(dst, st), src)
        StageBinding.run = lambda b, st, base, *args: self.staged(
            run(b, st, base, *args), base, args[-1])
        sys.settrace(self.trace)
        try:
            with use_executor(self), np.errstate(all="ignore"):
                for _ in range(STEPS):
                    states = driver.step(states)
                    out.append(self.digest(
                        a for st in states for a in [
                            *map(st.get, st.prognostic_names()),
                            *([st.precip_accum] * (st.precip_accum is not None))]))
        except Exception as exc:    # a poisoned run that raises is a finding
            self.error = exc
        finally:
            sys.settrace(tracer)
            State.copy, State.assign, StageBinding.run = copy, assign, run
        return out


def _pair(cfg: Config, axes, locate=False):
    """Two runs with different poison; the runs if they disagree."""
    runs = [_Run(seed, axes, locate) for seed in (1, 2)]
    outs = [run.drive(cfg) for run in runs]
    return runs if outs[0] != outs[1] or any(r.error for r in runs) else None


def _where(a: _Run, b: _Run, kind: str):
    """The first ``kind`` event whose digest differs between two runs."""
    return next((wa for (wa, da), (wb, db) in zip(a.log, b.log)
                 if wa[0] == kind and (wa, da) != (wb, db)), None)


def stale_findings(cfg: Config) -> list[Finding]:
    """LINT04 of one configuration: nothing, or one finding."""
    runs = _pair(cfg, (0, 1))
    if runs is None:
        return []
    # the locating runs take the oracles: a compiled RK stage is one call,
    # so it makes no dispatch whose output could name the kernel
    with native.using(None):
        by_axis = {axis: _pair(cfg, (axis,)) for axis in (0, 1)}
        axes = [axis for axis, found in by_axis.items() if found] or [0, 1]
        a, b = by_axis[axes[0]] or _pair(cfg, (0, 1)) or runs
        where = _where(a, b, "dispatch")
        if where is None:
            a, b = _pair(cfg, axes, locate=True) or (a, b)
            where = _where(a, b, "line")
    error = a.error or b.error
    if where is None:   # nothing differs before the raise: locate that
        where = ("line", *(traceback.extract_tb(error.__traceback__)[-1][:2]
                           if error else a.at))
    kind, *site = where
    what = ("the interior first differs after this line" if kind == "line"
            else f"kernel '{site[0]}' (declared at "
                 f"{'%s:%s' % REGISTRY[site[0]].spec.origin}) is the first "
                 f"dispatch whose output interior differs")
    return [Finding(
        code="LINT04", file=site[-2], line=site[-1],
        message=(f"stale-halo read on the {'/'.join('xy'[x] for x in axes)} "
                 f"axis ({cfg}): {what} between two runs with different "
                 f"poison in every stale halo ring" + (
                     f"; a poisoned run raised {type(error).__name__}: "
                     f"{error}" if error else "")),
        suggestion="refresh the field on that axis after its last interior "
                   "write and before this read")]


def dead_findings(cfg: Config) -> list[Finding]:
    """LINT06 of one single-domain configuration: the dead sites.  The runs
    take the oracles: a compiled RK stage makes no dispatch, so it has no
    site whose outputs could be poisoned."""
    found = []
    with native.using(None):
        base = _Run(0, axes=())
        clean = base.drive(cfg)
        for name, file, line in [] if base.error else base.sites:
            run = _Run(0, axes=(), kill=(name, file, line))
            if run.drive(cfg) == clean and run.error is None:
                found.append(Finding(
                    code="LINT06", file=file, line=line,
                    message=(f"dead dispatch: the outputs of '{name}' can "
                             f"be overwritten with poison without changing "
                             f"one interior byte of the returned state "
                             f"({cfg})"),
                    suggestion="drop the dispatch, or use what it returns"))
    return found


def poison_findings(configs=None) -> list[Finding]:
    """LINT04 of every configuration (default :data:`MATRIX`) and LINT06
    of the single-domain ones, one finding per code and location."""
    found: dict = {}
    for cfg in MATRIX if configs is None else configs:
        for f in stale_findings(cfg) + (
                dead_findings(cfg) if cfg.ranks == (1, 1) else []):
            found.setdefault((f.code, f.file, f.line), f)
    return list(found.values())
