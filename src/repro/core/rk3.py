"""Wicker-Skamarock 3rd-order Runge-Kutta long step with HE-VI substeps.

The long time step (paper Fig. 1) evaluates the slow tendencies — advection
of momentum, density-weighted potential temperature and water substances,
Coriolis force, sponge damping — three times (RK3 stages dt/3, dt/2, dt;
one compiled call a stage where a library is loaded,
:class:`StageBinding`), and inside each stage integrates the fast modes
acoustically from the long-step start (:mod:`repro.core.acoustic`).
A stage's call passes all it reads and sets the stage state up, and the
context's computes the EOS pressure it reads, so a captured step
(:mod:`repro.core.program`) needs no hook here.
"""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import advection as adv
from .acoustic import (
    AcousticContext,
    AcousticGeometry,
    AcousticStepper,
    SlowForcing,
    SubstepBinding,
    build_context,
)
from .boundary import rayleigh_coefficient
from .coriolis import coriolis_tendencies
from .grid import Grid
from ..obs.trace import span
from .program import END, Window
from ..stencil import native
from ..stencil.executor import active_executor
from .limiter import Limiter, get_limiter, koren
from .reference import ReferenceState
from .state import State, zero_bits as _zero_bits

__all__ = ["DynamicsConfig", "Rk3Integrator", "StageBinding",
           "slow_tendencies"]


@dataclass(frozen=True)
class DynamicsConfig:
    """Numerical knobs of the dynamical core, frozen: a captured step
    holds what they decide (:func:`dataclasses.replace` makes another)."""

    dt: float = 5.0                  #: long time step [s] (paper: 5 s mountain wave)
    ns: int = 6                      #: acoustic substeps per long step (even)
    beta: float = 0.55               #: vertical implicit off-centering (>= 0.5)
    div_damp: float = 0.1            #: forward divergence-damping weight
    limiter: str = "koren"           #: flux limiter name (paper: Koren)
    coriolis_f: float = 0.0          #: f-plane parameter [1/s]
    rayleigh_depth: float = 0.0      #: sponge depth below the lid [m]
    rayleigh_tau: float = 60.0       #: sponge e-folding time at the lid [s]
    check_finite: bool = True        #: validate the state each long step

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < float("inf"):
            raise ValueError("dt must be positive and finite")
        if self.ns < 1:
            raise ValueError("ns must be >= 1")
        if not 0.5 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0.5, 1]")
        # a bad damping coefficient would end in a NumericalBlowup blamed
        # on a field; the compiled stage takes the sponge and f as given
        for name in ("div_damp", "rayleigh_depth"):
            value = getattr(self, name)
            if not 0.0 <= value < float("inf"):
                raise ValueError(f"{name} must be >= 0 and finite, got "
                                 f"{value!r}")
        if not self.rayleigh_tau > 0.0:
            raise ValueError(f"rayleigh_tau must be > 0, got "
                             f"{self.rayleigh_tau!r}")
        if not math.isfinite(self.coriolis_f):
            raise ValueError(f"coriolis_f must be finite, got "
                             f"{self.coriolis_f!r}")
        get_limiter(self.limiter)  # validate early


def stage_declines(limiter) -> "native.Unbound | None":
    """Why the compiled stage cannot run this limiter, else None."""
    if limiter is not koren:
        return native.Unbound("limiter", limiter.__name__)
    return None


class StageBinding:
    """What one integrator's RK stages keep, bound the first time a stage
    runs: where a verified library takes the grid, the
    compiled ``slow_stage`` struct with every grid, metric-flux, sponge
    and scratch address set (its geometry's
    :class:`~repro.core.acoustic.AcousticScratch`), the stage's output
    block (a later stage's flux copies too), a row of idle flags per RK
    stage, and the one call a stage makes (:meth:`run`).  A stage sets
    only scalars, its species table (which state and base blocks are in
    play, their :meth:`~repro.core.state.State.pointers`), which flag rows
    it reads and writes, and the blocks it refills.  It declines (a
    counted :class:`native.Unbound` of ``"slow stages"``, and
    :func:`slow_tendencies`' NumPy text runs) for a grid with ``nz < 4`` or
    ``halo < 2``, a non-Koren limiter, more than ``STAGE_MAXQ`` species
    (csrc/acoustic.c), and a state that is not float64 or holds a field as
    a wrapper."""

    def __init__(self, geom: AcousticGeometry):
        g = geom.grid
        self.geom = geom
        self.lib = native.kernels()
        s = geom.scratch
        #: the struct, else ``None``; ``unbound`` says why a loaded
        #: library could not take the grid
        self.args = self.unbound = None
        if self.lib is None:
            return
        flux = geom.metric_flux
        grid = dict(dz_c=g.dz_c, dz_f=g.dz_f, u=s.u, v=s.v, w=s.w[0],
                    phi=s.c[0], fz=s.w[1], arena=s.arena)
        ptrs = (native.Unbound("nz", f"{g.nz} < 4") if g.nz < 4 else
                native.Unbound("halo", f"{g.halo} < 2") if g.halo < 2 else
                flux._unbound or native.pointers(np.float64, grid))
        if isinstance(ptrs, native.Unbound):
            self.unbound = ptrs
            return
        #: the sponge the struct holds (checked against each call's)
        self.rayleigh_w = None
        #: the idle flags of each RK stage: stage s reads row s - 1 (a
        #: later stage's candidates) and writes row s, which its moisture
        #: finish reads
        maxq = self.lib.STAGE_MAXQ
        self.idle = np.zeros((3, maxq), np.int64)
        self.rows = [native.address(row) for row in self.idle]
        #: the outputs (r_u r_v r_w r_theta w_s m_s), the moved fluxes
        #: (fx_s fy_s), then a tendency slot per species: views of one
        #: block the binding keeps
        shapes = (g.shape_u, g.shape_v, g.shape_w, g.shape_c, g.shape_w,
                  g.shape_w, g.shape_u, g.shape_v, *[g.shape_c] * maxq)
        ends = np.cumsum([0, *map(math.prod, shapes)]).tolist()
        out = np.empty(ends[-1])
        self.views = [out[lo:hi].reshape(shape)
                      for lo, hi, shape in zip(ends, ends[1:], shapes)]
        self.addresses = [native.address(out) + 8 * lo for lo in ends[:-1]]
        self.args = a = self.lib.stage_args(
            nxh=g.nxh, nyh=g.nyh, nz=g.nz, h=g.halo, nx=g.nx, ny=g.ny,
            dx=g.dx, dy=g.dy, metric=ctypes.addressof(flux.args(self.lib)),
            **dict(zip(grid, ptrs)))
        a.r_u, a.r_v, a.r_w, a.r_theta, a.w_s, a.m_s = self.addresses[:6]
        self.call = functools.partial(self.lib.slow_stage, ctypes.byref(a))
        #: the moisture finish's struct: the tendency slots are set once
        self.moist = self.lib.moisture_args(
            nxh=g.nxh, nyh=g.nyh, nz=g.nz, h=g.halo, nx=g.nx, ny=g.ny)
        self.moist.tend[:] = self.addresses[8:]

    def current(self, geom: AcousticGeometry) -> bool:
        """Bound for ``geom``, with the library now in force."""
        return self.geom is geom and self.lib is native.kernels()

    def _config(self, cfg, limiter, rayleigh_w) -> "native.Unbound | None":
        """Why the stage cannot run this configuration, else ``None`` (the
        sponge and ``f`` set into the struct)."""
        why = stage_declines(limiter)
        if why is not None:
            return why
        if rayleigh_w is not self.rayleigh_w:
            ptr = None
            if rayleigh_w is not None:
                ptr = native.pointers(np.float64, dict(rayleigh_w=rayleigh_w),
                                      dict(rayleigh_w=(self.geom.grid.nz + 1,)))
                if isinstance(ptr, native.Unbound):
                    return ptr
                ptr, = ptr
            self.args.ray, self.rayleigh_w = ptr, rayleigh_w
        self.args.f = cfg.coriolis_f
        return None

    def run(self, state: State, base: State, idle: list | None, cfg,
            limiter, rayleigh_w, stage: int, into: State | None
            ) -> "tuple[SlowForcing, dict] | native.Unbound":
        """:func:`slow_tendencies`' result in one call, crediting the active
        executor with the advections it ran (compiled dispatches) and the
        transports it skipped, ``into`` refilled from ``base``; or why
        not.  A later stage's candidates (``idle``) are written into row
        ``stage - 1`` first: the stage before may have run the NumPy
        text."""
        why = self.unbound or self._config(cfg, limiter, rayleigh_w)
        if why is not None:
            return why
        names = list(state.q)
        nq, maxq = len(names), self.lib.STAGE_MAXQ
        if nq > maxq:
            return native.Unbound("q", f"{nq} species")
        g = self.geom.grid
        if state.layout.shapes[:4] != (g.shape_c, g.shape_u, g.shape_v,
                                       g.shape_w):
            return native.Unbound("rho", f"shape {state.rho.shape}")
        ptrs = state.pointers()
        if isinstance(ptrs, native.Unbound):
            return ptrs
        if base.layout is not state.layout or (
                into is not None and into.layout is not state.layout):
            return native.Unbound("base", "of another layout")
        bases = base.pointers()
        if isinstance(bases, native.Unbound):
            return native.Unbound(f"base {bases.operand}", bases.fact)
        first = idle is None
        if not first:
            self.idle[stage - 1, :nq] = [n in idle for n in names]
        a = self.args
        at = self.addresses
        a.q[:] = (*ptrs[5:5 + nq], *bases[5:5 + nq], *at[8:8 + nq],
                  *[0] * (3 * (maxq - nq)))
        a.rho, a.rhou, a.rhov, a.rhow, a.rhotheta = ptrs[:5]
        a.nq, a.first = nq, first
        a.prev, a.idle = self.rows[stage - 1], self.rows[stage]
        # a stage that refills the state it reads moves its fluxes out
        moved = into is state
        a.fx_s, a.fy_s = at[6:8] if moved else (None, None)
        a.stage = None if into is None else into.address
        a.base, a.bytes = base.address, base.block.nbytes
        self.moist.idle = a.idle
        if self.call():
            return native.Unbound("fluxes", "past the exact sum test")
        if into is not None:
            into.time, into._precip = base.time, base._precip
        skipped = dict(zip(names, self.idle[stage, :nq].tolist()))
        idle = [n for n in (names if first else idle) if skipped[n]]
        active = nq - len(idle)
        ex = active_executor()
        ex.calls.update(advect_u=1, advect_v=1, advect_w=1,
                        advect_scalar=1 + active)
        ex.accelerated += 4 + active
        ex.skip_transports(idle)
        v = self.views
        fluxes = v[6:8] if moved else [state.rhou, state.rhov]
        forcing = SlowForcing(*v[:4], *fluxes, *v[4:6], [
            *at[:4], *(at[6:8] if moved else ptrs[1:3]), *at[4:6]])
        return forcing, {n: None if skipped[n] else view
                         for n, view in zip(names, v[8:])}

    def written(self, args: bytes) -> np.ndarray:
        """The flag row a stage wrote, from its struct's snapshot."""
        idle = type(self.args).from_buffer_copy(args).idle
        return self.idle[self.rows.index(idle)]

    def finish(self, st: State, base: State, dts: float, nq: int) -> bool:
        """The moisture finish of the stage this binding last ran, in one
        call (csrc/acoustic.c ``moisture_finish``: it reads the stage's flag
        row), into ``st``'s species from ``base``'s; False where the
        states cannot be taken (the NumPy finish runs)."""
        ptrs, bases = st.pointers(), base.pointers()
        if isinstance(ptrs, native.Unbound) or isinstance(
                bases, native.Unbound):
            return False
        m = self.moist
        m.nq, m.dts = nq, dts
        m.q[:nq], m.base[:nq] = ptrs[5:5 + nq], bases[5:5 + nq]
        self.lib.moisture(ctypes.byref(m))
        return True


def slow_tendencies(
    state: State,
    cfg: DynamicsConfig,
    limiter: Limiter,
    rayleigh_w: np.ndarray | None = None,
    base: State | None = None,
    metric_flux: adv.MetricFlux | None = None,
    idle: list[str] | None = None,
    binding: StageBinding | None = None,
    stage: int = 0,
    into: State | None = None,
) -> tuple[SlowForcing, dict[str, np.ndarray | None]]:
    """Slow-mode forcings at the given (stage) state, plus moisture
    advection tendencies.  Requires valid halos of width >= 2.  One call of
    csrc/acoustic.c's ``slow_stage`` where the integrator's
    :class:`StageBinding` (``binding``) takes the stage, else the NumPy
    below, its oracle: the same bytes, the same counts.  One
    ``slow_tendencies`` phase span a stage, carrying ``active=``; the
    NumPy text's own phases nest in it.

    ``base`` is the state the stage adds the tendencies to
    (:class:`AcousticStepper`'s; the stage state itself by default).  A
    species whose tendency is ``None`` is *inactive*: its stage and base
    fields are all ``+0.0``, so its transport is a field of signed zeros
    and the stage leaves ``+0.0`` — what the stepper's copy of ``base``
    already holds (docs/STENCILS.md, "Work that is skipped exactly").
    ``metric_flux`` is the integrator's :class:`~repro.core.advection.MetricFlux`
    (built here for a caller that keeps none).

    ``idle`` is the inactive set of an earlier stage of the same long step
    (``None``: scan every species).  A species active there stays active:
    its base field is not all ``+0.0`` (or that stage's fluxes sent it
    down the full path, which is never wrong).  An inactive one stays
    inactive while its stage field is still all ``+0.0``, and only that
    field is scanned again: in a decomposed run an exchange can put a
    neighbour's transport into its halo.  ``stage`` is the RK stage (0, 1,
    2): the binding's flag row the compiled stage writes.

    ``into``, the stage state, becomes a copy of ``base`` once the
    tendencies are taken.  The forcing's stage fluxes are ``state``'s own
    ``rhou`` / ``rhov`` (nothing writes them before the stage ends), or
    copies from before the refill where ``into`` is ``state``.
    """
    base = state if base is None else base
    with span("slow_tendencies", cat="phase") as attrs:
        out = None
        if binding is not None and binding.lib is not None:
            out = binding.run(state, base, idle, cfg, limiter, rayleigh_w,
                              stage, into)
            if isinstance(out, native.Unbound):
                native.unbound("slow stages", out)
                out = None
        if out is None:
            out = _slow_numpy(state, cfg, limiter, rayleigh_w, base,
                              metric_flux, idle, into)
        attrs["active"] = " ".join(n for n, t in out[1].items()
                                   if t is not None)
        return out


def _slow_numpy(state, cfg, limiter, rayleigh_w, base, metric_flux, idle,
                into):
    """:func:`slow_tendencies`' NumPy text (its oracle)."""
    g = state.grid
    if metric_flux is None:
        metric_flux = adv.MetricFlux(g)
    u, v, w = state.velocities()
    fx = state.rhou
    fy = state.rhov
    fz = metric_flux(state.rhou, state.rhov, state.rhow)

    with span("advect_momentum", cat="phase"):
        r_u = adv.advect_u(u, fx, fy, fz, g, limiter)
        r_v = adv.advect_v(v, fx, fy, fz, g, limiter)
        r_w = adv.advect_w(w, fx, fy, fz, g, limiter)
    with span("advect_theta", cat="phase"):
        theta = state.rhotheta / state.rho
        r_theta = adv.advect_scalar(theta, fx, fy, fz, g, limiter)

    if cfg.coriolis_f != 0.0:
        with span("coriolis", cat="phase"):
            cu, cv = coriolis_tendencies(state.rhou, state.rhov, cfg.coriolis_f, g)
            r_u += cu
            r_v += cv

    if rayleigh_w is not None:
        r_w -= rayleigh_w[None, None, :] * state.rhow

    base_q = base.q
    if idle is None:
        idle = [n for n, q_hat in state.q.items() if _zero_bits(q_hat) and (
            base_q[n] is q_hat or _zero_bits(base_q[n]))]
    else:
        idle = [n for n in idle if _zero_bits(state.q[n])]
    # 0 * inf and 0 / 0 are NaN in the full path: it runs unless every
    # flux is finite and rho divides zero to zero
    if idle and not (np.isfinite(fx.sum() + fy.sum() + fz.sum())
                     and state.rho.min() > 0.0):
        idle = []
    active_executor().skip_transports(idle)
    with span("advect_moisture", cat="phase",
              active=" ".join(n for n in state.q if n not in idle)):
        q_tend = {
            name: None if name in idle else
            adv.advect_scalar(q_hat / state.rho, fx, fy, fz, g, limiter)
            for name, q_hat in state.q.items()
        }

    w_s = state.rhow.copy()
    w_s[:, :, 0] = 0.0
    w_s[:, :, -1] = 0.0
    m_s = metric_flux(state.rhou, state.rhov)
    if into is not None:
        if into is state:       # the refill overwrites the fluxes
            fx, fy = fx.copy(), fy.copy()
        into.assign(base)
    forcing = SlowForcing(
        r_u=r_u, r_v=r_v, r_w=r_w, r_theta=r_theta,
        fx_s=fx, fy_s=fy, w_s=w_s, m_s=m_s,
    )
    return forcing, q_tend


class Rk3Integrator:
    """The dynamics of one long step of the HE-VI split-explicit
    integrator, as the generator :meth:`step_phases`: it never refreshes
    a halo itself, so it cannot be run without a driver that does."""

    def __init__(
        self,
        grid: Grid,
        ref: ReferenceState,
        cfg: DynamicsConfig,
        p_ref: np.ndarray,
    ):
        self.grid = grid
        self.ref = ref
        self.cfg = cfg
        self.p_ref = p_ref
        self.limiter = get_limiter(cfg.limiter)
        #: grid-only operands of the acoustic substep and the metric flux,
        #: and the integrator's scratch
        self.geom = AcousticGeometry(grid, ref)
        #: the substep's and the slow stage's bound operands
        self.binding: SubstepBinding | None = None
        self.stage: StageBinding | None = None
        #: what every step rewrites: the linearization (refilled in place
        #: where the compiled context runs) and the stage state of the
        #: layout last stepped
        self.ctx = None
        self.stage_state: State | None = None
        #: the captured window of the rank set this integrator heads
        #: (:mod:`repro.core.program`), or why its recording declined
        self.program = None
        if cfg.rayleigh_depth > 0.0:
            _, ray_f = rayleigh_coefficient(grid, cfg.rayleigh_depth, cfg.rayleigh_tau)
            self.rayleigh_w: np.ndarray | None = ray_f
        else:
            self.rayleigh_w = None

    def release(self) -> None:
        """Drop what every step rewrites (bound again by the next step): a
        finished run's integrator must not hold its buffers until the
        collector frees the run."""
        self.ctx = self.stage_state = self.binding = self.stage = None
        self.program = self.geom._scratch = None

    def declines(self, lay) -> "native.Unbound | None":
        """Why a window of ``lay`` states cannot be captured: what the
        compiled stage would decline, decided before anything runs."""
        if lay.dtype != np.float64:
            return native.Unbound("rho", lay.dtype.name)
        if len(lay.names) - 5 > native.kernels().STAGE_MAXQ:
            return native.Unbound("q", f"{len(lay.names) - 5} species")
        return stage_declines(self.limiter)

    def stage_plan(self) -> list[tuple[float, int]]:
        """(stage interval, substep count) pairs of the WS-RK3 scheme."""
        dt, ns = self.cfg.dt, self.cfg.ns
        return [(dt / 3.0, 1), (dt / 2.0, max(ns // 2, 1)), (dt, ns)]

    def step_phases(self, state: State):
        """The RK3 stages as a generator: yields ``(state_to_refresh,
        field_names_or_None)`` at every halo-exchange point; the driver
        must refresh the halos before resuming.  Returns the new state
        via ``StopIteration``.

        Every rank of a decomposed run yields the identical sequence of
        exchange points, which is what lets
        :func:`repro.core.model.run_lockstep` drive all ranks together.
        It also yields ``(base, Window)`` where the dynamics begin (after
        the first refresh) and ``(state, END)`` where they end: the
        driver marks the window replayed where the captured program ran
        over it (:mod:`repro.core.program`), else the stages run here.

        A step allocates one block: its base, a copy of ``state`` whose
        halos the first exchange point refreshes (``state``, which a
        caller may hold, is never written).  Every stage integrates into
        the integrator's stage state (:attr:`stage_state`), which the
        stage's slow tendencies refill from the base by one block copy once
        they are taken (a later stage's fluxes moved out first).  After the
        last stage that state is returned and the base's block takes its
        place, so a returned state owns its memory.
        """
        lay = state.layout
        if self.stage_state is None or self.stage_state.layout is not lay:
            self.stage_state = State.of(state.grid, lay,
                                        np.zeros(lay.size, lay.dtype))
        base = State.of(state.grid, lay, np.empty(lay.size, lay.dtype))
        yield base.assign(state), None  # make sure every halo is valid
        window = Window(self, state, base)
        yield base, window
        if window.replayed:
            cur = self.stage_state
            cur.time, cur._precip = base.time + self.cfg.dt, base._precip
        else:
            cur = yield from self._stages(base)
        self.stage_state = base
        if self.cfg.check_finite:
            cur.validate(step=round(cur.time / self.cfg.dt))
        return cur

    def _stages(self, base: State):
        """The dynamics of one long step from its refreshed ``base``, its
        EOS and linearization first, into the stage state, which is
        returned."""
        ctx = self.ctx = build_context(base, self.ref, self.p_ref, self.geom)
        cur = base
        idle = None
        for s, (dts, nsub) in enumerate(self.stage_plan()):
            if self.stage is None or not self.stage.current(self.geom):
                self.stage = StageBinding(self.geom)
            st = self.stage_state
            forcing, q_tend = slow_tendencies(
                cur, self.cfg, self.limiter, self.rayleigh_w, base,
                self.geom.metric_flux, idle, self.stage, s, st,
            )
            idle = [n for n, tend in q_tend.items() if tend is None]
            stepper = AcousticStepper(
                base, forcing, ctx, self.ref, dts, nsub,
                beta=self.cfg.beta, div_damp=self.cfg.div_damp,
                binding=self.binding, st=st,
                stage=self.stage if forcing.ptrs else None,
            )
            self.binding = stepper.binding
            for _ in range(nsub):
                fields = stepper.substep()
                yield stepper.st, fields
            q_fields = stepper.finish(q_tend)
            if q_fields:
                yield stepper.st, q_fields
            cur = stepper.st
        yield cur, END
        return cur
