"""Top-level ASUCA model driver.

``AsucaModel`` wires together the grid, reference state, RK3/HE-VI
integrator, boundary handling and (optionally) the warm-rain physics into
the execution flow of the paper's Fig. 1: initialize -> iterate long steps
(each containing short acoustic steps) -> physics -> output.

The long step is written once, as the generator
:meth:`AsucaModel.long_step`, which yields at every point where halos
must be refreshed and never refreshes one itself.  :func:`run_lockstep`
resumes N such generators together: :meth:`AsucaModel.step` is that loop
with N = 1 and the grid's periodic/open fill as the refresh, and
:mod:`repro.dist.multigpu` is the same loop over one ``AsucaModel`` per
subdomain with the halo exchange as the refresh.  A :class:`Driver` holds
what a run's backend adds to that loop; :class:`repro.api.Experiment`
steps every backend through one.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

import numpy as np

from ..obs.trace import span
from ..physics.ice import IceConfig, cold_rain_step
from ..physics.surface import (
    SurfaceConfig,
    apply_newtonian_cooling,
    apply_surface_heating,
    diurnal_cycle_flux,
)
from ..physics.kessler import KesslerConfig, kessler_step
from ..stencil import active_executor, native, use_executor
from . import program
from .boundary import RelaxationBC, fill_halos_state
from .grid import Grid
from .pressure import eos_pressure
from .reference import ReferenceState
from .rk3 import DynamicsConfig, Rk3Integrator
from .state import State, state_from_reference

__all__ = ["ModelConfig", "AsucaModel", "StepDiagnostics", "Driver",
           "run_lockstep"]

#: a long-step generator: yields ``(state, names)`` — the state whose
#: halos are due and the fields to refresh (``None`` = every prognostic)
#: — and returns the new state
LongStep = Generator[tuple[State, "list[str] | None"], None, State]


@dataclass
class ModelConfig:
    """Full model configuration: dynamics + physics switches."""

    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    physics_enabled: bool = False
    kessler: KesslerConfig = field(default_factory=KesslerConfig)
    #: ice-phase (cold rain) extension — the paper's stated future work
    ice_enabled: bool = False
    ice: IceConfig = field(default_factory=IceConfig)
    #: surface sensible heating + Newtonian radiative cooling
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)


@dataclass
class StepDiagnostics:
    """Cheap per-step scalars for monitoring and tests."""

    time: float
    max_w: float
    max_wind: float
    total_mass: float
    min_theta: float
    max_theta: float


def run_lockstep(
    steps: Sequence[LongStep],
    refresh: Callable[[list[State], "list[str] | None"], None],
    why: "native.Unbound | None" = None,
) -> list[State]:
    """Resume every long-step generator to its next refresh point, call
    ``refresh(states, names)`` on what they yielded, and repeat until
    they return; the new states come back in order.  All generators must
    yield the same sequence of field lists (every rank of a decomposed
    run does), so the first one's ``names`` stands for all.

    Where the generators' dynamics begin (a
    :class:`~repro.core.program.Window`) the program recorded on the
    first step is replayed, or one is recorded while the generators run
    (:func:`repro.core.program.enter`); ``why`` is the driver's
    :class:`~repro.stencil.native.Unbound` where this step cannot be
    captured (counted: the generators run)."""
    rec = None
    try:
        while True:
            points: list[tuple[State, list[str] | None]] = []
            done: list[State] = []
            for rank, gen in enumerate(steps):
                if rec is not None:     # its rows are this rank's
                    rec.rank = rank
                try:
                    points.append(next(gen))
                except StopIteration as stop:
                    done.append(stop.value)
            if rec is not None:
                rec.rank = -1
            if points and done:
                raise RuntimeError("ranks desynchronized at an exchange point")
            if done:
                return done
            names = points[0][1]
            if isinstance(names, program.Window):
                rec = program.enter([n for _, n in points], why)
            elif names is program.END:
                program.leave(rec)
                rec = None
            else:
                refresh([st for st, _ in points], names)
    finally:
        if rec is not None:
            rec.close()


@dataclass(eq=False)
class Driver:
    """How a run steps on every backend: :func:`run_lockstep` over
    ``ranks``, ``refresh`` answering their exchange points.  Backends
    differ only in these parts: :meth:`AsucaModel.driver` (one domain),
    :meth:`~repro.gpu.runtime.GpuAsucaRunner.driver` (one device),
    :meth:`~repro.dist.multigpu.MultiGpuAsuca.driver` (host tiles or a
    modeled decomposition)."""

    #: one domain, T host tiles or px×py modeled ranks
    ranks: list["AsucaModel"]
    #: the 1×1 fill, or the topology's exchange
    refresh: Callable[[list[State], "list[str] | None"], None]
    #: the ranks' states from the single-domain state and back (one rank:
    #: the identity, no copy)
    scatter: Callable[[State], list[State]] = lambda st: [st]
    gather: Callable[[list[State]], State] = lambda states: states[0]
    #: ``charge(stepped, new, step_index)`` after every step: a relaxing
    #: domain's refill, one device's launches, or every rank's launches
    #: and halo copies
    charge: "Callable[[list[State], list[State], int], None] | None" = None
    #: why no step can be captured (None: it can)
    why: "native.Unbound | None" = None
    span: tuple[str, str] = ("dynamics_rk3", "step")
    #: host tiles: the executor their dispatches count in, one tile's share
    #: of them credited to the run's after every step
    tally: Any = None
    #: the modeled decomposition, whose rank states a checkpoint holds
    machine: Any = None
    #: the one-device runner
    runner: Any = None

    def step(self, states: list[State], index: int = 0) -> list[State]:
        """One long step of every rank, then the charge."""
        run, tally = active_executor(), self.tally
        with span(self.span[0], cat=self.span[1]), \
                (nullcontext() if tally is None else use_executor(tally)):
            new = run_lockstep(
                [rank.long_step(st) for rank, st in zip(self.ranks, states)],
                self.refresh, self.why)
        if tally is not None:
            run.credit(tally, len(self.ranks))
        if self.charge is not None:
            self.charge(states, new, index)
        return new

    def modeled(self, states: list[State],
                single: Callable[[], State]) -> list[State]:
        """What a checkpoint holds: a modeled decomposition's rank states,
        else the one modeled domain's state (``single()``)."""
        return states if self.machine is not None else [single()]

    def restored(self, modeled: list[State]) -> list[State]:
        """The ranks' states from :meth:`modeled`'s."""
        return (list(modeled) if self.machine is not None
                else self.scatter(modeled[0]))

    @property
    def devices(self) -> list:
        """The modeled devices, in rank order."""
        if self.runner is not None:
            return [self.runner.device]
        return getattr(self.machine, "devices", None) or []


class AsucaModel:
    """Non-hydrostatic model on one domain: the whole grid, or one rank's
    subdomain of it.

    Parameters
    ----------
    grid, ref
        geometry and balanced base state.
    config
        :class:`ModelConfig`; ``config.dynamics.dt`` is the long step.
    relaxation
        optional :class:`~repro.core.boundary.RelaxationBC` applied after
        every long step (real-case workload).
    """

    def __init__(
        self,
        grid: Grid,
        ref: ReferenceState,
        config: ModelConfig | None = None,
        *,
        relaxation: RelaxationBC | None = None,
    ):
        self.grid = grid
        self.ref = ref
        self.config = config or ModelConfig()
        self.relaxation = relaxation
        # discrete reference pressure via the same EOS the model uses, so
        # that an unperturbed state is exactly stationary
        rhotheta_ref_hat = ref.rhotheta_c * grid.jac[:, :, None]
        self.p_ref = eos_pressure(rhotheta_ref_hat, grid)
        self.integrator = Rk3Integrator(
            grid, ref, self.config.dynamics, self.p_ref)

    # ------------------------------------------------------------------
    def _exchange(self, state: State, names: list[str] | None) -> None:
        """The single-domain halo refresh: the grid's periodic/open fill."""
        with span("halo_fill", cat="comm"):
            fill_halos_state(state, names)

    def initial_state(self, *, u0: float = 0.0, v0: float = 0.0, dtype=np.float64) -> State:
        """Balanced initial state with uniform wind (halos filled)."""
        st = state_from_reference(self.grid, self.ref, u0=u0, v0=v0, dtype=dtype)
        self._exchange(st, None)
        return st

    def driver(self) -> Driver:
        """This domain as a run's one rank, the 1×1 fill its refresh.  The
        whole long step is a ``cat="step"`` container, not one of the
        phases ``--profile`` sums; a relaxing model's result is refilled
        after it (a returned state carries boundary-rule halos, not
        relaxed ones)."""
        return Driver(
            [self], lambda states, names: self._exchange(states[0], names),
            charge=(None if self.relaxation is None else
                    lambda stepped, new, index: self._exchange(new[0], None)))

    # ------------------------------------------------------------------
    def long_step(self, state: State) -> LongStep:
        """One long time step — dynamics, then physics, surface forcing
        and lateral relaxation (paper Fig. 1 flow) — as a generator that
        yields ``(state, names)`` wherever halos must be refreshed before
        it is resumed, and returns the new state.  Relaxation is
        point-wise, so nothing is yielded after it.

        The warm rain, its refresh and the relaxation run inside the
        step's captured window (:mod:`repro.core.program`), keyed on
        what their rows hold; with cold rain or surface forcing, which
        the program does not take, all physics runs after the window."""
        cfg = self.config
        sc = cfg.surface
        if cfg.ice_enabled or sc.heat_flux != 0.0 or sc.radiation_tau > 0.0:
            new = yield from self.integrator.step_phases(state)
            return (yield from self._physics(new))
        relax = self.relaxation and self.relaxation.row(state.layout,
                                                        cfg.dynamics.dt)
        new = yield from self.integrator.step_phases(
            state, ((cfg.physics_enabled, cfg.kessler, relax),
                    self._physics))
        if cfg.physics_enabled:     # a replayed warm rain accumulated too
            new._precip = True
        return new

    def _physics(self, new: State) -> LongStep:
        """The physics of a long step over the dynamics' result ``new``,
        in place, as a generator of its refresh points."""
        cfg = self.config
        dt = cfg.dynamics.dt
        if cfg.physics_enabled:
            with span("physics_warm_rain", cat="phase"):
                kessler_step(new, self.ref, dt, cfg.kessler,
                             self.integrator.geom.scratch)
            fields = ["rhotheta", "qv", "qc", "qr", "rho"]
            if cfg.ice_enabled:
                with span("physics_cold_rain", cat="phase"):
                    cold_rain_step(new, self.ref, dt, cfg.ice)
                fields += ["qi", "qs"]
            yield new, fields
        sc = cfg.surface
        if sc.heat_flux != 0.0 or sc.radiation_tau > 0.0:
            with span("physics_surface", cat="phase"):
                flux = sc.heat_flux
                if sc.diurnal:
                    flux = diurnal_cycle_flux(sc.heat_flux, new.time,
                                              sc.day_length)
                apply_surface_heating(new, self.ref, dt, flux)
                apply_newtonian_cooling(new, self.ref, dt, sc.radiation_tau)
            yield new, ["rhotheta"]
        if self.relaxation is not None:
            with span("boundary_relaxation", cat="phase"):
                self.relaxation.apply(new, dt)
        return new

    def step(self, state: State) -> State:
        """One long time step with the periodic/open fill as the refresh
        (a step of :meth:`driver`)."""
        return self.driver().step([state])[0]

    def run(
        self,
        state: State,
        n_steps: int,
        *,
        callback: Callable[[int, State], None] | None = None,
        checkpoint=None,
        start_step: int = 0,
    ) -> State:
        """Advance ``n_steps`` long steps.

        ``checkpoint`` (a
        :class:`~repro.resilience.checkpoint.CheckpointManager`) snapshots
        the state at the manager's cadence, keyed by the absolute step
        counter ``start_step + i + 1`` — restart a run bit-identically by
        loading the latest checkpoint and passing its step here.
        """
        for i in range(n_steps):
            state = self.step(state)
            if callback is not None:
                callback(i, state)
            if checkpoint is not None and checkpoint.due(start_step + i + 1):
                checkpoint.save(start_step + i + 1, state)
        return state

    # ------------------------------------------------------------- output
    def diagnostics(self, state: State) -> StepDiagnostics:
        g = self.grid
        u, v, w = state.velocities()
        theta = g.interior(state.theta_m())
        return StepDiagnostics(
            time=state.time,
            max_w=float(np.abs(g.interior(w)).max()),
            max_wind=float(
                max(np.abs(u[g.isl_u]).max(), np.abs(v[g.isl_v]).max())
            ),
            total_mass=state.total_mass(),
            min_theta=float(theta.min()),
            max_theta=float(theta.max()),
        )

    def pressure_perturbation(self, state: State) -> np.ndarray:
        """p - p_ref on the full (halo-inclusive) grid."""
        return eos_pressure(state.rhotheta, self.grid) - self.p_ref
