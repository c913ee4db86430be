"""Functional multi-GPU ASUCA: lockstep SPMD execution over subdomains.

Each rank is an ordinary :class:`~repro.core.model.AsucaModel` on its
subdomain (grid slice + reference slice + a rank-local view of the
lateral relaxation), and all ranks advance through the same long-step
body, :meth:`~repro.core.model.AsucaModel.long_step`, in lockstep:
:func:`~repro.core.model.run_lockstep` pauses them at every halo-refresh
point and this driver answers with a halo exchange — exactly the
communication pattern of the paper's Sec. V (exchanges of momentum,
density and potential temperature inside the short time step, moisture
once per stage).  Nothing of the step itself is written here.

Because local geometry/reference arrays are *slices* of the global ones
and the halo strips are the single-domain fill's own strip table, a decomposed
run reproduces the single-domain interior bit for bit
(tests/dist/test_multigpu_equivalence.py) — the distributed analogue of
the paper's "results agree within machine round-off" claim.
"""
from __future__ import annotations

import numpy as np

from ..core.boundary import STAGGER, RelaxationBC
from ..core.grid import Grid
from ..core.model import AsucaModel, ModelConfig, run_lockstep
from ..core.reference import ReferenceState
from ..core.state import State
from ..gpu.asuca_kernels import step_schedule
from ..gpu.runtime import charge_step, price_step
from ..obs.trace import span
from ..resilience.faults import RankCrash
from .decomposition import Subdomain, Topology, decompose, make_subgrid
from .halo import HaloExchanger
from .mpi_sim import SimComm

__all__ = ["MultiGpuAsuca"]


def _slice_ref(ref: ReferenceState, sub: Subdomain, halo: int) -> ReferenceState:
    h = halo
    sl_x = slice(sub.x0, sub.x0 + sub.nx + 2 * h)
    sl_y = slice(sub.y0, sub.y0 + sub.ny + 2 * h)
    return ReferenceState(
        theta_c=ref.theta_c[sl_x, sl_y],
        pi_c=ref.pi_c[sl_x, sl_y],
        p_c=ref.p_c[sl_x, sl_y],
        rho_c=ref.rho_c[sl_x, sl_y],
        rhotheta_c=ref.rhotheta_c[sl_x, sl_y],
        theta_wf=ref.theta_wf[sl_x, sl_y],
        rho_wf=ref.rho_wf[sl_x, sl_y],
        p_wf=ref.p_wf[sl_x, sl_y],
        cs2_c=ref.cs2_c[sl_x, sl_y],
    )


def _field_slices(sub: Subdomain, halo: int, name: str):
    """The global window of a rank's halo-inclusive ``name`` array."""
    sx, sy = STAGGER.get(name, (False, False))
    return (slice(sub.x0, sub.x0 + sub.nx + 2 * halo + sx),
            slice(sub.y0, sub.y0 + sub.ny + 2 * halo + sy))


class MultiGpuAsuca:
    """2-D-decomposed, lockstep multi-rank driver.

    Parameters mirror :class:`~repro.core.model.AsucaModel`, plus the
    process-grid shape ``(px, py)``.  The per-axis open-vs-periodic edge
    treatment lives in a single :class:`~repro.dist.decomposition.Topology`
    built from the global grid's periodicity flags; the halo exchanger
    and everything else consult it rather than re-deriving the choice.

    ``fault_injector`` (a :class:`~repro.resilience.faults.FaultInjector`)
    makes the transport and the ranks imperfect: message faults surface
    through the retrying halo exchange (governed by ``retry``), and a
    scheduled rank crash raises
    :class:`~repro.resilience.faults.RankCrash` at the top of the step —
    recovered by checkpoint-restart in :class:`repro.api.Experiment`.
    """

    def __init__(
        self,
        global_grid: Grid,
        global_ref: ReferenceState,
        px: int,
        py: int,
        config: ModelConfig | None = None,
        relaxation: RelaxationBC | None = None,
        *,
        fault_injector=None,
        retry=None,
    ):
        self.global_grid = global_grid
        self.global_ref = global_ref
        self.config = config or ModelConfig()
        #: global Davies relaxation (real-data case); each rank applies a
        #: view of it at its own offset
        self.relaxation = relaxation
        self.px, self.py = px, py
        #: the one place the open-vs-periodic edge decision is made
        self.topology = Topology.from_grid(global_grid, px, py)
        self.faults = fault_injector
        self.subs = decompose(global_grid.nx, global_grid.ny, px, py,
                              min_cells=global_grid.halo)
        self.comm = SimComm(len(self.subs), fault_injector=fault_injector)
        self.exchanger = HaloExchanger(self.comm, self.subs, self.topology,
                                       retry=retry)
        #: completed long steps (the fault plan and checkpoints key on it)
        self.step_index = 0
        #: per-rank virtual GPUs (telemetry path); see :meth:`attach_devices`
        self.devices: list | None = None
        #: exchanger recovery seconds already charged to the devices
        self._backoff_charged = 0.0
        #: one model per subdomain, in the order of :attr:`subs`
        self.ranks = [
            AsucaModel(
                make_subgrid(global_grid, sub),
                _slice_ref(global_ref, sub, global_grid.halo), self.config,
                relaxation=(relaxation.at(sub.x0, sub.y0)
                            if relaxation is not None else None))
            for sub in self.subs
        ]

    # ------------------------------------------------------ device telemetry
    def attach_devices(self, spec=None, *, precision=None, order=None,
                       ns: int | None = None, copy_engines: int = 1,
                       counters: bool = False, counter_every: int = 1) -> list:
        """Attach one virtual :class:`~repro.gpu.device.GPUDevice` per
        rank.  Subsequent :meth:`step` calls charge the modeled kernel
        launches of the long step and the halo PCIe copies to each
        rank's timeline, so a decomposed run yields per-rank device
        tracks (kernels, H2D/D2H) alongside the message flows — the
        telemetry picture of the paper's Figs. 8/9."""
        from ..gpu.coalescing import ArrayOrder
        from ..gpu.device import GPUDevice
        from ..gpu.spec import Precision, TESLA_S1070

        precision = precision or Precision.SINGLE
        self.devices = [
            GPUDevice(spec or TESLA_S1070, copy_engines=copy_engines,
                      label=f"rank{r}", fault_injector=self.faults)
            for r in range(len(self.subs))
        ]
        schedule = step_schedule(ns or self.config.dynamics.ns,
                                 include_ice=self.config.ice_enabled)
        #: per-rank priced launches of one long step
        self._dev_launches = [
            price_step(schedule, sub.nx * sub.ny * self.global_grid.nz,
                       device.spec, precision=precision,
                       order=order or ArrayOrder.XZY)
            for sub, device in zip(self.subs, self.devices)
        ]
        #: per-rank counting hooks (measured FLOP/byte per launch); None
        #: when the run is not counted
        self._dev_counting = None
        if counters:
            from ..gpu.counters import CountingHook

            self._dev_counting = [
                CountingHook(rank.grid, rank.ref, precision=precision,
                             sample_every=counter_every)
                for rank in self.ranks
            ]
        self._backoff_charged = 0.0
        return self.devices

    def _charge_devices(self, by_pair_before: dict, states: list[State]) -> None:
        """Charge one step's modeled kernels plus the step's halo PCIe
        traffic (D2H on the sender, H2D on the receiver — the GPU-CPU
        leg of every exchanged strip) to the per-rank timelines.  On a
        counted run (``attach_devices(counters=True)``), the per-rank
        hook measures this step's kernels against the rank state and
        annotates the launches with measured counts."""
        for r, device in enumerate(self.devices):
            charge_step(
                device, self._dev_launches[r],
                hook=self._dev_counting[r] if self._dev_counting else None,
                step_index=self.step_index, state=states[r])
        for (src, dst), nbytes in self.comm.stats.by_pair.items():
            delta = nbytes - by_pair_before.get((src, dst), 0)
            if delta <= 0:
                continue
            t_d2h = delta / self.devices[src].spec.pcie_bandwidth
            self.devices[src].schedule(
                f"halo_d2h:{src}->{dst}", "d2h",
                self.devices[src].default_stream, t_d2h,
                bytes_moved=delta, tag="halo")
            t_h2d = delta / self.devices[dst].spec.pcie_bandwidth
            self.devices[dst].schedule(
                f"halo_h2d:{src}->{dst}", "h2d",
                self.devices[dst].default_stream, t_h2d,
                bytes_moved=delta, tag="halo")
        # retry/backoff waits stall the host-side network leg: charge the
        # step's newly accrued recovery time to every rank's 'mpi' engine
        # so overlap numbers reflect the cost of the recovered faults
        recovery = self.exchanger.stats.recovery_s - self._backoff_charged
        if recovery > 0:
            for device in self.devices:
                device.schedule("halo_recovery", "mpi",
                                device.default_stream, recovery,
                                tag="resilience")
            self._backoff_charged += recovery

    # -------------------------------------------------------- scatter/gather
    def scatter_state(self, global_state: State) -> list[State]:
        """Split a global state into per-rank states (copies)."""
        h = self.global_grid.halo
        states = []
        for sub, rank in zip(self.subs, self.ranks):
            kw = {name: global_state.get(name)[_field_slices(sub, h, name)]
                  .copy() for name in STAGGER}
            q = {k: v[_field_slices(sub, h, k)].copy()
                 for k, v in global_state.q.items()}
            states.append(State(grid=rank.grid, q=q, time=global_state.time, **kw))
        return states

    def gather_state(self, states: list[State]) -> State:
        """Assemble a global state from rank states (interiors only; the
        global halos are refilled by the caller if needed)."""
        g = self.global_grid
        h = g.halo
        out = State(
            grid=g,
            rho=g.zeros_c(states[0].dtype),
            rhou=g.zeros_u(states[0].dtype),
            rhov=g.zeros_v(states[0].dtype),
            rhow=g.zeros_w(states[0].dtype),
            rhotheta=g.zeros_c(states[0].dtype),
            q={k: g.zeros_c(states[0].dtype) for k in states[0].q},
            time=states[0].time,
        )
        for sub, st in zip(self.subs, states):
            for name in st.prognostic_names():
                sx, sy = STAGGER.get(name, (False, False))
                out.get(name)[
                    h + sub.x0 : h + sub.x0 + sub.nx + sx,
                    h + sub.y0 : h + sub.y0 + sub.ny + sy,
                ] = st.get(name)[h : h + sub.nx + sx, h : h + sub.ny + sy]
        # per-rank diagnostics: accumulated precipitation (interior-sized)
        if any(st.precip_accum is not None for st in states):
            acc = np.zeros((g.nx, g.ny), dtype=states[0].dtype)
            for sub, st in zip(self.subs, states):
                if st.precip_accum is not None:
                    acc[sub.x0 : sub.x0 + sub.nx,
                        sub.y0 : sub.y0 + sub.ny] = st.precip_accum
            out.precip_accum = acc
        return out

    # ---------------------------------------------------------------- step
    def exchange_all(self, states: list[State], names=None,
                     axes: tuple[int, ...] = (0, 1)) -> None:
        with span("halo_exchange", cat="comm"):
            self.exchanger.exchange(states, names, axes=axes)

    def step(self, states: list[State]) -> list[State]:
        """One long step across all ranks, lockstep.

        Raises :class:`~repro.resilience.faults.RankCrash` before any
        work when the fault plan kills a rank at this step.
        """
        if self.faults is not None:
            self.faults.begin_step(self.step_index)
            crashed = self.faults.crash_rank(self.step_index)
            if crashed is not None:
                raise RankCrash(rank=crashed, step=self.step_index)
        by_pair_before = (dict(self.comm.stats.by_pair)
                          if self.devices is not None else {})
        with span("rk3_long_step", cat="phase"):
            new_states = run_lockstep(
                [rank.long_step(st) for rank, st in zip(self.ranks, states)],
                self.exchange_all)
        if self.devices is not None:
            self._charge_devices(by_pair_before, new_states)
        self.step_index += 1
        return new_states

    def run(self, states: list[State], n_steps: int, *,
            checkpoint=None) -> list[State]:
        """Advance ``n_steps`` long steps; with a
        :class:`~repro.resilience.checkpoint.CheckpointManager` the
        per-rank states are snapshotted at the manager's cadence."""
        for _ in range(n_steps):
            states = self.step(states)
            if checkpoint is not None and checkpoint.due(self.step_index):
                checkpoint.save(self.step_index, states)
        return states
