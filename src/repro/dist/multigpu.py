"""Functional multi-GPU ASUCA: lockstep SPMD execution over subdomains.

Each rank is an ordinary :class:`~repro.core.model.AsucaModel` on its
subdomain (grid slice + reference slice + a rank-local view of the
lateral relaxation), and all ranks advance through the same long-step
body, :meth:`~repro.core.model.AsucaModel.long_step`, in lockstep:
:func:`~repro.core.model.run_lockstep` pauses them at every halo-refresh
point and this machine's :meth:`~MultiGpuAsuca.driver` answers with a halo
exchange — exactly the
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

import dataclasses

import numpy as np

from ..core.boundary import STAGGER, RelaxationBC, fill_halos_state
from ..core.grid import Grid
from ..core.model import AsucaModel, Driver, ModelConfig
from ..core.reference import ReferenceState
from ..core.state import State, zeros_state
from ..obs.trace import span
from ..stencil import StencilExecutor, active_executor, native
from .decomposition import Subdomain, Topology, decompose, make_subgrid
from .halo import HaloExchanger
from .mpi_sim import SimComm

__all__ = ["MultiGpuAsuca"]


def _slice_ref(ref: ReferenceState, sub: Subdomain, halo: int) -> ReferenceState:
    window = (slice(sub.x0, sub.x0 + sub.nx + 2 * halo),
              slice(sub.y0, sub.y0 + sub.ny + 2 * halo))
    return ReferenceState(**{f.name: getattr(ref, f.name)[window]
                             for f in dataclasses.fields(ref)})


def _field_slices(sub: Subdomain, halo: int, name: str):
    """The global window of a rank's halo-inclusive ``name`` array."""
    sx, sy = STAGGER.get(name, (False, False))
    return (slice(sub.x0, sub.x0 + sub.nx + 2 * halo + sx),
            slice(sub.y0, sub.y0 + sub.ny + 2 * halo + sy))


class MultiGpuAsuca:
    """A 2-D decomposition of one domain into lock-stepped ranks.

    Parameters mirror :class:`~repro.core.model.AsucaModel`, plus the
    process-grid shape ``(px, py)``.  The per-axis open-vs-periodic edge
    treatment lives in a single :class:`~repro.dist.decomposition.Topology`
    built from the global grid's periodicity flags; the halo exchanger
    and everything else consult it rather than re-deriving the choice.

    ``fault_injector`` (a :class:`~repro.resilience.faults.FaultInjector`)
    makes the transport imperfect: message faults surface through the
    retrying halo exchange (governed by ``retry``).  Its rank crashes are
    raised and recovered by :class:`repro.api.Experiment`.
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
        #: per-rank virtual GPUs (telemetry path); see :meth:`attach_devices`
        self.devices: list | None = None
        #: exchanger recovery seconds and per-pair halo bytes already
        #: charged to the devices
        self._backoff_charged = 0.0
        self._by_pair: dict = {}
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
        rank.  Each step of the modeled :meth:`driver` then charges the
        modeled kernel launches of the long step and the halo PCIe copies
        to each rank's timeline, so a decomposed run yields per-rank device
        tracks (kernels, H2D/D2H) alongside the message flows — the
        telemetry picture of the paper's Figs. 8/9."""
        from ..gpu.device import GPUDevice
        from ..gpu.runtime import GpuAsucaRunner
        from ..gpu.spec import TESLA_S1070

        kw = {name: value for name, value in (("precision", precision),
                                              ("order", order)) if value}
        #: per rank: its device, the priced launches of one long step and
        #: the counting hook (measured FLOP/byte per launch) of a counted run
        self.runners = [
            GpuAsucaRunner(rank, GPUDevice(
                spec or TESLA_S1070, copy_engines=copy_engines,
                label=f"rank{r}", fault_injector=self.faults),
                ns=ns or self.config.dynamics.ns, counters=counters,
                counter_every=counter_every, **kw)
            for r, rank in enumerate(self.ranks)]
        self.devices = [runner.device for runner in self.runners]
        self._backoff_charged = 0.0
        self._by_pair = dict(self.comm.stats.by_pair)
        return self.devices

    def _charge_devices(self, states: list[State], index: int) -> None:
        """Charge step ``index``'s modeled kernels plus the halo PCIe
        traffic since the last charge (D2H on the sender, H2D on the
        receiver — the GPU-CPU leg of every exchanged strip) to the
        per-rank timelines.  On a counted run
        (``attach_devices(counters=True)``), the per-rank hook measures
        this step's kernels against the rank state and annotates the
        launches with measured counts."""
        from ..gpu.runtime import charge_step

        for runner, state in zip(self.runners, states):
            charge_step(runner.device, runner._launches, hook=runner.counting,
                        step_index=index, state=state)
        before, self._by_pair = self._by_pair, dict(self.comm.stats.by_pair)
        for (src, dst), nbytes in self._by_pair.items():
            delta = nbytes - before.get((src, dst), 0)
            if delta <= 0:
                continue
            for rank, kind in ((src, "d2h"), (dst, "h2d")):
                device = self.devices[rank]
                device.schedule(f"halo_{kind}:{src}->{dst}", kind,
                                device.default_stream,
                                delta / device.spec.pcie_bandwidth,
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
        """Split a global state into per-rank states (copies), the
        accumulated precipitation too."""
        h = self.global_grid.halo
        precip = global_state.precip_accum
        states = []
        for sub, rank in zip(self.subs, self.ranks):
            st = zeros_state(rank.grid, global_state.dtype, global_state.q)
            st.time = global_state.time
            for name in st.prognostic_names():
                st.get(name)[...] = global_state.get(name)[
                    _field_slices(sub, h, name)]
            if precip is not None:
                st.precip_accum = precip[sub.x0:sub.x0 + sub.nx,
                                         sub.y0:sub.y0 + sub.ny]
            states.append(st)
        return states

    def gather_state(self, states: list[State]) -> State:
        """Assemble a global state from rank states: each rank's cells and
        the halo cells it holds on the global edge.  Those are what the
        single-domain step leaves there, and where the model relaxes the
        halos are refilled (as :meth:`~repro.core.model.AsucaModel.step`
        does), so the block equals a single-domain run's, halos
        included."""
        g = self.global_grid
        h = g.halo
        out = zeros_state(g, states[0].dtype, states[0].q)
        out.time = states[0].time

        def window(x0, n, total, stagger):
            # local [lo, hi) of a rank at x0: its owned cells, widened to
            # the halo on a global edge; global index = local + x0
            lo = 0 if x0 == 0 else h
            hi = h + n + stagger + (h if x0 + n == total else 0)
            return slice(lo, hi), slice(x0 + lo, x0 + hi)

        for sub, st in zip(self.subs, states):
            for name in st.prognostic_names():
                sx, sy = STAGGER.get(name, (False, False))
                lx, gx = window(sub.x0, sub.nx, g.nx, sx)
                ly, gy = window(sub.y0, sub.ny, g.ny, sy)
                out.get(name)[gx, gy] = st.get(name)[lx, ly]
        # per-rank diagnostics: accumulated precipitation (interior-sized)
        if any(st.precip_accum is not None for st in states):
            out.precip_accum = np.zeros((g.nx, g.ny), dtype=states[0].dtype)
            for sub, st in zip(self.subs, states):
                if st.precip_accum is not None:
                    out.precip_accum[sub.x0 : sub.x0 + sub.nx,
                                     sub.y0 : sub.y0 + sub.ny] = st.precip_accum
        if self.relaxation is not None:
            fill_halos_state(out)
        return out

    # ---------------------------------------------------------------- step
    def exchange_all(self, states: list[State], names=None,
                     axes: tuple[int, ...] = (0, 1)) -> None:
        with span("halo_exchange", cat="comm"):
            self.exchanger.exchange(states, names, axes=axes)

    def driver(self, *, modeled: bool = True) -> Driver:
        """These ranks stepped in lock-step, the halo exchange their
        refresh.  ``modeled``: the run's decomposition, whose rank states
        a checkpoint holds; its scatter exchanges every halo once, and
        each step is charged to the attached devices
        (:meth:`attach_devices`).  Else the host tiles of one modeled
        domain, stepped as one long step of it.

        A transport fault's accounting is not the program's: the
        generators run every step of a plan that holds one."""
        # looked up per call: a method patched on the instance or the
        # class after the driver is made still runs
        exchange = lambda states, names: self.exchange_all(states, names)  # noqa: E731
        if not modeled:
            # nothing collects the tiles' comm: it keeps no message log
            self.comm.logged = False
            n = len(self.ranks)

            def fills(k: int) -> None:
                # the modeled domain's 1x1 fill, which the tiles' exchange
                # (and, where the model relaxes, the gathered refill)
                # stands in for
                ex = active_executor()
                ex.calls["fill_halos_state"] += k
                if native.kernels() is not None:
                    ex.accelerated += k
                else:
                    ex.fallbacks += k

            def refresh(states: list[State], names) -> None:
                self.exchange_all(states, names)
                fills(n)                # one dispatch, each tile's share

            return Driver(self.ranks, refresh, self.scatter_state,
                          self.gather_state,
                          tally=StencilExecutor("fused", grouped=True),
                          charge=(None if self.relaxation is None else
                                  lambda stepped, new, index: fills(1)))

        def scatter(state: State) -> list[State]:
            states = self.scatter_state(state)
            self.exchange_all(states, None)
            self._by_pair = dict(self.comm.stats.by_pair)
            return states

        return Driver(
            self.ranks, exchange, scatter, self.gather_state,
            charge=(None if self.devices is None else
                    lambda stepped, new, index: self._charge_devices(
                        new, index)),
            why=(None if self.faults is None or not self.faults.transport
                 else native.Unbound("faults", "transport planned")),
            span=("rk3_long_step", "phase"), machine=self)
