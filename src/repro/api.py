"""The unified run facade: ``RunSpec`` -> ``Experiment`` -> ``RunResult``.

Before this module existed, every entry point — the CLI, the benchmarks,
the examples — grew its own ad-hoc path from "which workload, what size,
how many ranks" to a driven run, and the Hybrid Fortran line of work on
ASUCA (Müller & Aoki) argues a production port lives or dies on a uniform
execution interface over its CPU/GPU/multi-rank backends.  This is that
interface:

* :class:`RunSpec` — one declarative description of a run: workload,
  grid, steps, backend (``cpu`` / ``gpu`` / ``multigpu``), decomposition,
  trace/metrics options, and resilience options (fault plan, retry
  policy, checkpoint cadence, resume).
* :class:`Experiment` — ``prepare()`` builds the case and the chosen
  backend's :class:`~repro.core.model.Driver` (one domain, perhaps as
  host tiles; one device through a
  :class:`~repro.gpu.runtime.GpuAsucaRunner`; or a
  :class:`~repro.dist.multigpu.MultiGpuAsuca` decomposition); ``run()``
  steps every backend on the one path, with checkpointing and crash
  recovery; ``advance()`` / ``gather()`` support segmented use
  (benchmarks that inspect intermediate states).
* :class:`RunResult` — the final state plus diagnostics, telemetry, and
  the resilience ledger (faults fired, retries, recoveries, recovery
  time).

A run with an injected rank crash, checkpointed every K steps, resumes
from the newest checkpoint and produces fields bit-identical to an
uninterrupted run (tests/resilience/test_api.py) — the checkpoint format
itself guarantees this (see :mod:`repro.resilience.checkpoint`).
"""
from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .core.model import Driver, StepDiagnostics
from .core.state import State
from .obs.trace import TraceSession, span, use_session
from .resilience.checkpoint import CheckpointError, CheckpointManager
from .resilience.faults import FaultInjector, FaultPlan, RankCrash
from .resilience.retry import RetryPolicy
from .stencil.executor import use_executor

__all__ = ["RunSpec", "Experiment", "RunResult", "make_case", "parse_ranks"]

_BACKENDS = ("auto", "cpu", "gpu", "multigpu")


#: workload name -> its case factory in :mod:`repro.workloads`.  The one
#: list of names: importing it costs nothing (the CLI's ``choices=``), the
#: factories resolve on first use.
_FACTORIES = {
    "mountain-wave": "make_mountain_wave_case",
    "warm-bubble": "make_warm_bubble_case",
    "real-case": "make_real_case",
    "shear-layer": "make_shear_layer_case",
    "vortex": "make_vortex_case",
}

#: the workload names a RunSpec accepts
WORKLOADS = tuple(_FACTORIES)


def _workload_factories() -> dict[str, Callable]:
    from . import workloads

    return {name: getattr(workloads, factory)
            for name, factory in _FACTORIES.items()}


def make_case(workload: str, **kwargs):
    """Build a workload case (grid + reference + model + state bundle) by
    name — the single implementation behind every entry point."""
    factories = _workload_factories()
    try:
        factory = factories[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose one of "
            f"{', '.join(sorted(factories))}") from None
    return factory(**{k: v for k, v in kwargs.items() if v is not None})


def parse_ranks(spec: "str | tuple[int, int] | None") -> tuple[int, int] | None:
    """Parse a process-grid spec ('2x3' or a (px, py) tuple).

    Raises :class:`ValueError` for malformed shapes ('2x3x4', 'abc') and
    for non-positive rank counts ('0x2', (2, -1)) — a decomposition needs
    at least one rank along each axis.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        parts = spec.lower().split("x")
        if len(parts) != 2:
            raise ValueError(
                f"ranks spec {spec!r} must be 'PXxPY', e.g. '2x3'")
        try:
            px, py = (int(p) for p in parts)
        except ValueError:
            raise ValueError(
                f"ranks spec {spec!r} must be 'PXxPY' with integer "
                f"rank counts") from None
    else:
        try:
            px, py = spec
        except (TypeError, ValueError):
            raise ValueError(
                f"ranks spec {spec!r} must be a (px, py) pair") from None
        px, py = int(px), int(py)
    if px < 1 or py < 1:
        raise ValueError(
            f"rank counts must be >= 1 along both axes, got {px}x{py}")
    return px, py


@dataclass
class RunSpec:
    """Everything needed to construct and drive one run."""

    workload: str = "warm-bubble"
    steps: int = 50
    #: grid overrides (None = the workload's defaults)
    nx: int | None = None
    ny: int | None = None
    nz: int | None = None
    dt: float | None = None
    #: extra keyword arguments for the workload factory
    workload_kwargs: dict[str, Any] = field(default_factory=dict)
    #: perturbation seed threaded to the workload factory: every factory
    #: applies its seeded initial-condition noise when this is set, so an
    #: ensemble member is reproducible standalone from its expanded spec
    #: (repro.ensemble).  Semantic: it enters spec_hash, so perturbed
    #: members cache as distinct entries; the default None is *omitted*
    #: from the canonical dict, keeping every pre-seed hash stable.
    seed: int | None = None
    #: 'cpu' (plain AsucaModel), 'gpu' (virtual-GPU runner), 'multigpu'
    #: (decomposed), or 'auto' (multigpu if ranks given, gpu if traced)
    backend: str = "auto"
    ranks: "tuple[int, int] | str | None" = None
    precision: Any = None           #: gpu/multigpu modeled precision
    ice: bool = False
    #: stencil executor backend: 'fused' (or 'auto'), the compiled bodies
    #: where a library is loaded, else the oracles; 'reference', every
    #: oracle — byte-identical either way, so this never enters the spec
    #: hash (see _NON_SEMANTIC_FIELDS)
    stencil_backend: str = "auto"
    # ---------------------------------------------------- observability
    trace_path: str | None = None
    trace_jsonl: str | None = None
    metrics: bool = False
    profile: bool = False
    summary: bool = False
    #: measure FLOP/byte counts per kernel launch (the live roofline;
    #: requires a device-backed backend — auto resolves to 'gpu')
    counters: bool = False
    #: measure every Nth step only (bounds counting overhead)
    counter_every: int = 1
    history_path: str | None = None
    history_every: float = 60.0
    # ------------------------------------------------------- resilience
    faults: "FaultPlan | str | None" = None
    retry: RetryPolicy | None = None
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    checkpoint_keep: int = 2
    resume: bool = False

    # ------------------------------------------------------------------
    def wants_session(self) -> bool:
        return bool(self.trace_path or self.trace_jsonl or self.metrics
                    or self.summary)

    def normalized(self) -> "RunSpec":
        """Validated copy with backend/ranks/fault-plan coherence."""
        ranks = parse_ranks(self.ranks)
        backend = self.backend
        if backend == "auto":
            backend = ("multigpu" if ranks is not None
                       else "gpu" if self.wants_session() or self.counters
                       else "cpu")
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if backend == "multigpu" and ranks is None:
            raise ValueError("backend 'multigpu' needs ranks=(px, py)")
        if backend != "multigpu":
            ranks = None
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.counter_every < 1:
            raise ValueError("counter_every must be >= 1")
        from .stencil import BACKENDS

        stencil_backend = self.stencil_backend
        if stencil_backend == "auto":
            stencil_backend = "fused"
        if stencil_backend not in BACKENDS:
            raise ValueError(
                f"unknown stencil backend {self.stencil_backend!r}; "
                f"choose one of auto, {', '.join(BACKENDS)}")
        if self.counters and backend == "cpu":
            raise ValueError(
                "counters need a device-backed backend ('gpu'/'multigpu')")
        if (self.resume or self.checkpoint_every > 0) and not self.checkpoint_dir:
            raise ValueError(
                "checkpointing/resume needs checkpoint_dir")
        return replace(self, backend=backend, ranks=ranks,
                       stencil_backend=stencil_backend,
                       faults=FaultPlan.parse(self.faults))

    # ---------------------------------------------------------- identity
    #: fields that do not change what a run computes — trace/metrics
    #: outputs and filesystem paths — and are therefore excluded from
    #: :meth:`spec_hash` (two runs differing only here produce
    #: bit-identical result fields)
    _NON_SEMANTIC_FIELDS = frozenset({
        "trace_path", "trace_jsonl", "metrics", "profile", "summary",
        "history_path", "history_every", "checkpoint_dir",
        # counting only annotates device ops with measurements; the
        # computed fields are bit-identical with or without it
        "counters", "counter_every",
        # the compiled bodies are bit-identical to the oracles (enforced
        # by tests/stencil), so the backend choice
        # does not change what a run computes — a cached result from one
        # backend is valid for all of them
        "stencil_backend",
    })

    def canonical_dict(self) -> dict[str, Any]:
        """JSON-ready dict of the *semantic* fields of the normalized
        spec — the identity a result cache may key on."""
        spec = self.normalized()
        out: dict[str, Any] = {}
        for f in dataclasses.fields(spec):
            if f.name in self._NON_SEMANTIC_FIELDS:
                continue
            value = getattr(spec, f.name)
            if f.name == "seed" and value is None:
                # an unseeded run computes exactly what it did before the
                # seed field existed; omitting the default keeps every
                # historical spec hash (and cached result) valid
                continue
            out[f.name] = _canonical_value(value)
        return out

    def spec_hash(self) -> str:
        """Stable content hash of the run: sha256 over the canonical
        JSON of :meth:`canonical_dict`.

        Two specs that normalize to the same computation (e.g. ranks
        given as ``"2x2"`` vs ``(2, 2)``, backend ``auto`` vs its
        resolution) hash identically; observability-only fields (trace
        paths, metrics flags, history output) never affect the hash.
        """
        return _digest(self.canonical_dict())

    def problem_hash(self) -> str:
        """Identity of the initial-value problem this spec integrates:
        :meth:`spec_hash` without how far the run goes, what is injected
        into it and how often it is snapshotted.  Every checkpoint of the
        problem carries it, so a ``resume`` with more steps reads its own
        archives and a run never restores another run's."""
        semantic = self.canonical_dict()
        for name in ("steps", "faults", "resume", "checkpoint_every",
                     "checkpoint_keep"):
            del semantic[name]
        return _digest(semantic)


def _digest(canonical: dict[str, Any]) -> str:
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _canonical_value(value: Any) -> Any:
    """Reduce a RunSpec field value to a canonical JSON-ready form."""
    if isinstance(value, enum.Enum):
        return value.name
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, FaultPlan):
        return [_canonical_value(ev) for ev in value.events]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _canonical_value(v)
                for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return repr(value)


@dataclass
class RunResult:
    """What a completed :meth:`Experiment.run` hands back."""

    spec: RunSpec
    state: State
    diagnostics: StepDiagnostics
    steps_done: int
    wall_time: float
    session: TraceSession | None = None
    #: JSON-ready metrics snapshot (None when no session was active)
    metrics: dict | None = None
    #: (step, kind, detail) log of faults that actually fired
    fault_log: list = field(default_factory=list)
    retry_stats: Any = None
    recoveries: int = 0
    recovery_wall_s: float = 0.0
    checkpoints_written: int = 0
    resumed_from: int | None = None
    #: step each crash recovery restored from (0: cold restart)
    recovered_from: list = field(default_factory=list)
    halo_messages: int = 0
    halo_bytes: int = 0
    #: stencil executor dispatch stats (StencilExecutor.stats())
    stencil_stats: dict | None = None
    #: per-step point-product series recorded by the workload case (the
    #: vortex case's track: time, center, max wind), when it records one
    series: "dict[str, list] | None" = None

    def resilience_report(self) -> str:
        parts = [f"{len(self.fault_log)} faults fired"]
        if self.retry_stats is not None:
            parts.append(self.retry_stats.report())
        parts.append(f"{self.recoveries} crash recoveries "
                     f"({self.recovery_wall_s * 1e3:.1f} ms wall"
                     + "".join(f", from step {s}" for s in self.recovered_from)
                     + ")")
        parts.append(f"{self.checkpoints_written} checkpoints written")
        if self.resumed_from is not None:
            parts.append(f"resumed from step {self.resumed_from}")
        return "; ".join(parts)


class Experiment:
    """The single way to construct and drive a run.

    Usage::

        result = Experiment(RunSpec(workload="warm-bubble", steps=20,
                                    backend="multigpu", ranks=(2, 2),
                                    faults="demo",
                                    checkpoint_every=5,
                                    checkpoint_dir="ckpts")).prepare().run()
        print(result.diagnostics, result.resilience_report())

    Segmented use (benchmarks): ``prepare()`` once, then any number of
    ``advance(n)`` calls with ``gather()``/``case`` inspection between.
    """

    def __init__(self, spec: RunSpec):
        self.spec = spec.normalized()
        self.case = None
        self.model = None
        self.grid = None
        #: how every step runs (a :class:`~repro.core.model.Driver`) and
        #: its ranks' states
        self.driver: Driver | None = None
        self._states: list[State] = []
        #: the single-domain state last read or scattered (a weak
        #: reference); see :attr:`state`
        self._gathered: "weakref.ref | None" = None
        self.session: TraceSession | None = None
        self.executor = None                #: StencilExecutor
        self.injector: FaultInjector | None = None
        self.checkpoints: CheckpointManager | None = None
        self.history = None
        self.step_index = 0
        self.recoveries = 0
        self.recovery_wall_s = 0.0
        self.resumed_from: int | None = None
        self.recovered_from: list[int] = []
        self._initial: list[State] | None = None
        self._prepared = False

    # ------------------------------------------------------------ build
    def prepare(self) -> "Experiment":
        """Build the case, the backend's driver, and the resilience
        machinery."""
        if self._prepared:
            return self
        spec = self.spec
        wl_kwargs = dict(spec.workload_kwargs)
        if spec.seed is not None:
            # the spec-level seed wins over a workload_kwargs seed: the
            # ensemble layer stamps members here
            wl_kwargs["seed"] = spec.seed
        self.case = make_case(spec.workload, nx=spec.nx, ny=spec.ny,
                              nz=spec.nz, dt=spec.dt, **wl_kwargs)
        self.model = self.case.model
        self.grid = self.case.grid
        if spec.ice:
            self.model.config.ice_enabled = True
            self.model.config.physics_enabled = True

        from .stencil import StencilExecutor, native

        self.executor = StencilExecutor(spec.stencil_backend)
        # find (once per machine: build) and verify the compiled bodies
        # now: the cost belongs to set-up, not to the first step
        native.library()

        if spec.faults and len(spec.faults):
            self.injector = FaultInjector(spec.faults)
        # profile only reads the session's phase spans: it opens one but
        # (unlike wants_session) never changes the backend or what runs
        if spec.wants_session() or spec.profile:
            self.session = TraceSession(name=spec.workload)
        if spec.checkpoint_dir:
            self.checkpoints = CheckpointManager(
                spec.checkpoint_dir, every=spec.checkpoint_every,
                keep=spec.checkpoint_keep, identity=spec.problem_hash())

        self.driver = self._build_driver()
        initial = self.case.state
        with self._contexts():
            self._step_to(self.driver.scatter(initial), initial)
        # a step never writes its input: the initial states are kept as
        # they are, and copied only by a cold restart
        self._initial = self.rank_states

        if spec.resume:
            # newest readable archive; FileNotFoundError when there is
            # none, CheckpointError when every one is damaged
            ckpt = self.checkpoints.load([st.grid for st in self.rank_states])
            self._restore_states(ckpt.states, ckpt.step)
            self.resumed_from = self.step_index

        if spec.history_path:
            from .history import HistoryWriter

            self.history = HistoryWriter(self.grid, spec.history_path,
                                         every_seconds=spec.history_every)
            self.history.save(self.gather())
        self._prepared = True
        return self

    def _build_driver(self) -> Driver:
        """The backend's parts: a modeled px×py decomposition, one
        device, or one domain (stepped as host tiles where
        :func:`~repro.core.program.host_tiles` says so)."""
        spec, model = self.spec, self.model
        if spec.backend == "multigpu":
            from .dist.multigpu import MultiGpuAsuca

            machine = MultiGpuAsuca(
                self.grid, self.case.ref, *spec.ranks, model.config,
                relaxation=model.relaxation, fault_injector=self.injector,
                retry=spec.retry)
            if spec.wants_session() or spec.counters:
                machine.attach_devices(precision=spec.precision,
                                       counters=spec.counters,
                                       counter_every=spec.counter_every)
            return machine.driver()
        if spec.backend == "gpu":
            from .gpu.device import GPUDevice
            from .gpu.runtime import GpuAsucaRunner
            from .gpu.spec import TESLA_S1070

            kw = {} if spec.precision is None else {"precision": spec.precision}
            return GpuAsucaRunner(
                model, GPUDevice(TESLA_S1070, fault_injector=self.injector),
                counters=spec.counters, counter_every=spec.counter_every,
                **kw).driver()
        from .core import program
        from .stencil import native

        tiles = (program.host_tiles(self.grid)
                 if spec.stencil_backend == "fused" else None)
        if tiles is None:
            return model.driver()
        from .dist.multigpu import MultiGpuAsuca

        native.TILES["%dx%d" % tiles] += 1
        return MultiGpuAsuca(self.grid, self.case.ref, *tiles, model.config,
                             relaxation=model.relaxation).driver(modeled=False)

    @contextlib.contextmanager
    def _contexts(self):
        """Activate the stencil executor and the session around any
        stepping."""
        with (contextlib.nullcontext() if self.executor is None
              else use_executor(self.executor)), \
                (contextlib.nullcontext() if self.session is None
                 else use_session(self.session)):
            yield

    # ------------------------------------------------------------ drive
    def run(self) -> RunResult:
        """Drive the run to ``spec.steps``, checkpointing and recovering
        from rank crashes along the way; returns the :class:`RunResult`."""
        if not self._prepared:
            self.prepare()
        t0 = time.perf_counter()
        self._advance_to(self.spec.steps)
        return self._finish(time.perf_counter() - t0)

    def advance(self, n_steps: int) -> None:
        """Advance ``n_steps`` without finishing the run (segmented use);
        crash faults recover exactly as in :meth:`run`."""
        self._advance_to(self.step_index + n_steps)

    def _advance_to(self, target: int) -> None:
        if not self._prepared:
            self.prepare()
        with self._contexts():
            while self.step_index < target:
                try:
                    self._step_once()
                except RankCrash as crash:
                    self._recover(crash)

    def _step_once(self) -> None:
        """One long step, the same on every backend: the fault plan's
        crash, the driver's lock-step and charge, the case's track point,
        then history and checkpoints."""
        i = self.step_index
        if self.injector is not None:
            self.injector.begin_step(i)
            crashed = self.injector.crash_rank(i)
            if crashed is not None:
                raise RankCrash(rank=crashed, step=i)
        self._step_to(self.driver.step(self._states, i))
        self.step_index = i + 1
        record = getattr(self.case, "record_track", None)
        if record is not None:
            record(self.state)
        if self.history is not None:
            self.history.maybe_save(self.gather())
        if self.checkpoints is not None and self.checkpoints.due(self.step_index):
            self.checkpoints.save(self.step_index, self.rank_states)

    def _step_to(self, states: list[State], single: State | None = None):
        """Make ``states`` the ranks' states; ``single``, when given, is
        the single-domain state they were scattered from."""
        self._states = states
        self._gathered = None if single is None else weakref.ref(single)

    # ------------------------------------------------------------ views
    @property
    def state(self) -> "State | None":
        """The single-domain state (one rank: its state, no copy).  A run
        of several ranks gathers it on the first read after a step: each
        rank's cells with the halo it holds on the global edge, refilled
        where the model relaxes, so the block equals a one-domain run's,
        halos included.  Later reads return the same state while a
        caller holds it; the run keeps no reference of its own, so the
        block is freed with its last reader, not held into the next
        step's peak (a write into it reaches no rank)."""
        if self.driver is None:
            return None
        st = self._gathered and self._gathered()
        if st is None:
            st = self.driver.gather(self._states)
            self._gathered = weakref.ref(st)
        return st

    @property
    def rank_states(self) -> "list[State] | None":
        """The modeled ranks' states in order (one modeled domain: its
        state): what a checkpoint holds."""
        return self.driver and self.driver.modeled(self._states,
                                                   lambda: self.state)

    #: the modeled decomposition (a MultiGpuAsuca), or None
    machine = property(lambda self: self.driver and self.driver.machine)
    #: the one-device runner (a GpuAsucaRunner), or None
    runner = property(lambda self: self.driver and self.driver.runner)

    # --------------------------------------------------------- recovery
    def _recover(self, crash: RankCrash) -> None:
        """Checkpoint-restart after a rank crash: reload the newest
        readable snapshot of this run (an older one when the newest is
        damaged or another run's, the initial state when none reads) and
        rewind the step counter; the
        re-run is bit-identical to an uninterrupted one because the
        snapshot holds full halos."""
        t0 = time.perf_counter()
        with span("recovery", cat="resilience", rank=crash.rank,
                  step=crash.step):
            ckpt = None
            if self.checkpoints is not None:
                with contextlib.suppress(FileNotFoundError, CheckpointError):
                    ckpt = self.checkpoints.load(
                        [st.grid for st in self.rank_states])
            if ckpt is not None:
                self._restore_states(ckpt.states, ckpt.step)
            else:
                # nothing to read: cold restart from the initial state
                self._restore_states([st.copy() for st in self._initial], 0)
        dt_wall = time.perf_counter() - t0
        self.recoveries += 1
        self.recovered_from.append(self.step_index)
        self.recovery_wall_s += dt_wall
        if self.session is not None:
            m = self.session.metrics
            m.counter("resilience.recoveries").inc()
            m.counter("resilience.recovery_wall_s").inc(dt_wall)

    def _restore_states(self, modeled: list[State], step: int) -> None:
        self._step_to(self.driver.restored(modeled))
        self.step_index = step

    # ----------------------------------------------------------- output
    def gather(self) -> State:
        """The current single-domain state (:attr:`state`), also synced
        onto ``case.state`` so workload helper methods (``snapshot``,
        ``perturbation_ke``, ...) see the latest fields."""
        st = self.state
        if self.case is not None:
            self.case.state = st
        return st

    def _finish(self, wall: float) -> RunResult:
        state = self.gather()
        driver, runner, machine = self.driver, self.runner, self.machine
        for model in (self.model, *driver.ranks):
            model.integrator.release()
        if runner is not None:
            runner.download(state)
        comm = getattr(machine, "comm", None)
        exchanger = getattr(machine, "exchanger", None)
        if self.session is not None:
            sess = self.session
            for r, device in enumerate(driver.devices):
                sess.collect_device(device, rank=r)
            if comm is not None:
                sess.collect_comm(comm)
            m = sess.metrics
            if self.injector is not None:
                for kind, n in self.injector.counts.items():
                    m.counter(f"resilience.faults.{kind}").inc(n)
            if exchanger is not None:
                m.gauge("resilience.recovery_modeled_s").set(
                    exchanger.stats.recovery_s)
            m.gauge("resilience.recovery_wall_s_total").set(
                self.recovery_wall_s)
            sess.finalize(steps=max(1, self.steps_done))
        if self.history is not None:
            self.history.close()
        return RunResult(
            spec=self.spec,
            state=state,
            diagnostics=self.model.diagnostics(state),
            steps_done=self.steps_done,
            wall_time=wall,
            session=self.session,
            metrics=(self.session.metrics.as_dict()
                     if self.session is not None else None),
            fault_log=list(self.injector.fired) if self.injector else [],
            retry_stats=exchanger.stats if exchanger is not None else None,
            recoveries=self.recoveries,
            recovery_wall_s=self.recovery_wall_s,
            checkpoints_written=(self.checkpoints.writes
                                 if self.checkpoints else 0),
            resumed_from=self.resumed_from,
            recovered_from=list(self.recovered_from),
            halo_messages=comm.stats.messages if comm is not None else 0,
            halo_bytes=comm.stats.bytes_total if comm is not None else 0,
            stencil_stats=(self.executor.stats()
                           if self.executor is not None else None),
            series=(self.case.series()
                    if hasattr(self.case, "series") else None),
        )

    @property
    def steps_done(self) -> int:
        return self.step_index
