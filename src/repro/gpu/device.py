"""Virtual CUDA device: streams, events, engines, and a simulated clock.

This is the execution-model substitute for real CUDA hardware (DESIGN.md
Sec. 2).  Work is submitted in host order exactly like the CUDA runtime:

* every operation belongs to a :class:`Stream` (in-order within a stream);
* every operation occupies an engine — ``compute`` for kernels (the GT200
  of the paper runs one kernel at a time), ``copy`` for DMA transfers
  (one copy engine on the S1070, so H2D and D2H serialize against each
  other but overlap with compute);
* an op starts at ``max(stream available, engine available, explicit
  dependencies)`` and runs for its modeled duration.

The recorded timeline is what the Fig. 9 / Fig. 11 benchmarks read out.
Functional results are produced by really executing the wrapped NumPy
functions; the clock is purely virtual.

Every op also records the *happens-before* facts of its submission — the
explicit event/`after` dependencies it was given, its position in stream
program order, and the device-synchronize epoch it belongs to — plus the
memory regions it declares via :class:`Access`.  None of this changes the
schedule; it is what :mod:`repro.analysis.racecheck` replays to find
conflicting accesses with no ordering edge (the virtual machine's
``racecheck``, after cuda-memcheck's tool of the same name).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..optimeline import engine_for
from .spec import DeviceSpec, TESLA_S1070

__all__ = ["Access", "Op", "Event", "Stream", "GPUDevice"]


@dataclass(frozen=True)
class Access:
    """A declared memory access of one op: a named buffer (a
    :class:`~repro.gpu.memory.DeviceArray` region, a host staging buffer,
    a halo strip) and an optional element range within it.

    ``hi=None`` means "to the end of the buffer"; two accesses conflict
    when they touch the same buffer, their ranges intersect, and at least
    one of them writes.
    """

    buffer: str
    mode: str            #: 'r' | 'w' | 'rw'
    lo: int = 0
    hi: int | None = None

    def overlaps(self, other: "Access") -> bool:
        if self.buffer != other.buffer:
            return False
        a_hi = float("inf") if self.hi is None else self.hi
        b_hi = float("inf") if other.hi is None else other.hi
        return self.lo < b_hi and other.lo < a_hi

    def conflicts(self, other: "Access") -> bool:
        return ("w" in self.mode or "w" in other.mode) and self.overlaps(other)


@dataclass
class Op:
    """One scheduled operation on the virtual timeline."""

    name: str
    kind: str          #: 'kernel' | 'h2d' | 'd2h' | 'mpi'
    stream: int
    start: float
    end: float
    flops: float = 0.0
    bytes_moved: float = 0.0
    tag: str = ""      #: free-form grouping label for breakdown reports
    #: submission order on the device (unique, monotonically increasing)
    seq: int = -1
    #: device-synchronize epoch; a device sync orders everything before it
    epoch: int = 0
    #: seqs of the ops this op explicitly waited on (events / ``after``)
    deps: tuple[int, ...] = ()
    #: memory regions this op declared (empty = opaque to racecheck)
    accesses: tuple[Access, ...] = ()
    #: measured FLOP/byte counts of this launch (None = not instrumented).
    #: Filled by the counting hook (:mod:`repro.gpu.counters`) or a
    #: ``counter=`` launch; keys: ``flops``, ``bytes_read``,
    #: ``bytes_written``, ``intensity`` [flop/B], ``points``.  Unlike
    #: :attr:`flops`/:attr:`bytes_moved` (the analytic cost model) these
    #: come from actually running the kernel under instrumented arrays.
    measured: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Event:
    """CUDA-event analogue: a point on a stream's timeline.

    ``op`` is provenance for the happens-before analysis: the operation
    whose completion this event marks (None for synthetic time-only
    events, which order the *schedule* but carry no dependency edge).
    """

    time: float
    op: Op | None = None


class Stream:
    """In-order work queue (CUDA stream analogue)."""

    def __init__(self, device: "GPUDevice", sid: int):
        self.device = device
        self.sid = sid
        self.available_at = 0.0
        #: last op placed on this stream (event provenance)
        self.last_op: Op | None = None
        #: dependency ops from wait_event, consumed by the next placed op
        self._pending_deps: list[Op] = []

    def record_event(self) -> Event:
        return Event(self.available_at, op=self.last_op)

    def wait_event(self, event: Event) -> None:
        """Subsequent ops on this stream start no earlier than the event.
        When the event carries op provenance, the next op placed here also
        records a happens-before edge to that op."""
        self.available_at = max(self.available_at, event.time)
        if event.op is not None:
            self._pending_deps.append(event.op)


class GPUDevice:
    """One virtual GPU (or CPU core) with a simulated clock.

    ``copy_engines=1`` mirrors the single DMA engine of the Tesla S1070;
    pass 2 for devices with dual copy engines.
    """

    def __init__(self, spec: DeviceSpec = TESLA_S1070, *, copy_engines: int = 1,
                 label: str = "gpu0", fault_injector=None):
        self.spec = spec
        #: track identity for telemetry (e.g. ``rank3``); collectors use
        #: it to stamp this device's ops in merged multi-rank traces
        self.label = label
        #: optional :class:`~repro.resilience.faults.FaultInjector`; a
        #: scheduled PCIE event makes the next H2D/D2H copy fail once and
        #: be redone, charging the retry to this device's timeline
        self.fault_injector = fault_injector
        # the 'mpi' engine stands for the host-side network: MPI transfers
        # occupy it without blocking the GPU engines (paper Fig. 8)
        self._engines: dict[str, float] = {"compute": 0.0, "mpi": 0.0}
        for i in range(copy_engines):
            self._engines[f"copy{i}"] = 0.0
        self._n_copy = copy_engines
        self.streams: list[Stream] = []
        self.timeline: list[Op] = []
        self.allocated_bytes = 0
        #: optional lifecycle hook (duck-typed; see
        #: :class:`repro.analysis.memcheck.MemcheckTracker`) notified by
        #: :class:`~repro.gpu.memory.DeviceArray` alloc/free/transfer calls
        self.memcheck = None
        self._seq = 0          #: next op submission number
        self._epoch = 0        #: current synchronize epoch
        self._makespan = 0.0   #: latest op end placed so far
        self._alloc_seq = 0    #: DeviceArray naming counter
        self.default_stream = self.create_stream()

    # ----------------------------------------------------------- streams
    def create_stream(self) -> Stream:
        s = Stream(self, len(self.streams))
        self.streams.append(s)
        return s

    # --------------------------------------------------------- schedule
    def schedule(
        self,
        name: str,
        kind: str,
        stream: Stream,
        duration: float,
        *,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        after: Iterable[Event] = (),
        tag: str = "",
        accesses: Iterable[Access] = (),
    ) -> Op:
        """Place an op on the timeline; returns it (its ``end`` is when a
        subsequent dependent op may start).

        A transient PCIe fault (see :attr:`fault_injector`) inserts a
        same-duration ``[failed]`` attempt first; the real copy then
        serializes behind it on the DMA engine, so the retry shows up in
        the timeline and in the copy-time aggregates.
        """
        if duration < 0:
            raise ValueError("negative duration")
        if (self.fault_injector is not None and kind in ("h2d", "d2h")
                and self.fault_injector.on_pcie(self.label)):
            self._place(f"{name}[failed]", kind, stream, duration,
                        flops=0.0, bytes_moved=bytes_moved, after=after,
                        tag="pcie_retry")
        return self._place(name, kind, stream, duration, flops=flops,
                           bytes_moved=bytes_moved, after=after, tag=tag,
                           accesses=accesses)

    def _place(
        self,
        name: str,
        kind: str,
        stream: Stream,
        duration: float,
        *,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        after: Iterable[Event] = (),
        tag: str = "",
        accesses: Iterable[Access] = (),
    ) -> Op:
        after = tuple(after)
        engine = engine_for(kind, self._n_copy)
        start = max(
            stream.available_at,
            self._engines[engine],
            *(ev.time for ev in after),
        ) if after else max(stream.available_at, self._engines[engine])
        end = start + duration
        stream.available_at = end
        self._engines[engine] = end
        if end > self._makespan:
            self._makespan = end
        # happens-before edges: explicit `after` provenance plus any
        # wait_event deps pending on the stream (program order is implied
        # by `stream`/`seq` and need not be recorded)
        deps = [ev.op for ev in after if ev.op is not None]
        deps.extend(stream._pending_deps)
        stream._pending_deps = []
        op = Op(name=name, kind=kind, stream=stream.sid, start=start, end=end,
                flops=flops, bytes_moved=bytes_moved, tag=tag,
                seq=self._seq, epoch=self._epoch,
                deps=tuple(d.seq for d in deps),
                accesses=tuple(accesses))
        self._seq += 1
        stream.last_op = op
        self.timeline.append(op)
        return op

    # ------------------------------------------------------------- clock
    def synchronize(self) -> float:
        """Wait for everything (returns the makespan) and align all
        streams/engines to it — cudaDeviceSynchronize analogue.  Also a
        happens-before barrier: every later op is ordered after every
        earlier one (the epoch stamp racecheck keys on)."""
        t = self.elapsed()
        for s in self.streams:
            s.available_at = t
            s._pending_deps = []
        for k in self._engines:
            self._engines[k] = t
        self._epoch += 1
        return t

    def elapsed(self) -> float:
        """Current makespan of all submitted work."""
        return self._makespan

    def reset(self) -> None:
        """Clear the timeline and rewind the clock (memory stays)."""
        self.timeline.clear()
        for s in self.streams:
            s.available_at = 0.0
            s.last_op = None
            s._pending_deps = []
        for k in self._engines:
            self._engines[k] = 0.0
        self._seq = 0
        self._epoch = 0
        self._makespan = 0.0

    # --------------------------------------------------------- reporting
    def busy_time(self, kind: str | None = None, tag: str | None = None) -> float:
        """Total op time filtered by kind and/or tag (may exceed the
        makespan when work overlaps across engines)."""
        return sum(
            op.duration
            for op in self.timeline
            if (kind is None or op.kind == kind) and (tag is None or op.tag == tag)
        )

    def total_flops(self) -> float:
        return sum(op.flops for op in self.timeline)

    def sustained_flops(self) -> float:
        """FLOP / makespan — the quantity the paper reports as GFlops."""
        t = self.elapsed()
        return self.total_flops() / t if t > 0 else 0.0
