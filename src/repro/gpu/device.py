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
functions; the clock is purely virtual.  A long step's kernel launches
are one entry of it (:meth:`GPUDevice.place_run`): a priced
:class:`LaunchTable` stamped at its first start, whose ops the
:class:`Timeline` makes when they are read.

Every op also records the *happens-before* facts of its submission — the
explicit event/`after` dependencies it was given, its position in stream
program order, and the device-synchronize epoch it belongs to — plus the
memory regions it declares via :class:`Access`.  None of this changes the
schedule; it is what :mod:`repro.analysis.racecheck` replays to find
conflicting accesses with no ordering edge (the virtual machine's
``racecheck``, after cuda-memcheck's tool of the same name).
"""
from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..optimeline import engine_for
from .spec import DeviceSpec, TESLA_S1070

__all__ = ["Access", "Op", "Event", "Stream", "LaunchTable", "Timeline",
           "GPUDevice"]


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
    #: measured FLOP/byte counts of this launch (None = not instrumented),
    #: from the counting hook (:mod:`repro.gpu.counters`) on a sampled
    #: step's launches; keys: ``flops``, ``bytes_read``,
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


def _check_duration(what: str, duration: float) -> None:
    # NaN fails both comparisons; an infinite op would end the clock
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"{what}: duration {duration!r} is not a finite, "
                         f"non-negative time")


class LaunchTable:
    """A fixed sequence of kernel launches, priced once.

    ``rows`` are ``(name, tag, launches, n_points, duration, flops,
    bytes moved)`` in launch order (what
    :func:`repro.gpu.runtime.price_step` makes); a row stands for
    ``launches`` identical launches over ``n_points`` points.  The
    per-launch columns are expanded here, once, for
    :meth:`GPUDevice.place_run` and for the ops a :class:`Timeline`
    makes when it is read.  A duration that is negative or not finite is
    rejected, naming its kernel.
    """

    def __init__(self, rows: Iterable[tuple]):
        self.rows = tuple(rows)
        names, tags, flops, nbytes, durations = [], [], [], [], []
        for name, tag, count, _, duration, fl, by in self.rows:
            _check_duration(f"kernel {name!r}", duration)
            names += [name] * count
            tags += [tag] * count
            flops += [fl] * count
            nbytes += [by] * count
            durations += [duration] * count
        self.names = tuple(names)
        self.tags = tuple(tags)
        self.flops = tuple(flops)
        self.bytes_moved = tuple(nbytes)
        self.durations = np.array(durations, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.names)


class _Run:
    """One :meth:`GPUDevice.place_run`: a table's launches back to back
    on one stream from ``start``, numbered from ``seq``.  ``deps`` are
    the first launch's; ``measured`` is one entry per launch, or None."""

    __slots__ = ("table", "stream", "start", "seq", "epoch", "deps",
                 "measured")

    def __init__(self, table, stream, start, seq, epoch, deps, measured):
        self.table = table
        self.stream = stream
        self.start = start
        self.seq = seq
        self.epoch = epoch
        self.deps = deps
        self.measured = measured

    def __len__(self) -> int:
        return len(self.table)

    def times(self) -> list[float]:
        """``[start, end_0, end_1, ...]``: each end is the previous one
        plus the launch's duration, added in order exactly as
        :meth:`GPUDevice.schedule` adds them one op at a time (never a
        start plus a precomputed offset, which would round differently)."""
        buf = np.empty(len(self.table) + 1)
        buf[0] = self.start
        buf[1:] = self.table.durations
        return np.add.accumulate(buf, out=buf).tolist()

    def ops(self, lo: int, hi: int,
            times: list[float] | None = None) -> list[Op]:
        """The run's ops ``lo`` to ``hi``, made now."""
        if times is None:
            times = self.times()
        t, m = self.table, self.measured
        return [Op(t.names[i], "kernel", self.stream, times[i], times[i + 1],
                   t.flops[i], t.bytes_moved[i], t.tags[i], self.seq + i,
                   self.epoch, self.deps if i == 0 else (), (),
                   None if m is None else m[i])
                for i in range(lo, hi)]


class Timeline(Sequence):
    """A device's ops in submission order: a read-only sequence of
    :class:`Op`.

    Each entry is an op placed by :meth:`GPUDevice.schedule` or a run
    placed by :meth:`GPUDevice.place_run`, whose ops are made, in one
    place (:meth:`_Run.ops`), each time they are read — equal field for
    field to what placing them one by one gives.  ``len`` is O(1);
    indexing, slicing and iteration make the run ops they return.
    """

    __slots__ = ("_entries", "_firsts", "_len")

    def __init__(self):
        self._entries: list[Op | _Run] = []
        self._firsts = array("q")   #: index of each entry's first op
        self._len = 0

    def _add(self, entry: "Op | _Run", n: int = 1) -> None:
        self._entries.append(entry)
        self._firsts.append(self._len)
        self._len += n

    def _clear(self) -> None:
        self._entries.clear()
        del self._firsts[:]
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Op]:
        for e in self._entries:
            if isinstance(e, Op):
                yield e
            else:
                yield from e.ops(0, len(e))

    def _span(self, lo: int, hi: int) -> list[Op]:
        """Ops ``lo`` to ``hi`` (``0 <= lo <= hi <= len``)."""
        out: list[Op] = []
        k = bisect_right(self._firsts, lo) - 1
        while lo < hi:
            e, first = self._entries[k], self._firsts[k]
            if isinstance(e, Op):
                out.append(e)
                lo += 1
            else:
                end = min(hi, first + len(e))
                out += e.ops(lo - first, end - first)
                lo = end
            k += 1
        return out

    def __getitem__(self, i):
        if isinstance(i, slice):
            r = range(*i.indices(self._len))
            if not r:
                return []
            lo = min(r[0], r[-1])
            span = self._span(lo, max(r[0], r[-1]) + 1)
            return [span[j - lo] for j in r]
        n = i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"timeline index {n} out of range")
        return self._span(i, i + 1)[0]


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
        self.timeline = Timeline()
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
        _check_duration(f"op {name!r}", duration)
        if (self.fault_injector is not None and kind in ("h2d", "d2h")
                and self.fault_injector.on_pcie(self.label)):
            self._place(f"{name}[failed]", kind, stream, duration, 0.0,
                        bytes_moved, after, "pcie_retry")
        return self._place(name, kind, stream, duration, flops, bytes_moved,
                           after, tag, accesses)

    def _place(self, name: str, kind: str, stream: Stream, duration: float,
               flops: float = 0.0, bytes_moved: float = 0.0,
               after: Iterable[Event] = (), tag: str = "",
               accesses: Iterable[Access] = ()) -> Op:
        # the common op has no ``after`` and no pending deps: no tuple,
        # generator or list is built for it
        engines = self._engines
        engine = engine_for(kind, self._n_copy)
        start = stream.available_at
        if engines[engine] > start:
            start = engines[engine]
        deps = ()
        if after:
            after = tuple(after)
            for ev in after:
                if ev.time > start:
                    start = ev.time
            deps = tuple(ev.op.seq for ev in after if ev.op is not None)
        end = start + duration
        stream.available_at = engines[engine] = end
        if end > self._makespan:
            self._makespan = end
        # happens-before edges: explicit `after` provenance plus any
        # wait_event deps pending on the stream (program order is implied
        # by `stream`/`seq` and need not be recorded)
        if stream._pending_deps:
            deps += tuple(d.seq for d in stream._pending_deps)
            stream._pending_deps = []
        op = Op(name, kind, stream.sid, start, end, flops, bytes_moved, tag,
                self._seq, self._epoch, deps, tuple(accesses))
        self._seq += 1
        stream.last_op = op
        self.timeline._add(op)
        return op

    def place_run(self, stream: Stream, table: LaunchTable, *,
                  measured: list | None = None) -> None:
        """Place ``table``'s kernel launches back to back on ``stream``
        as one timeline entry — the same ops, clock and happens-before
        facts as scheduling them one by one: the first starts where
        :meth:`schedule` would start it and carries the stream's pending
        :meth:`Stream.wait_event` deps; each later one starts at the end
        of the one before.  ``measured`` (one dict or None per launch)
        is the ops' :attr:`Op.measured`.  Kernels never fail, so the
        fault injector is not consulted; an empty table places nothing."""
        n = len(table)
        if n == 0:
            return
        engines = self._engines
        engine = engine_for("kernel", self._n_copy)
        start = stream.available_at
        if engines[engine] > start:
            start = engines[engine]
        deps = ()
        if stream._pending_deps:
            deps = tuple(d.seq for d in stream._pending_deps)
            stream._pending_deps = []
        run = _Run(table, stream.sid, start, self._seq, self._epoch, deps,
                   measured)
        times = run.times()
        end = times[-1]
        stream.available_at = engines[engine] = end
        if end > self._makespan:
            self._makespan = end
        self._seq += n
        stream.last_op = run.ops(n - 1, n, times)[0]
        self.timeline._add(run, n)

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
        self.timeline._clear()
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
