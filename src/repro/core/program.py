"""A captured long step: the dynamics of a step recorded once as a table of
compiled calls and replayed in one C call (``csrc/program.c``).

Every long step yields a :class:`Window` where its dynamics begin (after
the first halo refresh) and :data:`END` where they end (after the last
stage's moisture exchange).  :func:`~repro.core.model.run_lockstep`
answers the window with :func:`enter`: on a driver's first step, with a
verified library, it runs the generators unchanged under a
:class:`Recorder` (:data:`~repro.obs.trace.CAPTURE`).  Every compiled
entry a window calls is a :class:`~repro.stencil.native.Recorded` that
reports its call, so the rows come rank after rank in lockstep order
with nothing to forget at the call sites: the context, each rank's slow
stages, operator assemblies, substeps, the exchange points' strip
runners and the moisture finishes (the context row computes the EOS
pressure it reads; each slow stage's row also moves its fluxes out and
refills the stage state from the base).  Every row is one call the
window made, ``int entry(void *)`` over one struct: the entry's address,
the arena offset of the struct's snapshot and its size.  The recorder
keeps each row's entry name, by which the ledger and the message log
tell rows apart.  :func:`leave` freezes what it saw into a :class:`StepProgram`,
kept by the first rank's integrator.  Later steps replay it: one
``run_program`` call with the GIL released, then one ledger credits the
executor, the traffic and, with a trace session on, the spans and
message log from the walker's stamps.

A row's struct is in the library's layout, read from its C text
(:func:`repro.stencil.native.layouts`).  An address inside a step's
blocks (the input state, the base, the stage state, per rank) is stored
as (role, offset) and relocated each replay: a slow stage's species
table is part of its struct, so its addresses are relocated too.  A
strip table and its slot addresses are copied into the program.  Every
other address lies in what the ranks' integrators held when the window
ended (their context and operators, bindings with the stages' idle
flags and flux copies, geometry, scratch), which the program keeps.  The
walker runs each row on a copy of its struct, so the arena stays as
recorded.  A row that returns nonzero aborts the replay (nothing is
credited) and the generators run the window instead: a step never
writes its input, and the base is read-only inside the window.

Every program is walked by a team of C threads (:func:`team_size`: the
CPUs of the affinity mask, at most one a rank; a team of one starts no
thread).  Every row carries the rank whose generator made it; between
two exchange rows each rank's rows are contiguous, one run, and the runs
of a segment go side by side, each in its rank's own scratch (its
integrator's), worker 0 running the exchange row.  A row of one rank
that points into another's blocks or scratch makes the program walk
alone, counting ``native.unbound("team", why)`` a step.

A program is keyed on the library, the rank set and each rank's layout
(a :class:`~repro.core.rk3.DynamicsConfig` is frozen).  A step outside
the key or excluded by the driver runs the generator and counts one
``native.unbound("programs", why)``.  docs/STENCILS.md "Programs".
"""
from __future__ import annotations

import array
import bisect
import ctypes
import functools
import os
from collections import Counter

import numpy as np

from ..obs.trace import CAPTURE, active_session
from ..stencil import native
from ..stencil.executor import active_executor

__all__ = ["END", "Window", "Recorder", "StepProgram", "enter",
           "leave"]

#: what a long step yields where its dynamics end
END = object()


class Window:
    """What a long step yields where its dynamics begin: its integrator,
    its input state and the base (already refreshed); and, once the
    driver resumes it, whether the program ``replayed`` the window (an
    attribute, not a sent value: a wrapper that resumes a generator with
    ``next`` keeps it)."""

    __slots__ = ("integrator", "state", "base", "replayed")

    def __init__(self, integrator, state, base):
        self.integrator, self.state, self.base = integrator, state, base
        self.replayed = False


@functools.cache
def address_mask(cls) -> bytes:
    """One byte a word of a ctypes struct, 1 where the word is an address
    (every field of the structs the rows take is 8 bytes: a long, a
    double, an address or an array of addresses)."""
    mask = bytearray(ctypes.sizeof(cls) // 8)
    for name, kind in cls._fields_:
        field = getattr(cls, name)
        if kind is ctypes.c_void_p or getattr(kind, "_type_", None) is \
                ctypes.c_void_p:
            mask[field.offset // 8:(field.offset + field.size) // 8] = \
                b"\1" * (field.size // 8)
    return bytes(mask)


@functools.cache
def _words(mask: bytes) -> tuple:
    """The address words of ``mask``."""
    return tuple(w for w, m in enumerate(mask) if m)


class _Chunk:
    """A stretch of the arena: ``words`` (a snapshot, bytes of 8-byte
    words), ``mask`` (a byte a word, 1 for an address), ``refs``
    (``None`` or word -> chunk: the address of a chunk of the program's
    own, a strip row's table and slots), and the ``rank`` whose
    generator made it (-1: an exchange point's, or shared)."""

    __slots__ = ("words", "mask", "refs", "at", "rank")

    def __init__(self, words, mask, refs=None, rank=-1):
        self.words, self.mask, self.refs, self.rank = words, mask, refs, rank


class Recorder:
    """What one window reports, in order: rows (the compiled entries'
    calls), the spans around them, the exchange points'
    messages.  ``why`` is set where the window did work no row can replay
    (a NumPy body or a dispatched oracle ran, an exchange filled a state
    outside the step's blocks): nothing is recorded after it.  ``rank``: the rank
    whose generator the driver is resuming
    (:func:`~repro.core.model.run_lockstep` sets it; -1 at an exchange
    point), which every row it records belongs to."""

    def __init__(self, windows: list, lib):
        self.lib = lib
        self.rank = -1
        self.integrators = [w.integrator for w in windows]
        self.layouts = [w.base.layout for w in windows]
        #: (address, bytes) of each block a row's address is relocated
        #: against: every rank's input, then base, then stage state
        self.blocks = [(st.address, st.block.nbytes) for st in (
            [w.state for w in windows] + [w.base for w in windows]
            + [w.integrator.stage_state for w in windows])]
        self.rows: list = []
        self.chunks: list = []
        #: the chunk of each distinct strip table and slot list
        self.shared: dict = {}
        self.spans: list = []
        self.logs: list = []
        self.why: native.Unbound | None = None
        ex = self.executor = active_executor()
        self.before = (Counter(ex.calls), ex.accelerated)
        self.token = CAPTURE.set(self)

    def close(self) -> None:
        if self.token is not None:
            CAPTURE.reset(self.token)
            self.token = None

    # -------------------------------------------------------------- sites
    def mark(self) -> int:
        return len(self.rows)

    def decline(self, why: native.Unbound) -> None:
        if self.why is None:
            self.why = why

    def _shared(self, words: bytes, mask: bytes) -> _Chunk:
        """A chunk of ``words`` that every row with the same words reads."""
        chunk = self.shared.get((words, mask))
        if chunk is None:
            chunk = self.shared[words, mask] = _Chunk(words, mask)
            self.chunks.append(chunk)
        return chunk

    def entry(self, entry: native.Recorded, obj) -> None:
        """A call of a recorded entry over its struct ``obj``."""
        if self.why is not None:
            return
        words = bytes(obj)
        if len(words) > 8 * self.lib.PROGRAM_ROW_WORDS:
            return self.decline(native.Unbound(entry.name,
                                               f"{len(words)} bytes"))
        refs = self._strips(obj) if entry.name == "halo_strips" else None
        if isinstance(refs, native.Unbound):
            return self.decline(refs)
        chunk = _Chunk(words, address_mask(type(obj)), refs, self.rank)
        self.chunks.append(chunk)
        self.rows.append((entry.name, entry.address, chunk))

    def _strips(self, obj) -> "dict | native.Unbound":
        """The refs of a strip table's row: the table and its slots'
        addresses, both copied into the program (the slots are
        relocated); or why not: a slot outside the step's blocks (a
        state a replay may find freed)."""
        n = self.lib.STRIP_LONGS
        table = ctypes.string_at(obj.rows, 8 * n * obj.nrow)
        longs = memoryview(table).cast("q")
        used = max([*longs[::n], *longs[1::n]], default=-1) + 1
        slots = ctypes.string_at(obj.fields, 8 * used)
        if not all(any(lo <= a < lo + size for lo, size in self.blocks)
                   for a in memoryview(slots).cast("Q")):
            return native.Unbound("exchange", "of a state outside the step")
        cls = type(obj)
        return {cls.rows.offset // 8: self._shared(
                    table, bytes(n * obj.nrow)),
                cls.fields.offset // 8: self._shared(slots, b"\1" * used)}

    def span(self, name, cat, pid, tid, attrs, first) -> None:
        """A span closed around rows ``first`` onward; one around no row
        wraps work the program would not do."""
        if self.why is not None:
            return
        if first == len(self.rows):
            return self.decline(native.Unbound(name, "no compiled call"))
        self.spans.append((name, cat, pid, tid, dict(attrs), first,
                           len(self.rows)))

    def log(self, comm, sent) -> None:
        """An exchange point's messages: its strip table is the last row."""
        if self.why is not None:
            return
        if not self.rows or self.rows[-1][0] != "halo_strips":
            return self.decline(native.Unbound("exchange", "no strip table"))
        self.logs.append((comm, sent, len(self.rows) - 1))

    # ------------------------------------------------------------- freeze
    def freeze(self) -> "StepProgram | Declined":
        """The program, or the key's decline."""
        self.key = _key(self.lib, self.integrators, self.layouts)
        if self.why is None and active_executor() is not self.executor:
            self.why = native.Unbound("executor", "changed")
        if self.why is not None or not self.rows:
            return Declined(self.key, self.why or native.Unbound(
                "window", "no compiled call"))
        return StepProgram(self, self.lib)


class Declined:
    """A key whose recording a site declined: its steps run the generator,
    each counting ``why``."""

    __slots__ = ("key", "why")

    def __init__(self, key: tuple, why: native.Unbound):
        self.key, self.why = key, why


class StepProgram:
    """The frozen table of one window: rows over an arena and its
    relocations, what it keeps alive, and the ledger one replay
    credits."""

    why = None

    def __init__(self, rec: Recorder, lib):
        self.key = rec.key
        # plain Python over a few thousand words, once a driver: the NumPy
        # calls that would vectorize it run nowhere else, and would add
        # their code pages to the resident set
        at = 0
        for chunk in rec.chunks:
            chunk.at, at = at, at + len(chunk.mask)
        arena = self.arena = np.empty(at, np.int64)
        word = memoryview(arena).cast("B")
        for chunk in rec.chunks:
            word[8 * chunk.at:8 * chunk.at + len(chunk.words)] = chunk.words
        word = word.cast("Q")
        origin = arena.ctypes.data
        for chunk in rec.chunks:
            for w, target in (chunk.refs or {}).items():
                word[chunk.at + w] = origin + 8 * target.at
        # every other address word inside a step's block, (arena byte,
        # block, offset), relocated once a replay: flat arrays (no object a
        # word), one pass over the address words.  A span of rank r's
        # scratch is tagged -1 - r: its words stay as recorded, and a team
        # worker computes in the scratch of the rank whose run it takes
        nrank = len(rec.integrators)
        spans = sorted([(lo, lo + size, b)
                        for b, (lo, size) in enumerate(rec.blocks)]
                       + [(native.address(a), native.address(a) + a.nbytes,
                           -1 - r) for r, it in enumerate(rec.integrators)
                          for a in it.geom.scratch.arrays()])
        starts = [lo for lo, _, _ in spans]
        relocs, found = array.array("q"), {}
        #: why a team may not walk this program (it walks alone): a rank's
        #: chunk points only into its own blocks and its own scratch
        self.team_why = None
        for chunk in rec.chunks:
            refs, values = chunk.refs or {}, memoryview(chunk.words).cast("Q")
            for w in _words(chunk.mask):
                value = values[w]
                if not value or w in refs:
                    continue
                hit = found.get(value, False)
                if hit is False:
                    lo, hi, b = spans[max(bisect.bisect_right(starts, value)
                                          - 1, 0)]
                    hit = found[value] = ((b, value - lo) if lo <= value < hi
                                          else None)
                if hit is None:
                    continue
                b, off = hit
                if b >= 0:
                    relocs.extend((8 * (chunk.at + w), b, off))
                owner = b % nrank if b >= 0 else -1 - b
                if chunk.rank >= 0 and owner != chunk.rank:
                    self.team_why = self.team_why or native.Unbound(
                        "address", f"of rank {owner} in rank "
                        f"{chunk.rank}'s row")
        # the rest lie in what the integrators hold now that the window
        # ran: kept here, as an integrator may later swap an attribute
        # for another (tests/core/test_program.py walks these for every
        # such address)
        self.keep = [(it.ctx, tuple(it.ctx._helm.values()), it.stage,
                      it.binding, it.geom, it.geom.scratch, it.p_ref,
                      it.rayleigh_w, it.grid)
                     for it in rec.integrators]
        self.rows = np.array([(address, 8 * chunk.at, len(chunk.words))
                              for _, address, chunk in rec.rows], np.int64)
        self.relocs = np.frombuffer(relocs, np.int64).reshape(-1, 3)
        self.nrow = len(self.rows)
        self.runs, self.segs = self._segments([c for *_, c in rec.rows])
        #: a flag a run, which each walk zeroes
        self.taken = np.zeros(len(self.runs), np.int8)
        #: the team a replay walks on: one thread a CPU, at most one a rank
        self.width = team_size(nrank)
        self.team = 1 if self.team_why else self.width
        self.header = lib.program_header(
            nrow=self.nrow, nreloc=len(self.relocs),
            rows=self.rows.ctypes.data, relocs=self.relocs.ctypes.data,
            arena=origin, nrank=nrank, nrun=len(self.runs),
            nseg=len(self.segs), runs=self.runs.ctypes.data,
            segs=self.segs.ctypes.data, taken=self.taken.ctypes.data,
            team=self.team)
        self.bases = np.zeros(len(rec.blocks), np.uintp)
        #: the walker's stamps, made by the first traced replay
        self.stamps = None
        self.run = functools.partial(lib.run_program,
                                     ctypes.byref(self.header),
                                     self.bases.ctypes.data)
        # the ledger: what the window credited, less what the slow stages'
        # idle flags decide, credited per replay from the flag row each
        # stage wrote (its rank's binding says which), in slow-stage row
        # order
        stage_of, self.stages = {}, []
        for i, (name, _, chunk) in enumerate(rec.rows):
            if name == "slow_stage":
                names = rec.layouts[chunk.rank].names[5:]
                stage_of[i] = len(self.stages)
                self.stages.append((names, rec.integrators[
                    chunk.rank].stage.written(chunk.words)[:len(names)]))
        self.spans = [(*span, next((stage_of[r] for r in range(*span[-2:])
                                    if r in stage_of), None))
                      for span in rec.spans]
        self.logs = rec.logs
        active = sum(len(names) - int(flags.sum())
                     for names, flags in self.stages)
        ex, (calls, accelerated) = rec.executor, rec.before
        delta = Counter(ex.calls)
        delta.subtract(calls)
        delta["advect_scalar"] -= active
        self.calls = {name: n for name, n in delta.items() if n}
        self.accelerated = ex.accelerated - accelerated - active
        traffic: dict = {}
        for comm, sent, _ in rec.logs:
            pairs = traffic.setdefault(id(comm), (comm, {}))[1]
            for src, dst, _, nbytes, _ in sent:
                n, total = pairs.get((src, dst), (0, 0))
                pairs[src, dst] = (n + 1, total + nbytes)
        self.traffic = [(comm, [(pair, n, total) for pair, (n, total)
                                in pairs.items()])
                        for comm, pairs in traffic.values()]

    def _segments(self, rows: list) -> tuple:
        """The runs (first row, end row, rank: one rank's contiguous
        rows) and the segments (first run, end run, the exchange row that
        ends it or -1) of the rows' chunks: a team runs a segment's runs
        side by side, then worker 0 its exchange row (a team of one runs
        every row in table order).  A rank with two runs in one segment
        walks alone (its order would not hold)."""
        runs, segs, seen, start = [], [], set(), 0
        for i, chunk in enumerate(rows):
            if chunk.rank < 0:
                segs.append((start, len(runs), i))
                seen.clear()
                start = len(runs)
            elif runs and runs[-1][1] == i and runs[-1][2] == chunk.rank:
                runs[-1][1] = i + 1
            else:
                if chunk.rank in seen:
                    self.team_why = self.team_why or native.Unbound(
                        "rank", f"{chunk.rank} split in a segment")
                seen.add(chunk.rank)
                runs.append([i, i + 1, chunk.rank])
        if start < len(runs):
            segs.append((start, len(runs), -1))
        return (np.array(runs, np.int64).reshape(-1, 3),
                np.array(segs, np.int64).reshape(-1, 3))

    def replay(self, windows: list) -> bool:
        """Run the table over this step's blocks and credit it; False (and
        nothing credited) where a row returned nonzero."""
        self.bases[:] = ([w.state.address for w in windows]
                         + [w.base.address for w in windows]
                         + [w.integrator.stage_state.address
                            for w in windows])
        sess = active_session()
        if sess is not None and self.stamps is None:
            self.stamps = np.empty(2 * self.nrow)
        if self.team_why is not None and self.width > 1:
            native.unbound("team", self.team_why)
        if self.run(None if sess is None else self.stamps.ctypes.data):
            return False
        ex = active_executor()
        ex.calls.update(self.calls)
        ex.accelerated += self.accelerated
        active, actives = 0, []
        for names, flags in self.stages:
            idle = [n for n, f in zip(names, flags.tolist()) if f]
            ex.skip_transports(idle)
            active += len(names) - len(idle)
            actives.append(idle)
        ex.calls["advect_scalar"] += active
        ex.accelerated += active
        for comm, pairs in self.traffic:
            comm.stats.add(pairs)
        native.count_programs(replayed=1, rows=self.nrow, team=self.team)
        if sess is not None:
            self._events(sess, actives)
        return True

    def _events(self, sess, actives: list) -> None:
        """The window's spans and message log, from the walker's stamps.
        A team's rows end out of order: a span ends with the last of its
        rows to end, and a team walk's speedup (its rows' seconds over its
        wall seconds) is counted."""
        t = self.stamps.tolist()
        ends = t[1::2]
        if self.team > 1:
            starts = t[::2]
            native.count_programs(
                busy_s=sum(e - b for b, e in zip(starts, ends)),
                wall_s=max(ends) - min(starts))
        for name, cat, pid, tid, attrs, first, last, stage in self.spans:
            if stage is not None:
                names, _ = self.stages[stage]
                attrs = {**attrs, "active": " ".join(
                    n for n in names if n not in actives[stage])}
            sess.record_span(name, t[2 * first] - sess.epoch,
                             max(ends[first:last]) - t[2 * first], pid=pid,
                             tid=tid, cat=cat, args=dict(attrs) or None)
        for comm, sent, row in self.logs:
            comm.log(sent, t[2 * row], t[2 * row + 1])


_KEY = ("ranks", "layout")


def team_size(ranks: int) -> int:
    """The threads a replay of a program over ``ranks`` ranks walks on:
    one a CPU of this process's affinity mask, at most one a rank (no
    knob: ``taskset -c 0`` walks alone)."""
    if ranks < 2:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # a platform without affinity masks
        cpus = os.cpu_count() or 1
    return min(cpus, ranks)


def _key(lib, integrators: list, layouts: list) -> tuple:
    """The program's key: the library, then per rank its integrator and
    layout."""
    return (lib, *zip(integrators, layouts))


def _changed(old: tuple, new: tuple) -> native.Unbound:
    """Which part of a program's key a step does not match."""
    if old[0] is not new[0]:
        return native.Unbound("library", "changed")
    if len(old) != len(new):
        return native.Unbound("ranks", "changed")
    return next(native.Unbound(name, "changed")
                for a, b in zip(old[1:], new[1:])
                for name, x, y in zip(_KEY, a, b) if x is not y)


def enter(windows: list, why: "native.Unbound | None"
          ) -> "Recorder | None":
    """At a window: replay the program (every window ``replayed``), else
    leave the generators to run the window, under the recorder returned
    (which :func:`leave` freezes) where this step records.  ``why``: the
    driver's reason this step cannot be captured (counted), else None."""
    lib = native.kernels()
    if not lib:
        return None
    if why is not None:
        native.unbound("programs", why)
        return None
    head = windows[0].integrator
    prog, changed = head.program, None
    if prog is not None:
        key = _key(lib, [w.integrator for w in windows],
                   [w.base.layout for w in windows])
        if prog.key != key:
            changed = _changed(prog.key, key)
            head.program = prog = None
    if prog is not None:
        if prog.why is not None:
            native.unbound("programs", prog.why)
        else:
            replayed = prog.replay(windows)
            for w in windows:
                w.replayed = replayed
            if not replayed:    # the generators run the window again
                native.count_programs(generator=1, calls=1 + prog.nrow)
        return None
    why = changed
    for w in windows:
        why = w.integrator.declines(w.base.layout) or why
    if why is not None:
        native.unbound("programs", why)
    if why is not changed:
        return None
    return Recorder(windows, lib)


def leave(rec: "Recorder | None") -> None:
    """At the end of a window: freeze what ``rec`` recorded into its first
    rank's integrator (a declined recording counts one decline)."""
    if rec is None:
        return
    rec.close()
    prog = rec.integrators[0].program = rec.freeze()
    if prog.why is not None:
        native.unbound("programs", prog.why)
    else:
        native.count_programs(recorded=1, generator=1, calls=prog.nrow)
