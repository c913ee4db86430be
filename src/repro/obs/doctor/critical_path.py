"""Critical-path reconstruction and attribution over device timelines.

The virtual device (:class:`repro.gpu.device.GPUDevice`) schedules every
op at ``max(stream available, engine available, explicit dependencies)``
— so for each op exactly one of those constraints is *binding*: the one
whose release time equals the op's start.  Walking binding predecessors
back from the last-finishing op reconstructs the **critical path** of
the step: the chain of work that determined the makespan.  Everything
else, by construction, was hidden behind it.

The same walk works on :class:`~repro.obs.trace.DeviceOpRecord` lists
read back from an exported trace: explicit dependency edges are gone,
but stream (track) order, engine serialization, and barrier fronts are
all recoverable from the timestamps, which is what the scheduler's
``max()`` exposes.

Two views come out of a timeline here (the Fig. 11 busy/hidden
aggregates are :class:`repro.optimeline.OpStats`):

* :func:`critical_path` — the binding chain itself, with per-kind /
  per-tag time on the path (what the paper's Fig. 11 calls the exposed
  portion of each track);
* :func:`attribution` — per-kernel self time grouped by variable
  (Fig. 9's bar groups), annotated with how much of each landed on the
  critical path.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from ...optimeline import engine_for

__all__ = [
    "PathSegment",
    "CriticalPath",
    "AttributionRow",
    "critical_path",
    "attribution",
    "base_name",
]

_TRACER_RE = re.compile(r"^q\d+$")


def base_name(op_name: str) -> str:
    """Group an op name into its Fig. 9 variable: the part before the
    ``:`` role suffix, with the 13 water tracers collapsed into one row."""
    base = op_name.split(":", 1)[0]
    if _TRACER_RE.match(base):
        return "Water tracers"
    return base


@dataclass
class PathSegment:
    """One op on the critical path and why it was waiting."""

    name: str
    kind: str
    tag: str
    start: float
    end: float
    #: which constraint bound this op's start: 'stream' (program order),
    #: 'engine' (resource serialization), 'dep' (explicit event edge),
    #: 'barrier' (device-wide synchronize front), or 'root'
    via: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The binding chain from t=0 (or the first root) to the makespan."""

    segments: list[PathSegment]
    makespan: float
    time_by_kind: dict[str, float] = field(default_factory=dict)
    time_by_tag: dict[str, float] = field(default_factory=dict)

    @property
    def path_time(self) -> float:
        return sum(s.duration for s in self.segments)

    @property
    def coverage(self) -> float:
        """Fraction of the makespan the reconstructed chain explains
        (gaps below 1.0 are genuine idle — nothing was runnable)."""
        return self.path_time / self.makespan if self.makespan > 0 else 0.0

    @property
    def dominant_kind(self) -> str:
        """The op kind with the most time on the path ('idle' when the
        chain explains less than half the makespan)."""
        if self.makespan > 0 and self.coverage < 0.5:
            return "idle"
        if not self.time_by_kind:
            return "idle"
        return max(self.time_by_kind.items(), key=lambda kv: kv[1])[0]

    def as_dict(self) -> dict[str, Any]:
        return {
            "makespan_s": self.makespan,
            "path_time_s": self.path_time,
            "coverage": self.coverage,
            "dominant_kind": self.dominant_kind,
            "time_by_kind_s": dict(sorted(self.time_by_kind.items())),
            "time_by_tag_s": dict(sorted(self.time_by_tag.items())),
            "n_segments": len(self.segments),
        }


@dataclass
class AttributionRow:
    """Self-time of one variable/kernel group (one Fig. 9 bar group)."""

    name: str
    calls: int
    total: float                       #: summed op durations [s]
    by_kind: dict[str, float] = field(default_factory=dict)
    on_path: float = 0.0               #: portion on the critical path [s]

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "calls": self.calls,
                "total_s": self.total, "on_path_s": self.on_path,
                "by_kind_s": dict(sorted(self.by_kind.items()))}


# --------------------------------------------------------------- internals
@dataclass
class _Node:
    idx: int
    name: str
    kind: str
    tag: str
    start: float
    end: float
    stream: Any
    engine: str
    deps: tuple[int, ...]      #: indices of explicit-dependency nodes


def _normalize(ops: Iterable[Any], copy_engines: int) -> list[_Node]:
    """Turn Op / DeviceOpRecord / duck-typed sequences into nodes in
    submission order (``seq`` when present, else input order)."""
    raw = list(ops)
    seqs = [getattr(op, "seq", -1) for op in raw]
    order = (sorted(range(len(raw)), key=lambda i: seqs[i])
             if all(s >= 0 for s in seqs) else list(range(len(raw))))
    by_seq: dict[int, int] = {}
    nodes: list[_Node] = []
    for idx, i in enumerate(order):
        op = raw[i]
        stream = getattr(op, "stream", None)
        if stream is None:
            stream = getattr(op, "tid", "stream?")
        start = getattr(op, "start", None)
        if start is None:
            start = op.ts
        end = getattr(op, "end", None)
        if end is None:
            end = op.ts + op.dur
        if seqs[i] >= 0:
            by_seq[seqs[i]] = idx
        nodes.append(_Node(
            idx=idx, name=op.name, kind=op.kind,
            tag=getattr(op, "tag", "") or "",
            start=float(start), end=float(end),
            stream=stream, engine=engine_for(op.kind, copy_engines),
            deps=tuple(getattr(op, "deps", ()) or ()),
        ))
    # remap dep seq numbers to node indices (records have none)
    for n in nodes:
        n.deps = tuple(by_seq[d] for d in n.deps if d in by_seq)
    return nodes


def _binding_predecessors(nodes: list[_Node], eps: float) -> list[tuple[int | None, str]]:
    """For each node, the index of the op whose completion released it,
    and which constraint that was."""
    last_on_stream: dict[Any, int] = {}
    last_on_engine: dict[str, int] = {}
    frontier: list[tuple[float, int]] = []   # (end, idx) prefix maxima
    best_end = float("-inf")
    out: list[tuple[int | None, str]] = []
    for n in nodes:
        candidates: list[tuple[float, str, int]] = []
        s = last_on_stream.get(n.stream)
        if s is not None:
            candidates.append((nodes[s].end, "stream", s))
        e = last_on_engine.get(n.engine)
        if e is not None:
            candidates.append((nodes[e].end, "engine", e))
        for d in n.deps:
            candidates.append((nodes[d].end, "dep", d))
        binding: tuple[int | None, str] = (None, "root")
        if candidates:
            end, via, idx = max(candidates, key=lambda c: (c[0], c[1] == "dep"))
            if abs(end - n.start) <= eps:
                binding = (idx, via)
        if binding[0] is None and n.start > eps:
            # a barrier (device synchronize) aligned every stream/engine
            # to the frontier: bind to the op that defined it
            lo, hi = 0, len(frontier)
            while lo < hi:
                mid = (lo + hi) // 2
                if frontier[mid][0] <= n.start + eps:
                    lo = mid + 1
                else:
                    hi = mid
            if lo > 0 and abs(frontier[lo - 1][0] - n.start) <= eps:
                binding = (frontier[lo - 1][1], "barrier")
        out.append(binding)
        last_on_stream[n.stream] = n.idx
        last_on_engine[n.engine] = n.idx
        if n.end > best_end:
            best_end = n.end
            frontier.append((n.end, n.idx))
    return out


def critical_path(ops: Iterable[Any], *, copy_engines: int = 1,
                  eps: float | None = None) -> CriticalPath:
    """Reconstruct the binding chain of a device timeline (accepts
    :class:`~repro.gpu.device.Op` or
    :class:`~repro.obs.trace.DeviceOpRecord` sequences)."""
    nodes = _normalize(ops, copy_engines)
    if not nodes:
        return CriticalPath(segments=[], makespan=0.0)
    makespan = max(n.end for n in nodes)
    if eps is None:
        # exported traces round to 1e-9 s; scale with the timeline
        eps = max(1e-9, 1e-7 * makespan)
    preds = _binding_predecessors(nodes, eps)

    tip = max(nodes, key=lambda n: (n.end, n.idx))
    segments: list[PathSegment] = []
    seen: set[int] = set()
    idx: int | None = tip.idx
    while idx is not None and idx not in seen:
        seen.add(idx)
        n = nodes[idx]
        pred_idx, via = preds[idx]    # why *this* op had to wait
        segments.append(PathSegment(name=n.name, kind=n.kind, tag=n.tag,
                                    start=n.start, end=n.end, via=via))
        idx = pred_idx
    segments.reverse()
    by_kind: dict[str, float] = defaultdict(float)
    by_tag: dict[str, float] = defaultdict(float)
    for s in segments:
        by_kind[s.kind] += s.duration
        if s.tag:
            by_tag[s.tag] += s.duration
    return CriticalPath(segments=segments, makespan=makespan,
                        time_by_kind=dict(by_kind), time_by_tag=dict(by_tag))


def attribution(ops: Iterable[Any], path: CriticalPath | None = None,
                *, key=base_name) -> list[AttributionRow]:
    """Per-variable self-time rows (Fig. 9 shape), sorted by total
    descending; when ``path`` is given, each row also reports how much
    of its time sat on the critical path."""
    rows: dict[str, AttributionRow] = {}
    for op in ops:
        name = key(op.name)
        row = rows.get(name)
        if row is None:
            row = rows[name] = AttributionRow(name=name, calls=0, total=0.0)
        row.calls += 1
        row.total += op.duration
        row.by_kind[op.kind] = row.by_kind.get(op.kind, 0.0) + op.duration
    if path is not None:
        for seg in path.segments:
            name = key(seg.name)
            if name in rows:
                rows[name].on_path += seg.duration
    return sorted(rows.values(), key=lambda r: -r.total)

