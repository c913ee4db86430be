"""Exporters: turn a :class:`~repro.obs.trace.TraceSession` into
shareable artifacts.

* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome Trace
  Format JSON (the ``traceEvents`` array form), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  Host spans and
  virtual-device ops become 'X' complete events on named tracks;
  messages become 's'/'f' flow arrows anchored on tiny post/recv
  slices; every track gets a metadata name.
* :func:`jsonl_events` / :func:`write_jsonl` — a line-per-event JSON
  stream (spans, device ops, flows, then a final metrics record) for
  ad-hoc processing with ``jq``/pandas.
* :func:`summary_text` — a text roll-up: the op-interval algebra
  (:class:`repro.optimeline.OpStats`) of each collected device, plus a
  PhaseTimer-style host-span table and the metrics report.

Timestamps are exported in microseconds, the CTF unit.  Host spans use
wall time since the session epoch; device ops use the virtual device
clock — they live on separate track groups, so the two bases never
share an axis (documented in docs/OBSERVABILITY.md).
"""
from __future__ import annotations

import json
from typing import Any, Iterator

from ..optimeline import OpStats
from .trace import TraceSession

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_events",
    "write_jsonl",
    "summary_text",
]

#: duration [us] of the synthetic slices that anchor message flow arrows
_FLOW_ANCHOR_US = 1.0


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _track_maps(session: TraceSession) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """Stable string-label -> integer id maps for CTF pid/tid fields
    (host first, then rank/device groups in sorted order)."""
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}

    def pid_of(label: str) -> int:
        if label not in pids:
            pids[label] = len(pids)
        return pids[label]

    def tid_of(pid_label: str, tid_label: str) -> int:
        key = (pid_label, tid_label)
        if key not in tids:
            tids[key] = sum(1 for p, _ in tids if p == pid_label)
        return tids[key]

    labels = {rec.pid for rec in session.spans}
    labels |= {rec.pid for rec in session.instants}
    labels |= {rec.pid for rec in session.device_ops}
    labels |= {rec.pid for rec in session.counters}
    labels |= {f.src_pid for f in session.flows} | {f.dst_pid for f in session.flows}
    for label in ["host"] + sorted(labels - {"host"}):
        if label in labels or label == "host":
            pid_of(label)
    for rec in session.spans:
        tid_of(rec.pid, rec.tid)
    for rec in session.instants:
        tid_of(rec.pid, rec.tid)
    for rec in session.device_ops:
        tid_of(rec.pid, rec.tid)
    for f in session.flows:
        tid_of(f.src_pid, f.src_tid)
        tid_of(f.dst_pid, f.dst_tid)
    return pids, tids


def chrome_trace(session: TraceSession) -> dict[str, Any]:
    """Build the Chrome Trace Format dict (``{"traceEvents": [...]}``)."""
    pids, tids = _track_maps(session)
    events: list[dict[str, Any]] = []

    for label, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        events.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                       "tid": 0, "args": {"sort_index": pid}})
    for (plabel, tlabel), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "thread_name", "pid": pids[plabel],
                       "tid": tid, "args": {"name": tlabel}})

    for rec in session.spans:
        events.append({
            "ph": "X", "name": rec.name, "cat": rec.cat,
            "ts": _us(rec.ts), "dur": _us(rec.dur),
            "pid": pids[rec.pid], "tid": tids[(rec.pid, rec.tid)],
            "args": rec.args,
        })
    for rec in session.instants:
        events.append({
            "ph": "i", "name": rec.name, "cat": rec.cat, "s": "t",
            "ts": _us(rec.ts),
            "pid": pids[rec.pid], "tid": tids[(rec.pid, rec.tid)],
            "args": rec.args,
        })
    for rec in session.device_ops:
        op_args = {"flops": rec.flops, "bytes": rec.bytes_moved,
                   "tag": rec.tag}
        if rec.measured is not None:
            op_args["measured"] = rec.measured
        events.append({
            "ph": "X", "name": rec.name, "cat": rec.kind,
            "ts": _us(rec.ts), "dur": _us(rec.dur),
            "pid": pids[rec.pid], "tid": tids[(rec.pid, rec.tid)],
            "args": op_args,
        })
    for rec in session.counters:
        # counter events are per-process; tid is ignored by CTF viewers
        events.append({
            "ph": "C", "name": rec.name, "ts": _us(rec.ts),
            "pid": pids[rec.pid], "tid": 0,
            "args": {rec.series: rec.value},
        })
    for f in session.flows:
        src_pid, src_tid = pids[f.src_pid], tids[(f.src_pid, f.src_tid)]
        dst_pid, dst_tid = pids[f.dst_pid], tids[(f.dst_pid, f.dst_tid)]
        # flow arrows bind to enclosing slices; emit tiny anchor slices
        events.append({"ph": "X", "name": f"post {f.name}", "cat": "msg",
                       "ts": _us(f.ts_src), "dur": _FLOW_ANCHOR_US,
                       "pid": src_pid, "tid": src_tid, "args": f.args})
        events.append({"ph": "X", "name": f"recv {f.name}", "cat": "msg",
                       "ts": _us(f.ts_dst), "dur": _FLOW_ANCHOR_US,
                       "pid": dst_pid, "tid": dst_tid, "args": f.args})
        events.append({"ph": "s", "name": f.name, "cat": "msg",
                       "id": f.flow_id, "ts": _us(f.ts_src),
                       "pid": src_pid, "tid": src_tid})
        events.append({"ph": "f", "name": f.name, "cat": "msg", "bp": "e",
                       "id": f.flow_id, "ts": _us(f.ts_dst),
                       "pid": dst_pid, "tid": dst_tid})

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"session": session.name,
                      "metrics": session.metrics.as_dict()},
    }


def write_chrome_trace(session: TraceSession, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(chrome_trace(session), fh)
    return path


# ------------------------------------------------------------------ JSONL
def jsonl_events(session: TraceSession) -> Iterator[dict[str, Any]]:
    """Yield one JSON-ready dict per record, ending with the metrics."""
    yield {"type": "session", "name": session.name}
    for rec in session.spans:
        yield {"type": "span", "name": rec.name, "ts": rec.ts,
               "dur": rec.dur, "pid": rec.pid, "tid": rec.tid,
               "cat": rec.cat, "args": rec.args}
    for rec in session.instants:
        yield {"type": "instant", "name": rec.name, "ts": rec.ts,
               "pid": rec.pid, "tid": rec.tid, "cat": rec.cat,
               "args": rec.args}
    for rec in session.device_ops:
        ev = {"type": "device_op", "name": rec.name, "kind": rec.kind,
              "ts": rec.ts, "dur": rec.dur, "pid": rec.pid,
              "tid": rec.tid, "flops": rec.flops,
              "bytes": rec.bytes_moved, "tag": rec.tag}
        if rec.measured is not None:
            ev["measured"] = rec.measured
        yield ev
    for rec in session.counters:
        yield {"type": "counter", "name": rec.name, "ts": rec.ts,
               "value": rec.value, "pid": rec.pid, "series": rec.series}
    for f in session.flows:
        yield {"type": "flow", "name": f.name, "id": f.flow_id,
               "src": {"pid": f.src_pid, "tid": f.src_tid, "ts": f.ts_src},
               "dst": {"pid": f.dst_pid, "tid": f.dst_tid, "ts": f.ts_dst},
               "args": f.args}
    yield {"type": "metrics", **session.metrics.as_dict()}


def write_jsonl(session: TraceSession, path: str) -> str:
    with open(path, "w") as fh:
        for event in jsonl_events(session):
            fh.write(json.dumps(event) + "\n")
    return path


# ---------------------------------------------------------------- summary
def summary_text(session: TraceSession) -> str:
    """Text roll-up: host-span totals, per-device timeline summaries
    (:class:`~repro.optimeline.OpStats`), traffic, metrics."""
    lines = [f"trace session: {session.name}"]

    if session.spans:
        agg: dict[str, tuple[int, float]] = {}
        for rec in session.spans:
            count, total = agg.get(rec.name, (0, 0.0))
            agg[rec.name] = (count + 1, total + rec.dur)
        lines.append("")
        lines.append(f"{'host span':<28} {'calls':>6} {'seconds':>10}")
        for name, (count, total) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{name:<28} {count:>6} {total:>10.4f}")

    by_pid: dict[str, list] = {}
    for rec in session.device_ops:
        by_pid.setdefault(rec.pid, []).append(rec)
    for pid in sorted(by_pid):
        s = OpStats.of(by_pid[pid])
        busy = " ".join(f"{k}={v * 1e3:.3f}ms"
                        for k, v in sorted(s.busy_by_kind.items()))
        lines.append("")
        lines.append(f"device {pid}: {s.op_count} ops, "
                     f"makespan {s.makespan * 1e3:.3f} ms, "
                     f"overlap {100 * s.overlap_fraction:.1f}%")
        lines.append(f"  busy: {busy}")

    if "traffic_by_pair" in session.notes:
        lines.append("")
        lines.append("halo traffic by rank pair:")
        lines.append(session.notes["traffic_by_pair"])

    lines.append("")
    lines.append(session.metrics.report())
    return "\n".join(lines)
