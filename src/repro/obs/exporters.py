"""Exporters: turn a :class:`~repro.obs.trace.TraceSession` into
shareable artifacts, and Chrome Trace Format back into events.

* :func:`jsonl_events` / :func:`write_jsonl` — the canonical event
  stream: a ``session`` line, one :func:`~repro.obs.trace.to_event`
  line per record (spans, instants, device ops, counters, flows), then
  the end-of-run ``metrics`` line; for ``jq``/pandas, and the form every
  other view is derived from.
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome Trace
  Format JSON (the ``traceEvents`` array form), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev: a *view* of that
  stream.  Host spans and virtual-device ops become 'X' complete events
  on named tracks; messages become 's'/'f' flow arrows anchored on tiny
  post/recv slices; every track gets a metadata name.
  :func:`chrome_events` is the inverse view, read by
  :func:`repro.obs.doctor.load.load_trace`.
* :func:`summary_text` — a text roll-up: the op-interval algebra
  (:class:`repro.optimeline.OpStats`) of each collected device, plus the
  host-span table (:func:`span_table`, also what ``run --profile``
  prints for the ``cat == "phase"`` spans) and the metrics report.

Timestamps are exported in microseconds, the CTF unit.  Host spans use
wall time since the session epoch; device ops use the virtual device
clock — they live on separate track groups, so the two bases never
share an axis (documented in docs/OBSERVABILITY.md).
"""
from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

from ..optimeline import OpStats
from .trace import OP_KINDS, RECORD_TYPES, SpanRecord, TraceSession, to_event

__all__ = [
    "jsonl_events",
    "write_jsonl",
    "chrome_trace",
    "chrome_events",
    "write_chrome_trace",
    "span_totals",
    "span_table",
    "summary_text",
]


# ------------------------------------------------------------------ JSONL
def jsonl_events(session: TraceSession) -> Iterator[dict[str, Any]]:
    """Yield one JSON-ready dict per record, ending with the metrics."""
    yield {"type": "session", "name": session.name}
    for _cls, attr, _renames in RECORD_TYPES.values():
        for rec in getattr(session, attr):
            yield to_event(rec)
    yield {"type": "metrics", **session.metrics_dict()}


def write_jsonl(session: TraceSession, path: str) -> str:
    with open(path, "w") as fh:
        for event in jsonl_events(session):
            fh.write(json.dumps(event) + "\n")
    return path


# ----------------------------------------------------------- Chrome view
#: duration [us] of the synthetic slices that anchor message flow arrows
_FLOW_ANCHOR_US = 1.0
#: category of the flow arrows and their anchor slices
_FLOW_CAT = "msg"
#: event keys of a device op that CTF carries outside ``args``
_OP_HEAD = ("type", "name", "kind", "ts", "dur", "pid", "tid")


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _ends(event: dict[str, Any]) -> list[dict[str, Any]]:
    """The nodes of an event that sit on a track (a ``pid``, and a
    ``tid`` unless it is a per-process counter): the two ends of a flow,
    else the event itself."""
    return ([event["src"], event["dst"]] if event["type"] == "flow"
            else [event])


def chrome_trace(session: TraceSession) -> dict[str, Any]:
    """Build the Chrome Trace Format dict (``{"traceEvents": [...]}``)
    from the session's event stream."""
    records = [ev for ev in jsonl_events(session)
               if ev["type"] in RECORD_TYPES]
    # stable string-label -> integer id maps for the CTF pid/tid fields:
    # host first, then the other groups sorted; tids in first-use order
    labels = {end["pid"] for ev in records for end in _ends(ev)}
    pids = {label: i for i, label
            in enumerate(["host"] + sorted(labels - {"host"}))}
    tids: dict[tuple[str, str], int] = {}
    for ev in records:
        for end in _ends(ev):
            track = (end["pid"], end.get("tid"))
            if track[1] is not None and track not in tids:
                tids[track] = sum(1 for p, _ in tids if p == track[0])

    def at(end: dict[str, Any]) -> dict[str, Any]:
        return {"ts": _us(end["ts"]), "pid": pids[end["pid"]],
                "tid": tids[(end["pid"], end["tid"])]}

    def slice_(name, cat, end, dur_us, args) -> dict[str, Any]:
        place = at(end)
        return {"ph": "X", "name": name, "cat": cat, "ts": place.pop("ts"),
                "dur": dur_us, **place, "args": args}

    events: list[dict[str, Any]] = []
    for label, pid in pids.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        events.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                       "tid": 0, "args": {"sort_index": pid}})
    for (plabel, tlabel), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "thread_name", "pid": pids[plabel],
                       "tid": tid, "args": {"name": tlabel}})

    for ev in records:
        kind, name = ev["type"], ev["name"]
        if kind == "span":
            events.append(slice_(name, ev["cat"], ev, _us(ev["dur"]),
                                 ev["args"]))
        elif kind == "device_op":
            events.append(slice_(
                name, ev["kind"], ev, _us(ev["dur"]),
                {k: v for k, v in ev.items() if k not in _OP_HEAD}))
        elif kind == "instant":
            events.append({"ph": "i", "name": name, "cat": ev["cat"],
                           "s": "t", **at(ev), "args": ev["args"]})
        elif kind == "counter":
            # counter events are per-process; tid is ignored by CTF viewers
            events.append({"ph": "C", "name": name, "ts": _us(ev["ts"]),
                           "pid": pids[ev["pid"]], "tid": 0,
                           "args": {ev["series"]: ev["value"]}})
        else:
            # flow arrows bind to enclosing slices; emit tiny anchor slices
            for word, end in (("post", ev["src"]), ("recv", ev["dst"])):
                events.append(slice_(f"{word} {name}", _FLOW_CAT, end,
                                     _FLOW_ANCHOR_US, ev["args"]))
            for ph, binding, end in (("s", {}, ev["src"]),
                                     ("f", {"bp": "e"}, ev["dst"])):
                events.append({"ph": ph, "name": name, "cat": _FLOW_CAT,
                               **binding, "id": ev["id"], **at(end)})

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"session": session.name,
                      "metrics": session.metrics_dict()},
    }


def write_chrome_trace(session: TraceSession, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(chrome_trace(session), fh)
    return path


def chrome_events(doc: dict[str, Any]) -> Iterator[dict[str, Any]]:
    """The inverse of :func:`chrome_trace`: the canonical event stream of
    a Chrome Trace Format document.  Integer pid/tid fields map back to
    their labels through the ``process_name``/``thread_name`` metadata;
    'X' events whose category is a device-op kind are device ops, the
    ``msg`` anchor slices only lend their args to the 's'/'f' pair that
    follows them, which becomes one flow; timestamps come back from
    microseconds (so within the exporter's 1 ns rounding)."""
    ctf = doc.get("traceEvents")
    if not isinstance(ctf, list):
        raise ValueError("not a Chrome Trace Format file "
                         "(no traceEvents array)")
    other = doc.get("otherData") or {}
    if "session" in other:
        yield {"type": "session", "name": str(other["session"])}

    procs: dict[int, str] = {}
    threads: dict[tuple[int, int], str] = {}
    for ev in ctf:
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            procs[ev["pid"]] = ev["args"]["name"]
        elif ev.get("ph") == "M" and ev.get("name") == "thread_name":
            threads[(ev["pid"], ev["tid"])] = ev["args"]["name"]

    def placed(ev: dict[str, Any]) -> dict[str, Any]:
        pid, tid = ev["pid"], ev.get("tid", 0)
        return {"ts": ev["ts"] / 1e6, "pid": procs.get(pid, f"pid{pid}"),
                "tid": threads.get((pid, tid), f"tid{tid}")}

    flow_args: dict[str, Any] = {}
    open_flows: dict[Any, dict[str, Any]] = {}
    for ev in ctf:
        ph, cat = ev.get("ph"), ev.get("cat")
        head = {"name": ev.get("name", "?")}
        if cat is not None:
            head["cat"] = cat
        args = ev.get("args") or {}
        if ph == "X" and cat == _FLOW_CAT:
            flow_args = args
        elif ph == "X":
            head.update(placed(ev), dur=ev.get("dur", 0.0) / 1e6)
            if cat in OP_KINDS:
                yield {"type": "device_op", **head, "kind": cat, **args}
            else:
                yield {"type": "span", **head, "args": args}
        elif ph == "i":
            yield {"type": "instant", **head, **placed(ev), "args": args}
        elif ph == "C":
            for series, value in args.items():
                yield {"type": "counter", **head, "ts": ev["ts"] / 1e6,
                       "value": value, "series": series,
                       "pid": procs.get(ev["pid"], f"pid{ev['pid']}")}
        elif ph == "s":
            open_flows[ev["id"]] = {"type": "flow", **head, "id": ev["id"],
                                    "src": placed(ev), "args": flow_args}
            flow_args = {}
        elif ph == "f" and ev.get("id") in open_flows:
            yield {**open_flows.pop(ev["id"]), "dst": placed(ev)}

    if isinstance(other.get("metrics"), dict):
        yield {"type": "metrics", **other["metrics"]}


# ---------------------------------------------------------------- summary
def span_totals(spans: Iterable[SpanRecord]) -> dict[str, tuple[int, float]]:
    """(calls, total seconds) per span name, largest total first."""
    agg: dict[str, tuple[int, float]] = {}
    for rec in spans:
        count, total = agg.get(rec.name, (0, 0.0))
        agg[rec.name] = (count + 1, total + rec.dur)
    return dict(sorted(agg.items(), key=lambda kv: -kv[1][1]))


def span_table(spans: Iterable[SpanRecord], heading: str = "host span") -> str:
    """The (name, calls, seconds, share) table of :func:`span_totals`;
    shares are of the summed totals, so nested spans count twice."""
    totals = span_totals(spans)
    grand = sum(total for _, total in totals.values())
    lines = [f"{heading:<28} {'calls':>6} {'seconds':>10} {'share':>7}"]
    for name, (count, total) in totals.items():
        lines.append(f"{name:<28} {count:>6} {total:>10.4f} "
                     f"{100 * total / (grand or 1.0):>6.1f}%")
    lines.append(f"{'total':<28} {'':>6} {grand:>10.4f}")
    return "\n".join(lines)


def summary_text(session: TraceSession) -> str:
    """Text roll-up: host-span totals, per-device timeline summaries
    (:class:`~repro.optimeline.OpStats`), traffic, metrics."""
    lines = [f"trace session: {session.name}"]

    if session.spans:
        lines.append("")
        lines.append(span_table(session.spans))

    by_pid = session.ops_by_pid()
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
