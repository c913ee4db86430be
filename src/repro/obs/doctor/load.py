"""Read an exported trace artifact back into a session.

:func:`load_trace` closes the exporters' loop: either artifact format
(:mod:`repro.obs.exporters`) is turned back into the canonical event
stream — the JSONL lines as they are, a Chrome Trace Format document
through :func:`~repro.obs.exporters.chrome_events` — and every record
event through the one codec (:func:`~repro.obs.trace.from_event`) onto
the lists of a :class:`~repro.obs.trace.TraceSession`.  A trace written
yesterday (or on another machine, or by CI) is therefore the same object
the run held: every analysis that takes a live session takes a loaded
one.  JSONL round-trips exactly; Chrome within the exporter's 1 ns
rounding of ``ts``/``dur``.  Two things do not come back: the collected
device objects (``session.devices``) and the metrics *registry* — the
end-of-run payload is carried as the document it crossed the file as
(:meth:`~repro.obs.trace.TraceSession.metrics_dict`).
"""
from __future__ import annotations

import json
from typing import Any, Iterator

from ..trace import RECORD_TYPES, TraceSession, from_event

__all__ = ["load_trace"]


def _parsed_lines(path: str, text: str) -> Iterator[dict[str, Any]]:
    for lineno, raw in enumerate(text.splitlines(), 1):
        if raw.strip():
            try:
                yield json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: not valid JSON: {exc}") from None


def load_trace(path: str) -> TraceSession:
    """Parse a trace artifact into a :class:`TraceSession`.  The format
    is sniffed from the first JSON object in the file: a ``"type"`` key
    makes it a JSONL event stream, ``"traceEvents"`` a Chrome Trace
    Format document."""
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"{path}: empty trace file")
    try:
        first, _ = json.JSONDecoder().raw_decode(
            text, len(text) - len(text.lstrip()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: not valid JSON: "
                         f"{exc.msg}") from None
    if isinstance(first, dict) and "traceEvents" in first:
        # on first use: a service imports this package for doctor.health
        from ..exporters import chrome_events

        events = chrome_events(first)
    elif isinstance(first, dict) and "type" in first:
        events = _parsed_lines(path, text)
    else:
        raise ValueError(
            f"{path}: line 1: neither a trace event stream (no \"type\" key) "
            f"nor a Chrome Trace Format document (no \"traceEvents\")")

    session = TraceSession(name=path)
    try:
        for event in events:
            etype = event.get("type")
            if etype == "session":
                session.name = event.get("name", path)
            elif etype == "metrics":
                session.metrics_doc = {k: v for k, v in event.items()
                                       if k != "type"}
            elif etype in RECORD_TYPES:
                session.add(from_event(event))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed trace event: {exc!r}") from None
    return session
