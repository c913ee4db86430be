"""Flight recorder: an always-on, bounded black box for the serving layer.

A long-running service cannot afford to trace everything all the time,
but when it crashes or breaches an SLO the first question is always
"what were the last thousand things it did?".  The
:class:`FlightRecorder` answers that the way an aircraft black box does:
a fixed-capacity ring buffer of structured events — event-loop pops,
schedule passes, queue/cache/fleet transitions, alert firings — each
stamped with both the *modeled* service clock (deterministic, replay-
comparable) and a wall clock (for correlating with the outside world).
Recording is O(1) per event and never touches service logic, so a run
with the recorder attached is bit-identical to one without
(tests/obs/test_recorder.py proves it on a 2x2 multigpu smoke run).

Dumping is JSONL, one event per line after a header line.  Two triggers:

* **tripped** automatically on incident kinds (crash / alert by
  default): the buffer is frozen to disk at the moment of the incident,
  so the *last* lines of the file cover it;
* **on demand** via :meth:`dump` (the CLI flushes an untripped recorder
  at the end of the run, giving clean runs a full-history artifact).

The modeled fields of a dump are deterministic: replaying the same
workload yields byte-identical dumps once wall stamps are stripped
(``wall=False``).
"""
from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["RecordedEvent", "FlightRecorder"]

#: event kinds that trip an auto-dump by default (the black-box moments)
DEFAULT_TRIP_KINDS = frozenset({"crash", "alert"})


@dataclass(frozen=True)
class RecordedEvent:
    """One ring-buffer entry."""

    seq: int              #: monotonically increasing sequence number
    kind: str             #: 'pop' | 'pass' | 'start' | 'crash' | 'alert' | ...
    t: float              #: modeled service seconds
    wall: float           #: wall perf_counter stamp (never compared)
    fields: dict[str, Any]

    def as_dict(self, *, wall: bool = True) -> dict[str, Any]:
        d: dict[str, Any] = {"seq": self.seq, "kind": self.kind,
                             "t": round(self.t, 9)}
        if wall:
            d["wall"] = self.wall
        d.update(self.fields)
        return d


class FlightRecorder:
    """Bounded ring buffer of service events with incident auto-dump."""

    def __init__(
        self,
        capacity: int = 4096,
        *,
        path: str | None = None,
        trip_kinds: "frozenset[str] | set[str]" = DEFAULT_TRIP_KINDS,
        name: str = "flight",
    ):
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self.capacity = capacity
        #: auto-dump target; None records without ever writing
        self.path = path
        self.trip_kinds = frozenset(trip_kinds)
        self.name = name
        self._ring: deque[RecordedEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.recorded = 0        #: lifetime events (ring may have dropped)
        self.trips = 0           #: auto-dumps fired
        self.last_trip: str | None = None

    def __len__(self) -> int:
        return len(self._ring)

    # --------------------------------------------------------- recording
    def record(self, kind: str, t: float, **fields: Any) -> RecordedEvent:
        """Append one event (O(1)); trips an auto-dump on incident
        kinds when a ``path`` is configured."""
        ev = RecordedEvent(seq=self._seq, kind=kind, t=float(t),
                           wall=time.perf_counter(), fields=fields)
        self._seq += 1
        self.recorded += 1
        self._ring.append(ev)
        if kind in self.trip_kinds:
            self.trip(reason=kind)
        return ev

    def events(self) -> "list[RecordedEvent]":
        """The buffered events, oldest first."""
        return list(self._ring)

    # ----------------------------------------------------------- dumping
    def _lines(self, *, wall: bool, reason: str | None) -> Iterator[str]:
        header: dict[str, Any] = {
            "type": "flight_recorder", "name": self.name,
            "capacity": self.capacity, "recorded": self.recorded,
            "buffered": len(self._ring), "dropped":
                self.recorded - len(self._ring),
        }
        if reason is not None:
            header["tripped_by"] = reason
        yield json.dumps(header, sort_keys=True)
        for ev in self._ring:
            yield json.dumps(ev.as_dict(wall=wall), sort_keys=True)

    def dump(self, path: str | None = None, *, wall: bool = True,
             reason: str | None = None) -> str:
        """Write the buffer as JSONL (header line + one line per event,
        oldest first) and return the path written."""
        target = path or self.path
        if target is None:
            raise ValueError("no dump path: pass one or configure "
                             "FlightRecorder(path=...)")
        with open(target, "w") as fh:
            for line in self._lines(wall=wall, reason=reason):
                fh.write(line + "\n")
        return target

    def trip(self, reason: str) -> str | None:
        """Incident: freeze the buffer to the configured path (no-op
        without one).  The dump is overwritten per trip, so the file on
        disk always covers the *latest* incident."""
        self.trips += 1
        self.last_trip = reason
        if self.path is None:
            return None
        return self.dump(self.path, reason=reason)

    def flush_if_untripped(self) -> str | None:
        """End-of-run flush: write the full history only when no
        incident froze the buffer already (keeping a tripped dump's
        last-events-cover-the-incident property intact)."""
        if self.path is None or self.trips:
            return None
        return self.dump(self.path, reason=None)


def load_flight_dump(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a recorder dump back: (header, events oldest-first)."""
    with open(path) as fh:
        lines = [json.loads(raw) for raw in fh if raw.strip()]
    if not lines or lines[0].get("type") != "flight_recorder":
        raise ValueError(f"{path}: not a flight-recorder dump")
    return lines[0], lines[1:]


__all__.append("load_flight_dump")
