"""Time-series pipeline: fold metrics + counter records into
fixed-interval modeled-time snapshots, exportable as Prometheus text
exposition and CSV.

The serving layer produces two shapes of telemetry: *counter records*
(point samples of queue depth, GPUs in use, per-job waits — a
:class:`~repro.obs.trace.CounterRecord` stream on the modeled clock) and
the end-of-run :class:`~repro.obs.metrics.MetricsRegistry`.  Continuous
operation needs them as a third shape: a regular grid of snapshots —
"the fleet, every 50 modeled milliseconds" — that dashboards, `repro
top`, and scrape-based collectors can consume.

:class:`SnapshotSeries` is that fold.  Samples are bucketed by a fixed
``interval`` on the modeled clock (last-write-wins within a bucket,
carry-forward across empty buckets — gauge semantics), keyed by metric
name plus a label set (per-tenant, per-workload, per-rank — any
``str -> str`` mapping).  Everything is deterministic: same samples,
same snapshots, byte-identical exports; there is no wall clock anywhere
in this module.

Exports:

* :meth:`SnapshotSeries.prometheus` — the Prometheus text exposition
  format (one ``# TYPE`` line per metric, samples with label sets and
  modeled-millisecond timestamps), from the final snapshot;
* :meth:`SnapshotSeries.csv` — the full snapshot grid as
  ``t,name,labels,value`` rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:
    from .trace import CounterRecord

__all__ = ["SeriesKey", "Snapshot", "SnapshotSeries"]


@dataclass(frozen=True, order=True)
class SeriesKey:
    """One labelled series: a metric name plus a sorted label set."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(cls, name: str,
           labels: "Mapping[str, str] | None" = None) -> "SeriesKey":
        items = tuple(sorted((str(k), str(v))
                             for k, v in (labels or {}).items()))
        return cls(name=name, labels=items)

    def render(self) -> str:
        """``name{k="v",...}`` (Prometheus sample syntax, no metric
        name sanitization)."""
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


@dataclass
class Snapshot:
    """The fleet at one grid instant: every known series' last value."""

    t: float                              #: bucket end, modeled seconds
    values: dict[SeriesKey, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"t": round(self.t, 9),
                "series": {k.render(): v
                           for k, v in sorted(self.values.items())}}


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus metric name."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


class SnapshotSeries:
    """Fixed-interval modeled-time snapshot grid over labelled samples."""

    def __init__(self, interval: float = 0.05, *, name: str = "telemetry"):
        if interval <= 0:
            raise ValueError("snapshot interval must be > 0")
        self.interval = float(interval)
        self.name = name
        #: raw ingested samples per series, in ingestion order
        self.samples: dict[SeriesKey, list[tuple[float, float]]] = {}

    # ------------------------------------------------------------ ingest
    def ingest(self, name: str, t: float, value: float,
               labels: "Mapping[str, str] | None" = None) -> None:
        key = SeriesKey.of(name, labels)
        self.samples.setdefault(key, []).append((float(t), float(value)))

    def ingest_counters(self, records: "Iterable[CounterRecord]") -> int:
        """Ingest :class:`~repro.obs.trace.CounterRecord`s (a session's
        ``counters``, live or loaded); the track group becomes a ``pid``
        label, a non-default series a ``series`` label.  Returns the
        number of samples ingested."""
        n = 0
        for rec in records:
            labels = {"pid": rec.pid}
            if rec.series != "value":
                labels["series"] = rec.series
            self.ingest(rec.name, rec.ts, rec.value, labels)
            n += 1
        return n

    def ingest_registry(self, metrics: Any, t: float,
                        labels: "Mapping[str, str] | None" = None) -> None:
        """Ingest a :class:`~repro.obs.metrics.MetricsRegistry` (or its
        ``as_dict()`` payload) as one sample per counter/gauge at ``t``
        — the end-of-run state folded onto the grid."""
        doc = metrics.as_dict() if hasattr(metrics, "as_dict") else metrics
        for name, value in doc.get("counters", {}).items():
            self.ingest(name, t, value, labels)
        for name, value in doc.get("gauges", {}).items():
            self.ingest(name, t, value, labels)

    # --------------------------------------------------------- snapshots
    @property
    def t_max(self) -> float:
        return max((t for series in self.samples.values()
                    for t, _ in series), default=0.0)

    def snapshots(self) -> list[Snapshot]:
        """The full snapshot grid, bucket 0 through the last sampled
        bucket.  Within a bucket the last sample wins; empty buckets
        carry the previous snapshot forward (a gauge holds its value
        until resampled)."""
        if not self.samples:
            return []
        n_buckets = int(math.floor(self.t_max / self.interval)) + 1
        # per-series bucket -> last value in that bucket
        per_bucket: dict[SeriesKey, dict[int, float]] = {}
        for key, series in self.samples.items():
            buckets = per_bucket.setdefault(key, {})
            for t, value in series:
                buckets[int(math.floor(max(0.0, t) / self.interval))] = value
        out: list[Snapshot] = []
        current: dict[SeriesKey, float] = {}
        for b in range(n_buckets):
            for key in sorted(per_bucket):
                if b in per_bucket[key]:
                    current[key] = per_bucket[key][b]
            out.append(Snapshot(t=(b + 1) * self.interval,
                                values=dict(current)))
        return out

    def final(self) -> Snapshot:
        snaps = self.snapshots()
        return snaps[-1] if snaps else Snapshot(t=0.0)

    # ----------------------------------------------------------- exports
    def prometheus(self, *, namespace: str = "repro") -> str:
        """Prometheus text exposition of the final snapshot.  Timestamps
        are the snapshot's modeled time in milliseconds — deterministic
        by construction (a real scraper would remap them; docs/
        OBSERVABILITY.md)."""
        snap = self.final()
        by_name: dict[str, list[tuple[SeriesKey, float]]] = {}
        for key, value in snap.values.items():
            by_name.setdefault(key.name, []).append((key, value))
        ts_ms = int(round(snap.t * 1000.0))
        lines: list[str] = []
        for name in sorted(by_name):
            metric = (f"{namespace}_{_prom_name(name)}" if namespace
                      else _prom_name(name))
            lines.append(f"# HELP {metric} modeled-time telemetry "
                         f"series {name}")
            lines.append(f"# TYPE {metric} gauge")
            for key, value in sorted(by_name[name]):
                label_txt = ""
                if key.labels:
                    inner = ",".join(f'{k}="{v}"' for k, v in key.labels)
                    label_txt = f"{{{inner}}}"
                lines.append(f"{metric}{label_txt} {value:g} {ts_ms}")
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        """The whole grid as ``t,name,labels,value`` rows (labels as
        ``k=v`` pairs joined by ``;``)."""
        lines = ["t,name,labels,value"]
        for snap in self.snapshots():
            for key, value in sorted(snap.values.items()):
                labels = ";".join(f"{k}={v}" for k, v in key.labels)
                lines.append(f"{snap.t:.9g},{key.name},{labels},{value:g}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path: str, *,
                         namespace: str = "repro") -> str:
        with open(path, "w") as fh:
            fh.write(self.prometheus(namespace=namespace))
        return path

    def write_csv(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.csv())
        return path
