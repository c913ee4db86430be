"""Continuous fleet telemetry: scheduler self-profiling and the
terminal fleet view behind ``repro top``.

The one-shot obs stack (traces, roofline, doctor) answers "where did
this run spend its time?".  A *fleet* needs the complementary question
answered continuously: "how is the serving layer itself doing right
now?" — how fast the event loop turns, how long a schedule pass takes,
how deep the queue scans are (the O(jobs x gpus) hotspot ROADMAP item 2
names), and what the fleet looks like at any modeled instant.

Two halves:

* :class:`SchedulerProfile` — wall-clock phase timers the service wires
  around its event handlers and schedule passes.  Wall numbers live
  under keys containing ``wall`` so the regression gate's default
  wall-ignore skips them; the *deterministic* half (event counts,
  pass/scan statistics, modeled event rate) is gated strictly in
  ``benchmarks/reports/BENCH_scheduler.json``.  The profile lives on the
  service object, never in the :class:`~repro.serve.service.ServiceReport`
  — the report must stay bit-identical across replays.

* :class:`FleetView` — a single summary of a service run assembled by
  :func:`fleet_view` from telemetry alone (a
  :class:`~repro.obs.trace.TraceSession`, live or loaded back by
  :func:`~repro.obs.doctor.load.load_trace`):
  utilization, queue depth, throughput, wait/turnaround p50/p95/p99,
  cache hit rate, fired alerts, plus a :class:`~repro.obs.timeseries.
  SnapshotSeries` grid for frame-by-frame replay.  Wait/turnaround
  quantiles are *exact*: the service records one ``job.wait_s`` /
  ``job.turnaround_s`` counter sample per completed job, and the view
  recomputes :func:`~repro.obs.metrics.percentile_summary` over them —
  bitwise equal to the report's numbers (tests/obs/test_telemetry_top.py).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from .metrics import Histogram, percentile_summary
from .timeseries import SnapshotSeries

if TYPE_CHECKING:
    from .trace import TraceSession

__all__ = ["SchedulerProfile", "FleetView", "fleet_view",
           "render_fleet_view", "render_frames", "sparkline"]


# ---------------------------------------------------------------- profile
class SchedulerProfile:
    """Self-profile of the service event loop and gang scheduler.

    Fed by :meth:`~repro.serve.service.ForecastService.run`; always on
    (the timers are two ``perf_counter`` calls per event — noise next to
    any handler body) and provably non-perturbing: nothing here feeds
    back into scheduling decisions."""

    def __init__(self):
        self.events_by_kind: dict[str, int] = {}
        self.handler_wall: dict[str, Histogram] = {}
        self.pass_wall = Histogram("pass.wall_s")
        self.queue_scan = Histogram("pass.queue_scan")
        self.passes = 0
        self.started = 0
        self.backfills = 0
        self.select_calls = 0
        self.jobs_scanned = 0       #: queue length summed over selects
        self.select_wall_s = 0.0
        self.run_wall_s = 0.0
        self.makespan_s = 0.0

    # ------------------------------------------------------------- feeds
    def on_event(self, kind: str, wall_s: float) -> None:
        """One event-loop pop: its kind and handler wall duration."""
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1
        hist = self.handler_wall.get(kind)
        if hist is None:
            hist = self.handler_wall[kind] = Histogram(f"{kind}.wall_s")
        hist.observe(wall_s)

    def on_pass(self, scanned: int, started: int, wall_s: float) -> None:
        """One schedule pass: queue length scanned, jobs started, wall."""
        self.passes += 1
        self.started += started
        self.queue_scan.observe(float(scanned))
        self.pass_wall.observe(wall_s)

    def finalize(self, *, makespan_s: float, run_wall_s: float,
                 scheduler: Any = None) -> None:
        self.makespan_s = float(makespan_s)
        self.run_wall_s = float(run_wall_s)
        if scheduler is not None:
            self.backfills = scheduler.backfills
            self.select_calls = getattr(scheduler, "select_calls", 0)
            self.jobs_scanned = getattr(scheduler, "jobs_scanned", 0)
            self.select_wall_s = getattr(scheduler, "select_wall_s", 0.0)

    # ----------------------------------------------------------- queries
    @property
    def events_total(self) -> int:
        return sum(self.events_by_kind.values())

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready profile.  Everything under ``wall`` (and only
        that) is machine-dependent; the rest is deterministic for a
        deterministic workload and safe to gate in a BENCH artifact."""
        total = self.events_total
        return {
            "events": {"total": total,
                       "by_kind": dict(sorted(self.events_by_kind.items()))},
            "passes": {"count": self.passes,
                       "started": self.started,
                       "backfills": self.backfills,
                       "select_calls": self.select_calls,
                       "jobs_scanned": self.jobs_scanned,
                       "queue_scan": self.queue_scan.summary()},
            "modeled": {"makespan_s": round(self.makespan_s, 9),
                        "events_per_modeled_s":
                            (total / self.makespan_s
                             if self.makespan_s > 0 else 0.0)},
            "wall": {"run_wall_s": self.run_wall_s,
                     "events_per_wall_s":
                         (total / self.run_wall_s
                          if self.run_wall_s > 0 else 0.0),
                     "select_wall_s": self.select_wall_s,
                     "pass_wall_s": self.pass_wall.summary(),
                     "handlers": {k: h.summary()
                                  for k, h in
                                  sorted(self.handler_wall.items())}},
        }

    def text(self) -> str:
        d = self.as_dict()
        scan = d["passes"]["queue_scan"]
        pw = d["wall"]["pass_wall_s"]
        kinds = " ".join(f"{k}={v}" for k, v in
                         d["events"]["by_kind"].items())
        lines = [
            f"scheduler profile — {d['events']['total']} events, "
            f"{d['passes']['count']} passes over "
            f"{d['modeled']['makespan_s']:.3f} modeled s",
            f"  rates: {d['modeled']['events_per_modeled_s']:,.1f} "
            f"events/modeled-s, {d['wall']['events_per_wall_s']:,.0f} "
            f"events/wall-s ({d['wall']['run_wall_s'] * 1e3:.1f} ms wall)",
            f"  by kind: {kinds}",
            f"  passes: started {d['passes']['started']}, backfills "
            f"{d['passes']['backfills']}; queue scan p50 "
            f"{scan['p50']:.0f} p95 {scan['p95']:.0f} max {scan['max']:.0f}",
            f"  select: {d['passes']['select_calls']} calls, "
            f"{d['passes']['jobs_scanned']:,} jobs scanned, "
            f"{d['wall']['select_wall_s'] * 1e3:.2f} ms wall",
            f"  pass wall p50 {pw['p50'] * 1e6:.1f}us "
            f"p95 {pw['p95'] * 1e6:.1f}us p99 {pw['p99'] * 1e6:.1f}us "
            f"max {pw['max'] * 1e6:.1f}us",
        ]
        return "\n".join(lines)


# -------------------------------------------------------------- sparkline
_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: "Iterable[float]", width: int = 40) -> str:
    """A unicode sparkline of ``values`` downsampled (bucket max) to at
    most ``width`` characters.  Deterministic; empty input -> ''."""
    xs = [float(v) for v in values]
    if not xs:
        return ""
    if len(xs) > width:
        per = len(xs) / width
        xs = [max(xs[int(i * per):max(int(i * per) + 1,
                                      int((i + 1) * per))])
              for i in range(width)]
    lo, hi = min(xs), max(xs)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(xs)
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1,
                    int((v - lo) / span * len(_BLOCKS)))] for v in xs)


def _series_stats(series: "list[tuple[float, float]]") -> dict[str, float]:
    values = [v for _, v in series]
    if not values:
        return {"last": 0.0, "max": 0.0, "mean": 0.0, "n": 0}
    return {"last": values[-1], "max": max(values),
            "mean": sum(values) / len(values), "n": len(values)}


# -------------------------------------------------------------- fleet view
@dataclass
class FleetView:
    """A service run summarized from its telemetry alone — modeled
    quantities only, so a view built from an exported trace equals one
    built from the live session."""

    source: str
    n_gpus: int = 0
    makespan_s: float = 0.0
    utilization: float = 0.0
    throughput_jobs_per_s: float = 0.0
    cache_hit_rate: float = 0.0
    jobs: dict[str, int] = field(default_factory=dict)
    wait_s: dict[str, float] = field(default_factory=dict)
    turnaround_s: dict[str, float] = field(default_factory=dict)
    queue_depth: dict[str, float] = field(default_factory=dict)
    gpus_in_use: dict[str, float] = field(default_factory=dict)
    alerts: list[dict[str, Any]] = field(default_factory=list)
    #: frame-by-frame snapshot grid (not part of :meth:`as_dict`)
    snapshots: "SnapshotSeries | None" = None
    #: raw series kept for sparklines
    queue_series: list[tuple[float, float]] = field(default_factory=list)
    gpus_series: list[tuple[float, float]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "n_gpus": self.n_gpus,
            "makespan_s": self.makespan_s,
            "utilization": self.utilization,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "cache_hit_rate": self.cache_hit_rate,
            "jobs": dict(sorted(self.jobs.items())),
            "wait_s": self.wait_s,
            "turnaround_s": self.turnaround_s,
            "queue_depth": self.queue_depth,
            "gpus_in_use": self.gpus_in_use,
            "alerts": [dict(a) for a in self.alerts],
            "n_snapshots": (len(self.snapshots.snapshots())
                            if self.snapshots is not None else 0),
        }


def fleet_view(session: "TraceSession", *,
               interval: float = 0.05) -> FleetView:
    """Assemble the :class:`FleetView` of a session — a live one, or one
    read back by :func:`~repro.obs.doctor.load.load_trace`: the same
    code either way, so the two are bitwise equal.  Read are the
    service's counter series, the end-of-run metrics payload, and the
    ``cat == 'alert'`` instants (the fired-alert list, in time order)."""
    metrics = session.metrics_dict()
    counter_series = session.counter_series
    gauges = metrics.get("gauges", {})
    counters = metrics.get("counters", {})
    queue = counter_series("queue.depth")
    gpus = counter_series("fleet.gpus_in_use")
    waits = [v for _, v in counter_series("job.wait_s")]
    turnarounds = [v for _, v in counter_series("job.turnaround_s")]

    snaps = SnapshotSeries(interval, name=session.name)
    snaps.ingest_counters(sorted(
        (rec for rec in session.counters if rec.name in
         ("queue.depth", "fleet.gpus_in_use", "jobs.running")),
        key=lambda rec: rec.ts))

    alerts = []
    for rec in session.instants:
        if rec.cat != "alert":
            continue
        alert = {"t": round(rec.ts, 9)}
        alert.update(rec.args or {})
        alerts.append(alert)
    alerts.sort(key=lambda a: a["t"])

    jobs = {name.rsplit(".", 1)[-1]: int(value)
            for name, value in counters.items()
            if name.startswith("serve.jobs.")}
    for key in ("crashes", "retries"):
        if f"serve.{key}" in counters:
            jobs[key] = int(counters[f"serve.{key}"])

    return FleetView(
        source=session.name,
        n_gpus=int(gauges.get("serve.fleet.gpus", 0)),
        makespan_s=float(gauges.get("serve.makespan_s", 0.0)),
        utilization=float(gauges.get("serve.utilization", 0.0)),
        throughput_jobs_per_s=float(
            gauges.get("serve.throughput_jobs_per_s", 0.0)),
        cache_hit_rate=float(gauges.get("serve.cache.hit_rate", 0.0)),
        jobs=jobs,
        wait_s=percentile_summary(waits),
        turnaround_s=percentile_summary(turnarounds),
        queue_depth=_series_stats(queue),
        gpus_in_use=_series_stats(gpus),
        alerts=alerts,
        snapshots=snaps,
        queue_series=queue,
        gpus_series=gpus,
    )


def render_fleet_view(view: FleetView, *, spark_width: int = 40) -> str:
    """The terminal fleet panel ``repro top`` and ``doctor --fleet``
    print."""
    j = view.jobs
    lines = [
        f"fleet view — {view.source}",
        f"  makespan {view.makespan_s:.3f} modeled s · "
        f"{view.n_gpus} GPUs · utilization {100 * view.utilization:.1f}% · "
        f"throughput {view.throughput_jobs_per_s:.3f} jobs/s",
        f"  jobs: {j.get('submitted', 0)} submitted · "
        f"{j.get('done', 0)} done · {j.get('cached', 0)} cached · "
        f"{j.get('shed', 0)} shed · {j.get('evicted', 0)} evicted · "
        f"{j.get('failed', 0)} failed",
    ]
    if j.get("crashes") or j.get("retries"):
        lines.append(f"  resilience: {j.get('crashes', 0)} crashes, "
                     f"{j.get('retries', 0)} retries")
    q, g = view.queue_depth, view.gpus_in_use
    lines.append(f"  queue depth  "
                 f"{sparkline((v for _, v in view.queue_series), spark_width):<{spark_width}} "
                 f"last {q['last']:.0f}  max {q['max']:.0f}  "
                 f"mean {q['mean']:.2f}")
    lines.append(f"  gpus in use  "
                 f"{sparkline((v for _, v in view.gpus_series), spark_width):<{spark_width}} "
                 f"last {g['last']:.0f}  max {g['max']:.0f}  "
                 f"mean {g['mean']:.2f}")
    for label, s in (("wait", view.wait_s), ("turnaround",
                                             view.turnaround_s)):
        lines.append(f"  {label:<10} p50 {s['p50']:.3f}s  "
                     f"p95 {s['p95']:.3f}s  p99 {s['p99']:.3f}s  "
                     f"mean {s['mean']:.3f}s  max {s['max']:.3f}s")
    lines.append(f"  cache hit rate {100 * view.cache_hit_rate:.1f}%")
    if view.alerts:
        lines.append(f"  alerts: {len(view.alerts)} fired")
        for a in view.alerts:
            lines.append(
                f"    ALERT [{a.get('kind', '?')}] t={a['t']:.3f}s "
                f"{a.get('metric', '?')}: {a.get('message', '')}")
    else:
        lines.append("  alerts: none")
    return "\n".join(lines)


def render_frames(view: FleetView, *, frames: int = 12) -> str:
    """A frame-by-frame table of the snapshot grid (at most ``frames``
    evenly spaced rows) — the replay half of ``repro top``."""
    if view.snapshots is None:
        return "(no snapshot series)"
    snaps = view.snapshots.snapshots()
    if not snaps:
        return "(no snapshots)"
    if len(snaps) > frames:
        step = len(snaps) / frames
        snaps = [snaps[min(len(snaps) - 1, int(i * step))]
                 for i in range(frames)]
    lines = [f"  {'t [s]':>9} {'queue':>7} {'running':>8} {'gpus':>9}"]
    for snap in snaps:
        vals = {k.name: v for k, v in snap.values.items()}
        gpus = vals.get("fleet.gpus_in_use", 0.0)
        lines.append(f"  {snap.t:>9.3f} "
                     f"{vals.get('queue.depth', 0.0):>7.0f} "
                     f"{vals.get('jobs.running', 0.0):>8.0f} "
                     f"{gpus:>5.0f}/{view.n_gpus:<3}")
    return "\n".join(lines)
