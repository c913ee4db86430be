"""Fleet health: rolling-window SLOs, EWMA anomaly detection, alerts.

A :class:`HealthMonitor` ingests metric samples — queue depth, job wait,
fleet utilization, cache hit rate — as they are produced (the
:class:`~repro.serve.service.ForecastService` event loop feeds it on the
modeled clock) or post hoc (the doctor replays counter series read back
from a trace).  Two detectors run per sample:

* **declarative SLO rules** (:class:`SloRule`) parsed from expressions
  like ``p95_wait_s<0.5`` or burn-rate forms like ``wait_s<0.5@0.2``
  ("at most 20% of the window may violate the raw threshold");
* **EWMA anomaly detection**: an exponentially weighted mean/variance
  per metric flags samples more than ``anomaly_sigma`` deviations from
  the running estimate once past warmup.

Both emit typed :class:`Alert` records, edge-triggered (one alert per
excursion, re-armed on recovery) so a saturated service does not drown
its own report.  Everything is deterministic: no wall clock, no state
beyond the samples themselves — replaying a workload replays its
alerts.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from ..metrics import percentile_summary

__all__ = ["SloRule", "Alert", "RollingSeries", "HealthMonitor"]

#: comparison operators an SLO expression may use (the rule states what
#: SHOULD hold; an alert fires when it does not)
_OPS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
}

_AGGS = ("mean", "p50", "p95", "max", "min", "last", "ewma")


class RollingSeries:
    """Bounded sample window with percentile and EWMA aggregates."""

    def __init__(self, window: int = 256, *, ewma_alpha: float = 0.2):
        self.values: deque[float] = deque(maxlen=window)
        self.alpha = ewma_alpha
        self.n = 0               #: lifetime sample count (window-free)
        self.ewma_mean = 0.0
        self.ewma_var = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self.values.append(value)
        if self.n == 0:
            self.ewma_mean = value
        else:
            diff = value - self.ewma_mean
            self.ewma_mean += self.alpha * diff
            self.ewma_var = (1.0 - self.alpha) * (
                self.ewma_var + self.alpha * diff * diff)
        self.n += 1

    @property
    def ewma_std(self) -> float:
        return math.sqrt(max(0.0, self.ewma_var))

    def deviation(self, value: float) -> float:
        """|value - EWMA mean| in EWMA standard deviations (inf when the
        variance estimate is still zero and the value moved)."""
        diff = abs(float(value) - self.ewma_mean)
        if diff == 0.0:
            return 0.0
        std = self.ewma_std
        return diff / std if std > 0 else float("inf")

    def aggregate(self, agg: str) -> float:
        if not self.values:
            return 0.0
        if agg == "last":
            return self.values[-1]
        if agg == "ewma":
            return self.ewma_mean
        if agg == "max":
            return max(self.values)
        if agg == "min":
            return min(self.values)
        s = percentile_summary(list(self.values))
        return s[agg]

    def breach_fraction(self, op: str, threshold: float) -> float:
        """Fraction of windowed samples violating ``value OP threshold``."""
        if not self.values:
            return 0.0
        ok = _OPS[op]
        bad = sum(1 for v in self.values if not ok(v, threshold))
        return bad / len(self.values)

    def summary(self) -> dict[str, float]:
        out = percentile_summary(list(self.values))
        out["n"] = float(self.n)
        out["ewma"] = self.ewma_mean
        return out


@dataclass(frozen=True)
class SloRule:
    """One declarative objective, e.g. ``p95_wait_s<0.5``.

    Grammar: ``[AGG_]METRIC OP THRESHOLD[@BUDGET]`` where ``AGG`` is one
    of mean/p50/p95/max/min/last/ewma (default ``last``), ``OP`` is
    ``<``, ``<=``, ``>`` or ``>=``, and the optional ``@BUDGET`` turns
    the rule into a burn-rate objective: alert when more than ``BUDGET``
    (a fraction) of the rolling window violates the raw threshold.
    """

    expr: str
    metric: str
    agg: str
    op: str
    threshold: float
    budget: float | None = None

    @classmethod
    def parse(cls, expr: str) -> "SloRule":
        text = expr.strip().replace(" ", "")
        if not text:
            raise ValueError("empty SLO expression")
        for op in ("<=", ">=", "<", ">"):       # two-char ops first
            if op in text:
                lhs, rhs = text.split(op, 1)
                break
        else:
            raise ValueError(
                f"SLO {expr!r}: no comparison operator (use < <= > >=)")
        budget: float | None = None
        if "@" in rhs:
            rhs, btxt = rhs.split("@", 1)
            try:
                budget = float(btxt)
            except ValueError:
                raise ValueError(f"SLO {expr!r}: bad budget {btxt!r}") from None
            if not 0.0 <= budget <= 1.0:
                raise ValueError(f"SLO {expr!r}: budget must be in [0, 1]")
        try:
            threshold = float(rhs)
        except ValueError:
            raise ValueError(f"SLO {expr!r}: bad threshold {rhs!r}") from None
        agg, metric = "last", lhs
        head, _, tail = lhs.partition("_")
        if tail and head in _AGGS:
            agg, metric = head, tail
        if not metric:
            raise ValueError(f"SLO {expr!r}: missing metric name")
        if budget is not None:
            agg = "last"      # burn rate judges raw samples, not aggregates
        return cls(expr=expr.strip(), metric=metric, agg=agg, op=op,
                   threshold=threshold, budget=budget)

    def evaluate(self, series: RollingSeries) -> tuple[bool, float]:
        """(violated, observed value) against the current window."""
        if self.budget is not None:
            frac = series.breach_fraction(self.op, self.threshold)
            return frac > self.budget, frac
        observed = series.aggregate(self.agg)
        return not _OPS[self.op](observed, self.threshold), observed


@dataclass
class Alert:
    """One fired objective violation or anomaly."""

    kind: str            #: 'slo' | 'anomaly'
    metric: str
    t: float             #: modeled/series time the alert fired
    observed: float
    threshold: float
    rule: str = ""       #: the SLO expression ('' for anomalies)
    message: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "metric": self.metric,
                "t": round(self.t, 9), "observed": self.observed,
                "threshold": self.threshold, "rule": self.rule,
                "message": self.message}


class HealthMonitor:
    """Evaluate SLO rules and anomaly detection over metric streams."""

    def __init__(
        self,
        rules: "Iterable[SloRule | str] | str | None" = (),
        *,
        window: int = 256,
        ewma_alpha: float = 0.2,
        anomaly_sigma: float = 0.0,    #: 0 disables anomaly detection
        warmup: int = 16,
    ):
        if isinstance(rules, str):
            rules = [r for r in rules.replace(";", ",").split(",") if r.strip()]
        self.rules: list[SloRule] = [
            r if isinstance(r, SloRule) else SloRule.parse(r)
            for r in (rules or ())]
        self.window = window
        self.ewma_alpha = ewma_alpha
        self.anomaly_sigma = anomaly_sigma
        self.warmup = warmup
        self.series: dict[str, RollingSeries] = {}
        self.alerts: list[Alert] = []
        self._active: set[str] = set()    #: currently-breached rule/anomaly keys

    # ------------------------------------------------------------ ingest
    def _series(self, metric: str) -> RollingSeries:
        s = self.series.get(metric)
        if s is None:
            s = self.series[metric] = RollingSeries(
                self.window, ewma_alpha=self.ewma_alpha)
        return s

    def observe(self, metric: str, value: float, t: float = 0.0) -> list[Alert]:
        """Ingest one sample; returns any alerts that fired on it."""
        value = float(value)
        series = self._series(metric)
        fired: list[Alert] = []

        # anomaly check against the estimate *before* this sample joins it
        if self.anomaly_sigma > 0 and series.n >= self.warmup:
            dev = series.deviation(value)
            key = f"anomaly:{metric}"
            if dev > self.anomaly_sigma:
                if key not in self._active:
                    self._active.add(key)
                    fired.append(Alert(
                        kind="anomaly", metric=metric, t=t, observed=value,
                        threshold=self.anomaly_sigma,
                        message=f"{metric}={value:g} is "
                                f"{dev if dev != float('inf') else 999:.1f} "
                                f"EWMA deviations from "
                                f"{series.ewma_mean:g}"))
            else:
                self._active.discard(key)

        series.add(value)

        for rule in self.rules:
            if rule.metric != metric:
                continue
            violated, observed = rule.evaluate(series)
            if violated:
                if rule.expr not in self._active:
                    self._active.add(rule.expr)
                    what = (f"burn rate {observed:.2f} > budget "
                            f"{rule.budget}" if rule.budget is not None
                            else f"{rule.agg}({metric})={observed:g} "
                                 f"violates {rule.op}{rule.threshold:g}")
                    fired.append(Alert(
                        kind="slo", metric=metric, t=t, observed=observed,
                        threshold=(rule.budget if rule.budget is not None
                                   else rule.threshold),
                        rule=rule.expr, message=what))
            else:
                self._active.discard(rule.expr)
        self.alerts.extend(fired)
        return fired

    def observe_series(self, metric: str,
                       samples: Iterable[tuple[float, float]]) -> list[Alert]:
        """Post-hoc ingestion of a [(t, value), ...] series (the doctor
        feeds counter tracks read back from a trace through this)."""
        fired: list[Alert] = []
        for t, value in samples:
            fired.extend(self.observe(metric, value, t))
        return fired

    # ----------------------------------------------------------- queries
    def summary(self) -> dict[str, dict[str, float]]:
        """Per-metric rolling-window summaries (shared percentile math)."""
        return {m: s.summary() for m, s in sorted(self.series.items())}
