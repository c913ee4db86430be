"""Fleet health monitor: SLO rule grammar, EWMA anomaly detection, and
the ForecastService wiring — a seeded saturated workload must fire a
deterministic alert that lands in both the report and the trace."""
import pytest

from repro.obs.doctor.health import HealthMonitor, RollingSeries, SloRule
from repro.obs.metrics import percentile, percentile_summary
from repro.obs.trace import TraceSession
from repro.serve import ForecastService, GpuFleet, poisson_workload

N_JOBS = 30
SEED = 0


# ------------------------------------------------------------ rule grammar
@pytest.mark.parametrize("expr, metric, agg, op, threshold, budget", [
    ("p95_wait_s<0.5", "wait_s", "p95", "<", 0.5, None),
    ("queue_depth<=32", "queue_depth", "last", "<=", 32.0, None),
    ("mean_utilization >= 0.2", "utilization", "mean", ">=", 0.2, None),
    ("wait_s<0.5@0.2", "wait_s", "last", "<", 0.5, 0.2),
    ("ewma_cache_hit_rate>0.1", "cache_hit_rate", "ewma", ">", 0.1, None),
])
def test_slo_rule_parse(expr, metric, agg, op, threshold, budget):
    rule = SloRule.parse(expr)
    assert (rule.metric, rule.agg, rule.op) == (metric, agg, op)
    assert rule.threshold == pytest.approx(threshold)
    assert rule.budget == (pytest.approx(budget) if budget is not None
                           else None)


@pytest.mark.parametrize("expr", [
    "", "wait_s", "wait_s<abc", "wait_s<0.5@2.0", "wait_s<0.5@x", "<0.5",
])
def test_slo_rule_parse_rejects(expr):
    with pytest.raises(ValueError):
        SloRule.parse(expr)


def test_rolling_series_uses_shared_percentiles():
    s = RollingSeries(window=8)
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    for v in values:
        s.add(v)
    assert s.aggregate("p95") == pytest.approx(percentile(values, 95))
    summary = s.summary()
    expect = percentile_summary(values)
    for key, val in expect.items():
        assert summary[key] == pytest.approx(val)
    assert summary["n"] == 5.0


def test_burn_rate_budget():
    rule = SloRule.parse("lat<1.0@0.25")
    s = RollingSeries(window=8)
    for v in (0.5, 0.5, 2.0):       # 1/3 of the window violates
        s.add(v)
    violated, observed = rule.evaluate(s)
    assert violated and observed == pytest.approx(1 / 3)
    s.add(0.5)                       # back to 1/4 == budget: not over
    assert rule.evaluate(s) == (False, pytest.approx(0.25))


# --------------------------------------------------------------- detectors
def test_anomaly_detection_is_edge_triggered():
    mon = HealthMonitor(anomaly_sigma=4.0, warmup=8)
    for i in range(20):
        mon.observe("q", 2.0 + 0.1 * (i % 2), t=i * 0.1)
    assert not mon.alerts
    first = mon.observe("q", 40.0, t=2.0)        # excursion fires once
    assert [a.kind for a in first] == ["anomaly"]
    assert mon.observe("q", 40.0, t=2.1) == []   # still active: no re-fire
    for i in range(30):                          # recover and re-arm
        mon.observe("q", 2.0, t=3.0 + i * 0.1)
    again = mon.observe("q", 40.0, t=7.0)
    assert [a.kind for a in again] == ["anomaly"]


def test_slo_alert_fires_and_rearms():
    mon = HealthMonitor("queue_depth<3")
    assert mon.observe("queue_depth", 2.0, t=0.0) == []
    fired = mon.observe("queue_depth", 5.0, t=1.0)
    assert len(fired) == 1 and fired[0].rule == "queue_depth<3"
    assert mon.observe("queue_depth", 6.0, t=2.0) == []      # edge-triggered
    assert mon.observe("queue_depth", 1.0, t=3.0) == []      # recovery
    assert len(mon.observe("queue_depth", 9.0, t=4.0)) == 1  # re-armed
    assert len(mon.alerts) == 2


# ------------------------------------------------------- service wiring
def _serve(slo, session=None):
    svc = ForecastService(GpuFleet(4), policy="fifo", execute=False,
                          session=session, slo=slo)
    return svc.run(poisson_workload(N_JOBS, seed=SEED))


def test_saturated_service_fires_deterministic_alert():
    """The seeded Poisson stream saturates a 4-GPU fleet; a queue-depth
    SLO must fire, identically on every replay, and show up in the
    report dict, the rendered text, and the session's instant events."""
    session = TraceSession(name="slo")
    report = _serve("queue_depth<1,p95_wait_s<10", session=session)
    assert report.slo_rules == ["queue_depth<1", "p95_wait_s<10"]
    assert report.alerts, "saturated fleet fired no alert"
    alert = report.alerts[0]
    assert alert["kind"] == "slo" and alert["metric"] == "queue_depth"
    assert "queue_depth" in report.health
    assert f"ALERT [{alert['kind']}]" in report.render()

    trace_alerts = [i for i in session.instants if i.cat == "alert"]
    assert len(trace_alerts) == len(report.alerts)
    assert trace_alerts[0].args["rule"] == "queue_depth<1"
    assert trace_alerts[0].ts == pytest.approx(alert["t"])

    replay = _serve("queue_depth<1,p95_wait_s<10")
    assert replay.as_dict() == report.as_dict()


def test_met_objectives_produce_no_alerts():
    report = _serve("p95_wait_s<1e9")
    assert report.alerts == [] and report.slo_rules == ["p95_wait_s<1e9"]
    assert "all objectives met" in report.render()


def test_unmonitored_service_report_unchanged():
    report = _serve(None)
    assert report.alerts == [] and report.slo_rules == []
    assert report.health == {}


def test_malformed_slo_raises():
    with pytest.raises(ValueError):
        ForecastService(GpuFleet(2), slo="queue_depth!!1")
