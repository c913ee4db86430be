"""Time-series pipeline: snapshot grid semantics, the counter-record
('C' event) round-trip through the exporters and the doctor's loader,
and the Prometheus/CSV exports."""
import pytest

from repro.obs import SnapshotSeries, TraceSession
from repro.obs.exporters import write_chrome_trace, write_jsonl
from repro.obs.doctor.load import load_trace


# -------------------------------------------------------------- the grid
def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        SnapshotSeries(0.0)


def test_last_write_wins_within_a_bucket_and_carry_forward_across():
    s = SnapshotSeries(1.0)
    s.ingest("queue.depth", 0.1, 3.0)
    s.ingest("queue.depth", 0.9, 5.0)     # same bucket: last wins
    s.ingest("queue.depth", 3.5, 1.0)     # bucket 3; 1-2 carry forward
    snaps = s.snapshots()
    assert [sn.t for sn in snaps] == [1.0, 2.0, 3.0, 4.0]
    values = [next(iter(sn.values.values())) for sn in snaps]
    assert values == [5.0, 5.0, 5.0, 1.0]


def test_labels_separate_series():
    s = SnapshotSeries(1.0)
    s.ingest("util", 0.5, 0.25, {"tenant": "a"})
    s.ingest("util", 0.5, 0.75, {"tenant": "b"})
    snap = s.final()
    assert len(snap.values) == 2
    rendered = snap.as_dict()["series"]
    assert rendered['util{tenant="a"}'] == 0.25
    assert rendered['util{tenant="b"}'] == 0.75


def test_ingest_registry_folds_counters_and_gauges():
    sess = TraceSession("t")
    sess.metrics.counter("jobs.done").inc(7)
    sess.metrics.gauge("util").set(0.5)
    s = SnapshotSeries(0.5)
    s.ingest_registry(sess.metrics, 1.0)
    values = {k.name: v for k, v in s.final().values.items()}
    assert values == {"jobs.done": 7.0, "util": 0.5}


def test_empty_series_has_no_snapshots():
    s = SnapshotSeries(1.0)
    assert s.snapshots() == []
    assert s.final().values == {}


# --------------------------------------------- counter-record round-trip
def _session_with_counters() -> TraceSession:
    sess = TraceSession("rt")
    for i in range(6):
        sess.record_counter("queue.depth", float(i % 3), i * 0.02,
                            pid="service")
        sess.record_counter("fleet.gpus_in_use", float(i), i * 0.02,
                            pid="service")
    return sess


@pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
def test_counter_round_trip_exporter_loader_snapshots(tmp_path, fmt):
    sess = _session_with_counters()
    path = str(tmp_path / f"trace.{'json' if fmt == 'chrome' else 'jsonl'}")
    (write_chrome_trace if fmt == "chrome" else write_jsonl)(sess, path)
    trace = load_trace(path)

    series = trace.counter_series("queue.depth", pid="service")
    assert [v for _, v in series] == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]

    snaps = SnapshotSeries(0.05)
    assert snaps.ingest_counters(trace.counters) == 12
    grid = snaps.snapshots()
    assert grid          # both formats produce the same grid
    last = {k.name: v for k, v in grid[-1].values.items()}
    assert last == {"queue.depth": 2.0, "fleet.gpus_in_use": 5.0}


def test_chrome_and_jsonl_round_trips_agree(tmp_path):
    sess = _session_with_counters()
    cpath = write_chrome_trace(sess, str(tmp_path / "t.json"))
    jpath = write_jsonl(sess, str(tmp_path / "t.jsonl"))
    ct, jt = load_trace(cpath), load_trace(jpath)
    assert ct.counter_series("queue.depth") == \
        jt.counter_series("queue.depth")
    assert ct.metrics_dict() == jt.metrics_dict() == sess.metrics.as_dict()


def test_loader_reconstructs_spans_instants_and_metrics(tmp_path):
    sess = TraceSession("full")
    sess.record_span("phase", 0.0, 0.5, pid="host", tid="main")
    sess.record_instant("alert wait", 0.25, pid="service", tid="alerts",
                        cat="alert", args={"metric": "wait_s"})
    sess.metrics.gauge("serve.utilization").set(0.75)
    for path in (write_chrome_trace(sess, str(tmp_path / "f.json")),
                 write_jsonl(sess, str(tmp_path / "f.jsonl"))):
        trace = load_trace(path)
        assert len(trace.spans) == 1
        assert trace.spans[0].name == "phase"
        alerts = [i for i in trace.instants if i.cat == "alert"]
        assert alerts and alerts[0].args["metric"] == "wait_s"
        assert trace.metrics_dict()["gauges"]["serve.utilization"] == 0.75


# ----------------------------------------------------------- the exports
def test_prometheus_exposition_format():
    s = SnapshotSeries(0.5)
    s.ingest("queue.depth", 0.4, 7.0, {"pid": "service"})
    s.ingest("serve.utilization", 0.4, 0.5)
    text = s.prometheus()
    assert "# TYPE repro_queue_depth gauge" in text
    assert 'repro_queue_depth{pid="service"} 7 500' in text
    assert "repro_serve_utilization 0.5 500" in text
    assert text == s.prometheus()        # deterministic


def test_csv_export_has_one_row_per_series_per_snapshot():
    s = SnapshotSeries(1.0)
    s.ingest("a", 0.5, 1.0)
    s.ingest("a", 1.5, 2.0)
    lines = s.csv().strip().splitlines()
    assert lines[0] == "t,name,labels,value"
    assert lines[1:] == ["1,a,,1", "2,a,,2"]
