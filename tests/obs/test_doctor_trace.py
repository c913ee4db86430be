"""Round-trip tests: what the exporters write, the doctor reads back
(record-level equality over generated sessions is
tests/obs/test_exporters.py).

Device ops must come back close enough (the CTF microsecond rounding is
1e-9 s) that a post-hoc diagnosis of the artifact agrees with the
live-timeline diagnosis within 1%; the loader sniffs the format from
the first object and rejects anything else with the path and line."""
import json

import pytest

from repro.dist.overlap import OverlapModel
from repro.gpu.device import GPUDevice
from repro.obs import TraceSession, write_chrome_trace, write_jsonl
from repro.obs.doctor import diagnose_ops, diagnose_trace, load_trace

def test_device_ops_round_trip(tmp_path):
    """Ops collected from a device come back with their kinds, tags and
    (to CTF rounding) their timestamps."""
    dev = GPUDevice()
    s0, s1 = dev.default_stream, dev.create_stream()
    dev.schedule("A", "kernel", s0, 1e-3)
    dev.schedule("H", "h2d", s1, 4e-4)
    dev.schedule("M", "mpi", s1, 8e-4, tag="halo")

    session = TraceSession(name="ops")
    session.collect_device(dev, rank=0)
    path = write_chrome_trace(session, tmp_path / "ops.json")

    loaded = load_trace(str(path))
    assert list(loaded.ops_by_pid()) == ["rank0"]
    ops = loaded.ops_by_pid()["rank0"]
    assert {(o.name, o.kind) for o in ops} == {
        ("A", "kernel"), ("H", "h2d"), ("M", "mpi")}
    by_name = {o.name: o for o in ops}
    assert by_name["M"].tag == "halo"
    assert by_name["M"].ts == pytest.approx(4e-4, abs=1e-9)
    assert by_name["M"].dur == pytest.approx(8e-4, abs=1e-9)


def test_trace_diagnosis_matches_live_within_1pct(tmp_path):
    """Acceptance criterion: diagnosing the exported artifact of the
    full-overlap model step reproduces the live per-kernel attribution
    and overlap efficiency within 1%."""
    tl = OverlapModel().step_timeline()
    live = diagnose_ops(tl.device.timeline)

    session = TraceSession(name="overlap")
    session.collect_device(tl.device, rank=0)
    path = write_chrome_trace(session, tmp_path / "overlap.json")
    report = diagnose_trace(str(path))

    assert len(report.devices) == 1
    post = report.devices[0]
    assert post.stats.hidden_fraction == pytest.approx(
        live.stats.hidden_fraction, rel=0.01)
    assert post.stats.makespan == pytest.approx(live.stats.makespan,
                                                rel=0.01)
    assert post.path.coverage == pytest.approx(live.path.coverage, abs=0.01)
    live_rows = {r.name: r.total for r in live.rows}
    post_rows = {r.name: r.total for r in post.rows}
    assert set(post_rows) == set(live_rows)
    for name, total in live_rows.items():
        assert post_rows[name] == pytest.approx(total, rel=0.01)
    assert report.verdict is not None


def test_diagnose_trace_screens_counter_anomalies(tmp_path):
    """A flat counter series with one spike past warmup trips the EWMA
    screen; the anomaly carries the metric's track-qualified name."""
    session = TraceSession(name="anomaly")
    for i in range(40):
        session.record_counter("queue.depth", 2.0 + (i % 2) * 0.1,
                               i * 0.1, pid="service")
    session.record_counter("queue.depth", 50.0, 4.0, pid="service")
    path = write_jsonl(session, tmp_path / "a.jsonl")

    report = diagnose_trace(str(path), anomaly_sigma=6.0)
    assert any(a["metric"] == "service/queue.depth"
               for a in report.anomalies)
    assert "service/queue.depth" in report.counters


def test_stacked_counter_series_stay_apart(tmp_path):
    """Regression: both loaders dropped CounterRecord.series, merging
    the stacked series of one counter into a single list."""
    session = TraceSession(name="stacked")
    session.record_counter("gpus", 3, 0.1, pid="fleet", series="busy")
    session.record_counter("gpus", 1, 0.1, pid="fleet", series="idle")
    for path in (write_chrome_trace(session, tmp_path / "s.json"),
                 write_jsonl(session, tmp_path / "s.jsonl")):
        loaded = load_trace(str(path))
        assert [(c.series, c.value) for c in loaded.counters] == [
            ("busy", 3.0), ("idle", 1.0)]
        assert loaded.counter_series("gpus", pid="fleet") == [
            (pytest.approx(0.1), 3.0), (pytest.approx(0.1), 1.0)]
        assert loaded.counter_series("gpus", pid="service") == []


def test_format_is_sniffed_from_the_first_object(tmp_path):
    session = TraceSession(name="sniff")
    session.record_span("work", 0.0, 0.5)
    # a JSONL stream cut off after its session line is still JSONL
    cut = tmp_path / "cut.jsonl"
    cut.write_text(json.dumps({"type": "session", "name": "sniff"}) + "\n")
    loaded = load_trace(str(cut))
    assert loaded.name == "sniff" and not loaded.spans
    # a pretty-printed Chrome document is still a Chrome document
    from repro.obs import chrome_trace
    for indent in (0, 2):
        pretty = tmp_path / f"pretty{indent}.json"
        pretty.write_text("\n" + json.dumps(chrome_trace(session),
                                            indent=indent))
        loaded = load_trace(str(pretty))
        assert loaded.name == "sniff"
        assert [r.name for r in loaded.spans] == ["work"]


def test_load_trace_rejects_garbage(tmp_path):
    def rejected(name, text, *needles):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_trace(str(path))
        for needle in (str(path), *needles):
            assert needle in str(err.value), (needle, str(err.value))

    rejected("bad.json", "{not json", "line 1", "not valid JSON")
    rejected("empty.json", "", "empty")
    rejected("blank.json", " \n\n", "empty")
    rejected("neither.json", '{"answer": 42}', "line 1", "traceEvents")
    rejected("list.json", "[1, 2]", "line 1")
    rejected("torn.jsonl",
             '{"type": "session", "name": "t"}\n{"type": "span", "na',
             "line 2", "not valid JSON")
    rejected("fieldless.jsonl",
             '{"type": "session", "name": "t"}\n{"type": "span"}\n',
             "malformed")
