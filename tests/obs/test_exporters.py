"""A 2x2-rank decomposed warm-bubble run under tracing must export a
valid Chrome Trace Format JSON with per-rank device tracks, kernel /
copy / message events, and metrics that agree with the existing
OpStats / TrafficStats numbers — the acceptance criteria of the
observability layer.  Then the codec itself: generated sessions over
all five record types must read back as what was written, from either
format, and the artifacts checked in under ``data/`` (written by the
commit before the codec existed) must still load and re-export byte for
byte."""
import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.multigpu import MultiGpuAsuca
from repro.obs import (
    CounterRecord,
    DeviceOpRecord,
    FlowRecord,
    InstantRecord,
    SpanRecord,
    TraceSession,
    chrome_trace,
    jsonl_events,
    summary_text,
    use_session,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.doctor import load_trace
from repro.obs.trace import OP_KINDS, RECORD_TYPES
from repro.optimeline import OpStats
from repro.workloads.warm_bubble import make_warm_bubble_case

N_STEPS = 2

#: CTF event phases this exporter may legally emit
KNOWN_PH = {"X", "M", "i", "s", "f", "C"}


@pytest.fixture(scope="module")
def traced_run():
    case = make_warm_bubble_case(nx=16, ny=16, nz=8)
    machine = MultiGpuAsuca(case.grid, case.ref, 2, 2, case.model.config)
    machine.attach_devices()
    session = TraceSession("warm-bubble-2x2")
    with use_session(session):
        driver = machine.driver()
        states = driver.scatter(case.state)
        for i in range(N_STEPS):
            states = driver.step(states, i)
    for r, device in enumerate(machine.devices):
        session.collect_device(device, rank=r)
    session.collect_comm(machine.comm)
    session.finalize(steps=N_STEPS)
    return session, machine


def test_ctf_event_schema(traced_run):
    """Every event satisfies the CTF field contract (ph/ts/dur/pid/tid)
    without needing a browser."""
    session, _ = traced_run
    doc = chrome_trace(session)
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    for ev in doc["traceEvents"]:
        assert ev["ph"] in KNOWN_PH
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        if ev["ph"] == "X":
            assert isinstance(ev["name"], str)
            assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
        elif ev["ph"] in ("s", "f"):
            assert "id" in ev and "ts" in ev
        elif ev["ph"] == "i":
            assert "ts" in ev


def test_ctf_has_rank_tracks_and_event_kinds(traced_run):
    session, _ = traced_run
    doc = chrome_trace(session)
    evs = doc["traceEvents"]
    names = {ev["args"]["name"] for ev in evs
             if ev["ph"] == "M" and ev["name"] == "process_name"}
    assert {"rank0", "rank1", "rank2", "rank3"} <= names  # >= 4 rank tracks
    cats = {ev.get("cat") for ev in evs if ev["ph"] == "X"}
    assert {"kernel", "h2d", "d2h"} <= cats           # kernel + copy events
    assert any(ev["ph"] == "s" for ev in evs)          # message flow arrows
    assert any(ev["ph"] == "f" for ev in evs)


def test_trace_json_round_trips(traced_run, tmp_path):
    session, _ = traced_run
    path = write_chrome_trace(session, str(tmp_path / "trace.json"))
    doc = json.load(open(path))
    assert doc["otherData"]["session"] == "warm-bubble-2x2"
    assert len(doc["traceEvents"]) > 100


def test_jsonl_stream(traced_run, tmp_path):
    session, _ = traced_run
    path = write_jsonl(session, str(tmp_path / "trace.jsonl"))
    lines = [json.loads(line) for line in open(path)]
    assert lines[0] == {"type": "session", "name": "warm-bubble-2x2"}
    types = {line["type"] for line in lines}
    assert {"span", "device_op", "flow", "metrics"} <= types
    assert lines[-1]["type"] == "metrics"
    assert len(lines) == sum(1 for _ in jsonl_events(session))


def test_counter_series_exports_as_ctf_counter_events():
    session = TraceSession("counters")
    for t, depth in ((0.0, 0), (0.1, 3), (0.2, 1)):
        session.record_counter("queue.depth", depth, t, pid="service")
    session.record_counter("gpus", 2, 0.1, pid="service", series="in_use")
    session.finalize()

    doc = chrome_trace(session)
    cs = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
    assert len(cs) == 4
    depths = [ev for ev in cs if ev["name"] == "queue.depth"]
    assert [ev["args"]["value"] for ev in depths] == [0, 3, 1]
    assert [ev["ts"] for ev in depths] == [0, 100_000, 200_000]  # us
    gpus = next(ev for ev in cs if ev["name"] == "gpus")
    assert gpus["args"] == {"in_use": 2}

    jl = [line for line in jsonl_events(session)
          if line["type"] == "counter"]
    assert len(jl) == 4
    assert jl[0]["name"] == "queue.depth"


def test_metrics_agree_with_timeline_and_traffic(traced_run):
    """The registry's numbers are the same ones OpStats and
    TrafficStats report for the identical run."""
    session, machine = traced_run
    m = session.metrics
    kernels = copies_h2d = copies_d2h = 0
    total_ops = 0
    for device in machine.devices:
        s = OpStats.of(device.timeline)
        total_ops += s.op_count
        kernels += sum(1 for op in device.timeline if op.kind == "kernel")
        copies_h2d += sum(op.bytes_moved for op in device.timeline
                          if op.kind == "h2d")
        copies_d2h += sum(op.bytes_moved for op in device.timeline
                          if op.kind == "d2h")
    assert m.counter("kernel.launches").value == kernels
    assert m.gauge("kernel.launches_per_step").value == kernels / N_STEPS
    assert m.counter("h2d.bytes").value == pytest.approx(copies_h2d)
    assert m.counter("d2h.bytes").value == pytest.approx(copies_d2h)
    assert m.gauge("pcie.bytes").value == pytest.approx(copies_h2d + copies_d2h)
    stats = machine.comm.stats
    assert m.counter("halo.bytes").value == stats.bytes_total
    assert m.counter("halo.messages").value == stats.messages
    assert (m.gauge("halo.bytes_per_step").value
            == pytest.approx(stats.bytes_total / N_STEPS))
    assert len(session.device_ops) == total_ops
    # modeled sustained GFlops: aggregate flops over the common makespan
    flops = sum(d.total_flops() for d in machine.devices)
    makespan = max(d.elapsed() for d in machine.devices)
    assert m.gauge("gflops.sustained").value == pytest.approx(
        flops / makespan / 1e9)
    assert m.gauge("gflops.sustained").value > 0


def test_flows_cover_message_log(traced_run):
    session, machine = traced_run
    assert len(session.flows) == len(machine.comm.message_log) > 0
    for f in session.flows:
        assert f.ts_dst >= f.ts_src >= 0.0
        assert f.src_pid.startswith("rank") and f.dst_pid.startswith("rank")


def test_summary_text_mentions_everything(traced_run):
    session, _ = traced_run
    text = summary_text(session)
    for token in ("warm-bubble-2x2", "rank0", "rank3", "kernel",
                  "halo traffic by rank pair", "gflops.sustained"):
        assert token in text, token


def test_single_device_gflops_matches_runtime():
    """Single-GPU traced run: the registry's sustained-GFlops gauge is
    exactly the runner's own report."""
    from repro.gpu.runtime import GpuAsucaRunner
    from repro.workloads.mountain_wave import make_mountain_wave_case

    case = make_mountain_wave_case(nx=16, ny=8, nz=10, dx=2000.0,
                                   ztop=12000.0, dt=4.0, ns=4)
    runner = GpuAsucaRunner(case.model)
    session = TraceSession("single")
    with use_session(session):
        driver = runner.driver()
        states = driver.scatter(case.state)
        for i in range(2):
            states = driver.step(states, i)
        runner.download(states[0])
    session.collect_device(runner.device, rank=0)
    session.finalize(steps=2)
    assert session.metrics.gauge("gflops.sustained").value == pytest.approx(
        runner.sustained_gflops())


# ------------------------------------------------ one codec, two formats
RECORD_LISTS = [attr for _cls, attr, _renames in RECORD_TYPES.values()]
#: the fields the Chrome view rounds to 1 ns (microseconds, 3 decimals)
TIME_FIELDS = {"ts", "dur", "ts_src", "ts_dst"}

_label = st.text(min_size=1, max_size=6)          # non-ASCII included
_seconds = st.one_of(st.just(0.0), st.floats(0.0, 1e4))
_number = st.floats(-1e12, 1e12)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**9, 10**9),
              _number, st.text(max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_args = st.dictionaries(st.text(max_size=5), _json, max_size=3)
# a Chrome 'X' slice is told apart by its category alone: a host span
# may not borrow a device-op kind or the flow-anchor category
_cat = _label.filter(lambda c: c not in OP_KINDS and c != "msg")
_records = st.one_of(
    st.builds(SpanRecord, name=st.text(max_size=8), ts=_seconds,
              dur=_seconds, pid=_label, tid=_label, cat=_cat, args=_args),
    st.builds(InstantRecord, name=st.text(max_size=8), ts=_seconds,
              pid=_label, tid=_label, cat=_cat, args=_args),
    st.builds(DeviceOpRecord, name=st.text(max_size=8),
              kind=st.sampled_from(sorted(OP_KINDS)), ts=_seconds,
              dur=_seconds, pid=_label, tid=_label,
              flops=st.floats(0.0, 1e15), bytes_moved=st.floats(0.0, 1e15),
              tag=st.text(max_size=5),
              measured=st.none() | st.dictionaries(
                  st.sampled_from(["flops", "bytes_read", "bytes_written"]),
                  st.floats(0.0, 1e15))),
    st.builds(CounterRecord, name=st.text(max_size=8), ts=_seconds,
              value=_number, pid=_label, series=_label),
    st.builds(FlowRecord, name=st.text(max_size=8),
              flow_id=st.integers(0, 2**40), src_pid=_label, src_tid=_label,
              ts_src=_seconds, dst_pid=_label, dst_tid=_label,
              ts_dst=_seconds, args=_args),
)


@st.composite
def _sessions(draw):
    session = TraceSession(draw(st.text(max_size=8)))
    for rec in draw(st.lists(_records, max_size=12)):
        session.add(rec)
    session.metrics.counter("drawn.count").inc(draw(st.floats(0.0, 1e9)))
    session.metrics.gauge("drawn.gauge").set(draw(_number))
    for value in draw(st.lists(st.floats(0.0, 1e6), max_size=4)):
        session.metrics.histogram("drawn.hist").observe(value)
    return session


def _assert_same_records(loaded, session, *, time_tol):
    assert loaded.name == session.name
    assert loaded.metrics_dict() == session.metrics.as_dict()
    for attr in RECORD_LISTS:
        got, want = getattr(loaded, attr), getattr(session, attr)
        if not time_tol:
            assert got == want, attr
            continue
        assert len(got) == len(want), attr
        for a, b in zip(got, want):
            assert type(a) is type(b)
            for key, value in dataclasses.asdict(b).items():
                if key in TIME_FIELDS:
                    assert abs(getattr(a, key) - value) <= time_tol, key
                else:
                    assert getattr(a, key) == value, key


@settings(max_examples=60, deadline=None)
@given(session=_sessions())
def test_any_session_reads_back_as_written_from_either_format(session):
    """load(jsonl(s)) == s exactly, load(chrome(s)) == s within the 1 ns
    rounding of the time fields and exactly elsewhere (series, cat, args,
    measured, every label), and a loaded session re-exports to the bytes
    it was loaded from."""
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = write_jsonl(session, str(Path(tmp) / "s.jsonl"))
        from_jsonl = load_trace(jsonl)
        _assert_same_records(from_jsonl, session, time_tol=0.0)
        again = write_jsonl(from_jsonl, str(Path(tmp) / "again.jsonl"))
        assert Path(again).read_bytes() == Path(jsonl).read_bytes()

        chrome = write_chrome_trace(session, str(Path(tmp) / "s.json"))
        from_chrome = load_trace(chrome)
        _assert_same_records(from_chrome, session, time_tol=1e-9)
        again = write_chrome_trace(from_chrome, str(Path(tmp) / "again.json"))
        assert Path(again).read_bytes() == Path(chrome).read_bytes()


def test_both_formats_of_a_multi_rank_session_load_the_same(traced_run,
                                                            tmp_path):
    """Regression: the Chrome reader used to file the two anchor slices
    of every flow as host spans and count 's' and 'f' separately, so one
    session loaded with 25x the spans and twice the flows from its
    Chrome file."""
    session, _ = traced_run
    from_jsonl = load_trace(write_jsonl(session, str(tmp_path / "t.jsonl")))
    from_chrome = load_trace(
        write_chrome_trace(session, str(tmp_path / "t.json")))
    for attr in RECORD_LISTS:
        assert (len(getattr(from_chrome, attr)) == len(getattr(from_jsonl, attr))
                == len(getattr(session, attr))), attr
    assert session.flows and from_jsonl.flows == session.flows
    for pid, ops in session.ops_by_pid().items():
        live = OpStats.of(ops)
        assert OpStats.of(from_jsonl.ops_by_pid()[pid]) == live
        back = OpStats.of(from_chrome.ops_by_pid()[pid])
        assert back.op_count == live.op_count
        assert back.makespan == pytest.approx(live.makespan, abs=1e-6)
        assert back.busy_by_kind == pytest.approx(live.busy_by_kind, abs=1e-6)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("stem, counts", [
    # spans, instants, device ops, counters, flows
    ("trace_2x2", [137, 0, 856, 0, 1600]),
    ("serve_30", [37, 2, 0, 222, 0]),
])
def test_artifacts_of_the_previous_format_owner_still_load(stem, counts,
                                                           tmp_path):
    """``data/`` holds a one-step 2x2 ``repro trace`` and a 30-job
    ``repro serve --no-execute``, Chrome + JSONL each, written by the
    commit before the codec: no on-disk format moved."""
    for suffix, write in ((".jsonl", write_jsonl),
                          (".json", write_chrome_trace)):
        source = DATA / (stem + suffix)
        loaded = load_trace(str(source))
        assert [len(getattr(loaded, a)) for a in RECORD_LISTS] == counts
        again = write(loaded, str(tmp_path / ("again" + suffix)))
        assert Path(again).read_bytes() == source.read_bytes()


def test_the_documented_record_table_is_the_codec_table():
    """docs/OBSERVABILITY.md prints one row per record type: the class,
    the event keys in order, the CTF phases.  All three must be what the
    codec and the Chrome view actually do."""
    import re

    from repro.obs import to_event

    doc = (Path(__file__).parents[2] / "docs" / "OBSERVABILITY.md").read_text()
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in doc.splitlines()
            if re.match(r"\| `\w+` \| `\w+Record` \|", line)]
    assert [row[0].strip("`") for row in rows] == list(RECORD_TYPES)

    sample = {
        "span": SpanRecord("n", 0.0, 1.0),
        "instant": InstantRecord("n", 0.0),
        "device_op": DeviceOpRecord("n", "kernel", 0.0, 1.0, "rank0", "stream0",
                                    measured={"flops": 1.0}),
        "counter": CounterRecord("n", 0.0, 1.0),
        "flow": FlowRecord("n", 7, "rank0", "comm", 0.0, "rank1", "comm", 1.0),
    }
    for etype, cls_name, keys, ctf in rows:
        etype, rec = etype.strip("`"), sample[etype.strip("`")]
        assert cls_name.strip("`") == type(rec).__name__
        written = [f"{key}.{sub}" if key in ("src", "dst") else key
                   for key, value in to_event(rec).items()
                   for sub in (value if key in ("src", "dst") else [None])]
        assert re.findall(r"`([\w.]+)`", keys) == written[1:]   # after "type"
        session = TraceSession("one")
        session.add(rec)
        phases = {ev["ph"] for ev in chrome_trace(session)["traceEvents"]}
        assert set(re.findall(r"`([XiCsf])`", ctf)) == phases - {"M"}
