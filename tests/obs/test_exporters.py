"""A 2x2-rank decomposed warm-bubble run under tracing must export a
valid Chrome Trace Format JSON with per-rank device tracks, kernel /
copy / message events, and metrics that agree with the existing
OpStats / TrafficStats numbers — the acceptance criteria of the
observability layer."""
import json

import pytest

from repro.dist.multigpu import MultiGpuAsuca
from repro.obs import (
    TraceSession,
    chrome_trace,
    jsonl_events,
    summary_text,
    use_session,
    write_chrome_trace,
    write_jsonl,
)
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
        states = machine.scatter_state(case.state)
        machine.exchange_all(states, None)
        for _ in range(N_STEPS):
            states = machine.step(states)
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
        runner.upload(case.state)
        st = runner.run(case.state, 2)
        runner.download(st)
    session.collect_device(runner.device, rank=0)
    session.finalize(steps=2)
    assert session.metrics.gauge("gflops.sustained").value == pytest.approx(
        runner.sustained_gflops())
