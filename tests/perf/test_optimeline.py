"""Properties of the one op-interval algebra (repro.optimeline.OpStats)
on generated device schedules: the k-in-flight profile partitions the
makespan, weighs up to the summed durations, and the same numbers come
out of live Ops, collected DeviceOpRecords and an exported-and-reloaded
trace."""
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.device import GPUDevice
from repro.obs import TraceSession, write_chrome_trace, write_jsonl
from repro.obs.doctor import load_trace
from repro.optimeline import OpStats, engine_for

#: durations are multiples of 2**-10 s, so every start/end/sum below is
#: exact in binary floating point and the properties hold with ``==``
_TICK = 1.0 / 1024

_op = st.tuples(
    st.sampled_from(["kernel", "h2d", "d2h", "mpi"]),
    st.integers(0, 2),                                  # stream
    st.integers(0, 40),                                 # duration [ticks]
    st.sampled_from(["", "compute", "mpi", "skew", "halo"]),
    st.booleans(),                                      # barrier first?
)


def _schedule(ops, copy_engines):
    dev = GPUDevice(copy_engines=copy_engines)
    streams = [dev.default_stream, dev.create_stream(), dev.create_stream()]
    for kind, sid, ticks, tag, barrier in ops:
        if barrier:
            dev.synchronize()
        dev.schedule(f"{kind}{sid}", kind, streams[sid], ticks * _TICK,
                     tag=tag)
    return dev


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=30), copy_engines=st.integers(1, 2))
def test_profile_partitions_the_makespan(ops, copy_engines):
    dev = _schedule(ops, copy_engines)
    s = OpStats.of(dev.timeline)
    assert s.op_count == len(ops)
    assert s.makespan == dev.elapsed()
    assert sum(s.profile.values()) == s.makespan
    assert (sum(k * t for k, t in s.profile.items())
            == sum(op.duration for op in dev.timeline))
    for kind, busy in s.busy_by_kind.items():
        assert busy == dev.busy_time(kind)
    assert s.skew == dev.busy_time("mpi", tag="skew")
    assert s.communication == s.mpi + s.gpu_cpu
    assert 0.0 <= s.hidden_fraction <= s.hidden_fraction_comm_only <= 1.0
    # engines serialize, so at most one op per engine is ever in flight
    assert max(s.profile, default=0) <= 2 + copy_engines


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_op, max_size=30))
def test_same_stats_from_ops_records_and_reloaded_traces(ops):
    dev = _schedule(ops, 1)
    live = OpStats.of(dev.timeline)
    session = TraceSession("prop")
    pid = session.collect_device(dev, rank=0)
    assert OpStats.of(session.device_ops) == live

    with tempfile.TemporaryDirectory() as tmp:
        jsonl = write_jsonl(session, str(Path(tmp) / "t.jsonl"))
        chrome = write_chrome_trace(session, str(Path(tmp) / "t.json"))
        from_jsonl = load_trace(jsonl).ops_by_pid().get(pid, [])
        from_chrome = load_trace(chrome).ops_by_pid().get(pid, [])
    assert OpStats.of(from_jsonl) == live

    # Chrome timestamps are rounded to 1 ns
    back = OpStats.of(from_chrome)
    tol = 2e-9 * max(1, len(ops))
    assert back.op_count == live.op_count
    assert back.makespan == pytest.approx(live.makespan, abs=tol)
    assert back.busy_by_kind == pytest.approx(live.busy_by_kind, abs=tol)
    assert back.skew == pytest.approx(live.skew, abs=tol)
    assert sum(back.profile.values()) == pytest.approx(back.makespan, abs=tol)


def test_engine_map():
    assert engine_for("kernel") == "compute"
    assert engine_for("mpi", 2) == "mpi"
    assert engine_for("h2d") == engine_for("d2h") == "copy0"
    assert (engine_for("h2d", 2), engine_for("d2h", 2)) == ("copy0", "copy1")
