"""A long step's launches as one timeline entry: ``GPUDevice.place_run``
against the per-op ``schedule`` loop it replaces, the ``Timeline``
sequence it is read through, and what the runs save in memory."""
import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment, RunSpec
from repro.gpu.device import Event, GPUDevice, LaunchTable, Timeline
from repro.gpu.runtime import price_step
from repro.gpu.asuca_kernels import step_schedule
from repro.gpu.coalescing import ArrayOrder
from repro.gpu.spec import Precision, TESLA_S1070


def _fields(op):
    """Every field of an op, floats by their bits."""
    return (op.name, op.kind, op.stream, op.start.hex(), op.end.hex(),
            type(op.start), type(op.end), op.flops, op.bytes_moved, op.tag,
            op.seq, op.epoch, op.deps, op.accesses, op.measured)


def _device_state(dev):
    return (sorted((k, v.hex()) for k, v in dev._engines.items()),
            [(s.available_at.hex(), s.last_op and _fields(s.last_op),
              [d.seq for d in s._pending_deps]) for s in dev.streams],
            dev._makespan.hex(), dev._seq, dev._epoch, len(dev.timeline))


_durations = st.one_of(st.just(0.0), st.floats(1e-9, 1e-1))
_rows = st.lists(st.tuples(
    st.sampled_from(["advection", "helmholtz", "eos"]),
    st.sampled_from(["long", "short"]),
    st.integers(0, 5),
    st.sampled_from([64.0, 4096.0]),
    _durations,
    st.floats(0.0, 1e9),
    st.floats(0.0, 1e9),
), max_size=6)
#: what happens on the device before the run: an op on another stream
#: (a kernel shares the compute engine), a pending wait_event on the
#: run's stream, a device synchronize
_prior = st.lists(st.one_of(
    st.tuples(st.just("op"), st.sampled_from(["kernel", "h2d", "d2h", "mpi"]),
              _durations),
    st.tuples(st.just("wait"), st.just(""), st.just(0.0)),
    st.tuples(st.just("sync"), st.just(""), st.just(0.0)),
), max_size=5)


def _drive(rows, prior, halos, measured, *, as_run):
    dev = GPUDevice(TESLA_S1070)
    run_stream, other = dev.default_stream, dev.create_stream()
    for action, kind, duration in prior:
        if action == "op":
            dev.schedule(f"pre_{kind}", kind, other, duration, tag="pre")
        elif action == "wait":
            run_stream.wait_event(other.record_event())
        else:
            dev.synchronize()
    table = LaunchTable(rows)
    per_launch = ([{"flops": float(i)} for i in range(len(table))]
                  if measured else None)
    if as_run:
        dev.place_run(run_stream, table, measured=per_launch)
    else:
        for i, (name, tag, duration, flops, nbytes) in enumerate(zip(
                table.names, table.tags, table.durations.tolist(),
                table.flops, table.bytes_moved)):
            op = dev.schedule(name, "kernel", run_stream, duration,
                              flops=flops, bytes_moved=nbytes, tag=tag)
            if per_launch is not None:
                op.measured = per_launch[i]
    for kind, duration in halos:
        dev.schedule(f"halo_{kind}", kind, run_stream, duration, tag="halo")
    return dev


@settings(max_examples=200, deadline=None)
@given(rows=_rows, prior=_prior, measured=st.booleans(),
       halos=st.lists(st.tuples(st.sampled_from(["h2d", "d2h"]), _durations),
                      max_size=3))
def test_place_run_equals_the_schedule_loop(rows, prior, halos, measured):
    run = _drive(rows, prior, halos, measured, as_run=True)
    loop = _drive(rows, prior, halos, measured, as_run=False)
    assert [_fields(op) for op in run.timeline] == \
           [_fields(op) for op in loop.timeline]
    assert _device_state(run) == _device_state(loop)


@settings(max_examples=100, deadline=None)
@given(rows=_rows, prior=_prior, data=st.data())
def test_timeline_is_a_sequence_of_ops(rows, prior, data):
    dev = _drive(rows, prior, [("d2h", 1e-3)], False, as_run=True)
    tl = dev.timeline
    assert isinstance(tl, Timeline)
    ops = list(tl)
    assert [_fields(op) for op in tl] == [_fields(op) for op in ops]
    n = len(ops)
    assert len(tl) == n
    for i in range(-n, n):
        assert _fields(tl[i]) == _fields(ops[i])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            tl[i]
    sl = data.draw(st.slices(n))
    assert [_fields(op) for op in tl[sl]] == [_fields(op) for op in ops[sl]]
    dev.reset()
    assert len(tl) == 0 and list(tl) == [] and tl[:] == []
    op = dev.schedule("after_reset", "kernel", dev.default_stream, 1.0)
    assert (op.seq, op.start, list(tl)) == (0, 0.0, [op])


# --------------------------------------------------------- the clock's guard
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_schedule_rejects_a_duration_that_is_not_a_time(bad):
    """A NaN op used to make every later op start and end at NaN while
    ``elapsed()`` stayed 0.0; an infinite one ended the clock."""
    dev = GPUDevice(TESLA_S1070)
    with pytest.raises(ValueError, match=rf"'bad_op'.*{bad!r}"):
        dev.schedule("bad_op", "kernel", dev.default_stream, bad)
    op = dev.schedule("good", "kernel", dev.default_stream, 1.0)
    assert (op.start, op.end, dev.elapsed(), len(dev.timeline)) == \
           (0.0, 1.0, 1.0, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
def test_a_priced_duration_that_is_not_a_time_names_its_kernel(bad):
    schedule = step_schedule()
    kernel = schedule[1][0]

    class Broken:
        name, tag = kernel.name, kernel.tag

        def price(self, *args):
            return bad, 0.0, 0.0

    with pytest.raises(ValueError, match=rf"kernel '{kernel.name}'.*{bad!r}"):
        price_step([schedule[0], (Broken(), 2)], 4096.0, TESLA_S1070,
                   precision=Precision.SINGLE, order=ArrayOrder.XZY)


def test_an_empty_table_places_nothing():
    dev = GPUDevice(TESLA_S1070)
    other = dev.create_stream()
    dev.schedule("k", "kernel", other, 1.0)
    dev.default_stream.wait_event(other.record_event())
    dev.place_run(dev.default_stream, LaunchTable([("k", "", 0, 1.0, 1.0,
                                                    0.0, 0.0)]))
    assert len(dev.timeline) == 1 and dev._seq == 1
    assert [d.seq for d in dev.default_stream._pending_deps] == [0]


def test_a_run_keeps_event_provenance():
    dev = GPUDevice(TESLA_S1070)
    table = LaunchTable([("a", "", 2, 1.0, 0.5, 0.0, 0.0),
                         ("b", "", 1, 1.0, 0.25, 0.0, 0.0)])
    dev.place_run(dev.default_stream, table)
    ev = dev.default_stream.record_event()
    assert ev == Event(1.25, op=dev.timeline[-1])
    assert (ev.op.name, ev.op.seq) == ("b", 2)


# ------------------------------------------------------------------ memory
def test_charged_steps_keep_the_device_timelines_small():
    """40 steps of the bench's decomp_2x2 spec: a rank-step used to add
    52 KiB of op objects under repro/gpu/; as one run plus its four halo
    copies it adds about 1.2 KiB."""
    exp = Experiment(RunSpec("real-case", nx=32, ny=32, nz=16,
                             backend="multigpu", ranks=(2, 2),
                             stencil_backend="fused", metrics=True,
                             seed=21)).prepare()
    exp.advance(2)
    only_gpu = [tracemalloc.Filter(True, "*/repro/gpu/*")]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_gpu)
        exp.advance(40)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_gpu)
    finally:
        tracemalloc.stop()
    grown = sum(d.size_diff for d in after.compare_to(before, "filename"))
    rank_steps = 40 * len(exp.machine.devices)
    assert grown / rank_steps <= 2048, grown / rank_steps
