"""Perf-doctor unit tests: critical-path reconstruction on hand-built
device schedules and the pinned Fig. 11 hidden-communication fractions
for each overlap method."""
import pytest

from repro.dist.overlap import method_timelines
from repro.optimeline import METHOD_NAMES
from repro.gpu.device import GPUDevice
from repro.obs.doctor import (
    attribution,
    critical_path,
    diagnose_model,
    diagnose_ops,
)
from repro.obs.doctor.critical_path import base_name

#: Fig. 11-shaped hidden-communication fractions of the model at the
#: paper configuration (interior rank, 320x256x48 mesh); method1+2+3
#: reproduces the paper's "roughly 53%" claim
PINNED_HIDDEN = {
    "serial": 0.0,
    "method1": 0.073,
    "method1+2": 0.551,
    "method1+2+3": 0.548,
}


@pytest.fixture(scope="module")
def timelines():
    return method_timelines()


# ----------------------------------------------------- binding-chain walk
def test_critical_path_follows_dependency_edge():
    """A kernel waiting on an MPI event binds via 'dep', the MPI op via
    stream program order, and the chain covers the whole makespan."""
    dev = GPUDevice()
    s0, s1 = dev.default_stream, dev.create_stream()
    dev.schedule("A", "kernel", s0, 1.0)          # 0.0 .. 1.0
    dev.schedule("H", "h2d", s1, 0.4)             # 0.0 .. 0.4
    dev.schedule("M", "mpi", s1, 0.8)             # 0.4 .. 1.2
    ev = s1.record_event()
    dev.schedule("B", "kernel", s0, 0.5, after=(ev,))   # 1.2 .. 1.7

    path = critical_path(dev.timeline)
    assert [s.name for s in path.segments] == ["H", "M", "B"]
    assert [s.via for s in path.segments] == ["root", "stream", "dep"]
    assert path.makespan == pytest.approx(1.7)
    assert path.coverage == pytest.approx(1.0)
    assert path.time_by_kind == pytest.approx(
        {"h2d": 0.4, "mpi": 0.8, "kernel": 0.5})


def test_critical_path_reconstructs_barrier_front():
    """After device.synchronize() a copy with no stream/engine/dep
    predecessor still binds — to the op that defined the barrier."""
    dev = GPUDevice()
    s0, s1 = dev.default_stream, dev.create_stream()
    dev.schedule("A", "kernel", s0, 1.0)
    dev.synchronize()
    dev.schedule("C", "h2d", s1, 0.5)             # starts at the barrier

    path = critical_path(dev.timeline)
    assert [s.name for s in path.segments] == ["A", "C"]
    assert [s.via for s in path.segments] == ["root", "barrier"]
    assert path.coverage == pytest.approx(1.0)


def test_attribution_groups_variables_and_tracers():
    """Fig. 9 grouping: the ':' role suffix is dropped and the qNN water
    tracers collapse into one row; serial ops are fully on-path."""
    assert base_name("Density:bnd-x") == "Density"
    assert base_name("q11:inner") == "Water tracers"

    dev = GPUDevice()
    s0 = dev.default_stream
    dev.schedule("Density:inner", "kernel", s0, 2.0)
    dev.schedule("Density:bnd-x", "kernel", s0, 1.0)
    dev.schedule("q1:inner", "kernel", s0, 1.0)
    dev.schedule("q2:inner", "kernel", s0, 1.5)

    rows = attribution(dev.timeline, critical_path(dev.timeline))
    assert [r.name for r in rows] == ["Density", "Water tracers"]
    assert rows[0].calls == 2 and rows[0].total == pytest.approx(3.0)
    assert rows[1].calls == 2 and rows[1].total == pytest.approx(2.5)
    for r in rows:                      # serial schedule: all exposed
        assert r.on_path == pytest.approx(r.total)


# ------------------------------------------------- Fig. 11 aggregates
@pytest.mark.parametrize("method", sorted(PINNED_HIDDEN))
def test_hidden_fraction_pinned_to_fig11(timelines, method):
    assert timelines[method].hidden_fraction == pytest.approx(
        PINNED_HIDDEN[method], abs=0.01)


def test_full_overlap_hides_paper_fraction(timelines, paper):
    """Acceptance anchor: method1+2+3 hides ~53% of communication."""
    st = timelines["method1+2+3"]
    assert st.hidden_fraction == paper("hidden_pct", 1e-2)
    # excluding barrier skew, communication is almost completely hidden
    assert st.hidden_fraction_comm_only > 0.85


def test_critical_path_covers_model_step(timelines):
    """The walk explains the model's whole makespan — nothing on the
    schedule starts without a recoverable reason."""
    diag = diagnose_ops(timelines["method1+2+3"].device.timeline)
    assert diag.path.coverage == pytest.approx(1.0, abs=1e-6)
    assert diag.bottleneck in ("compute", "exposed communication",
                               "barrier skew", "idle")
    names = {r.name for r in diag.rows}
    assert "Water tracers" in names and "Helmholtz-like eq." in names


# ------------------------------------------------------------ model mode
def test_diagnose_model_is_self_consistent():
    report = diagnose_model()
    assert report.ok, report.findings
    assert set(report.verdict.method_totals) == set(METHOD_NAMES)
    assert report.hidden_fraction == pytest.approx(0.548, abs=0.01)
    # the gate flips the exit status without touching the diagnosis
    assert report.exit_status() == 0
    assert report.require_min_hidden(0.99).exit_status() == 1


def test_diagnose_model_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown overlap method"):
        diagnose_model(method="method4")

