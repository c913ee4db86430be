"""Tests of timeline summarization and report formatting."""
import pytest

from repro.gpu.device import GPUDevice
from repro.gpu.spec import TESLA_S1070
from repro.optimeline import OpStats
from repro.perf.report import PAPER, ComparisonReport, format_table


@pytest.fixture
def dev():
    d = GPUDevice(TESLA_S1070)
    s1, s2 = d.create_stream(), d.create_stream()
    d.schedule("k1", "kernel", s1, 2.0, flops=1e9, tag="compute")
    d.schedule("c1", "h2d", s2, 1.0, bytes_moved=1e6, tag="gpu_cpu")
    d.schedule("m1", "mpi", s2, 3.0, tag="mpi")
    d.schedule("k1", "kernel", s1, 1.0, tag="compute")
    return d


def test_summarize_busy_times(dev):
    s = OpStats.of(dev.timeline)
    assert s.busy_by_kind == {"kernel": 3.0, "h2d": 1.0, "mpi": 3.0}
    assert s.busy_by_tag["compute"] == 3.0
    assert s.op_count == 4
    assert s.makespan == pytest.approx(4.0)


def test_summarize_overlap_fraction(dev):
    s = OpStats.of(dev.timeline)
    # k1 [0,2] overlaps h2d [0,1] and mpi [1,4]; k2 [2,3] overlaps mpi
    # => concurrency >= 2 during [0,3] of the 4-unit makespan
    assert s.overlap_fraction == pytest.approx(3.0 / 4.0)


def test_summarize_empty():
    s = OpStats.of(GPUDevice(TESLA_S1070).timeline)
    assert s.makespan == 0.0 and s.overlap_fraction == 0.0


# ------------------------------------------------------------------ report
def test_format_table_alignment():
    t = format_table(["a", "quantity"], [[1, 2.5], [30, 0.001]], title="T")
    lines = t.splitlines()
    assert lines[0] == "T"
    assert "quantity" in lines[1]
    assert len(set(len(ln) for ln in lines[1:])) == 1  # aligned rows


def test_comparison_report_pass_fail():
    rep = ComparisonReport("exp")
    rep.add("good", 100.0, 103.0, rel_tol=0.05)
    assert rep.all_within_tolerance()
    rep.add("bad", 100.0, 150.0, rel_tol=0.05)
    assert not rep.all_within_tolerance()
    text = rep.render()
    assert "NO" in text and "yes" in text
    assert "exp" in text


def test_comparison_report_zero_reference():
    rep = ComparisonReport("z")
    rep.add("zero paper value", 0.0, 5.0)
    assert rep.all_within_tolerance()  # zero reference: informational only
    assert "nan" in rep.render()


def test_anchor_rows_come_from_the_paper_table():
    rep = ComparisonReport("a")
    rep.anchor("total_ms", 979.5)
    a = PAPER["total_ms"]
    assert rep.rows == [(a.quantity, a.value, 979.5, a.rel_tol)]
    assert rep.ours == {"total_ms": 979.5}
    assert rep.all_within_tolerance()
    rep.anchor("total_ms", a.value * (1 + 2 * a.rel_tol))
    assert not rep.all_within_tolerance()
