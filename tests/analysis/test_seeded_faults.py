"""Seeded-fault acceptance tests: a planted hazard in one overlap method
and a planted use-after-free in the runner teardown path must each yield
EXACTLY the expected finding — and the clean paths zero findings."""
from repro.analysis import racecheck_device
from repro.analysis.driver import (
    drop_corner_edge,
    racecheck_overlap_methods,
    sanitized_gpu_smoke,
    sanitized_multigpu_smoke,
)
from repro.dist.overlap import OverlapModel, schedule_for
from repro.optimeline import Overlap


# ------------------------------------------------------------ clean paths
def test_all_overlap_methods_are_race_free():
    assert racecheck_overlap_methods() == []


def test_clean_gpu_smoke_has_no_findings():
    assert sanitized_gpu_smoke(steps=1) == []


def test_clean_multigpu_smoke_has_no_findings():
    assert sanitized_multigpu_smoke(steps=1) == []


# --------------------------------------------------- seeded missing event
def test_seeded_missing_event_yields_exactly_one_race():
    """Dropping the corner dependency (x MPI waits on y MPI, Fig. 8) in
    the kernel-division schedule: one RACE01, on the right ops, streams
    and buffer — and recurring across all substeps as one deduped
    finding."""
    model = OverlapModel()
    timeline = model.run(drop_corner_edge(schedule_for(Overlap.ALL)))
    findings = racecheck_device(timeline.device)

    assert len(findings) == 1
    f = findings[0]
    assert f.code == "RACE01"
    assert f.op == "Momentum (x):mpi_y"
    assert f.op_other == "Momentum (x):mpi_x"
    assert f.buffer == "Momentum (x):host_y"
    assert f.stream == 1              # y-exchange stream of the Fig. 8 trio
    assert f.occurrences == model.nsub
    assert f.t0 is not None and f.t0 >= 0.0


def test_seeded_schedule_is_timing_identical():
    """The seed removes an ordering edge, not time: the single MPI engine
    still serializes the transfers, so the hazard is invisible to the
    clock — the exact class racecheck exists for."""
    clean = OverlapModel().step_timeline()
    seeded = OverlapModel().run(drop_corner_edge(schedule_for(Overlap.ALL)))
    assert seeded.makespan == clean.makespan


# -------------------------------------------------------- seeded teardown
def test_seeded_uaf_yields_exactly_one_mem01():
    findings = sanitized_gpu_smoke(steps=1, seed="uaf")
    assert len(findings) == 1
    f = findings[0]
    assert f.code == "MEM01"
    assert f.buffer is not None and f.buffer.startswith("rhou@")
    assert f.op is not None and f.op.startswith("d2h:")
    assert f.device == "gpu0"
