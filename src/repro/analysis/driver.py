"""Orchestration for ``repro analyze``: the three passes over the repo's
real entry points.

* :func:`lint_pass` — asuca-lint over a source tree;
* :func:`racecheck_overlap_methods` — schedule one long step under each
  of the paper's four named overlap methods
  (:data:`repro.optimeline.METHOD_NAMES`: serial, + pipeline,
  + kernel division, + fusion) and racecheck every timeline;
* :func:`sanitized_gpu_smoke` — a short single-GPU run
  (upload -> steps -> download -> teardown) under a memcheck tracker and
  a final racecheck sweep;
* :func:`sanitized_multigpu_smoke` — a decomposed run with per-rank
  virtual devices, each rank's timeline racechecked and the rank devices
  memchecked;
* the whole-program dataflow pass
  (:func:`repro.analysis.dataflow.dataflow_pass`) — the step graph built
  from the model loop checked for stale halos, liveness, fusion drift,
  and precision leaks (LINT04..LINT08);
* :func:`run_all` — everything above folded into one :class:`Report`.

The smoke helpers accept ``seed=...`` fault seeds so the test suite (and
``repro analyze --seed-hazard``) can demonstrate that a planted bug is
caught with the exact code/location — the sanitizer's own regression
fixtures.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .findings import CODES, Finding, Report, stale_suppressions
from .lint import lint_launches, lint_paths, lint_stencils
from .memcheck import memcheck_session
from .racecheck import racecheck_device

__all__ = ["lint_pass", "racecheck_overlap_methods", "sanitized_gpu_smoke",
           "sanitized_multigpu_smoke", "run_all"]


def lint_pass(root: str | Path) -> tuple[list[Finding], list[Finding]]:
    """asuca-lint over ``root``: the AST rule (LINT01) plus the
    declaration-driven launch check (LINT02) and stencil halo probes
    (LINT03); returns (findings, suppressed)."""
    findings, suppressed = lint_paths(root)
    lf, ls = lint_launches()
    sf, ss = lint_stencils()
    return findings + lf + sf, suppressed + ls + ss


def drop_corner_edge(schedule):
    """The ``missing-event`` fixture: ``schedule`` minus the first
    variable's corner dependency (x MPI after y MPI, Fig. 8).  The clock
    cannot see it — the single MPI engine still serializes the transfers —
    which is exactly the class of latent hazard racecheck exists to catch."""
    first, *rest = schedule.groups
    steps = tuple(replace(step, mpi_after=None) if step.name == "_x" else step
                  for step in first.steps)
    return replace(schedule, groups=(replace(first, steps=steps), *rest))


def racecheck_overlap_methods(*, seed_hazard: str | None = None) -> list[Finding]:
    """Schedule one long step per named overlap method and racecheck the
    resulting device timelines.  ``seed_hazard='missing-event'`` runs the
    :func:`drop_corner_edge` edit of each method's schedule instead."""
    from ..dist.overlap import OverlapModel, schedule_for
    from ..optimeline import METHOD_NAMES

    edit = drop_corner_edge if seed_hazard == "missing-event" else (lambda s: s)
    model = OverlapModel()
    findings: list[Finding] = []
    for name, method in METHOD_NAMES.items():
        for f in racecheck_device(model.run(edit(schedule_for(method))).device):
            f.device = f"{f.device or 'gpu'}:{name}"
            findings.append(f)
    return findings


def sanitized_gpu_smoke(
    workload: str = "shear-layer", steps: int = 2, *,
    seed: str | None = None, session=None,
) -> list[Finding]:
    """Short single-GPU run under the full dynamic sanitizer.

    ``seed='uaf'`` plants the runner-teardown use-after-free the test
    suite asserts on: the staged arrays are freed behind the runner's
    back and the output download then reads a dead array.
    """
    from ..api import make_case
    from ..gpu.device import GPUDevice
    from ..gpu.runtime import GpuAsucaRunner
    from ..gpu.spec import TESLA_S1070

    case = make_case(workload)
    device = GPUDevice(TESLA_S1070)
    with memcheck_session(device) as tracker:
        runner = GpuAsucaRunner(case.model, device)
        runner.upload(case.state)
        state = case.state
        for _ in range(steps):
            state = runner.step(state)
        if seed == "uaf":
            # planted fault: free the staged arrays without telling the
            # runner, then download as usual — a use-after-free
            for d in runner._device_arrays.values():
                d.free()
            runner.download(state, names=["rhou"])
            runner._device_arrays.clear()
        else:
            runner.download(state)
            runner.teardown()
        findings = tracker.finish()
    findings.extend(racecheck_device(device))
    if session is not None:
        session.collect_device(device, rank=0)
    return findings


def sanitized_multigpu_smoke(
    workload: str = "shear-layer", px: int = 2, py: int = 2,
    steps: int = 2, *, session=None,
) -> list[Finding]:
    """Decomposed run with per-rank devices; each rank's timeline is
    racechecked and the devices are memchecked for accounting drift."""
    from ..api import make_case
    from ..dist.multigpu import MultiGpuAsuca

    # widen the decomposed axes past the halo minimum (the shear-layer
    # default is a 4-cell-deep y slab — fine on one rank, unsplittable)
    case = make_case(workload, nx=8 * px, ny=8 * py)
    machine = MultiGpuAsuca(case.grid, case.ref, px, py, case.model.config,
                            relaxation=getattr(case.model, "relaxation",
                                               None))
    devices = machine.attach_devices()
    with memcheck_session(*devices) as tracker:
        states = machine.scatter_state(case.state)
        machine.exchange_all(states, None)
        machine.run(states, steps)
        findings = tracker.finish()
    for rank, dev in enumerate(devices):
        findings.extend(racecheck_device(dev))
        if session is not None:
            session.collect_device(dev, rank=rank)
    if session is not None:
        session.collect_comm(machine.comm)
    return findings


def run_all(
    src_root: str | Path | None = None, *,
    workload: str = "shear-layer", steps: int = 2,
    px: int = 2, py: int = 2, session=None,
    lint: bool = True, racecheck: bool = True, smoke: bool = True,
    dataflow: bool = True, baseline: str | Path | None = None,
    seed_hazard: str | None = None,
) -> Report:
    """Every pass, one report — the engine behind ``repro analyze``.

    ``baseline`` forwards to the dataflow pass (None = the checked-in
    ``analysis/baseline.json``; ``"none"`` disables it).  The report
    grows a ``notes`` attribute carrying the step-graph walker's
    conservative-assumption notes.
    """
    from .dataflow import dataflow_pass

    report = Report()
    notes: list[str] = []
    if lint:
        root = Path(src_root) if src_root else Path(__file__).parents[1]
        found, suppressed = lint_pass(root)
        report.extend(found, passname="asuca-lint")
        report.suppressed.extend(suppressed)
    if dataflow:
        found, suppressed, notes = dataflow_pass(baseline=baseline)
        report.extend(found, passname="dataflow")
        report.suppressed.extend(suppressed)
    if racecheck:
        report.extend(racecheck_overlap_methods(seed_hazard=seed_hazard),
                      passname="racecheck")
    if smoke:
        seed = "uaf" if seed_hazard == "uaf" else None
        report.extend(sanitized_gpu_smoke(workload, steps, seed=seed,
                                          session=session),
                      passname="memcheck")
        report.extend(sanitized_multigpu_smoke(workload, px, py, steps,
                                               session=session),
                      passname="multigpu-smoke")
    if lint or dataflow:
        # stale allow-comments: only codes whose static pass actually ran
        # are provably stale
        ran = {code for code, info in CODES.items()
               if info.kind == "static"
               and ((info.passname == "asuca-lint" and lint)
                    or (info.passname == "dataflow" and dataflow))}
        root = Path(src_root) if src_root else Path(__file__).parents[1]
        report.extend(stale_suppressions([root], report, ran),
                      passname="suppressions")
    report.notes = notes
    if session is not None:
        report.to_session(session)
    return report
