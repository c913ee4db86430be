"""Compute-sanitizer for the virtual GPU machine (docs/ANALYSIS.md).

Three passes over the reproduction's real entry points, one shared
finding format:

* **racecheck** (:mod:`repro.analysis.racecheck`) — happens-before
  checking of device op timelines, after ``cuda-memcheck --tool
  racecheck``: conflicting accesses on different streams with no event
  edge are hazards even when the modeled engines happen to serialize
  them;
* **memcheck** (:mod:`repro.analysis.memcheck`) — DeviceArray lifecycle
  tracking: use-after-free, double free, leaks at teardown,
  uninitialized reads, allocator accounting drift;
* **asuca-lint** (:mod:`repro.analysis.lint`) — enforcement of the
  paper's structural invariants: no PCIe transfers inside the step loop
  and occupancy-valid launch configurations (AST), plus probe-verified
  stencil halo declarations (LINT03 runs each kernel against its
  ``@stencil`` declaration instead of guessing from slices);
* **dataflow** (:mod:`repro.analysis.dataflow`) — stale-halo reads and
  dead dispatches found by running the real drivers under differential
  halo poisoning (:mod:`repro.analysis.poison`), fusion drift and float64
  upcasts found by reading; gated by allow-comments and a baseline file.

``repro analyze`` (the CLI) runs them all and can export the combined
report as SARIF 2.1.0 (:mod:`repro.analysis.sarif`);
:func:`repro.analysis.run_all` is the library entry point.
"""
from .findings import CODES, Finding, Report, codes_table
from .driver import (
    lint_pass,
    racecheck_overlap_methods,
    run_all,
    sanitized_gpu_smoke,
    sanitized_multigpu_smoke,
)
from .dataflow import dataflow_pass
from .lint import lint_launches, lint_paths, lint_stencils
from .memcheck import MemcheckTracker, memcheck_session
from .racecheck import (
    happens_before,
    happens_before_clocks,
    racecheck_device,
    racecheck_ops,
)
from .sarif import to_sarif, write_sarif

__all__ = [
    "CODES", "Finding", "Report", "codes_table",
    "lint_launches", "lint_pass", "lint_paths", "lint_stencils",
    "dataflow_pass",
    "racecheck_overlap_methods", "run_all",
    "sanitized_gpu_smoke", "sanitized_multigpu_smoke",
    "MemcheckTracker", "memcheck_session",
    "happens_before", "happens_before_clocks",
    "racecheck_device", "racecheck_ops",
    "to_sarif", "write_sarif",
]
