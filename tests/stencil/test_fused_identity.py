"""The ``fused`` backend's core contract: bit-identical results.

The compiled bodies change where temporaries live and in which order
slices, shifts and selects are applied — never an arithmetic op or its
operands — so every prognostic field of a fused run must equal the
reference run, every oracle, bit for bit (``np.array_equal``, no
tolerance; the byte-level suite is tests/stencil/test_native.py).
Checked on both tier-1 workloads end-to-end through the run facade.
"""
import numpy as np
import pytest

from repro.api import Experiment, RunSpec
from repro.stencil import native


def _run(workload: str, backend: str, **kw):
    spec = RunSpec(workload=workload, steps=3, nx=16, ny=16, nz=12,
                   stencil_backend=backend, **kw)
    exp = Experiment(spec).prepare()
    result = exp.run()
    return exp, result


@pytest.mark.parametrize("workload", ["shear-layer", "warm-bubble"])
def test_fused_run_is_bit_identical(workload):
    exp_ref, ref = _run(workload, "reference")
    exp_fused, fused = _run(workload, "fused")

    for name in ref.state.prognostic_names():
        assert np.array_equal(ref.state.get(name), fused.state.get(name)), \
            f"{workload}: {name} differs between reference and fused"
    for q in getattr(ref.state, "q", {}):
        assert np.array_equal(ref.state.q[q], fused.state.q[q]), q

    # the fused run genuinely took the compiled path where there is one
    lib = native.kernels()
    assert exp_fused.executor.backend == "fused"
    assert (fused.stencil_stats["accelerated"] > 0) == (lib is not None)
    # ... and the reference run never took a compiled body
    assert exp_ref.executor.accelerated == 0
    # nothing is taken per call: the pool counters of the old layer read 0
    assert fused.stencil_stats["allocations"] == 0
    assert fused.stencil_stats["reuses"] == 0


def test_fused_diagnostics_match_reference():
    _, ref = _run("warm-bubble", "reference")
    _, fused = _run("warm-bubble", "fused")
    assert ref.diagnostics.max_w == fused.diagnostics.max_w
    assert ref.diagnostics.min_theta == fused.diagnostics.min_theta
    assert ref.diagnostics.max_theta == fused.diagnostics.max_theta


def test_fused_multigpu_matches_reference_multigpu():
    """The executor context wraps the decomposed driver too: a fused
    2x2 run gathers to the same bits as the reference 2x2 run."""
    _, ref = _run("shear-layer", "reference", ranks=(2, 2))
    _, fused = _run("shear-layer", "fused", ranks=(2, 2))
    for name in ref.state.prognostic_names():
        assert np.array_equal(ref.state.get(name), fused.state.get(name)), name
