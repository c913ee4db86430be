"""Backend-implementation fixtures with planted declaration drift
(LINT07) and precision leaks (LINT08).

tests/analysis/test_dataflow.py registers these against fixture
``StencilSpec`` declarations and runs
:func:`repro.analysis.dataflow.fusion_findings` /
:func:`~repro.analysis.dataflow.precision_findings` over them.  Keep the
line numbers stable: the ``LINE_*`` constants at the bottom are pinned
by the tests.
"""
import numpy as np


def blend_ref(phi, grid):
    """Reference kernel for the fixture spec 'blend' (clean)."""
    out = np.zeros_like(phi)
    out[1:-1] = 0.5 * (phi[2:] + phi[:-2])
    return out


def blend_fused_bad_signature(phi):
    """BUG: drops the reference's ``grid`` parameter."""
    return 0.5 * (phi[2:] + phi[:-2])


def blend_fused_ok(phi, grid):
    out = np.zeros_like(phi)
    out[1:-1] = 0.5 * (phi[2:] + phi[:-2])
    return out


def blend_fused_upcast(phi, grid):
    acc = np.zeros(phi.shape)   # BUG: float64 regardless of phi.dtype
    acc[1:-1] = 0.5 * (phi[2:] + phi[:-2])
    return acc


def blend_fused_upcast_suppressed(phi, grid):
    acc = np.zeros(phi.shape)  # sanitizer: allow[LINT08] diag path, f64 wanted
    acc[1:-1] = 0.5 * (phi[2:] + phi[:-2])
    return acc


def blend_fused_suppressed(phi):  # sanitizer: allow[LINT07] shim binds grid
    return 0.5 * (phi[2:] + phi[:-2])


#: the planted-bug lines the tests pin (1-based)
LINE_BAD_SIGNATURE = 21
LINE_UPCAST = 33
