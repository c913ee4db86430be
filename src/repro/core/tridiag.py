"""Batched tridiagonal (Thomas) solver.

The HE-VI scheme reduces the vertically implicit step to one tridiagonal
system per grid column (paper Sec. IV-A-3).  The paper's GPU kernel marches
threads along z while parallelizing over the (x, y) slice; the NumPy
equivalent is a Thomas recurrence over the last axis, vectorized over all
leading axes — the same memory-access structure that motivates the paper's
x-z-y array ordering.

A ``scipy.linalg.solve_banded`` cross-check path exists for the tests.
"""
from __future__ import annotations

import numpy as np

__all__ = ["thomas_solve", "thomas_solve_scipy", "TRIDIAG_FLOPS_PER_POINT"]

#: floats per solved unknown (forward sweep 5, back substitution 3)
TRIDIAG_FLOPS_PER_POINT = 8


def thomas_solve(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve tridiagonal systems along the LAST axis.

    All inputs have the same shape ``(..., n)``; ``sub[..., 0]`` and
    ``sup[..., n-1]`` are ignored.  The systems are::

        sub[k] x[k-1] + diag[k] x[k] + sup[k] x[k+1] = rhs[k]

    Returns ``x`` with the input shape.  No pivoting: the Helmholtz
    operator is strictly diagonally dominant by construction, which the
    assembly asserts.
    """
    n = rhs.shape[-1]
    cp = np.empty_like(rhs)
    dp = np.empty_like(rhs)
    cp[..., 0] = sup[..., 0] / diag[..., 0]
    dp[..., 0] = rhs[..., 0] / diag[..., 0]
    for k in range(1, n):
        denom = diag[..., k] - sub[..., k] * cp[..., k - 1]
        cp[..., k] = sup[..., k] / denom
        dp[..., k] = (rhs[..., k] - sub[..., k] * dp[..., k - 1]) / denom
    x = np.empty_like(rhs)
    x[..., -1] = dp[..., -1]
    for k in range(n - 2, -1, -1):
        x[..., k] = dp[..., k] - cp[..., k] * x[..., k + 1]
    return x


def thomas_solve_scipy(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Reference implementation via ``scipy.linalg.solve_banded``, one
    column at a time.  Slow; used only to validate :func:`thomas_solve`
    (which is why SciPy is imported here and not by the module)."""
    from scipy.linalg import solve_banded

    flat_shape = (-1, rhs.shape[-1])
    sub2 = sub.reshape(flat_shape)
    diag2 = diag.reshape(flat_shape)
    sup2 = sup.reshape(flat_shape)
    rhs2 = rhs.reshape(flat_shape)
    out = np.empty_like(rhs2)
    n = rhs.shape[-1]
    for m in range(rhs2.shape[0]):
        ab = np.zeros((3, n))
        ab[0, 1:] = sup2[m, :-1]
        ab[1, :] = diag2[m]
        ab[2, :-1] = sub2[m, 1:]
        out[m] = solve_banded((1, 1), ab, rhs2[m])
    return out.reshape(rhs.shape)
