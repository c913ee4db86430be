"""The 1-D Helmholtz-like vertical implicit operator of the HE-VI scheme.

Eliminating the trapezoidally-implicit pressure and buoyancy couplings from
the vertical momentum equation (paper Sec. IV-A-3) leaves, per grid column,
a tridiagonal system for the new vertical momentum ``W = G rho w`` at the
interior w faces ``k = 1..nz-1``::

    A(W) = W - (dtau beta)^2 / G * [ Dz'( Cp * Dz(theta_f W) ) + g avg_z(Dz W) ]

where ``Dz`` is the face->center difference, ``Dz'`` the center->face
difference, ``Cp`` the EOS linearization coefficient (``p' = Cp (G rho
theta)'``), ``theta_f`` the base ``theta`` at w faces, and ``beta`` the
implicit off-centering (>= 0.5).  Boundary faces carry ``W = 0`` (zero
contravariant flux: rigid lid and the kinematic terrain condition).

The paper solves exactly this system with threads marching in z over the
(x, y) slice; :func:`repro.core.tridiag.thomas_solve` is the batched NumPy
equivalent.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .. import constants as c
from ..stencil import native
from ..stencil.spec import stencil
from .grid import Grid
from .tridiag import thomas_solve

__all__ = ["HelmholtzOperator", "helmholtz_brackets", "helmholtz_solve",
           "HELMHOLTZ_FLOPS_PER_POINT"]

HELMHOLTZ_FLOPS_PER_POINT = 20


def helmholtz_brackets(grid: Grid, theta_f: np.ndarray,
                       cp_lin: np.ndarray) -> tuple:
    """The ``dtau``-independent brackets ``(xsup, xsub, ydiag)`` of the
    operator, (nxh, nyh, nz-1) each: ``sup = (-s) xsup``, ``sub = (-s)
    xsub`` and ``diag = 1 + s ydiag`` with ``s = (dtau beta)^2 / G``."""
    nz, dz_c, dz_f = grid.nz, grid.dz_c, grid.dz_f
    # interior w faces k = 1..nz-1 -> array index m = k-1
    k = np.arange(1, nz)
    inv_dzf = 1.0 / dz_f[k]
    inv_dzc_k = 1.0 / dz_c[k]        # dz of the cell above face k
    inv_dzc_km = 1.0 / dz_c[k - 1]   # below

    cp_k = cp_lin[:, :, 1:]          # Cp[k] for k=1..nz-1
    cp_km = cp_lin[:, :, :-1]
    th_kp = theta_f[:, :, 2:]        # theta_f[k+1]
    th_k = theta_f[:, :, 1:-1]
    th_km = theta_f[:, :, :-2]

    half_g = 0.5 * c.G
    return (cp_k * th_kp * inv_dzf * inv_dzc_k + half_g * inv_dzc_k,
            cp_km * th_km * inv_dzf * inv_dzc_km - half_g * inv_dzc_km,
            th_k * (cp_k * inv_dzc_k + cp_km * inv_dzc_km) * inv_dzf
            - half_g * (inv_dzc_km - inv_dzc_k))


@dataclass
class HelmholtzOperator:
    """Assembled vertical implicit operator for one linearization state.

    ``theta_f``: (nxh, nyh, nz+1) base theta at w faces;
    ``cp_lin``:  (nxh, nyh, nz) EOS linearization coefficient;
    built for a fixed acoustic substep ``dtau`` and off-centering ``beta``.
    ``brackets``: their :func:`helmholtz_brackets`, when the caller holds
    them (an acoustic context builds two operators from one set).  Where
    a verified library is loaded the scaling, the positivity check and the
    Thomas factors are one compiled call (csrc/acoustic.c).
    """

    grid: Grid
    theta_f: np.ndarray
    cp_lin: np.ndarray
    dtau: float
    beta: float
    brackets: tuple | None = field(default=None, repr=False)
    #: the addresses of the compiled assembly's six arrays: ``sup sub diag``
    #: and the Thomas factors ``fsub fcp fden``
    addresses: list | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        g = self.grid
        if self.brackets is None:
            self.brackets = helmholtz_brackets(g, self.theta_f, self.cp_lin)
        sq = (self.dtau * self.beta) ** 2
        bad = self._assemble_native(sq)
        if bad is None:
            xsup, xsub, ydiag = self.brackets
            s = sq / g.jac[:, :, None]   # (nxh, nyh, 1)
            self.sup = -s * xsup
            self.sub = -s * xsub
            self.diag = 1.0 + s * ydiag
            bad = np.any(self.diag <= 0.0)
        if bad:
            raise ValueError(
                "Helmholtz diagonal not positive; dtau/beta/stratification "
                "outside the operator's validity range"
            )

    def _assemble_native(self, sq: float) -> "bool | None":
        """The compiled assembly: ``sup`` / ``sub`` / ``diag`` and the
        k-leading factors of :meth:`thomas_factors`, whether a diagonal
        entry is <= 0; ``None`` where no library takes them."""
        lib = native.kernels()
        if lib is None:
            return None
        g = self.grid
        shape = self.brackets[0].shape
        n = shape[-1]
        operands = dict(jac=g.jac, xsup=self.brackets[0],
                        xsub=self.brackets[1], ydiag=self.brackets[2])
        ptrs = native.pointers(np.float64, operands, dict(
            jac=shape[:2], xsup=shape, xsub=shape, ydiag=shape))
        if isinstance(ptrs, native.Unbound):
            native.unbound("operators", ptrs)
            return None
        out = [np.empty(shape) for _ in range(3)]
        factors = [np.empty((n, g.nxh * g.nyh)) for _ in range(3)]
        self.addresses = [a.ctypes.data for a in out + factors]
        bad = lib.operator(ctypes.byref(lib.operator_args(
            ncol=g.nxh * g.nyh, n=n, sq=sq, **dict(zip(operands, ptrs)),
            **dict(zip(("sup", "sub", "diag", "fsub", "fcp", "fden"),
                       self.addresses)))))
        self.sup, self.sub, self.diag = out
        fsub, fcp, fden = factors
        self._thomas_factors = (fsub, fcp, fden)
        return bool(bad)

    # ------------------------------------------------------------------ ops
    def apply(self, w_full: np.ndarray, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
        """Apply A to a full (nxh, nyh, nz+1) w-momentum array; returns the
        result at interior faces, shape (nxh, nyh, nz-1).  Boundary faces
        of the input participate as known values.  ``out``/``tmp``:
        optional result and scratch arrays of that shape."""
        out = np.multiply(self.sub, w_full[:, :, :-2], out=out)
        tmp = np.multiply(self.diag, w_full[:, :, 1:-1], out=tmp)
        np.add(out, tmp, out=out)
        np.multiply(self.sup, w_full[:, :, 2:], out=tmp)
        return np.add(out, tmp, out=out)

    def thomas_factors(self) -> tuple:
        """The forward-elimination factors ``(sub, cp, denom)``, k-leading
        and contiguous: ``cp[k]`` and ``denom[k]`` never depend on the
        right-hand side, so every solve with this operator shares them.
        The compiled assembly leaves them behind; else they are computed
        here once, with the operations of ``thomas_solve``."""
        fac = getattr(self, "_thomas_factors", None)
        if fac is None:
            n = self.diag.shape[-1]
            # copies: with one unknown a column the transpose is
            # contiguous, and ascontiguousarray would hand back (and
            # factor) the operator's own arrays
            sub, den, cp = (np.array(a.reshape(-1, n).T, order="C")
                            for a in (self.sub, self.diag, self.sup))
            np.divide(cp[0], den[0], out=cp[0])
            t = np.empty_like(cp[0])
            for k in range(1, n):
                np.multiply(sub[k], cp[k - 1], out=t)
                np.subtract(den[k], t, out=den[k])
                np.divide(cp[k], den[k], out=cp[k])
            fac = self._thomas_factors = (sub, cp, den)
        return fac

    def solve(self, rhs_interior: np.ndarray) -> np.ndarray:
        """Solve ``A(W) = rhs`` with zero boundary faces; returns the full
        (nxh, nyh, nz+1) array with zeros at faces 0 and nz."""
        return helmholtz_solve(self, rhs_interior)

    def residual(self, w_full: np.ndarray, rhs_interior: np.ndarray) -> float:
        """Max-norm residual of a candidate solution (testing hook)."""
        return float(np.abs(self.apply(w_full) - rhs_interior).max())


@stencil(reads=("sub", "diag", "sup", "rhs"), writes=("w",), halo=0,
         march_axis="z", flops=40, loads=7, stores=2,
         stage="solver",
         # measured ratios: ~0.33 flops (the table prices assembly the
         # NumPy path amortizes into the operator), ~2.5x bytes
         flops_band=(0.2, 0.7), bytes_band=(1.0, 6.0))
def helmholtz_solve(op: HelmholtzOperator, rhs_interior: np.ndarray) -> np.ndarray:
    """Batched Thomas solve of the assembled operator (column-local; the
    paper marches threads in z over the (x, y) slice)."""
    g = op.grid
    w = np.zeros((rhs_interior.shape[0], rhs_interior.shape[1], g.nz + 1),
                 dtype=rhs_interior.dtype)
    w[:, :, 1:-1] = thomas_solve(op.sub, op.diag, op.sup, rhs_interior)
    return w
