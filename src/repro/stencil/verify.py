"""Probe-based verification of declared stencil halos (drives LINT03).

The old LINT03 guessed slice reaches from the AST; this module instead
verifies the *declaration* empirically: build a grid whose halo is wider
than the spec declares, run the reference kernel, perturb every halo
ring **beyond** the declared width, run again, and compare interiors.
If the interior changed, the kernel reads farther than the spec admits —
an understated halo that would corrupt a distributed run whose exchange
width trusts the declaration.

Each probeable spec has a harness here that builds representative inputs
and extracts the interior of the output; specs with ``probe=False``
(in-place halo writers, state-mutating physics) and specs without a
harness are reported as skipped, never silently dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .spec import REGISTRY, StencilSpec

__all__ = ["ProbeResult", "probe_spec", "probe_all", "register_harness"]

#: spec name -> harness(grid, rng) -> (inputs_to_perturb, run_interior)
HARNESSES: Dict[str, Callable] = {}


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of probing one spec's declared halo."""

    name: str
    declared_halo: int
    #: True: interior invariant under out-of-declared-halo perturbation
    clean: bool
    #: False when the spec opted out (probe=False) or has no harness
    probed: bool
    detail: str = ""


def register_harness(name: str):
    """Attach a probe harness to the named spec.  The harness receives
    ``(grid, rng)`` and returns ``(inputs, run)`` where ``inputs`` are the
    arrays whose halos the probe perturbs and ``run()`` recomputes and
    returns the interior of the kernel output (via ``.reference`` — the
    probe checks the semantics, not a backend)."""

    def deco(fn):
        HARNESSES[name] = fn
        return fn

    return deco


def _probe_grid(spec: StencilSpec):
    from ..core.grid import make_grid

    halo = max(spec.halo + 1, 2)
    return make_grid(nx=8, ny=7, nz=6, dx=100.0, dy=100.0, ztop=600.0,
                     halo=halo)


def _perturb_beyond(arr: np.ndarray, grid_halo: int, declared: int) -> None:
    """Bump every x/y halo ring farther than ``declared`` cells out."""
    w = grid_halo - declared
    if w <= 0 or arr.ndim < 2:
        return
    arr[:w] += 1.0
    arr[-w:] += 1.0
    arr[:, :w] += 1.0
    arr[:, -w:] += 1.0


def probe_spec(spec: StencilSpec, seed: int = 0) -> ProbeResult:
    """Probe one spec; see module docstring for the contract."""
    if not spec.probe:
        return ProbeResult(spec.name, spec.halo, clean=True, probed=False,
                           detail="spec opted out (probe=False)")
    harness = HARNESSES.get(spec.name)
    if harness is None:
        return ProbeResult(spec.name, spec.halo, clean=True, probed=False,
                           detail="no probe harness registered")
    grid = _probe_grid(spec)
    rng = np.random.default_rng(seed)
    inputs, run = harness(grid, rng)
    base = run()
    for arr in inputs:
        _perturb_beyond(arr, grid.halo, spec.halo)
    probed = run()
    clean = bool(np.array_equal(base, probed))
    detail = "" if clean else (
        f"interior changed when halo rings beyond width {spec.halo} were "
        f"perturbed — the kernel reads farther than it declares")
    return ProbeResult(spec.name, spec.halo, clean=clean, probed=True,
                       detail=detail)


def probe_all(seed: int = 0) -> List[ProbeResult]:
    """Probe every registered spec (loading the dycore first)."""
    from . import load_dycore_specs

    load_dycore_specs()
    return [probe_spec(sf.spec, seed=seed)
            for _, sf in sorted(REGISTRY.items())]


# --------------------------------------------------------------- harnesses
def _fields(grid, rng) -> Tuple[np.ndarray, ...]:
    return (rng.normal(size=grid.shape_c), rng.normal(size=grid.shape_u),
            rng.normal(size=grid.shape_v), rng.normal(size=grid.shape_w))


def _advect_harness(kernel_name: str, field_shape_attr: str, interior_attr: str):
    def harness(grid, rng):
        from ..core import advection as adv

        q = rng.normal(size=getattr(grid, field_shape_attr))
        phi, fx, fy, fz = _fields(grid, rng)
        kernel = REGISTRY[kernel_name].reference
        isl = getattr(grid, interior_attr)

        def run():
            out = kernel(q, fx, fy, fz, grid)
            return np.array(out[isl[0], isl[1]])

        return [q, fx, fy, fz], run

    return harness


HARNESSES["advect_scalar"] = _advect_harness("advect_scalar", "shape_c", "isl")
HARNESSES["advect_u"] = _advect_harness("advect_u", "shape_u", "isl_u")
HARNESSES["advect_v"] = _advect_harness("advect_v", "shape_v", "isl_v")
HARNESSES["advect_w"] = _advect_harness("advect_w", "shape_w", "isl")


@register_harness("eos_pressure")
def _eos_harness(grid, rng):
    from ..core.pressure import eos_pressure

    rt = np.abs(rng.normal(size=grid.shape_c)) * 30.0 + 250.0
    sx, sy = grid.isl

    def run():
        out = eos_pressure.reference(rt, grid)
        return np.array(out[sx, sy])

    return [rt], run


@register_harness("helmholtz_solve")
def _helmholtz_harness(grid, rng):
    from ..core.helmholtz import HelmholtzOperator
    from ..core.pressure import eos_pressure, linearization_coefficient

    rt = np.abs(rng.normal(size=grid.shape_c)) * 30.0 + 250.0
    thf = np.abs(rng.normal(size=(grid.nxh, grid.nyh, grid.nz + 1))) + 280.0
    rhs = rng.normal(size=(grid.nxh, grid.nyh, grid.nz - 1))
    sx, sy = grid.isl

    def run():
        p = eos_pressure.reference(rt, grid)
        op = HelmholtzOperator(grid, thf, linearization_coefficient(p, rt),
                               dtau=0.05, beta=0.6)
        w = op.solve(rhs)
        return np.array(w[sx, sy])

    return [rt, thf, rhs], run
