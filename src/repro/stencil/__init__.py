"""repro.stencil — the declarative stencil layer (ROADMAP item 1).

Kernels in ``core/`` and ``physics/`` declare their shapes with
:func:`~repro.stencil.spec.stencil` and dispatch through the active
:class:`~repro.stencil.executor.StencilExecutor`; the declarations are
the source of truth for the GPU cost table, the live-roofline drift
bands, and the LINT03 halo check.  See docs/STENCILS.md.
"""
from __future__ import annotations

from typing import Dict, Tuple

from .executor import (
    BACKENDS,
    StencilExecutor,
    active_executor,
    default_backend,
    use_executor,
)
from .pool import BufferPool
from .spec import (
    FUSED_IMPLS,
    REGISTRY,
    StencilFunction,
    StencilSpec,
    all_specs,
    get_stencil,
    register_fused,
    stencil,
)

__all__ = [
    "BACKENDS",
    "BufferPool",
    "FUSED_IMPLS",
    "REGISTRY",
    "StencilExecutor",
    "StencilFunction",
    "StencilSpec",
    "active_executor",
    "all_specs",
    "default_backend",
    "get_stencil",
    "load_dycore_specs",
    "register_fused",
    "stencil",
    "table_costs",
    "declared_flops_band",
    "declared_bytes_band",
    "use_executor",
]

#: modules whose import registers the production stencil specs
_DYCORE_MODULES = (
    "repro.core.advection",
    "repro.core.diffusion",
    "repro.core.pressure",
    "repro.core.helmholtz",
    "repro.core.boundary",
    "repro.physics.kessler",
    "repro.physics.ice",
    "repro.physics.surface",
)


def load_dycore_specs() -> Dict[str, StencilSpec]:
    """Import every kernel module so its specs are registered; returns
    name -> spec.  Idempotent and cycle-free: the kernel modules depend
    only on ``repro.core``/``repro.constants``, never on perf/gpu."""
    import importlib

    for mod in _DYCORE_MODULES:
        importlib.import_module(mod)
    # the fused implementations ride along so callers see full coverage
    from . import dycore  # noqa: F401

    return all_specs()


def table_costs() -> Dict[str, Tuple[float, float, float]]:
    """Cost-table entries derived from the stencil declarations:
    table kernel name -> (flops, reads, writes) per point.

    Several specs may price the same table entry (the four advection
    kernels all price ``advection``); they must agree exactly — a
    conflict raises so drift between declarations is impossible.
    """
    load_dycore_specs()
    out: Dict[str, Tuple[float, float, float]] = {}
    owner: Dict[str, str] = {}
    for name, spec in all_specs().items():
        if spec.table is None:
            continue
        cost = spec.cost_tuple()
        if spec.table in out and out[spec.table] != cost:
            raise ValueError(
                f"stencil {name!r} declares cost {cost} for table kernel "
                f"{spec.table!r} but {owner[spec.table]!r} declared "
                f"{out[spec.table]} — the declarations must agree")
        out[spec.table] = cost
        owner[spec.table] = name
    return out


def _band_for(table_name: str, attr: str) -> Tuple[float, float] | None:
    for spec in all_specs().values():
        if spec.table == table_name:
            band = getattr(spec, attr)
            if band is not None:
                return band
    return None


def declared_flops_band(table_name: str) -> Tuple[float, float] | None:
    """The tightened measured/table flops drift band a spec declares for
    ``table_name`` (None when no spec covers it or none declares one)."""
    load_dycore_specs()
    return _band_for(table_name, "flops_band")


def declared_bytes_band(table_name: str) -> Tuple[float, float] | None:
    """The tightened measured/table bytes drift band for ``table_name``."""
    load_dycore_specs()
    return _band_for(table_name, "bytes_band")
