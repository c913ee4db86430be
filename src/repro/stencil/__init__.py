"""repro.stencil — the declarative stencil layer.

Kernels in ``core/`` and ``physics/`` declare their shapes with
:func:`~repro.stencil.spec.stencil` and dispatch through the active
:class:`~repro.stencil.executor.StencilExecutor`; the declarations are
the source of truth for the spec-backed entries of the GPU kernel table
(cost, launch geometry, live-roofline drift bands) and for the LINT03
halo check.  See docs/STENCILS.md.
"""
from __future__ import annotations

from typing import Dict

from .executor import (
    BACKENDS,
    StencilExecutor,
    active_executor,
    use_executor,
)
from . import native
from .spec import (
    FUSED_IMPLS,
    REGISTRY,
    StencilFunction,
    StencilSpec,
    all_specs,
    register_fused,
    stencil,
)

__all__ = [
    "BACKENDS",
    "FUSED_IMPLS",
    "REGISTRY",
    "StencilExecutor",
    "StencilFunction",
    "StencilSpec",
    "active_executor",
    "all_specs",
    "load_dycore_specs",
    "native",
    "register_fused",
    "stencil",
    "use_executor",
]

#: modules whose import registers the production stencil specs
_DYCORE_MODULES = (
    "repro.core.advection",
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
    # the compiled entries ride along so callers see full coverage
    from . import dycore  # noqa: F401

    return all_specs()
