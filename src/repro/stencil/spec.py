"""Declarative stencil specifications: the single source of truth for
what each dycore/physics kernel reads, writes, and reaches.

The paper's CUDA rewrite (Sec. IV) and the Hybrid Fortran line of work on
ASUCA both hinge on the same move: express every kernel as *declared
shapes* — fields in, fields out, halo width, launch geometry — and let
the machinery (code generation there, dispatch/accounting/lint here)
derive everything else from the declaration.  This module is that
declaration layer, in the style of fv3core's gt4py stencils
(SNIPPETS.md Snippet 1):

* :class:`StencilSpec` — name, ``reads``/``writes`` field roles, halo
  width, launch block, per-point FLOP/element costs, and (optionally)
  tightened measured-drift bands for the live roofline.  A kernel-table
  entry (:data:`~repro.gpu.asuca_kernels.KERNEL_TABLE`) priced from a
  spec reads all of these off the spec object.
* :func:`stencil` — the decorator; wraps a reference NumPy kernel into a
  :class:`StencilFunction` that dispatches through the active
  :class:`~repro.stencil.executor.StencilExecutor` (backend
  ``reference`` reproduces today's behavior exactly).
* :data:`REGISTRY` — every declared stencil, keyed by name.  Downstream
  consumers (``gpu/asuca_kernels``, ``analysis`` LINT03) read shapes
  from here instead of re-deriving them from the AST.

Fused implementations register separately (:func:`register_fused`) so
the reference module never imports backend code.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

# the module, not its names: ``executor`` imports this module first (the
# package __init__ starts with it), so it is only partly initialised here
from . import executor as _executor

__all__ = [
    "StencilSpec",
    "StencilFunction",
    "stencil",
    "register_fused",
    "all_specs",
    "REGISTRY",
    "FUSED_IMPLS",
]

#: every declared stencil, keyed by spec name
REGISTRY: Dict[str, "StencilFunction"] = {}

#: fused (planned) implementations, keyed by spec name.  An impl takes
#: ``(plans, *args, **kwargs)`` — the executor's per-(shape, dtype) plan
#: cache first — and may return ``NotImplemented``
#: to fall back to the reference path for argument combinations it does
#: not cover (non-default limiters, mixed dtypes, tiny grids).
FUSED_IMPLS: Dict[str, Callable[..., Any]] = {}


@dataclass(frozen=True)
class StencilSpec:
    """Declared shape of one kernel.

    ``halo`` is the maximum distance (in cells, horizontally) the kernel
    reads beyond the interior it writes — the contract the halo exchange
    must satisfy before launch and the width LINT03 verifies by probing.
    ``flops/reads/writes_per_point`` are the hand-counted per-point costs
    the GPU cost model prices launches with: a kernel-table entry that
    names this spec takes them as its cost.
    """

    name: str
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    halo: int
    #: launch block geometry for the modeled GPU (the paper's (64, 4, 1))
    launch: Tuple[int, int, int] = (64, 4, 1)
    #: thread-march axis of the launch ('y' for stencils, 'z' for columns)
    march_axis: str = "y"
    flops_per_point: float = 1.0
    reads_per_point: float = 1.0
    writes_per_point: float = 1.0
    #: 'dycore', 'physics', 'solver', or 'boundary'
    stage: str = "dycore"
    #: measured/table flops-per-point drift band for the live roofline
    #: (None: the kernel table's default band applies)
    flops_band: Tuple[float, float] | None = None
    #: measured/table bytes-per-point drift band (None: default band)
    bytes_band: Tuple[float, float] | None = None
    #: whether the probe-based halo verification covers this spec
    #: (False for in-place halo *writers* and solver-internal kernels)
    probe: bool = True
    #: ``'preserve'``: outputs keep the input dtype (the paper's
    #: single-precision design point) and LINT08 flags float64 upcasts in
    #: the kernel body; ``'widen'``: the kernel legitimately computes in
    #: float64 (e.g. a solver factorization) and is exempt
    dtype_policy: str = "preserve"
    #: where the spec was declared (filename, lineno) — lint findings
    #: point here
    origin: Tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if self.halo < 0:
            raise ValueError(f"stencil {self.name!r}: halo must be >= 0")
        if not self.writes:
            raise ValueError(f"stencil {self.name!r}: declare >= 1 write")
        if self.march_axis not in ("x", "y", "z"):
            raise ValueError(
                f"stencil {self.name!r}: march_axis must be x/y/z")
        if self.dtype_policy not in ("preserve", "widen"):
            raise ValueError(
                f"stencil {self.name!r}: dtype_policy must be "
                f"'preserve' or 'widen'")

    def launch_config(self):
        """The :class:`~repro.gpu.kernel.LaunchConfig` this spec declares
        (imported lazily; the spec layer itself has no GPU dependency)."""
        from ..gpu.kernel import LaunchConfig

        return LaunchConfig(block=self.launch, march_axis=self.march_axis)

    def cost_tuple(self) -> Tuple[float, float, float]:
        return (self.flops_per_point, self.reads_per_point,
                self.writes_per_point)


class StencilFunction:
    """A declared kernel: the reference implementation plus dispatch.

    Calling a :class:`StencilFunction` routes through the active
    executor; under the default ``reference`` backend that is exactly a
    call of the wrapped function, so decorating a kernel changes nothing
    for existing callers.
    """

    def __init__(self, spec: StencilSpec, reference: Callable[..., Any]):
        self.spec = spec
        self.reference = reference
        self.__name__ = getattr(reference, "__name__", spec.name)
        self.__qualname__ = getattr(reference, "__qualname__", spec.name)
        self.__doc__ = reference.__doc__
        self.__module__ = getattr(reference, "__module__", __name__)
        self.__wrapped__ = reference

    def __call__(self, *args: Any, **kwargs: Any):
        return _executor.active_executor().call(self, args, kwargs)


def stencil(
    *,
    name: str | None = None,
    reads: Tuple[str, ...] = (),
    writes: Tuple[str, ...] = (),
    halo: int = 0,
    launch: Tuple[int, int, int] = (64, 4, 1),
    march_axis: str = "y",
    flops: float = 1.0,
    loads: float = 1.0,
    stores: float = 1.0,
    stage: str = "dycore",
    flops_band: Tuple[float, float] | None = None,
    bytes_band: Tuple[float, float] | None = None,
    probe: bool = True,
    dtype_policy: str = "preserve",
) -> Callable[[Callable[..., Any]], StencilFunction]:
    """Declare a kernel's shape and register it.

    Usage::

        @stencil(reads=("phi", "fx", "fy", "fz"), writes=("tend",),
                 halo=2, flops=80, loads=9, stores=1)
        def advect_scalar(phi, fx, fy, fz, grid, limiter=koren):
            ...
    """

    def deco(fn: Callable[..., Any]) -> StencilFunction:
        # the declaring frame, read directly: inspect.stack() would look up
        # source lines for every frame of the import chain, per declaration
        frame = sys._getframe(1)
        spec = StencilSpec(
            name=name or fn.__name__,
            reads=tuple(reads),
            writes=tuple(writes),
            halo=halo,
            launch=tuple(launch),
            march_axis=march_axis,
            flops_per_point=float(flops),
            reads_per_point=float(loads),
            writes_per_point=float(stores),
            stage=stage,
            flops_band=flops_band,
            bytes_band=bytes_band,
            probe=probe,
            dtype_policy=dtype_policy,
            origin=(frame.f_code.co_filename, frame.f_lineno),
        )
        if spec.name in REGISTRY:
            raise ValueError(f"stencil {spec.name!r} already registered "
                             f"(first at {REGISTRY[spec.name].spec.origin})")
        sf = StencilFunction(spec, fn)
        REGISTRY[spec.name] = sf
        return sf

    return deco


def register_fused(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Attach a fused implementation to the named spec.

    The impl receives ``(plans, *args, **kwargs)`` and must be
    *bit-identical* to the reference for every argument combination it
    accepts (return ``NotImplemented`` for the rest) — the identity
    tests in tests/stencil enforce this on the tier-1 workloads.
    """

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        FUSED_IMPLS[name] = fn
        return fn

    return deco


def all_specs() -> Dict[str, StencilSpec]:
    """Name -> spec for every registered stencil (load the dycore first
    with :func:`repro.stencil.load_dycore_specs` if you need them all)."""
    return {name: sf.spec for name, sf in REGISTRY.items()}
