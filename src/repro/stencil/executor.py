"""Stencil execution backends and the active-executor context.

Two backends, selected by :class:`~repro.api.RunSpec`\\ 's
``stencil_backend`` (or ``repro run --stencil-backend``, or the
``REPRO_STENCIL_BACKEND`` environment variable for whole-suite runs):

* ``fused`` — the default: route through the registered fused entry
  point (:mod:`repro.stencil.dycore`, :mod:`repro.stencil.kessler`).
  Where a verified library is loaded (:mod:`repro.stencil.native`) the
  advection, the Helmholtz solve (both on the per-shape scratch of
  :mod:`repro.stencil.plan`), the warm rain and the halo fill are one
  compiled call each; without one they return ``NotImplemented`` and the
  reference runs.  The diffusion family and the EOS, which have
  no C body, are planned ``out=`` chains.  Byte-identical to the
  reference either way (tests/stencil).  Measured end to end by
  ``python3 bench/run.py``; docs/STENCILS.md "Measured" has the numbers,
  by workload.
* ``reference`` — call the decorated textbook NumPy kernel directly: the
  test oracle, and the body the FLOP counters measure.

Backend choice never changes what a run computes; accordingly
``RunSpec.spec_hash()`` ignores it and the serve-layer result cache
returns hits across backends.
"""
from __future__ import annotations

import contextlib
import contextvars
import os
from collections import Counter
from typing import Any, Dict

from . import native
from .plan import PLANS
from .spec import FUSED_IMPLS, StencilFunction

__all__ = [
    "BACKENDS",
    "StencilExecutor",
    "active_executor",
    "use_executor",
    "default_backend",
]

BACKENDS = ("reference", "fused")

#: environment override of the default backend (used by the CI stencil
#: job to run the whole tier-1 suite on the reference oracle)
BACKEND_ENV = "REPRO_STENCIL_BACKEND"


def default_backend() -> str:
    """The process-default backend: :data:`BACKEND_ENV` or 'fused'."""
    backend = os.environ.get(BACKEND_ENV, "fused").strip() or "fused"
    if backend not in BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV}={backend!r}: unknown stencil backend; choose "
            f"one of {BACKENDS}")
    return backend


class StencilExecutor:
    """Dispatches :class:`~repro.stencil.spec.StencilFunction` calls to
    one backend, with per-kernel call statistics.  The fused entry points
    take the plan cache (per-thread items) as their first argument."""

    def __init__(self, backend: str = "reference"):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown stencil backend {backend!r}; choose one of "
                f"{BACKENDS}")
        if backend != "reference":
            # make sure the fused implementations are registered; without
            # this every dispatch would silently fall back to the reference
            from . import dycore  # noqa: F401
        self.backend = backend
        self.plans = PLANS
        #: spec name -> dispatch count
        self.calls: Counter = Counter()
        #: dispatches served by a fused implementation
        self.accelerated = 0
        #: dispatches that fell back to the reference implementation
        self.fallbacks = 0
        #: ``advect_scalar`` calls an RK stage did not have to make
        self.skipped = 0
        #: the species the most recent stage found inactive
        self.inactive: tuple = ()

    # ---------------------------------------------------------- dispatch
    def call(self, sf: StencilFunction, args: tuple, kwargs: dict) -> Any:
        self.calls[sf.spec.name] += 1
        if self.backend != "reference":
            impl = FUSED_IMPLS.get(sf.spec.name)
            if impl is not None:
                out = impl(self.plans, *args, **kwargs)
                if out is not NotImplemented:
                    self.accelerated += 1
                    return out
            self.fallbacks += 1
        return sf.reference(*args, **kwargs)

    def skip_transports(self, names) -> None:
        """Record the species whose transport an RK stage skipped because
        the result is known exactly (core/rk3.py: an all-zero field stays
        ``+0.0``), so a report can say why a dry run is faster."""
        self.skipped += len(names)
        self.inactive = tuple(names)

    # --------------------------------------------------------- reporting
    def stats(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "dispatches": int(sum(self.calls.values())),
            "accelerated": self.accelerated,
            "fallbacks": self.fallbacks,
            "skipped": self.skipped,
            "inactive": list(self.inactive),
            # nothing is taken per call any more: the only scratch is the
            # plans' arenas, bound at build time
            "allocations": 0.0,
            "reuses": 0.0,
            "reuse_fraction": 0.0,
            "bytes_allocated": float(self.plans.nbytes()),
            # the compiled bodies: state, hash, ISA clones, cold-build s
            "native": native.library().stats(),
        }

    def report(self) -> str:
        s = self.stats()
        text = (f"stencil[{self.backend}]: {s['dispatches']} dispatches "
                f"({s['accelerated']} fused, {s['fallbacks']} reference), "
                f"{self.plans.built} plan(s), arena "
                f"{s['bytes_allocated'] / 1024:.0f} KiB")
        if self.skipped:
            total = self.skipped + self.calls["advect_scalar"]
            text += (f"; {self.skipped} of {total} scalar transports skipped "
                     f"(inactive: {' '.join(self.inactive) or 'none'})")
        return f"{text}; {native.library().report()}"


_ACTIVE: contextvars.ContextVar["StencilExecutor | None"] = \
    contextvars.ContextVar("repro_stencil_executor", default=None)

_DEFAULT: "StencilExecutor | None" = None


def _default_executor() -> StencilExecutor:
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.backend != default_backend():
        _DEFAULT = StencilExecutor(default_backend())
    return _DEFAULT


def active_executor() -> StencilExecutor:
    """The executor stencil dispatch goes through right now: the
    innermost :func:`use_executor` context, else the process default
    (``fused`` unless :data:`BACKEND_ENV` says otherwise)."""
    ex = _ACTIVE.get()
    return ex if ex is not None else _default_executor()


@contextlib.contextmanager
def use_executor(executor: StencilExecutor):
    """Route stencil dispatch through ``executor`` inside the block
    (the :class:`~repro.api.Experiment` enters this around stepping)."""
    token = _ACTIVE.set(executor)
    try:
        yield executor
    finally:
        _ACTIVE.reset(token)
