"""Stencil execution backends and the active-executor context.

Every kernel has one NumPy text, its oracle in ``repro.core`` /
``repro.physics``; the warm rain and the halo fill also have a compiled
body, registered as their entry in
:data:`~repro.stencil.spec.FUSED_IMPLS` (:mod:`repro.stencil.kessler`,
:mod:`repro.stencil.dycore`), and the advection's runs inside an RK
stage's one compiled call (:class:`~repro.core.rk3.StageBinding`, which
credits the executor with the advections it ran).  Which body runs is
one fact: whether a verified library is in force
(:func:`repro.stencil.native.kernels`).
Two backends, selected by :class:`~repro.api.RunSpec`\\ 's
``stencil_backend`` (or ``repro run --stencil-backend``):

* ``fused`` — the default: the compiled bodies wherever a library is
  loaded (the warm rain and the halo fill through their entries; an RK
  stage's slow tendencies, the acoustic substep, the linearization, the
  operator assembly, ``State.velocities`` and the metric flux ask the
  same question inside ``repro.core``), else the oracles.  Measured end
  to end by ``python3 bench/run.py``; docs/STENCILS.md "Measured" has the
  numbers, by workload.
* ``reference`` — every oracle: :func:`use_executor` of a reference
  executor holds the library off (``native.using(None)``) for the whole
  block, so no compiled body runs inside it.  The test oracle, and the
  body the FLOP counters measure.

Backend choice never changes what a run computes (the compiled bodies are
byte-identical to their oracles, tests/stencil); accordingly
``RunSpec.spec_hash()`` ignores it and the serve-layer result cache
returns hits across backends.
"""
from __future__ import annotations

import contextlib
import contextvars
from collections import Counter
from typing import Any, Dict

from ..obs.trace import CAPTURE
from . import native
from .spec import FUSED_IMPLS, StencilFunction

__all__ = [
    "BACKENDS",
    "StencilExecutor",
    "active_executor",
    "use_executor",
]

BACKENDS = ("reference", "fused")


class StencilExecutor:
    """Dispatches :class:`~repro.stencil.spec.StencilFunction` calls, with
    per-kernel call statistics.  A kernel with a compiled entry tries it
    first; the entry declines with ``NotImplemented`` where no library is
    in force or its operands are not covered, and the oracle runs."""

    def __init__(self, backend: str = "reference"):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown stencil backend {backend!r}; choose one of "
                f"{BACKENDS}")
        # make sure the compiled entries are registered; without this a
        # kernel that has one would count as a kernel that has none
        from . import dycore  # noqa: F401
        self.backend = backend
        #: spec name -> dispatch count
        self.calls: Counter = Counter()
        #: dispatches a compiled entry served
        self.accelerated = 0
        #: dispatches a compiled entry declined (its oracle ran); a kernel
        #: without a compiled entry counts as neither
        self.fallbacks = 0
        #: ``advect_scalar`` calls an RK stage did not have to make
        self.skipped = 0
        #: the species the most recent stage found inactive
        self.inactive: tuple = ()

    # ---------------------------------------------------------- dispatch
    def call(self, sf: StencilFunction, args: tuple, kwargs: dict) -> Any:
        self.calls[sf.spec.name] += 1
        impl = FUSED_IMPLS.get(sf.spec.name)
        if impl is not None:
            out = impl(*args, **kwargs)
            if out is not NotImplemented:
                self.accelerated += 1
                return out
            self.fallbacks += 1
        rec = CAPTURE.get()
        if rec is not None:     # a replay would leave this body out
            rec.decline(native.Unbound(sf.spec.name, "NumPy in a window"))
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
            # nothing is taken per call: the scratch is the integrator's
            "allocations": 0.0,
            "reuses": 0.0,
            # the compiled bodies: state, hash, ISA clones, cold-build s
            "native": native.library().stats(),
        }

    def report(self) -> str:
        s = self.stats()
        text = (f"stencil[{self.backend}]: {s['dispatches']} dispatches "
                f"({s['accelerated']} fused, {s['fallbacks']} reference)")
        if self.skipped:
            total = self.skipped + self.calls["advect_scalar"]
            text += (f"; {self.skipped} of {total} scalar transports skipped "
                     f"(inactive: {' '.join(self.inactive) or 'none'})")
        return f"{text}; {native.library().report()}"


_ACTIVE: contextvars.ContextVar["StencilExecutor | None"] = \
    contextvars.ContextVar("repro_stencil_executor", default=None)

_DEFAULT: "StencilExecutor | None" = None


def active_executor() -> StencilExecutor:
    """The executor stencil dispatch goes through right now: the
    innermost :func:`use_executor` context, else the process default
    (``fused``)."""
    global _DEFAULT
    ex = _ACTIVE.get()
    if ex is None:
        ex = _DEFAULT = _DEFAULT or StencilExecutor("fused")
    return ex


@contextlib.contextmanager
def use_executor(executor: StencilExecutor):
    """Route stencil dispatch through ``executor`` inside the block
    (the :class:`~repro.api.Experiment` enters this around stepping); a
    ``reference`` executor also holds every compiled body off
    (``native.using(None)``) for the block."""
    token = _ACTIVE.set(executor)
    try:
        if executor.backend == "reference":
            with native.using(None):
                yield executor
        else:
            yield executor
    finally:
        _ACTIVE.reset(token)
