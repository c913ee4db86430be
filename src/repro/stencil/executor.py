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

import contextvars
from collections import Counter
from itertools import repeat
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

#: the dispatches of one transport of a compiled stage
_COMPILED = {"advect_scalar": 1}


class StencilExecutor:
    """Dispatches :class:`~repro.stencil.spec.StencilFunction` calls, with
    per-kernel call statistics.  A kernel with a compiled entry tries it
    first; the entry declines with ``NotImplemented`` where no library is
    in force or its operands are not covered, and the oracle runs."""

    def __init__(self, backend: str = "reference", *, grouped: bool = False):
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
        #: ``grouped`` (the host tiles' executor): each stage's inactive
        #: species and whether its transports counted as compiled, in
        #: order, until :meth:`credit` takes them
        self.stages: "list | None" = [] if grouped else None

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

    def skip_transports(self, *stages, compiled: bool = False,
                        per: "dict | None" = None) -> None:
        """Record, for each RK stage of ``stages``, the species whose
        transport it skipped because the result is known exactly
        (core/rk3.py: an all-zero field stays ``+0.0``), so a report can
        say why a dry run is faster.  ``compiled``: a transport is one
        compiled ``advect_scalar`` dispatch; else ``per``, the dispatches
        one made (``None``: no transport ran)."""
        if not stages:
            return
        self.skipped += sum(map(len, stages))
        self.inactive = tuple(stages[-1])
        if self.stages is not None:
            per = _COMPILED if compiled else per
            self.stages += zip(map(tuple, stages), repeat(per))

    def credit(self, tiles: "StencilExecutor", share: int) -> None:
        """Move what ``share`` host tiles of one modeled domain dispatched
        in ``tiles`` (a ``grouped`` executor) here, as one tile's share:
        the modeled domain's counts, whatever the host's tiling.  The
        tiles record their stages ``share`` at a time (lock-step order);
        the modeled domain skips a species where every tile of the stage
        did, and transports it where any did, with the dispatches a tile's
        transport made."""
        stages, tiles.stages, skipped = tiles.stages, [], 0
        for k in range(0, len(stages), share):
            group = stages[k:k + share]
            common = group[0][0]
            if group.count(group[0]) < share:  # may disagree
                common = tuple(n for n in common
                               if all(n in idle for idle, _ in group))
                per = next(p for _, p in group if p)
                for idle, _ in group:
                    # a tile's own skip: a transport of the domain
                    extra = len(idle) - len(common)
                    for name, n in per.items():
                        tiles.calls[name] += n * extra
                    tiles.accelerated += (per is _COMPILED) * extra
            skipped += len(common)
            tiles.inactive = common
        for name, n in tiles.calls.items():
            self.calls[name] += n // share
            tiles.calls[name] = 0
        self.accelerated += tiles.accelerated // share
        self.fallbacks += tiles.fallbacks // share
        self.skipped += skipped
        self.inactive = tiles.inactive
        tiles.accelerated = tiles.fallbacks = tiles.skipped = 0

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


class use_executor:
    """Route stencil dispatch through ``executor`` inside the block
    (the :class:`~repro.api.Experiment` enters this around stepping); a
    ``reference`` executor also holds every compiled body off
    (``native.using(None)``) for the block.  A class, not a generator:
    a step enters one, and a generator's context costs four Python calls
    more."""

    def __init__(self, executor: StencilExecutor):
        self.executor = executor

    def __enter__(self) -> StencilExecutor:
        self.token, self.held = _ACTIVE.set(self.executor), None
        if self.executor.backend == "reference":
            self.held = native.using(None)
            self.held.__enter__()
        return self.executor

    def __exit__(self, *exc) -> None:
        if self.held is not None:
            self.held.__exit__(*exc)
        _ACTIVE.reset(self.token)
