"""Span recorders around the program's public entry points.

The traced run wraps a fixed table of public names (:data:`TRACEPOINTS`)
from the benchmark's side: nothing under ``src/`` knows it is being
measured.  Each call records one span ``[layer, name, start, end,
parent, attrs]`` in memory; :func:`self_times` turns spans into per-layer
self time (a span's duration minus the part its children cover).  A
target that no longer exists lands in :attr:`Tracer.missing` and its
metrics read 0, so a later refactor cannot break the benchmark.
"""
from __future__ import annotations

import importlib
import inspect
import os
import time

# (layer, module, attribute path) of every wrapped public entry point.
# ``analysis`` and ``validation`` are offline tools, on no run path.
TRACEPOINTS = [
    ("api", "repro.api", "Experiment.prepare"),
    ("api", "repro.api", "Experiment.run"),
    ("api", "repro.api", "Experiment.advance"),
    ("api", "repro.api", "RunSpec.spec_hash"),
    ("workloads", "repro.api", "make_case"),
    ("core", "repro.core.model", "AsucaModel.step"),
    # the rank-local integrator the decomposed driver resumes directly;
    # without it a rank's dynamics would count as the driver's self time
    ("core", "repro.core.rk3", "Rk3Integrator.step_phases"),
    ("stencil", "repro.stencil.executor", "StencilExecutor.call"),
    ("gpu", "repro.gpu.runtime", "GpuAsucaRunner.step"),
    ("gpu", "repro.gpu.device", "GPUDevice.schedule"),
    ("dist", "repro.dist.multigpu", "MultiGpuAsuca.step"),
    ("dist", "repro.dist.multigpu", "MultiGpuAsuca.exchange_all"),
    ("dist", "repro.dist.multigpu", "MultiGpuAsuca.scatter_state"),
    ("dist", "repro.dist.multigpu", "MultiGpuAsuca.gather_state"),
    ("resilience", "repro.resilience.checkpoint", "CheckpointManager.save"),
    ("resilience", "repro.resilience.checkpoint", "CheckpointManager.load"),
    ("serve", "repro.serve.service", "ForecastService.run"),
    ("serve", "repro.serve.scheduler", "GangScheduler.select"),
    ("serve", "repro.serve.cache", "ResultCache.get"),
    ("serve", "repro.serve.cache", "ResultCache.put"),
    ("ensemble", "repro.ensemble.runner", "EnsembleRunner.run"),
    ("ensemble", "repro.ensemble.spec", "EnsembleSpec.expand"),
    ("ensemble", "repro.ensemble.reduce", "OnlineReducer.fold"),
    ("ensemble", "repro.ensemble.reduce", "OnlineReducer.finalize"),
    # the runner calls the name it imported, so that is the one to wrap
    ("ensemble", "repro.ensemble.runner", "member_contribution"),
    ("obs", "repro.obs.trace", "TraceSession.finalize"),
    ("obs", "repro.obs.trace", "TraceSession.collect_device"),
    ("obs", "repro.obs.trace", "TraceSession.collect_comm"),
    ("obs", "repro.obs.recorder", "FlightRecorder.record"),
]

LAYERS = ("api", "workloads", "core", "physics", "stencil", "gpu", "dist",
          "resilience", "serve", "ensemble", "obs")

# span fields
LAYER, NAME, START, END, PARENT, ATTRS = range(6)


def _layer_of(fn) -> str:
    """The layer a kernel body belongs to: its declaring module's
    sub-package (``repro.physics.kessler`` -> ``physics``)."""
    parts = getattr(fn, "__module__", "").split(".")
    return parts[1] if len(parts) > 1 and parts[1] in LAYERS else "core"


def _experiment_counts(exp) -> dict:
    """Cumulative counters reachable from an Experiment's public
    attributes; spans store the difference across the call."""
    out = {}
    if exp.executor is not None:
        s = exp.executor.stats()
        out.update(dispatches=s["dispatches"], accelerated=s["accelerated"],
                   fallbacks=s["fallbacks"], pool_allocs=s["allocations"],
                   pool_reuses=s["reuses"])
    if exp.machine is not None:
        out.update(halo_msgs=exp.machine.comm.stats.messages,
                   halo_bytes=exp.machine.comm.stats.bytes_total)
    if exp.session is not None:
        events = len(exp.session.spans)
        if exp.machine is not None:
            events += len(exp.machine.comm.message_log)
            events += sum(len(d.timeline) for d in exp.machine.devices or [])
        out["obs_events"] = events
    return out


def _kernel_bytes(sf, args, result) -> int:
    """Bytes one kernel call touches, *computed* from array shapes: every
    distinct ndarray argument and result once, and for a State argument
    the fields the stencil declares it reads or writes."""
    seen, total = set(), 0
    declared = set(sf.spec.reads) | set(sf.spec.writes)
    results = result if isinstance(result, tuple) else (result,)
    for obj in (*args, *results):
        if hasattr(obj, "prognostic_names"):
            arrays = [obj.get(n) for n in obj.prognostic_names()
                      if n in declared]
        elif hasattr(obj, "nbytes") and hasattr(obj, "shape"):
            arrays = [obj]
        else:
            continue
        for arr in arrays:
            if id(arr) not in seen:
                seen.add(id(arr))
                total += arr.nbytes
    return total


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.enabled = False
        self._stack: list[int] = []

    # ------------------------------------------------------------ wrap
    def wrap(self, layer, name, fn, *, name_of=None, before=None,
             after=None):
        """``fn`` recorded as a span (a generator function: one span per
        resumption).  ``name_of(args)`` names the span per call;
        ``before(args)`` runs ahead of the call and
        ``after(args, result, pre)`` returns the span's attrs."""
        tracer, spans, stack = self, self.spans, self._stack
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                resume = tracer.wrap(layer, name, fn(*args, **kwargs).__next__)
                try:
                    while True:
                        yield resume()
                except StopIteration as stop:
                    return stop.value

            return traced_generator

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [layer, name_of(args) if name_of else name, 0.0, 0.0,
                   stack[-1] if stack else -1, None]
            pre = before(args) if before else None
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after:
                rec[ATTRS] = after(args, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every tracepoint and every declared stencil body."""
        for layer, module, path in TRACEPOINTS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}:{path}")
                continue
            setattr(owner, attr, self.wrap(layer, path, fn,
                                           **self._hooks(path)))
        self._install_kernel_bodies()

    def _hooks(self, path: str) -> dict:
        def delta(args, result, pre):
            post = _experiment_counts(args[0])
            out = {k: v - pre.get(k, 0) for k, v in post.items()}
            if path == "Experiment.run":
                out["recoveries"] = result.recoveries
            return out

        if path in ("Experiment.run", "Experiment.advance"):
            return {"before": lambda args: _experiment_counts(args[0]),
                    "after": delta}
        if path == "StencilExecutor.call":
            return {"name_of": lambda args: args[1].spec.name,
                    "after": lambda args, result, pre: {
                        "backend": args[0].backend,
                        "bytes": _kernel_bytes(args[1], args[2], result)}}
        if path == "CheckpointManager.save":
            return {"after": lambda args, result, pre: {
                "bytes": os.stat(result).st_size}}
        if path == "ResultCache.get":
            return {"after": lambda args, result, pre: {
                "hit": result is not None}}
        if path == "ForecastService.run":
            return {"after": lambda args, result, pre: {
                "makespan_s": result.makespan_s,
                "wait_p95_s": result.wait_s.get("p95", 0.0),
                "utilization": result.utilization}}
        if path == "EnsembleRunner.run":
            return {"after": lambda args, result, pre: {
                "coverage": result.product.coverage}}
        return {}

    def _install_kernel_bodies(self) -> None:
        """A stencil call span covers dispatch; its child covers the
        kernel body, attributed to the layer that declares the body:
        references to ``core``/``physics``, fused twins to ``stencil``."""
        try:
            stencil = importlib.import_module("repro.stencil")
            stencil.load_dycore_specs()
            registry, fused = stencil.REGISTRY, stencil.FUSED_IMPLS
        except (ImportError, AttributeError):
            self.missing.append("repro.stencil:REGISTRY")
            return
        for name, sf in registry.items():
            sf.reference = self.wrap(_layer_of(sf.reference),
                                     f"body:{name}", sf.reference)
        for name, impl in list(fused.items()):
            fused[name] = self.wrap(_layer_of(impl), f"fused:{name}", impl)

    # ----------------------------------------------------------- export
    def as_json(self) -> dict:
        return {"fields": ["layer", "name", "start", "end", "parent",
                           "attrs"],
                "missing": self.missing, "spans": self.spans}


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Self time of ``spans[lo:hi]``: duration minus child coverage.
    Spans nest strictly (one thread), so children never overlap."""
    out = [s[END] - s[START] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            out[s[PARENT] - lo] -= s[END] - s[START]
    return out
