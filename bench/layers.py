"""Per-layer metrics: the catalogue, and how a traced run fills it.

Every name here is listed in ``BENCHMARK.json`` (bench/tests checks the
two agree).  A metric whose layer a workload never enters reads 0.
Times come from spans recorded by :mod:`tracing`; counts are span counts
or differences of the program's own public counters; ``*_overhead_frac``
values compare two variants stepped in turn.  Every ratio's base is in
bench/README.md.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

from tracing import ATTRS, END, LAYER, LAYERS, NAME, START, self_times

KERNELS = ("advect_scalar", "advect_u", "advect_v", "advect_w",
           "limited_face_flux", "helmholtz_solve", "eos_pressure",
           "kessler_step")

# (name, unit, better)
PER_LAYER = [
    ("host.copy_gbs", "GB/s", "higher"),
    ("host.py_calls_per_op", "count", "lower"),
    ("host.cpu_ms_per_op", "ms", "lower"),
    ("host.op_ms_p90", "ms", "lower"),
    ("host.trace_overhead_frac", "ratio", "lower"),
    ("host.loadavg_max", "load", "lower"),
    ("api.prepare_ms", "ms", "lower"),
    ("api.spec_hash_us", "us", "lower"),
    ("api.self_ms_per_op", "ms", "lower"),
    ("workloads.make_case_ms", "ms", "lower"),
    ("core.step_ms", "ms", "lower"),
    ("core.self_ms_per_op", "ms", "lower"),
    ("core.mcells_per_s", "Mcells/s", "higher"),
    ("physics.self_ms_per_op", "ms", "lower"),
    ("stencil.self_ms_per_op", "ms", "lower"),
    ("stencil.dispatches_per_op", "count", "lower"),
    ("stencil.fallback_frac", "ratio", "lower"),
    ("stencil.pool_takes_per_op", "count", "lower"),
    ("stencil.pool_reuse_frac", "ratio", "higher"),
    ("stencil.fused_speedup", "ratio", "higher"),
    *[(f"stencil.k.{k}.{m}", unit, "lower") for k in KERNELS
      for m, unit in (("us", "us"), ("calls_per_op", "count"),
                      ("computed_kb", "KB"))],
    ("gpu.self_ms_per_op", "ms", "lower"),
    ("gpu.sched_calls_per_op", "count", "lower"),
    ("gpu.runner_overhead_frac", "ratio", "lower"),
    ("gpu.counters_overhead_frac", "ratio", "lower"),
    ("gpu.modeled_step_ms", "ms", "lower"),
    ("gpu.modeled_gflops", "GFlop/s", "higher"),
    ("dist.self_ms_per_op", "ms", "lower"),
    ("dist.exchange_ms_per_op", "ms", "lower"),
    ("dist.exchanges_per_op", "count", "lower"),
    ("dist.halo_msgs_per_op", "count", "lower"),
    ("dist.halo_kb_per_op", "KB", "lower"),
    ("dist.scatter_ms", "ms", "lower"),
    ("dist.gather_ms", "ms", "lower"),
    ("dist.decomp_overhead_frac", "ratio", "lower"),
    ("dist.modeled_step_ms", "ms", "lower"),
    ("dist.hidden_comm_frac", "ratio", "higher"),
    ("resilience.ckpt_save_ms", "ms", "lower"),
    ("resilience.ckpt_load_ms", "ms", "lower"),
    ("resilience.ckpt_kb", "KB", "lower"),
    ("resilience.saves_per_op", "count", "lower"),
    ("resilience.loads_per_op", "count", "lower"),
    ("resilience.recoveries_per_op", "count", "lower"),
    ("serve.self_ms_per_op", "ms", "lower"),
    ("serve.overhead_frac", "ratio", "lower"),
    ("serve.sched_us_per_job", "us", "lower"),
    ("serve.sched_2k_ms", "ms", "lower"),
    ("serve.select_calls_per_op", "count", "lower"),
    ("serve.cache_hit_frac", "ratio", "higher"),
    ("serve.cache_get_us", "us", "lower"),
    ("serve.cache_put_us", "us", "lower"),
    ("serve.modeled_makespan_s", "s", "lower"),
    ("serve.modeled_wait_p95_s", "s", "lower"),
    ("serve.modeled_util", "ratio", "higher"),
    ("ensemble.self_ms_per_op", "ms", "lower"),
    ("ensemble.overhead_frac", "ratio", "lower"),
    ("ensemble.fold_ms_per_member", "ms", "lower"),
    ("ensemble.finalize_ms", "ms", "lower"),
    ("ensemble.expand_ms", "ms", "lower"),
    ("ensemble.coverage", "ratio", "higher"),
    ("obs.self_ms_per_op", "ms", "lower"),
    ("obs.session_overhead_frac", "ratio", "lower"),
    ("obs.recorder_overhead_frac", "ratio", "lower"),
    ("obs.export_ms", "ms", "lower"),
    ("obs.events_per_op", "count", "lower"),
    ("perf.weak528_ms", "ms", "lower"),
    ("perf.modeled_tflops_528", "TFlop/s", "higher"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


#: seconds the STREAM arrays may take to fault in.  Fresh memory on the
#: reference VM is backed lazily by its host at 30-60 MB/s, so the full
#: 4 x LLC (2 GiB for the two arrays) costs 35-90 s: more than a run has.
STREAM_TOUCH_BUDGET_S = 15.0


def stream_copy(llc_bytes: int, *, quick: bool = False) -> dict:
    """STREAM copy bandwidth, counting the read and the write.  Each
    array is four times the last-level cache, so the copy runs from
    memory -- or as much of that as faults in within the touch budget.
    Both sizes are reported."""
    import numpy as np

    want = (1 << 19 if quick else 4 * llc_bytes) // 8
    src, dst = np.empty(want), np.empty(want)
    chunk, n = 1 << 21, 0               # 16 MiB of each array at a time
    t0 = time.perf_counter()
    while n < want and time.perf_counter() - t0 < STREAM_TOUCH_BUDGET_S:
        src[n:n + chunk] = 1.0
        dst[n:n + chunk] = 0.0
        n = min(want, n + chunk)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst[:n], src[:n])
        best = min(best, time.perf_counter() - t0)
    return {"copy_gbs": 2 * 8 * n / best / 1e9, "array_bytes": 8 * n,
            "llc_bytes": llc_bytes}


def weak528() -> dict:
    """Host time of the paper's Fig. 10 sweep and its 528-GPU answer."""
    from repro.perf.scaling import weak_scaling_sweep

    t0 = time.perf_counter()
    points = weak_scaling_sweep()
    return {"weak528_ms": 1e3 * (time.perf_counter() - t0),
            "tflops_528": points[-1].tflops_overlap}


class _Spans:
    """Queries over index ranges of the recorded spans."""

    def __init__(self, spans, ranges):
        self.spans = spans
        self.ranges = ranges
        self.by_name = defaultdict(list)
        for lo, hi in ranges:
            for s in spans[lo:hi]:
                self.by_name[s[NAME]].append(s)

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def stencil_calls(self) -> list:
        """The ``StencilExecutor.call`` spans (named by spec, so told
        apart from kernel-body spans by the attrs their hook leaves)."""
        return [s for group in self.by_name.values() for s in group
                if s[LAYER] == "stencil" and s[ATTRS]
                and "backend" in s[ATTRS]]

    def layer_self(self) -> dict:
        """Layer -> summed self seconds, plus the root's own."""
        out = dict.fromkeys((*LAYERS, "bench"), 0.0)
        for lo, hi in self.ranges:
            for s, t in zip(self.spans[lo:hi],
                            self_times(self.spans, lo, hi)):
                out[s[LAYER]] += t
        return out


def _dur(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def _mean(spans, scale: float) -> float:
    return scale * _dur(spans) / len(spans) if spans else 0.0


def _attr(spans, key: str) -> float:
    return sum((s[ATTRS] or {}).get(key, 0) for s in spans)


def layer_metrics(spans: list, marks: dict, ctx: dict) -> dict:
    """Fill the catalogue from one traced run.

    ``marks`` holds span index ranges: ``rounds`` (the traced rounds, each
    under one root span) and ``alt`` (one round on the other stencil
    backend); set-up and verify spans lie outside both.  ``ctx`` holds
    what the worker measured outside the spans.
    """
    rounds = _Spans(spans, marks["rounds"])
    alt = _Spans(spans, marks["alt"])
    every = _Spans(spans, [(0, len(spans))])
    ops = ctx["traced_ops"]
    extras = ctx["extras"]
    m = dict.fromkeys(UNITS, 0.0)
    # what a workload measured under a metric's own name
    m.update({k: v for k, v in extras.items() if k in m})

    layer_s = rounds.layer_self()
    for layer in ("api", "core", "physics", "stencil", "gpu", "dist",
                  "serve", "ensemble", "obs"):
        m[f"{layer}.self_ms_per_op"] = 1e3 * layer_s[layer] / ops
    root_s = _dur(rounds.named("round"))
    coverage = (sum(layer_s.values()) - layer_s["bench"]) / root_s

    # ---- host
    m["host.py_calls_per_op"] = ctx["py_calls_per_op"]
    m["host.cpu_ms_per_op"] = 1e3 * ctx["cpu_s_per_op"]
    samples = ctx["op_samples"]
    m["host.op_ms_p90"] = 1e3 * (
        statistics.quantiles(samples, n=10, method="inclusive")[-1]
        if len(samples) > 1 else samples[0])
    m["host.trace_overhead_frac"] = (ctx["traced_op_s"]
                                     / ctx["untraced_op_s"] - 1.0)
    m["host.loadavg_max"] = ctx["loadavg_max"]

    # ---- api / workloads
    m["api.prepare_ms"] = _mean(every.named("Experiment.prepare"), 1e3)
    m["api.spec_hash_us"] = _mean(every.named("RunSpec.spec_hash"), 1e6)
    m["workloads.make_case_ms"] = _mean(every.named("make_case"), 1e3)

    # ---- core: the bare model step, from the ladder where the workload
    # itself never calls AsucaModel.step
    step_ms = (extras.get("ladder_cpu_ms")
               or _mean(rounds.named("AsucaModel.step"), 1e3))
    m["core.step_ms"] = step_ms
    if step_ms and "cells" in extras:
        m["core.mcells_per_s"] = extras["cells"] / step_ms / 1e3

    # ---- stencil
    calls = rounds.stencil_calls()
    m["stencil.dispatches_per_op"] = len(calls) / ops
    drivers = (rounds.named("Experiment.advance")
               + rounds.named("Experiment.run"))
    attempts = _attr(drivers, "accelerated") + _attr(drivers, "fallbacks")
    if attempts:
        m["stencil.fallback_frac"] = _attr(drivers, "fallbacks") / attempts
    takes = _attr(drivers, "pool_allocs") + _attr(drivers, "pool_reuses")
    m["stencil.pool_takes_per_op"] = takes / ops
    if takes:
        m["stencil.pool_reuse_frac"] = _attr(drivers, "pool_reuses") / takes
    alt_calls = alt.stencil_calls()
    if calls and alt_calls:
        main_s = _dur(calls) / ops
        alt_s = _dur(alt_calls) / ctx["alt_ops"]
        m["stencil.fused_speedup"] = (alt_s / main_s
                                      if ctx["backend"] == "fused"
                                      else main_s / alt_s)
    for k in KERNELS:
        ks = rounds.named(k)
        m[f"stencil.k.{k}.us"] = _mean(ks, 1e6)
        m[f"stencil.k.{k}.calls_per_op"] = len(ks) / ops
        if ks:
            m[f"stencil.k.{k}.computed_kb"] = (_attr(ks, "bytes")
                                               / len(ks) / 1e3)

    # ---- gpu
    m["gpu.sched_calls_per_op"] = len(rounds.named("GPUDevice.schedule")) / ops
    cpu_ms, gpu_ms = extras.get("ladder_cpu_ms"), extras.get("ladder_gpu_ms")
    if cpu_ms:
        m["gpu.runner_overhead_frac"] = gpu_ms / cpu_ms - 1.0
        m["gpu.counters_overhead_frac"] = (extras["ladder_gpu_counters_ms"]
                                           / gpu_ms - 1.0)
        m["dist.decomp_overhead_frac"] = (extras["ladder_multigpu_ms"]
                                          / cpu_ms - 1.0)
        m["obs.session_overhead_frac"] = (
            extras["ladder_multigpu_session_ms"]
            / extras["ladder_multigpu_ms"] - 1.0)

    # ---- dist
    exchanges = rounds.named("MultiGpuAsuca.exchange_all")
    m["dist.exchange_ms_per_op"] = 1e3 * _dur(exchanges) / ops
    m["dist.exchanges_per_op"] = len(exchanges) / ops
    m["dist.halo_msgs_per_op"] = _attr(drivers, "halo_msgs") / ops
    m["dist.halo_kb_per_op"] = _attr(drivers, "halo_bytes") / ops / 1e3
    m["dist.scatter_ms"] = _mean(every.named("MultiGpuAsuca.scatter_state"),
                                 1e3)
    m["dist.gather_ms"] = _mean(every.named("MultiGpuAsuca.gather_state"),
                                1e3)

    # ---- resilience
    saves = rounds.named("CheckpointManager.save")
    loads = rounds.named("CheckpointManager.load")
    m["resilience.ckpt_save_ms"] = _mean(saves, 1e3)
    m["resilience.ckpt_load_ms"] = _mean(loads, 1e3)
    if saves:
        m["resilience.ckpt_kb"] = _attr(saves, "bytes") / len(saves) / 1e3
    m["resilience.saves_per_op"] = len(saves) / ops
    m["resilience.loads_per_op"] = len(loads) / ops
    m["resilience.recoveries_per_op"] = _attr(drivers, "recoveries") / ops

    # ---- serve / ensemble: overhead over the runs they drive
    driven_s = _dur(rounds.named("Experiment.prepare")) + _dur(
        rounds.named("Experiment.run"))
    services = rounds.named("ForecastService.run")
    if services:
        m["serve.overhead_frac"] = layer_s["serve"] / driven_s
        m["serve.modeled_makespan_s"] = (_attr(services, "makespan_s")
                                         / len(services))
        m["serve.modeled_wait_p95_s"] = (_attr(services, "wait_p95_s")
                                         / len(services))
        m["serve.modeled_util"] = (_attr(services, "utilization")
                                   / len(services))
    m["serve.select_calls_per_op"] = (
        len(rounds.named("GangScheduler.select")) / ops)
    gets = rounds.named("ResultCache.get")
    if gets:
        m["serve.cache_hit_frac"] = _attr(gets, "hit") / len(gets)
    m["serve.cache_get_us"] = _mean(gets, 1e6)
    m["serve.cache_put_us"] = _mean(rounds.named("ResultCache.put"), 1e6)
    runs = rounds.named("EnsembleRunner.run")
    if runs:
        m["ensemble.overhead_frac"] = layer_s["ensemble"] / driven_s
        m["ensemble.coverage"] = _attr(runs, "coverage") / len(runs)
    m["ensemble.fold_ms_per_member"] = _mean(
        rounds.named("OnlineReducer.fold"), 1e3)
    m["ensemble.finalize_ms"] = _mean(
        rounds.named("OnlineReducer.finalize"), 1e3)
    m["ensemble.expand_ms"] = _mean(rounds.named("EnsembleSpec.expand"), 1e3)

    # ---- obs
    finals = every.named("TraceSession.finalize")
    if finals:
        export = (_dur(finals) + _dur(every.named("TraceSession.collect_device"))
                  + _dur(every.named("TraceSession.collect_comm")))
        m["obs.export_ms"] = 1e3 * export / len(finals)
    m["obs.events_per_op"] = _attr(drivers, "obs_events") / ops

    # ---- perf
    m["perf.weak528_ms"] = ctx["weak528"]["weak528_ms"]
    m["perf.modeled_tflops_528"] = ctx["weak528"]["tflops_528"]
    return {"metrics": m, "self_time_coverage": coverage,
            "layer_self_ms_per_op": {k: 1e3 * v / ops
                                     for k, v in layer_s.items()}}
