"""The four benchmark workloads.

Each class generates its inputs from ``--seed`` and hands the program
only ``RunSpec``\\ s and ``Submission``\\ s, through the public API listed in
bench/README.md.  The *amount of work* never depends on the seed: the
driver judges the benchmark by the spread of one metric over runs with
different seeds, so a seed may change initial conditions, arrival order,
priorities and which job a duplicate repeats, but never how many steps
on which grid a round executes.

A workload runs R identical rounds of ``ops_per_round`` ops.  After each
round, outside the timing, it counts failed ops and collects the round's
*simulated* statistics, which must not differ between rounds.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time

import numpy as np

from repro.api import Experiment, RunSpec
from repro.ensemble import (EnsembleRunner, EnsembleSpec, OnlineReducer,
                            member_contribution)
from repro.obs.recorder import FlightRecorder
from repro.serve import ForecastService, GpuFleet, JobState, Submission

# ------------------------------------------------------------------ helpers


def digest(obj) -> str:
    """sha256 of a JSON-ready object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def state_sha(*states) -> str:
    h = hashlib.sha256()
    for st in states:
        for name in st.prognostic_names():
            h.update(np.ascontiguousarray(st.get(name)).tobytes())
    return h.hexdigest()


def states_equal(a, b) -> bool:
    """Bitwise equality of two states' interiors (halos of a gathered
    state are refilled, not computed, so they are left out)."""
    g = a.grid
    h = g.halo
    return all(
        np.array_equal(a.get(n)[h:h + g.nx, h:h + g.ny],
                       b.get(n)[h:h + g.nx, h:h + g.ny])
        for n in a.prognostic_names())


def finite(*states) -> bool:
    return all(bool(np.isfinite(st.get(n)).all())
               for st in states for n in st.prognostic_names())


def sig(x: float, digits: int = 6) -> float:
    """Round to significant digits: modeled clocks are sums of floats, so
    a per-round difference carries rounding noise in its last bits."""
    return float(f"{x:.{digits}g}")


class Workload:
    """Base: the round loop and the failure bookkeeping."""

    name = ""
    ops_per_round = 1
    quick_ops = 1
    #: stencil backend the workload runs, and the one the traced run
    #: replays it on for ``stencil.fused_speedup``
    backend = "auto"
    alt_backend = "fused"

    def __init__(self, seed: int, *, quick: bool = False, tmp: str = ".",
                 backend: "str | None" = None):
        self.seed = seed
        self.tmp = tmp
        self.quick = quick
        if quick:
            self.ops_per_round = self.quick_ops
        if backend is not None:
            self.backend = backend
        #: simulated statistics of each round so far
        self.round_stats: list[dict] = []

    # -- to implement ---------------------------------------------------
    def setup(self) -> None:
        """Build inputs, construct the program objects, run one cold op."""
        raise NotImplementedError

    def run_ops(self) -> "list[float] | None":
        """The timed part of a round: ``ops_per_round`` ops.  Returns
        per-op seconds when ops are separate calls."""
        raise NotImplementedError

    def after_round(self) -> "tuple[int, dict]":
        """(failed ops, simulated statistics) of the round just run."""
        raise NotImplementedError

    def final_checksum(self) -> str:
        raise NotImplementedError

    def verify(self) -> "dict[str, bool]":
        raise NotImplementedError

    def extras(self) -> dict:
        """Untimed per-layer measurements only this workload can make:
        finished metrics under their catalogue names, plus inputs
        (``cells``, ``ladder_*_ms``) that bench/layers.py combines."""
        return {}

    # -- shared ----------------------------------------------------------
    def run_round(self, around=lambda fn: fn) -> dict:
        """One round; ``around`` wraps the timed part (span, profiler)."""
        body = around(self.run_ops)
        c0, t0 = time.process_time(), time.perf_counter()
        samples = body()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        failed, stats = self.after_round()
        self.round_stats.append(stats)
        n = self.ops_per_round
        return {"wall": wall, "cpu": cpu, "ops": n, "failed": failed,
                "samples": samples or [wall / n]}

    def sim_digest(self) -> str:
        return digest({"round": self.round_stats[-1],
                       "final": self.final_checksum()})

    def rounds_identical(self) -> bool:
        return all(s == self.round_stats[0] for s in self.round_stats)


class _Stepping(Workload):
    """Workloads whose op is one ``Experiment.advance(1)``."""

    def run_ops(self):
        samples, t = [], time.perf_counter()
        for _ in range(self.ops_per_round):
            self.exp.advance(1)
            t1 = time.perf_counter()
            samples.append(t1 - t)
            t = t1
        return samples

    def _run3(self, **changes):
        """The final state of a fresh 3-step run of a variant spec."""
        spec = dataclasses.replace(self.spec(), steps=3, **changes)
        return Experiment(spec).prepare().run().state


# -------------------------------------------------------------- dycore_cpu


class DycoreCpu(_Stepping):
    name = "dycore_cpu"
    ops_per_round = 5
    quick_ops = 1
    grid = (48, 48, 24)

    def spec(self) -> RunSpec:
        nx, ny, nz = self.grid
        return RunSpec("warm-bubble", nx=nx, ny=ny, nz=nz, backend="cpu",
                       stencil_backend=self.backend, seed=self.seed)

    def setup(self):
        self.exp = Experiment(self.spec()).prepare()
        self.mass0 = self.exp.state.total_mass()
        self.exp.advance(1)

    def after_round(self):
        ok = finite(self.exp.state)
        return (0 if ok else self.ops_per_round,
                {"steps": self.ops_per_round})

    def final_checksum(self):
        return state_sha(self.exp.state)

    def verify(self):
        drift = abs(self.exp.state.total_mass() - self.mass0) / self.mass0
        return {
            "finite_state": finite(self.exp.state),
            "mass_drift_lt_1e-10": drift < 1e-10,
            "reference_eq_fused_3_steps": states_equal(
                self._run3(stencil_backend="reference"),
                self._run3(stencil_backend="fused")),
            "rounds_identical": self.rounds_identical(),
        }

    def extras(self):
        nx, ny, nz = self.grid
        return {"cells": nx * ny * nz}


# -------------------------------------------------------------- decomp_2x2


class Decomp2x2(_Stepping):
    name = "decomp_2x2"
    ops_per_round = 10
    quick_ops = 2
    backend = "fused"
    alt_backend = "reference"
    grid = (32, 32, 16)

    def spec(self) -> RunSpec:
        nx, ny, nz = self.grid
        return RunSpec("real-case", nx=nx, ny=ny, nz=nz, backend="multigpu",
                       ranks=(2, 2), stencil_backend=self.backend,
                       metrics=True, seed=self.seed)

    def setup(self):
        self.exp = Experiment(self.spec()).prepare()
        self.exp.advance(1)
        self._mark = self._counts()

    def _counts(self):
        m = self.exp.machine
        return (m.comm.stats.messages, m.comm.stats.bytes_total,
                [len(d.timeline) for d in m.devices],
                [d.elapsed() for d in m.devices])

    def after_round(self):
        ok = finite(*self.exp.rank_states)
        msgs0, bytes0, ops0, t0 = self._mark
        self._mark = msgs, nbytes, ops, t = self._counts()
        devices = self.exp.machine.devices
        stats = {
            "steps": self.ops_per_round,
            "halo_msgs": msgs - msgs0,
            "halo_bytes": nbytes - bytes0,
            "device_ops": [b - a for a, b in zip(ops0, ops)],
            "device_flops": [sum(op.flops for op in d.timeline[a:])
                             for d, a in zip(devices, ops0)],
            "modeled_step_s": sig((max(t) - max(t0)) / self.ops_per_round),
        }
        return (0 if ok else self.ops_per_round), stats

    def final_checksum(self):
        return state_sha(*self.exp.rank_states)

    def verify(self):
        single = dict(backend="cpu", ranks=None, metrics=False)
        decomposed = self._run3()
        fused = self._run3(**single)
        reference = self._run3(stencil_backend="reference", **single)
        return {
            "finite_state": finite(*self.exp.rank_states),
            "gathered_2x2_eq_single_domain": states_equal(decomposed, fused),
            "fused_eq_reference_backend": states_equal(fused, reference),
            "rounds_identical": self.rounds_identical(),
        }

    def extras(self):
        nx, ny, nz = self.grid
        steps = self.exp.step_index
        devices = self.exp.machine.devices
        slowest = max(devices, key=lambda d: d.elapsed())
        comm = sum(slowest.busy_time(k) for k in ("h2d", "d2h", "mpi"))
        exposed = slowest.elapsed() - slowest.busy_time("kernel")
        out = {
            "cells": nx * ny * nz,
            "dist.modeled_step_ms": 1e3 * slowest.elapsed() / steps,
            "dist.hidden_comm_frac": (min(1.0, max(0.0, 1.0 - exposed / comm))
                                 if comm > 0 else 0.0),
        }
        out.update(self._ladder())
        return out

    def _ladder(self) -> dict:
        """Host ms of one long step through each layer of the ladder,
        same grid and seed: the fastest of six steps, the variants taking
        their steps in turn so that all of them sample the same stretch
        of machine weather (interference only ever adds time)."""
        base = dataclasses.replace(self.spec(), ranks=None, metrics=False)
        variants = {
            "cpu": dataclasses.replace(base, backend="cpu"),
            "gpu": dataclasses.replace(base, backend="gpu"),
            "gpu_counters": dataclasses.replace(base, backend="gpu",
                                                counters=True),
            "multigpu": dataclasses.replace(base, backend="multigpu",
                                            ranks=(2, 2)),
            "multigpu_session": self.spec(),
        }
        exps = {k: Experiment(s).prepare() for k, s in variants.items()}
        times = {k: [] for k in exps}
        for i in range(2 if self.quick else 7):
            for k, e in exps.items():
                t0 = time.perf_counter()
                e.advance(1)
                if i:                      # step 0 is the cold one
                    times[k].append(time.perf_counter() - t0)
        runner = exps["gpu"].runner
        out = {f"ladder_{k}_ms": 1e3 * min(v) for k, v in times.items()}
        out["gpu.modeled_step_ms"] = 1e3 * runner.modeled_step_time()
        out["gpu.modeled_gflops"] = runner.sustained_gflops()
        return out


# ------------------------------------------------------------ serve_stream

# (RunSpec kwargs, steps) of the unique jobs of one stream: the service's
# own synthetic palette (tiny meshes, one 2x2 gang shape), every
# single-GPU shape at a short and a long forecast
_STREAM_SINGLES = [
    ({"workload": "warm-bubble", "nx": 16, "ny": 16, "nz": 8}, 2),
    ({"workload": "warm-bubble", "nx": 16, "ny": 16, "nz": 8}, 5),
    ({"workload": "shear-layer", "nx": 32, "ny": 4, "nz": 16}, 3),
    ({"workload": "shear-layer", "nx": 32, "ny": 4, "nz": 16}, 4),
    ({"workload": "warm-bubble", "nx": 32, "ny": 32, "nz": 12}, 2),
    ({"workload": "warm-bubble", "nx": 32, "ny": 32, "nz": 12}, 4),
    ({"workload": "warm-bubble", "nx": 24, "ny": 24, "nz": 10,
      "backend": "multigpu", "ranks": (2, 2)}, 3),
]
_STREAM_BURST = ({"workload": "warm-bubble", "nx": 16, "ny": 16, "nz": 8}, 3)
_BURST_MEMBERS = 4
_DUPLICATES = 5
_PRIORITIES = (0, 0, 1, 2)


def forecast_stream(seed: int, *, n_jobs: int = 16, backend: str = "auto",
                    rate: float = 80.0,
                    resubmit_after: float = 1.0) -> list[Submission]:
    """One seeded arrival stream of a fixed job mix.

    Per 16 jobs: 7 unique forecasts and one same-instant burst of 4
    perturbed members arrive open-loop at ``rate`` jobs per modeled
    second, in seeded order.
    ``resubmit_after`` modeled seconds later, when the fleet has drained,
    5 of the 11 are resubmitted verbatim (0.3 of the stream) and are
    answered from the result cache.  The seed draws the order, the
    Poisson gaps, the priorities, every initial-condition seed and which
    jobs come back.  ``repro.serve.poisson_workload`` is not used because
    its job mix, and with it the host work per job, changes twofold from
    seed to seed.
    """
    rng = np.random.default_rng(seed)

    def priority() -> int:
        return int(rng.choice(_PRIORITIES))

    def spec(kwargs, steps, ic_seed) -> RunSpec:
        return RunSpec(**kwargs, steps=steps, stencil_backend=backend,
                       seed=ic_seed)

    subs: list[Submission] = []
    t = 0.0
    while len(subs) < n_jobs:
        # same-instant groups: each single alone, the burst together
        units = [[Submission(0.0, spec(kw, steps, int(rng.integers(2 ** 31))),
                             priority=priority())]
                 for kw, steps in _STREAM_SINGLES]
        gang_seed, pri = int(rng.integers(2 ** 31)), priority()
        units.append([Submission(0.0, spec(*_STREAM_BURST, gang_seed + m),
                                 priority=pri, member=m)
                      for m in range(_BURST_MEMBERS)])
        wave = []
        for i in rng.permutation(len(units)):
            t += float(rng.exponential(1.0 / rate))
            wave.extend(dataclasses.replace(s, t=t) for s in units[i])
        t += resubmit_after
        for i in rng.choice(len(wave), size=_DUPLICATES, replace=False):
            t += float(rng.exponential(1.0 / rate))
            wave.append(Submission(t, wave[i].spec, priority=priority()))
        subs.extend(wave)
    return subs[:n_jobs]


class _Served(Workload):
    """Workloads that replay submissions through a ForecastService."""

    #: fleet size of the service under test
    gpus = 8

    def submissions(self) -> list[Submission]:
        raise NotImplementedError

    def _replay(self, subs, *, gpus=None, recorder=None) -> float:
        """Host seconds of one scheduling-only replay (``execute=False``:
        every queue, cache and scheduler decision, no dycore)."""
        svc = ForecastService(GpuFleet(gpus or self.gpus), policy="sjf",
                              queue_limit=len(subs), execute=False,
                              recorder=recorder)
        t0 = time.perf_counter()
        svc.run(subs)
        return time.perf_counter() - t0

    def extras(self):
        subs = self.submissions()
        # fastest of five each, taken in turn: see Decomp2x2._ladder
        plain, recorded = [], []
        for _ in range(5):
            plain.append(self._replay(subs))
            recorded.append(self._replay(subs, recorder=FlightRecorder()))
        # 2000 jobs inside one modeled second: the queue grows to over a
        # thousand deep, which is what the select loop's cost hangs on
        big = forecast_stream(self.seed, n_jobs=64 if self.quick else 2000,
                              rate=2000.0, resubmit_after=0.0)
        return {
            "serve.sched_us_per_job": 1e6 * min(plain) / len(subs),
            "obs.recorder_overhead_frac": min(recorded) / min(plain) - 1.0,
            "serve.sched_2k_ms": 1e3 * self._replay(big, gpus=64),
        }


class ServeStream(_Served):
    name = "serve_stream"
    ops_per_round = 16
    quick_ops = 2

    def submissions(self):
        return forecast_stream(self.seed, n_jobs=self.ops_per_round,
                               backend=self.backend)

    def _service(self):
        # the flight recorder rides along as it does in operation: a
        # bounded ring, no path, so it never writes
        return ForecastService(GpuFleet(self.gpus), policy="sjf",
                               recorder=FlightRecorder())

    def setup(self):
        self.subs = self.submissions()
        self._service().run(self.subs[:1])

    def run_ops(self):
        self.service = self._service()
        self.report = self.service.run(self.subs)

    def after_round(self):
        jobs = self.service.jobs
        good = [j for j in jobs
                if j.state in (JobState.DONE, JobState.CACHED)
                and j.result is not None and finite(j.result.state)]
        stats = self.report.as_dict()
        stats["final_states"] = state_sha(*(j.result.state for j in good))
        return len(jobs) - len(good), stats

    def final_checksum(self):
        return self.round_stats[-1]["final_states"]

    def verify(self):
        rep = self.report
        first, repeats_ok = {}, True
        for j in self.service.jobs:
            original = first.setdefault(j.spec_hash, j)
            if original is not j:        # cache hit or queued duplicate
                repeats_ok &= (j.result is not None and states_equal(
                    j.result.state, original.result.state))
        served = self.service.jobs[-1]
        standalone = Experiment(served.spec).prepare().run()
        return {
            "none_failed_shed_evicted":
                rep.n_failed == rep.n_shed == rep.n_evicted == 0,
            "repeat_fields_eq_original": repeats_ok,
            "served_eq_standalone_run": states_equal(served.result.state,
                                                     standalone.state),
            "rounds_identical": self.rounds_identical(),
        }


# -------------------------------------------------------- ensemble_recover


class EnsembleRecover(_Served):
    name = "ensemble_recover"
    ops_per_round = 8
    quick_ops = 2
    gpus = 4

    def _ensemble(self, *, ckpt_dir: "str | None") -> EnsembleSpec:
        resilience = ({} if ckpt_dir is None else
                      dict(faults="crash@3", checkpoint_every=2,
                           checkpoint_dir=ckpt_dir))
        base = RunSpec("vortex", nx=24, ny=24, nz=12, steps=4,
                       stencil_backend=self.backend, **resilience)
        return EnsembleSpec(base=base, members=self.ops_per_round,
                            seed=self.seed)

    def submissions(self):
        runner = EnsembleRunner(self._ensemble(ckpt_dir=None),
                                fleet=self.gpus)
        return runner.submissions()

    def _run(self, members: "int | None" = None):
        ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=self.tmp)
        try:
            ens = self._ensemble(ckpt_dir=ckpt)
            if members is not None:
                ens = dataclasses.replace(ens, members=members)
            return EnsembleRunner(ens, fleet=self.gpus).run()
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)

    def setup(self):
        self._run(members=1)

    def run_ops(self):
        self.result = self._run()

    def after_round(self):
        res = self.result
        good = sum(1 for s in res.member_states.values()
                   if s in ("done", "cached"))
        fields = res.product.field_stats
        ok = all(bool(np.isfinite(st[k]).all())
                 for st in fields.values() for k in ("mean", "spread"))
        stats = {"report": res.report.as_dict(),
                 "product": res.product.as_dict(),
                 "fields": self._product_sha(res.product)}
        return (self.ops_per_round - good if ok else self.ops_per_round,
                stats)

    @staticmethod
    def _product_sha(product) -> str:
        h = hashlib.sha256()
        for name in sorted(product.field_stats):
            for k in ("mean", "spread"):
                h.update(product.field_stats[name][k].tobytes())
        return h.hexdigest()

    def final_checksum(self):
        return self.round_stats[-1]["fields"]

    def verify(self):
        # the clean ensemble: every member run standalone with neither
        # fault nor checkpoint, reduced offline in one batch
        clean = [member_contribution(Experiment(spec).prepare().run(), m)
                 for m, spec in
                 enumerate(self._ensemble(ckpt_dir=None).expand())]
        batch = OnlineReducer.batch(clean, self.ops_per_round)
        recovered = [j["state"] for j in self.result.report.jobs]
        return {
            "coverage_is_1": self.result.product.coverage == 1.0,
            "all_members_done": recovered == ["done"] * self.ops_per_round,
            "recovered_eq_clean_eq_batch":
                self._product_sha(self.result.product)
                == self._product_sha(batch),
            "rounds_identical": self.rounds_identical(),
        }


WORKLOADS = {w.name: w for w in
             (DycoreCpu, Decomp2x2, ServeStream, EnsembleRecover)}
