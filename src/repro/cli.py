"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      integrate a workload (mountain-wave / warm-bubble / real-case /
             shear-layer), optionally decomposed and/or with a history file;
             ``--trace`` writes a Chrome/Perfetto trace, ``--metrics`` prints
             the run metrics, ``--profile`` prints the phase breakdown;
             ``--faults`` / ``--checkpoint-every`` / ``--resume`` exercise
             the resilience layer (docs/RESILIENCE.md)
``trace``    replay a workload under tracing and write the trace artifacts
             (Chrome Trace JSON + optional JSONL) with a text summary
``bench``    print one of the paper-reproduction tables (fig4, roofline,
             fig9, fig10, fig11, table1, projection)
``analyze``  run the compute-sanitizer (docs/ANALYSIS.md): asuca-lint,
             racecheck over the overlap methods, and sanitized smoke runs;
             exits nonzero on any finding (the CI gate)
``serve``    operate a forecast service on a virtual GPU fleet: replay a
             JSONL workload (or a seeded Poisson stream) through the gang
             scheduler + result cache and print the service report;
             ``--slo`` adds declarative health objectives (docs/SERVING.md)
``ensemble`` run a perturbed-member forecast ensemble as a gang through
             the service and print the probabilistic product — mean /
             spread / percentiles plus the coverage stamp; exit 1 flags
             a degraded product (docs/ENSEMBLE.md)
``doctor``   the perf doctor (docs/DOCTOR.md): critical-path and overlap
             attribution over a trace or the modeled overlap methods, the
             ``--regress`` bench regression gate over BENCH_*.json
             (wall-clock keys ignored unless ``--strict-wall``), and the
             ``--fleet`` telemetry summary of a serve trace
``top``      terminal fleet view from serve telemetry — live (a seeded
             Poisson run, scheduling only) or ``--replay`` of an exported
             serve trace; utilization, queue depth, wait/turnaround
             p50/p95/p99, cache hit rate, alerts (docs/OBSERVABILITY.md)
``info``     device specs and calibration anchors

Diagnostic commands (``trace``, ``analyze``, ``doctor``, ``serve``,
``ensemble``, ``top``) share one exit-code convention: 0 = clean, 1 =
findings/alerts, 2 = usage error.

The CLI is a thin veneer over :class:`repro.api.Experiment`; everything it
does is shown in examples/ as library code.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .api import WORKLOADS
from .optimeline import METHOD_NAMES, PAPER_METHOD

__all__ = ["main", "build_parser"]

#: shared exit-code contract, shown in each diagnostic command's --help
_EXIT_CODES = ("exit codes: 0 = clean, 1 = findings/alerts were reported, "
               "2 = usage error (bad arguments or unreadable input)")

#: the tables `repro bench` prints: the producers of repro.perf.figures
_BENCH_TABLES = ("fig4", "roofline", "fig9", "fig10", "fig11", "table1",
                 "projection")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="SC'10 ASUCA GPU-paper reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a workload")
    run.add_argument("workload", nargs="?", default="warm-bubble",
                     choices=WORKLOADS)
    run.add_argument("--nx", type=int, default=None)
    run.add_argument("--ny", type=int, default=None)
    run.add_argument("--nz", type=int, default=None)
    run.add_argument("--steps", type=int, default=50)
    run.add_argument("--dt", type=float, default=None)
    run.add_argument("--seed", type=int, default=None,
                     help="perturbation seed: applies the workload's "
                          "seeded IC noise (ensemble members set this; "
                          "semantic — enters the spec hash)")
    run.add_argument("--backend", default="auto",
                     choices=["auto", "cpu", "gpu", "multigpu"],
                     help="execution backend (auto: multigpu when --ranks "
                          "is given, gpu when traced, else cpu)")
    run.add_argument("--ranks", type=str, default=None, metavar="PXxPY",
                     help="decompose, e.g. 2x3 (verifies against single-domain)")
    run.add_argument("--stencil-backend", default="auto",
                     choices=["auto", "reference", "fused"],
                     help="stencil executor backend (docs/STENCILS.md): "
                          "'fused' (= 'auto') runs the compiled bodies "
                          "where a library is loaded, 'reference' every "
                          "textbook oracle; the same bytes either way")
    run.add_argument("--history", type=str, default=None,
                     help="write snapshots to this .npz")
    run.add_argument("--history-every", type=float, default=60.0,
                     help="seconds of model time between snapshots")
    run.add_argument("--ice", action="store_true",
                     help="enable the cold-rain (ice) extension")
    run.add_argument("--trace", type=str, default=None, metavar="OUT.json",
                     help="record the run and write a Chrome Trace Format "
                          "JSON (open in chrome://tracing or Perfetto)")
    run.add_argument("--trace-jsonl", type=str, default=None,
                     metavar="OUT.jsonl",
                     help="also write the trace as a JSONL event stream")
    run.add_argument("--metrics", action="store_true",
                     help="print the run metrics registry at the end")
    run.add_argument("--profile", action="store_true",
                     help="print the host phase table (calls, seconds, "
                          "share of the cat='phase' spans) after integration")
    run.add_argument("--summary", action="store_true",
                     help="print the trace summary (implies a session)")
    run.add_argument("--counters", action="store_true",
                     help="measure FLOP/byte counts per kernel launch (the "
                          "live roofline; see docs/OBSERVABILITY.md) — "
                          "counts land in the trace/metrics and feed "
                          "'repro doctor --roofline'")
    run.add_argument("--counter-every", type=int, default=1, metavar="N",
                     help="measure every Nth step only (default 1; bounds "
                          "counting overhead)")
    run.add_argument("--faults", type=str, default=None, metavar="PLAN",
                     help="fault-injection plan: 'demo', 'random:SEED', or "
                          "a comma list like drop@1,crash@3:r2 "
                          "(see docs/RESILIENCE.md)")
    run.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                     help="checkpoint the run state every K long steps")
    run.add_argument("--checkpoint-dir", type=str, default=None,
                     help="checkpoint directory (default: 'checkpoints' "
                          "when checkpointing or resuming)")
    run.add_argument("--resume", action="store_true",
                     help="resume from the latest checkpoint in the "
                          "checkpoint directory (--steps is the absolute "
                          "target step)")

    tr = sub.add_parser(
        "trace", help="replay a workload under tracing (run + artifacts)",
        epilog=_EXIT_CODES)
    tr.add_argument("workload", nargs="?", default="warm-bubble",
                    choices=WORKLOADS)
    tr.add_argument("-o", "--output", default="trace.json",
                    help="Chrome Trace Format output path")
    tr.add_argument("--jsonl", type=str, default=None,
                    help="also write a JSONL event stream here")
    tr.add_argument("--nx", type=int, default=None)
    tr.add_argument("--ny", type=int, default=None)
    tr.add_argument("--nz", type=int, default=None)
    tr.add_argument("--steps", type=int, default=5)
    tr.add_argument("--dt", type=float, default=None)
    tr.add_argument("--ranks", type=str, default=None, metavar="PXxPY",
                    help="decompose, e.g. 2x2 (one device track per rank)")
    tr.add_argument("--ice", action="store_true")

    bench = sub.add_parser("bench", help="print a paper table")
    bench.add_argument("table",
                       choices=_BENCH_TABLES)
    bench.add_argument("--device", default="s1070",
                       choices=["s1070", "m2050"],
                       help="device spec for the roofline table "
                            "(default s1070)")

    an = sub.add_parser(
        "analyze",
        help="run the compute-sanitizer (racecheck/memcheck/asuca-lint)",
        epilog=_EXIT_CODES)
    an.add_argument("--lint", nargs="?", const="src/repro", default=None,
                    metavar="PATH",
                    help="run the asuca-lint pass over PATH (default "
                         "src/repro); selecting any pass flag disables the "
                         "others unless they are also given")
    an.add_argument("--racecheck", action="store_true",
                    help="racecheck the overlap-method schedules")
    an.add_argument("--smoke", action="store_true",
                    help="run the sanitized single-GPU and multi-GPU "
                         "smoke runs (memcheck + racecheck)")
    an.add_argument("--dataflow", action="store_true",
                    help="run the dataflow pass: the real drivers under "
                         "differential halo poisoning (stale halos, dead "
                         "dispatches), plus fusion drift and precision "
                         "flow")
    an.add_argument("--baseline", type=str, default=None, metavar="FILE",
                    help="dataflow baseline file (default the checked-in "
                         "analysis/baseline.json; 'none' disables it)")
    an.add_argument("--sarif", type=str, default=None, metavar="OUT.sarif",
                    help="also write the report as SARIF 2.1.0 to "
                         "OUT.sarif")
    an.add_argument("--list-codes", action="store_true",
                    help="print the finding-code registry and exit")
    an.add_argument("--workload", default="shear-layer",
                    choices=WORKLOADS,
                    help="workload driven by the smoke runs")
    an.add_argument("--steps", type=int, default=2,
                    help="smoke-run long steps")
    an.add_argument("--ranks", type=str, default="2x2", metavar="PXxPY",
                    help="multi-GPU smoke decomposition (default 2x2)")
    an.add_argument("--json", action="store_true",
                    help="emit the report as JSON instead of text")
    an.add_argument("--trace", type=str, default=None, metavar="OUT.json",
                    help="record the smoke runs and file each finding as "
                         "an instant on the offending device track")
    an.add_argument("--seed-hazard", default=None,
                    choices=["missing-event", "uaf"],
                    help=argparse.SUPPRESS)  # test fixture: plant a fault

    srv = sub.add_parser(
        "serve",
        help="operate a forecast service on a virtual GPU fleet "
             "(docs/SERVING.md)",
        epilog=_EXIT_CODES)
    srv.add_argument("--workload-file", type=str, default=None,
                     metavar="FILE.jsonl",
                     help="replay this JSONL workload (default: a "
                          "synthetic seeded Poisson workload)")
    srv.add_argument("--jobs", type=int, default=30,
                     help="synthetic workload size (ignored with "
                          "--workload-file)")
    srv.add_argument("--rate", type=float, default=80.0,
                     help="synthetic Poisson arrival rate [jobs per "
                          "modeled second]")
    srv.add_argument("--seed", type=int, default=0,
                     help="synthetic workload seed (same seed = same "
                          "workload = same report)")
    srv.add_argument("--gpus", type=int, default=8,
                     help="fleet size")
    srv.add_argument("--device", default="s1070",
                     choices=["s1070", "m2050"],
                     help="fleet device spec")
    srv.add_argument("--policy", default="fifo",
                     choices=["fifo", "priority", "sjf"],
                     help="queue ordering policy")
    srv.add_argument("--queue-limit", type=int, default=64,
                     help="queue bound; submissions beyond it are shed")
    srv.add_argument("--no-backfill", action="store_true",
                     help="disable EASY backfill behind gang "
                          "reservations")
    srv.add_argument("--cache-size", type=int, default=64,
                     help="result-cache capacity (0 disables caching)")
    srv.add_argument("--faults", type=str, default=None, metavar="PLAN",
                     help="service-level crash plan; CRASH events are "
                          "keyed by job index, e.g. crash@3:x5 crashes "
                          "job 3 on five consecutive attempts")
    srv.add_argument("--max-retries", type=int, default=2,
                     help="job retries before eviction")
    srv.add_argument("--no-execute", action="store_true",
                     help="schedule only (skip the real runs); for "
                          "scheduling studies on huge fleets")
    srv.add_argument("--trace", type=str, default=None, metavar="OUT.json",
                     help="export the whole service run as one Chrome "
                          "trace (per-job spans + queue-depth counters)")
    srv.add_argument("--trace-jsonl", type=str, default=None,
                     metavar="OUT.jsonl",
                     help="also export the run as a JSONL event stream "
                          "(replayable with 'repro top --replay')")
    srv.add_argument("--flight-recorder", type=str, default=None,
                     metavar="OUT.jsonl",
                     help="attach the black-box flight recorder: a "
                          "bounded ring of service events dumped here "
                          "automatically on crash/alert, or in full at "
                          "the end of a clean run (docs/OBSERVABILITY.md)")
    srv.add_argument("--recorder-capacity", type=int, default=4096,
                     metavar="N",
                     help="flight-recorder ring capacity (default 4096)")
    srv.add_argument("--prometheus", type=str, default=None,
                     metavar="OUT.prom",
                     help="write the final telemetry snapshot in "
                          "Prometheus text exposition format")
    srv.add_argument("--timeseries-csv", type=str, default=None,
                     metavar="OUT.csv",
                     help="write the fixed-interval snapshot grid as CSV")
    srv.add_argument("--ts-interval", type=float, default=0.05,
                     metavar="SECONDS",
                     help="snapshot grid interval in modeled seconds "
                          "(default 0.05)")
    srv.add_argument("--profile-scheduler", action="store_true",
                     help="print the scheduler self-profile (event rates, "
                          "pass durations, queue-scan stats) to stderr")
    srv.add_argument("--slo", type=str, default=None, metavar="RULES",
                     help="comma-separated health objectives, e.g. "
                          "'p95_wait_s<0.5,queue_depth<32' or burn-rate "
                          "'wait_s<0.5@0.2'; fired alerts land in the "
                          "report (and trace) and set exit status 1 "
                          "(docs/DOCTOR.md)")
    srv.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    srv.add_argument("--jobs-table", action="store_true",
                     help="append the per-job table to the text report")

    ens = sub.add_parser(
        "ensemble",
        help="run a perturbed-member forecast ensemble through the "
             "service and print the probabilistic product "
             "(docs/ENSEMBLE.md)",
        epilog=_EXIT_CODES + "; for ensembles, exit 1 also flags a "
               "degraded product (coverage < 1)")
    ens.add_argument("workload", nargs="?", default="vortex",
                     choices=WORKLOADS)
    ens.add_argument("--members", type=int, default=8,
                     help="ensemble size (member 0 is the unperturbed "
                          "control unless --no-control)")
    ens.add_argument("--seed", type=int, default=0,
                     help="ensemble seed; every member derives its own "
                          "sub-seed from (seed, member, perturbation)")
    ens.add_argument("--steps", type=int, default=5)
    ens.add_argument("--nx", type=int, default=None)
    ens.add_argument("--ny", type=int, default=None)
    ens.add_argument("--nz", type=int, default=None)
    ens.add_argument("--dt", type=float, default=None)
    ens.add_argument("--perturb", action="append", default=None,
                     metavar="PERT",
                     help="perturbation (repeatable; replaces the "
                          "default catalogue): 'ic[:THETA[,WIND]]' for "
                          "IC noise, 'KEY~SIGMA' for lognormal parameter "
                          "jitter, e.g. vmax~0.15")
    ens.add_argument("--no-control", action="store_true",
                     help="perturb member 0 too")
    ens.add_argument("--gpus", type=int, default=4, help="fleet size")
    ens.add_argument("--device", default="s1070",
                     choices=["s1070", "m2050"])
    ens.add_argument("--policy", default="fifo",
                     choices=["fifo", "priority", "sjf"])
    ens.add_argument("--cache-size", type=int, default=8,
                     help="result-cache capacity (kept small: folded "
                          "members are released, the cache is the only "
                          "state holder)")
    ens.add_argument("--faults", type=str, default=None, metavar="PLAN",
                     help="service-level crash plan keyed by member "
                          "index, e.g. crash@3:x2 crashes member 3 twice")
    ens.add_argument("--max-retries", type=int, default=2,
                     help="member retries before eviction (an evicted "
                          "member shrinks the ensemble: coverage < 1)")
    ens.add_argument("--trace", type=str, default=None, metavar="OUT.json",
                     help="export the ensemble run as one Chrome trace "
                          "(member spans + fold/skip instants)")
    ens.add_argument("--json", action="store_true",
                     help="emit the product + service report as JSON")

    doc = sub.add_parser(
        "doctor",
        help="perf doctor: critical-path/overlap attribution and the "
             "bench regression gate (docs/DOCTOR.md)",
        epilog=_EXIT_CODES)
    doc.add_argument("--trace", type=str, default=None, metavar="TRACE",
                     help="diagnose an exported trace artifact (Chrome "
                          "Trace JSON or JSONL) instead of the model")
    doc.add_argument("--method", default=PAPER_METHOD,
                     choices=list(METHOD_NAMES),
                     help="overlap method configuration to diagnose "
                          "(model mode)")
    doc.add_argument("--ranks", type=str, default="2x2", metavar="PXxPY",
                     help="rank grid for the modeled step; an interior "
                          "rank's neighbor links per axis follow from it "
                          "(default 2x2)")
    doc.add_argument("--nx", type=int, default=None,
                     help="grid override (model mode default 320; "
                          "roofline-run mode default 16)")
    doc.add_argument("--ny", type=int, default=None,
                     help="grid override (model mode default 256; "
                          "roofline-run mode default 16)")
    doc.add_argument("--nz", type=int, default=None,
                     help="grid override (model mode default 48; "
                          "roofline-run mode default 12)")
    doc.add_argument("--roofline", action="store_true",
                     help="live roofline: place every on-path kernel on "
                          "the Eq.-6 curve from *measured* FLOP/byte "
                          "counts (from --trace if it was recorded with "
                          "--counters, else from a fresh counted run) and "
                          "flag drift vs the cost table "
                          "(docs/DOCTOR.md)")
    doc.add_argument("--workload", default="shear-layer",
                     choices=WORKLOADS,
                     help="workload for the counted --roofline run "
                          "(default shear-layer)")
    doc.add_argument("--steps", type=int, default=2,
                     help="steps of the counted --roofline run (default 2)")
    doc.add_argument("--counter-every", type=int, default=1, metavar="N",
                     help="sampling cadence of the counted --roofline run")
    doc.add_argument("--device", default="s1070",
                     choices=["s1070", "m2050"],
                     help="device spec for --roofline placement")
    doc.add_argument("--seed-drift", default=None, metavar="KERNEL:FACTOR",
                     help=argparse.SUPPRESS)  # test fixture: perturb table
    doc.add_argument("--min-hidden", type=float, default=None,
                     metavar="FRAC",
                     help="gate: fail (exit 1) when the hidden-"
                          "communication fraction is below FRAC")
    doc.add_argument("--fleet", action="store_true",
                     help="fleet telemetry summary of a serve --trace "
                          "artifact (the single-shot form of 'repro "
                          "top'); exit 1 when alerts fired")
    doc.add_argument("--regress", type=str, default=None,
                     metavar="CURRENT.json",
                     help="bench regression gate: diff this BENCH_*.json "
                          "against --baseline and exit 1 on drift")
    doc.add_argument("--baseline", type=str, default=None,
                     metavar="BASELINE.json",
                     help="baseline artifact for --regress")
    doc.add_argument("--rel-tol", type=float, default=0.05,
                     help="relative drift tolerance for --regress "
                          "(default 0.05)")
    doc.add_argument("--tolerance", action="append", default=None,
                     metavar="GLOB=TOL",
                     help="per-metric tolerance override, e.g. "
                          "'*.gflops=0.1'; TOL 'ignore' skips the metric "
                          "(repeatable)")
    doc.add_argument("--strict-wall", action="store_true",
                     help="--regress: gate wall-clock keys (dotted path "
                          "matching *wall*) too; they are ignored by "
                          "default because they measure the machine, "
                          "not the model")
    doc.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")

    top = sub.add_parser(
        "top",
        help="terminal fleet view from serve telemetry "
             "(docs/OBSERVABILITY.md)",
        epilog=_EXIT_CODES)
    top.add_argument("--replay", type=str, default=None, metavar="TRACE",
                     help="replay an exported serve trace (Chrome JSON "
                          "or JSONL, from 'repro serve --trace/"
                          "--trace-jsonl') instead of running live")
    top.add_argument("--interval", type=float, default=0.05,
                     metavar="SECONDS",
                     help="snapshot grid interval in modeled seconds "
                          "(default 0.05)")
    top.add_argument("--frames", type=int, default=12,
                     help="frame-table rows to print (0 hides the "
                          "frame-by-frame replay)")
    top.add_argument("--json", action="store_true",
                     help="emit the fleet view as JSON instead of text")
    top.add_argument("--jobs", type=int, default=100,
                     help="live mode: synthetic Poisson workload size")
    top.add_argument("--rate", type=float, default=80.0,
                     help="live mode: arrival rate [jobs per modeled s]")
    top.add_argument("--seed", type=int, default=0,
                     help="live mode: workload seed")
    top.add_argument("--gpus", type=int, default=8,
                     help="live mode: fleet size")
    top.add_argument("--policy", default="fifo",
                     choices=["fifo", "priority", "sjf"],
                     help="live mode: queue ordering policy")
    top.add_argument("--queue-limit", type=int, default=64,
                     help="live mode: queue bound")
    top.add_argument("--slo", type=str, default=None, metavar="RULES",
                     help="live mode: health objectives (as in 'repro "
                          "serve --slo')")

    sub.add_parser("info", help="device specs and calibration anchors")

    rep = sub.add_parser("reproduce",
                         help="rebuild EXPERIMENTS.md from benchmark reports")
    rep.add_argument("-o", "--output", default="EXPERIMENTS.md")
    rep.add_argument("--reports", default="benchmarks/reports")
    return p


# --------------------------------------------------------------------- run
def _spec_from_args(args) -> "RunSpec":
    from .api import RunSpec

    ckpt_dir = getattr(args, "checkpoint_dir", None)
    if ckpt_dir is None and (getattr(args, "checkpoint_every", 0)
                             or getattr(args, "resume", False)):
        ckpt_dir = "checkpoints"
    return RunSpec(
        workload=args.workload,
        steps=args.steps,
        nx=args.nx, ny=args.ny, nz=args.nz, dt=args.dt,
        seed=getattr(args, "seed", None),
        backend=getattr(args, "backend", "auto"),
        stencil_backend=getattr(args, "stencil_backend", "auto"),
        ranks=args.ranks or None,
        ice=args.ice,
        trace_path=getattr(args, "trace", None),
        trace_jsonl=getattr(args, "trace_jsonl", None),
        metrics=getattr(args, "metrics", False),
        profile=getattr(args, "profile", False),
        summary=getattr(args, "summary", False),
        counters=getattr(args, "counters", False),
        counter_every=getattr(args, "counter_every", 1),
        history_path=getattr(args, "history", None),
        history_every=getattr(args, "history_every", 60.0),
        faults=getattr(args, "faults", None),
        checkpoint_every=getattr(args, "checkpoint_every", 0),
        checkpoint_dir=ckpt_dir,
        resume=getattr(args, "resume", False),
    )


def _cmd_run(args) -> int:
    from .api import Experiment

    exp = Experiment(_spec_from_args(args)).prepare()
    grid = exp.grid
    print(f"{exp.spec.workload}: {grid.nx}x{grid.ny}x{grid.nz}, "
          f"dt={exp.model.config.dynamics.dt}s, {exp.spec.steps} steps")
    if exp.resumed_from is not None:
        print(f"resumed from checkpoint at step {exp.resumed_from}")
    result = exp.run()
    state = result.state

    if exp.spec.backend == "multigpu":
        px, py = exp.spec.ranks
        print(f"ranks {px}x{py}: {result.halo_messages} messages, "
              f"{result.halo_bytes / 1e6:.1f} MB halo traffic")
    if result.session is not None:
        from .obs import (span_table, summary_text, write_chrome_trace,
                          write_jsonl)

        if exp.spec.trace_path:
            print(f"trace: {write_chrome_trace(result.session, exp.spec.trace_path)}")
        if exp.spec.trace_jsonl:
            print(f"trace events: {write_jsonl(result.session, exp.spec.trace_jsonl)}")
        if exp.spec.summary:
            print(summary_text(result.session))
        elif exp.spec.metrics:
            print(result.session.metrics.report())
        if exp.spec.profile:
            print(span_table((rec for rec in result.session.spans
                              if rec.cat == "phase"), "phase"))
    if exp.executor is not None and exp.executor.backend != "reference":
        print(exp.executor.report())
    if exp.spec.counters:
        runners = ([exp.runner] if exp.runner is not None
                   else getattr(exp.machine, "runners", None) or [])
        hooks = [r.counting for r in runners if r.counting is not None]
        if hooks:
            launches = sum(mk.launches for h in hooks
                           for mk in h.measured.values())
            sampled = max(h.steps_sampled for h in hooks)
            print(f"counters: {launches} kernel launches measured over "
                  f"{sampled} sampled step(s) "
                  f"(see 'repro doctor --roofline')")
    if result.fault_log or result.recoveries or result.checkpoints_written:
        print(f"resilience: {result.resilience_report()}")

    d = result.diagnostics
    print(f"t={d.time:.0f}s  max|w|={d.max_w:.3f} m/s  "
          f"max wind={d.max_wind:.2f} m/s  "
          f"theta {d.min_theta:.1f}..{d.max_theta:.1f} K")
    if state.precip_accum is not None and float(np.max(state.precip_accum)) > 0:
        print(f"max accumulated precipitation: "
              f"{float(np.max(state.precip_accum)):.3f} mm")
    if exp.history is not None:
        print(f"history: {exp.history.n_snapshots} snapshots -> "
              f"{exp.history.path}")
    return 0


# -------------------------------------------------------------------- trace
def _cmd_trace(args) -> int:
    """Replay a workload under tracing: a ``run`` with a session always
    active, trace artifacts written, and the summary printed."""
    run_args = argparse.Namespace(
        workload=args.workload, nx=args.nx, ny=args.ny, nz=args.nz,
        steps=args.steps, dt=args.dt, ranks=args.ranks, ice=args.ice,
        backend="auto", history=None, history_every=60.0,
        trace=args.output, trace_jsonl=args.jsonl,
        metrics=True, profile=False, summary=True,
        faults=None, checkpoint_every=0, checkpoint_dir=None, resume=False,
    )
    return _cmd_run(run_args)


# -------------------------------------------------------------------- bench
def _cmd_bench(args) -> int:
    from .gpu.spec import device_spec
    from .perf import figures

    kwargs = ({"spec": device_spec(args.device)}
              if args.table == "roofline" else {})
    print(getattr(figures, args.table)(**kwargs).brief)
    return 0


# ------------------------------------------------------------------ analyze
def _cmd_analyze(args) -> int:
    """Drive :func:`repro.analysis.run_all` and gate on its findings."""
    from pathlib import Path

    from .analysis import codes_table, run_all, write_sarif
    from .api import parse_ranks

    if args.list_codes:
        print(codes_table())
        return 0

    sel_lint = args.lint is not None
    sel_race = args.racecheck
    sel_smoke = args.smoke
    sel_flow = args.dataflow
    if not (sel_lint or sel_race or sel_smoke or sel_flow):
        sel_lint = sel_race = sel_smoke = sel_flow = True
    px, py = parse_ranks(args.ranks)
    if args.baseline not in (None, "none") and \
            not Path(args.baseline).is_file():
        print(f"analyze: baseline file {args.baseline} does not exist",
              file=sys.stderr)
        return 2

    session = None
    if args.trace:
        from .obs import TraceSession

        session = TraceSession(name="analyze")
    report = run_all(
        src_root=args.lint,
        lint=sel_lint, racecheck=sel_race, smoke=sel_smoke,
        dataflow=sel_flow, baseline=args.baseline,
        workload=args.workload, steps=args.steps, px=px, py=py,
        session=session, seed_hazard=args.seed_hazard,
    )
    if session is not None:
        from .obs import write_chrome_trace

        session.finalize(steps=max(1, args.steps))
        print(f"trace: {write_chrome_trace(session, args.trace)}",
              file=sys.stderr)
    if args.sarif:
        path = write_sarif(report, args.sarif,
                           root=Path(__file__).resolve().parents[2])
        print(f"sarif: {path}", file=sys.stderr)
    print(report.as_json() if args.json else report.text())
    return report.exit_status()


# -------------------------------------------------------------------- serve
def _cmd_serve(args) -> int:
    """Operate a :class:`~repro.serve.ForecastService` over a workload
    file or a synthetic Poisson stream, and print the service report."""
    import json as _json

    from .gpu.spec import device_spec
    from .resilience.retry import RetryPolicy
    from .serve import ForecastService, GpuFleet, load_workload, poisson_workload

    if args.workload_file:
        try:
            submissions = load_workload(args.workload_file)
        except (OSError, ValueError) as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
    else:
        submissions = poisson_workload(args.jobs, rate=args.rate,
                                       seed=args.seed)

    session = None
    if (args.trace or args.trace_jsonl or args.prometheus
            or args.timeseries_csv):
        from .obs import TraceSession

        session = TraceSession(name="serve")
    recorder = None
    if args.flight_recorder:
        from .obs import FlightRecorder

        try:
            recorder = FlightRecorder(args.recorder_capacity,
                                      path=args.flight_recorder)
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
    try:
        service = ForecastService(
            GpuFleet(args.gpus, device_spec(args.device)),
            policy=args.policy,
            queue_limit=args.queue_limit,
            backfill=not args.no_backfill,
            cache_capacity=args.cache_size,
            retry=RetryPolicy(max_retries=args.max_retries),
            faults=args.faults,
            session=session,
            slo=args.slo,
            recorder=recorder,
            execute=not args.no_execute,
        )
    except ValueError as exc:        # e.g. a malformed --slo expression
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    report = service.run(submissions)
    if session is not None:
        from .obs import write_chrome_trace, write_jsonl

        session.finalize()
        if args.trace:
            print(f"trace: {write_chrome_trace(session, args.trace)}",
                  file=sys.stderr)
        if args.trace_jsonl:
            print(f"trace events: "
                  f"{write_jsonl(session, args.trace_jsonl)}",
                  file=sys.stderr)
        if args.prometheus or args.timeseries_csv:
            from .obs import fleet_view

            view = fleet_view(session, interval=args.ts_interval)
            snaps = view.snapshots
            # fold the end-of-run registry onto the grid so the scrape
            # also carries the serve gauges and job counters
            snaps.ingest_registry(session.metrics,
                                  max(snaps.t_max, report.makespan_s))
            if args.prometheus:
                print(f"prometheus: "
                      f"{snaps.write_prometheus(args.prometheus)}",
                      file=sys.stderr)
            if args.timeseries_csv:
                print(f"timeseries: "
                      f"{snaps.write_csv(args.timeseries_csv)}",
                      file=sys.stderr)
    if recorder is not None:
        state = (f"tripped by {recorder.last_trip}" if recorder.trips
                 else "clean run, full history")
        print(f"flight recorder: {args.flight_recorder} "
              f"({len(recorder)} events, {state})", file=sys.stderr)
    if args.profile_scheduler:
        print(service.profile.text(), file=sys.stderr)
    if args.json:
        print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(jobs_table=args.jobs_table))
    # failures are part of a service report, not a CLI error; trouble
    # means fired SLO alerts or a fleet that completed nothing
    if report.alerts:
        return 1
    return 0 if (report.n_done + report.n_cached) or not report.n_submitted else 1


# ----------------------------------------------------------------- ensemble
def _cmd_ensemble(args) -> int:
    """Run a perturbed-member ensemble through the forecast service and
    print the probabilistic product; exit 1 flags a degraded product
    (coverage < 1) or fired alerts."""
    import json as _json

    from .api import RunSpec
    from .ensemble import EnsembleRunner, EnsembleSpec, parse_perturbation
    from .gpu.spec import device_spec
    from .resilience.retry import RetryPolicy
    from .serve import GpuFleet

    session = None
    if args.trace:
        from .obs import TraceSession

        session = TraceSession(name="ensemble")
    try:
        perturbations = (tuple(parse_perturbation(p) for p in args.perturb)
                         if args.perturb else None)
        ensemble = EnsembleSpec(
            base=RunSpec(workload=args.workload, steps=args.steps,
                         nx=args.nx, ny=args.ny, nz=args.nz, dt=args.dt),
            members=args.members,
            seed=args.seed,
            perturbations=perturbations,
            control=not args.no_control,
        )
        runner = EnsembleRunner(
            ensemble,
            fleet=GpuFleet(args.gpus, device_spec(args.device)),
            policy=args.policy,
            faults=args.faults,
            retry=RetryPolicy(max_retries=args.max_retries),
            cache_capacity=args.cache_size,
            session=session,
        )
    except ValueError as exc:
        print(f"ensemble: {exc}", file=sys.stderr)
        return 2
    result = runner.run()
    if session is not None:
        from .obs import write_chrome_trace

        session.finalize()
        print(f"trace: {write_chrome_trace(session, args.trace)}",
              file=sys.stderr)
    if args.json:
        print(_json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    # a degraded product is a finding: the forecast exists but lost
    # members (coverage < 1) — callers must see that in the exit status
    if not result.complete or result.report.alerts:
        return 1
    return 0


# ------------------------------------------------------------------- doctor
def _parse_tolerances(items: "list[str] | None") -> "dict[str, float | None] | None":
    """['*.gflops=0.1', 'foo.*=ignore'] -> {'*.gflops': 0.1, 'foo.*': None}"""
    if not items:
        return None
    out: dict[str, float | None] = {}
    for item in items:
        pattern, sep, value = item.partition("=")
        if not sep or not pattern:
            raise ValueError(f"--tolerance {item!r}: expected GLOB=TOL")
        if value.strip().lower() == "ignore":
            out[pattern] = None
        else:
            try:
                out[pattern] = float(value)
            except ValueError:
                raise ValueError(f"--tolerance {item!r}: TOL must be a "
                                 f"number or 'ignore'") from None
    return out


def _drifted_table(seed_drift: str) -> dict:
    """Test fixture behind the hidden ``--seed-drift KERNEL:FACTOR``: a
    copy of the cost table with one kernel's flops/point multiplied, so
    CI can prove the ROOF01 gate fires."""
    import dataclasses as _dc

    from .gpu.asuca_kernels import ASUCA_KERNELS

    name, sep, factor = seed_drift.partition(":")
    if not sep or name not in ASUCA_KERNELS:
        raise ValueError(f"--seed-drift {seed_drift!r}: expected "
                         f"KERNEL:FACTOR with a cost-table kernel name")
    try:
        factor = float(factor)
    except ValueError:
        raise ValueError(f"--seed-drift {seed_drift!r}: FACTOR must be "
                         f"a number") from None
    table = dict(ASUCA_KERNELS)
    k = table[name]
    table[name] = _dc.replace(k, cost=_dc.replace(
        k.cost, flops_per_point=k.cost.flops_per_point * factor))
    return table


def _doctor_roofline(args) -> int:
    """``repro doctor --roofline``: measured kernel placements + drift
    findings, from a counted trace or a fresh counted run."""
    import json as _json

    from .gpu.spec import Precision, device_spec
    from .obs.doctor import roofline_from_records

    try:
        table = (_drifted_table(args.seed_drift)
                 if args.seed_drift else None)
        if args.trace:
            from .obs.doctor import load_trace

            ops = load_trace(args.trace).device_ops
            if not any(op.kind == "kernel" and op.measured is not None
                       for op in ops):
                raise ValueError(
                    f"{args.trace}: no measured counts in the trace "
                    f"(record it with 'repro run --counters')")
        else:
            from .api import Experiment, RunSpec

            spec = RunSpec(
                workload=args.workload, steps=max(1, args.steps),
                nx=args.nx if args.nx is not None else 16,
                ny=args.ny if args.ny is not None else 16,
                nz=args.nz if args.nz is not None else 12,
                backend="gpu", counters=True,
                counter_every=args.counter_every)
            exp = Experiment(spec).prepare()
            exp.run()
            ops = list(exp.runner.device.timeline)
    except (OSError, ValueError) as exc:
        print(f"doctor: {exc}", file=sys.stderr)
        return 2
    report = roofline_from_records(
        ops, spec=device_spec(args.device),
        precision=Precision.SINGLE, table=table)
    print(_json.dumps(report.as_dict(), indent=2, sort_keys=True)
          if args.json else report.text())
    return report.exit_status()


def _cmd_doctor(args) -> int:
    """Run the perf doctor (docs/DOCTOR.md): the bench regression gate
    when ``--regress`` is given, the live roofline with ``--roofline``,
    otherwise a trace or model diagnosis."""
    import json as _json

    from .obs.doctor import SchemaMismatch, regression_gate

    if args.regress or args.baseline:
        if not (args.regress and args.baseline):
            print("doctor: --regress and --baseline go together",
                  file=sys.stderr)
            return 2
        try:
            tolerances = _parse_tolerances(args.tolerance)
            gate = regression_gate(args.baseline, args.regress,
                                   rel_tol=args.rel_tol,
                                   tolerances=tolerances,
                                   ignore_wall=not args.strict_wall)
        except (OSError, SchemaMismatch, ValueError) as exc:
            print(f"doctor: {exc}", file=sys.stderr)
            return 2
        print(_json.dumps(gate.as_dict(), indent=2, sort_keys=True)
              if args.json else gate.text())
        return gate.exit_status()

    if args.fleet:
        if not args.trace:
            print("doctor: --fleet needs --trace TRACE (a serve trace "
                  "artifact)", file=sys.stderr)
            return 2
        from .obs import fleet_view, render_fleet_view
        from .obs.doctor import load_trace

        try:
            view = fleet_view(load_trace(args.trace))
        except (OSError, ValueError) as exc:
            print(f"doctor: {exc}", file=sys.stderr)
            return 2
        print(_json.dumps(view.as_dict(), indent=2, sort_keys=True)
              if args.json else render_fleet_view(view))
        return 1 if view.alerts else 0

    if args.roofline:
        return _doctor_roofline(args)

    from .api import parse_ranks
    from .obs.doctor import diagnose_model, diagnose_trace

    try:
        if args.trace:
            report = diagnose_trace(args.trace)
        else:
            px, py = parse_ranks(args.ranks)
            # an interior rank of a PX x PY grid has this many neighbor
            # links per axis (2 in the middle of an axis, 1 on a pair)
            report = diagnose_model(
                method=args.method,
                links_x=min(2, px - 1), links_y=min(2, py - 1),
                nx=args.nx if args.nx is not None else 320,
                ny=args.ny if args.ny is not None else 256,
                nz=args.nz if args.nz is not None else 48)
    except (OSError, ValueError) as exc:
        print(f"doctor: {exc}", file=sys.stderr)
        return 2
    if args.min_hidden is not None:
        report.require_min_hidden(args.min_hidden)
    print(report.as_json() if args.json else report.text())
    if not args.json:   # host health: which body this box's hot loops run
        from .api import Experiment, RunSpec
        from .stencil import native

        # two steps of a tiny case: a long step's compiled crossings,
        # recorded and replayed (repro.core.program); then three traced
        # steps on 2x2 ranks, whose replays' team walk is measured
        Experiment(RunSpec("warm-bubble", nx=8, ny=8, nz=6, steps=2)
                   ).prepare().run()
        Experiment(RunSpec("warm-bubble", nx=16, ny=16, nz=6, steps=3,
                           backend="multigpu", ranks=(2, 2), metrics=True)
                   ).prepare().run()
        print(f"\nhost kernels: {native.library().report()}")
    return report.exit_status()


# ----------------------------------------------------------------------- top
def _cmd_top(args) -> int:
    """``repro top``: the terminal fleet view — replay an exported serve
    trace, or run a live scheduling-only Poisson workload and view it."""
    import json as _json

    from .obs import fleet_view, render_fleet_view, render_frames

    if args.replay:
        from .obs.doctor import load_trace

        try:
            session = load_trace(args.replay)
        except (OSError, ValueError) as exc:
            print(f"top: {exc}", file=sys.stderr)
            return 2
    else:
        from .obs import TraceSession
        from .serve import ForecastService, GpuFleet, poisson_workload

        session = TraceSession(name="top")
        try:
            service = ForecastService(
                GpuFleet(args.gpus), policy=args.policy,
                queue_limit=args.queue_limit, session=session,
                slo=args.slo, execute=False)
        except ValueError as exc:
            print(f"top: {exc}", file=sys.stderr)
            return 2
        service.run(poisson_workload(args.jobs, rate=args.rate,
                                     seed=args.seed))
        session.finalize()
    view = fleet_view(session, interval=args.interval)
    if args.json:
        print(_json.dumps(view.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_fleet_view(view))
        if args.frames:
            print()
            print(render_frames(view, frames=args.frames))
    return 1 if view.alerts else 0


# --------------------------------------------------------------------- info
def _cmd_info(_args) -> int:
    from .gpu.spec import FERMI_M2050, OPTERON_CORE, TESLA_S1070
    from .perf.figures import fig4
    from .perf.report import PAPER

    for spec in (TESLA_S1070, FERMI_M2050, OPTERON_CORE):
        print(f"{spec.name}:")
        print(f"  peak {spec.peak_flops_sp/1e9:.1f} GF SP / "
              f"{spec.peak_flops_dp/1e9:.1f} GF DP, "
              f"{spec.mem_bandwidth/1e9:.1f} GB/s, "
              f"{spec.mem_capacity/2**30:.0f} GiB")
    print("\ncalibration anchors (paper / model):")
    ours = fig4().anchors.ours
    for label, key, unit in (("single GPU SP ", "sp_gflops", "GFlops"),
                             ("single GPU DP ", "dp_gflops", "GFlops"),
                             ("speedup vs CPU", "speedup_sp", "x")):
        print(f"  {label}: {PAPER[key].value} / {ours[key]:.1f} {unit}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "ensemble":
        return _cmd_ensemble(args)
    if args.command == "doctor":
        return _cmd_doctor(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "reproduce":
        from .reproduce import write_experiments

        path = write_experiments(args.output, args.reports)
        print(f"wrote {path}")
        return 0
    return _cmd_info(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
