#!/usr/bin/env python3
"""Host wall-clock benchmark of the shipped program.

    python3 bench/run.py                      all four workloads, interleaved
    python3 bench/run.py --layers             the traced run: per-layer metrics
    python3 bench/run.py --aa 6               A/A: two sets of runs, one tree
    python3 bench/run.py --quick              smoke run, < 60 s
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one workload, as the driver runs it

See bench/README.md for what is measured and why.  This process stays
small (no NumPy): each workload lives in its own worker process, and at
any moment at most one worker is runnable.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: rounds of a stand-alone run: 50 / 120 / 160 / 80 ops
DEFAULT_ROUNDS = {"dycore_cpu": 10, "decomp_2x2": 12, "serve_stream": 10,
                  "ensemble_recover": 10}
#: wall seconds of one round at the seed commit on the reference box.
#: ``--seconds`` is turned into a round count with these, once, before
#: anything runs: the work of a run is fixed by its arguments and never
#: by the clock, so a slower tree runs longer instead of doing less.
ROUND_SECONDS = {"dycore_cpu": 3.0, "decomp_2x2": 2.8, "serve_stream": 2.3,
                 "ensemble_recover": 3.3}
SETUP_PROCESSES = 5
RAW_UNITS = {"setup_wall_s": "s", "op_wall_ms": "ms",
             "machine_speed_ratio": "ratio"}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# ------------------------------------------------------------ environment

def worker_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    env.pop("REPRO_STENCIL_BACKEND", None)
    # bytecode is cached inside the checkout, whatever the caller's
    # settings, so only the first of the set-up processes compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def _cache_sizes() -> dict:
    """Label -> bytes of cpu0's caches, from sysfs."""
    out = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[label] = int(size.rstrip("KMG")) * mult
    return out


def environment(seed: int) -> dict:
    model = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "cache_bytes": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "thread_env": {k: "1" for k in THREAD_ENV},
        "git_sha": sha,
        "seed": seed,
        "loadavg_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------- workers

class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A worker process and the pipe to it."""

    def __init__(self, workload: str, opts: dict, *, traced: bool = False):
        args = {"workload": workload, "seed": opts["seed"],
                "quick": opts["quick"], "traced": traced,
                "inject_verify_failure": opts["inject_verify_failure"]}
        self.workload = workload
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=worker_env())

    def call(self, cmd: str, **kwargs) -> dict:
        try:
            self.proc.stdin.write(json.dumps({"cmd": cmd, **kwargs}) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            self.close()
            raise WorkerFailed(f"{self.workload}: worker died in {cmd!r}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.close()
            except (BrokenPipeError, ValueError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------ measurement

def rounds_for(workload: str, opts: dict) -> int:
    if opts["quick"]:
        return 1
    if opts["seconds"] is None:
        return DEFAULT_ROUNDS[workload]
    return max(3, round(opts["seconds"] / ROUND_SECONDS[workload]))


def _verdict(rounds: list, verify: dict) -> dict:
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if not all(verify["checks"].values()):
        failed = attempted           # a failed check fails every op
    return {"attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted,
            "correct": failed == 0, "checks": verify["checks"],
            "sim_digest": verify["sim_digest"]}


def measure(workloads: list, opts: dict) -> dict:
    """The untraced benchmark: set-up in fresh processes, then the timed
    rounds, round-robin over the workloads so that each one samples the
    same stretch of machine weather, then the verify phase."""
    setups = {w: [] for w in workloads}
    workers = {}
    n_setup = 1 if opts["quick"] else SETUP_PROCESSES
    try:
        for rep in range(n_setup):
            for w in workloads:
                worker = Worker(w, opts)
                workers[w] = worker
                ready = worker.call("setup")
                setups[w].append({
                    "wall_s": (time.perf_counter() - worker.spawned
                               - ready["calibrating_s"]),
                    "speed": ready["speed"]})
                if rep < n_setup - 1:
                    worker.close()
        n_rounds = {w: rounds_for(w, opts) for w in workloads}
        rounds = {w: [] for w in workloads}
        for i in range(max(n_rounds.values())):
            for w in workloads:
                if i < n_rounds[w]:
                    rounds[w].append(workers[w].call("round"))
        out = {}
        for w in workloads:
            per_op = [1e3 * r["wall"] / r["ops"] for r in rounds[w]]
            out[w] = {
                "metrics": {
                    "setup_s": statistics.median(
                        s["wall_s"] * s["speed"] for s in setups[w]),
                    "op_ms": statistics.median(
                        ms * r["speed"] for ms, r in zip(per_op, rounds[w])),
                    "peak_rss_mb": rounds[w][-1]["rss_mb"],
                },
                "raw": {
                    "setup_wall_s": statistics.median(
                        s["wall_s"] for s in setups[w]),
                    "op_wall_ms": statistics.median(per_op),
                    "machine_speed_ratio": statistics.median(
                        r["speed"] for r in rounds[w]),
                },
                "rounds": len(per_op),
                "round_samples": [{"op_wall_ms": ms, "speed": r["speed"]}
                                  for ms, r in zip(per_op, rounds[w])],
                "setup_samples": setups[w],
                **_verdict(rounds[w], workers[w].call("verify")),
            }
        return out
    finally:
        for worker in workers.values():
            worker.close()


def measure_layers(workload: str, opts: dict, env: dict) -> dict:
    """The traced run of one workload: untraced and traced rounds in
    turn, then the verify phase and the ladders, all in one worker."""
    llc = max(env["cache_bytes"].values(), default=1 << 25)
    worker = Worker(workload, opts, traced=True)
    try:
        copy = worker.call("stream_copy", llc_bytes=llc)
        worker.call("setup")
        rounds = []
        for _ in range(1 if opts["quick"] else 2):
            rounds.append(worker.call("round", traced=False))
            rounds.append(worker.call("round", traced=True))
        verify = worker.call("verify")
        out = worker.call("layers")
    finally:
        worker.close()
    out["metrics"]["host.copy_gbs"] = copy["copy_gbs"]
    out["stream_copy"] = copy
    out["rounds"] = len(rounds)
    out.update(_verdict(rounds, verify))
    return out


# -------------------------------------------------------------- reporting

def print_workload(name: str, res: dict, units: dict) -> None:
    print(f"== {name}: {res['rounds']} rounds, {res['attempted']} ops, "
          f"{res['failed']} failed (fail_frac {res['fail_frac']:g})")
    for metric, value in res["metrics"].items():
        print(f"metric {name} {metric} {value!r} {units[metric]}")
    for raw, value in res.get("raw", {}).items():
        print(f"unscaled {name} {raw} {value!r} {RAW_UNITS[raw]}")
    checks = " ".join(f"{k}={'ok' if v else 'FAILED'}"
                      for k, v in res["checks"].items())
    print(f"verify {name} {'PASS' if res['correct'] else 'FAIL'}: {checks}")
    print(f"sim_digest {name} {res['sim_digest']}")
    if "self_time_coverage" in res:
        shares = " ".join(f"{k}={v:.3f}" for k, v in
                          res["layer_self_ms_per_op"].items() if v)
        print(f"layers {name} self ms/op: {shares}; sum/op span = "
              f"{res['self_time_coverage']:.4f}; op samples n = "
              f"{res['op_samples_n']}; STREAM arrays "
              f"{res['stream_copy']['array_bytes']} B vs LLC "
              f"{res['stream_copy']['llc_bytes']} B; trace "
              f"{res['trace_file']}")
        if res["missing_tracepoints"]:
            print(f"missing {name} {' '.join(res['missing_tracepoints'])}")


def contract_line(res: dict, units: dict) -> dict:
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in res["metrics"].items()}}


def run_once(workloads: list, opts: dict, *, traced: bool) -> dict:
    env = environment(opts["seed"])
    if env["loadavg_start"] > 0.5:
        print(f"warning: 1-min load average {env['loadavg_start']:.2f} at "
              f"start; timings will be noisy", file=sys.stderr)
    if traced:
        results = {w: measure_layers(w, opts, env) for w in workloads}
    else:
        results = measure(workloads, opts)
    env["loadavg_end"] = os.getloadavg()[0]
    return {"environment": env, "traced": traced, "quick": opts["quick"],
            "seconds": opts["seconds"], "workloads": results}


def save(name: str, payload: dict) -> pathlib.Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def aa(workloads: list, opts: dict, n: int) -> int:
    """Run the untraced benchmark ``n`` times on this tree, split the
    runs into two alternating sets, and hold the gap between the sets'
    medians against each metric's bound."""
    runs = [run_once(workloads, opts, traced=False) for _ in range(n)]
    rows, ok = [], True
    for w in workloads:
        res = [r["workloads"][w] for r in runs]
        for metric, spec in END_TO_END.items():
            values = [r["metrics"][metric] for r in res]
            a = statistics.median(values[0::2])
            b = statistics.median(values[1::2])
            gap = abs(b - a) / a
            rows.append({"workload": w, "metric": metric, "median_a": a,
                         "median_b": b, "gap": gap, "bound": spec["bound"],
                         "values": values})
            ok &= gap <= spec["bound"]
            print(f"aa {w} {metric} a={a:.6g} b={b:.6g} gap={gap:.4f} "
                  f"bound={spec['bound']} "
                  f"{'ok' if gap <= spec['bound'] else 'EXCEEDED'}")
        digests = {r["sim_digest"] for r in res}
        fails = sum(r["failed"] for r in res)
        ok &= len(digests) == 1 and fails == 0
        print(f"aa {w} fail_frac={fails}/{sum(r['attempted'] for r in res)} "
              f"sim_digest x{len(digests)}")
    path = save("aa.json", {"runs": runs, "rows": rows, "ok": ok})
    print(f"aa {'PASS' if ok else 'FAIL'}; wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, interleaved)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="size the timed phase to about this long at the "
                         "seed commit (default: the full 50/120/160/80 ops)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--layers", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--quick", action="store_true",
                    help="1 round of at most 2 ops, 1 set-up process")
    ap.add_argument("--aa", type=int, metavar="N",
                    help="A/A check over N untraced runs")
    ap.add_argument("--inject-verify-failure", action="store_true",
                    help="corrupt one verify check (tests the verdict path)")
    ns = ap.parse_args(argv)
    opts = {"seed": ns.seed, "seconds": ns.seconds, "quick": ns.quick,
            "inject_verify_failure": ns.inject_verify_failure}
    workloads = [ns.workload] if ns.workload else WORKLOADS
    traced = bool(ns.trace or ns.layers)
    try:
        if ns.aa:
            return aa(workloads, opts, ns.aa)
        result = run_once(workloads, opts, traced=traced)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    units = ({k: v["unit"] for k, v in PER_LAYER.items()} if traced
             else {k: v["unit"] for k, v in END_TO_END.items()})
    print(json.dumps(result["environment"]))
    for w, res in result["workloads"].items():
        print_workload(w, res, units)
    tag = "layers" if traced else "result"
    path = save(f"{tag}_{ns.workload or 'all'}.json", result)
    print(f"wrote {path.relative_to(ROOT)}")
    lines = {w: contract_line(res, units)
             for w, res in result["workloads"].items()}
    print(json.dumps(lines[ns.workload] if ns.workload else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
