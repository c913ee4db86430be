"""One workload in one process, driven over a pipe.

The parent (bench/run.py) starts ``python3 bench/worker.py`` and sends
one JSON command per line; the worker answers each with one JSON line and
otherwise sleeps in ``readline``, so when several workers exist only the
one that was just asked something is runnable.  The program's own
prints go to stderr; stdout carries replies only.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import resource
import shutil
import sys
import time
import traceback

from calibration import Calibration

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


class Worker:
    def __init__(self, workload: str, seed: int, quick: bool, traced: bool,
                 inject_verify_failure: bool):
        sys.path.insert(0, str(ROOT / "src"))
        import repro

        if ROOT not in pathlib.Path(repro.__file__).resolve().parents:
            raise ImportError(
                f"repro resolves to {repro.__file__}, outside {ROOT}")
        from workloads import WORKLOADS

        self.tracer = None
        if traced:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        self.quick = quick
        self.inject = inject_verify_failure
        self.tmp = OUT / "tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.make = lambda **kw: WORKLOADS[workload](
            seed, quick=quick, tmp=str(self.tmp), **kw)
        self.wl = self.make()
        self.marks = {"rounds": [], "alt": []}
        self.rounds: dict[bool, list[dict]] = {False: [], True: []}

    @contextlib.contextmanager
    def _tracing(self):
        """Spans are recorded inside this block (traced runs only)."""
        if self.tracer:
            self.tracer.enabled = True
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = False

    # ---------------------------------------------------------- commands
    def cmd_setup(self) -> dict:
        with self._tracing():
            self.wl.setup()
        # set-up ends here; the calibration after it is not part of it
        t0 = time.perf_counter()
        self.calibration = Calibration()
        speed = self.calibration.speed()
        return {"speed": speed, "calibrating_s": time.perf_counter() - t0}

    def _traced_round(self, wl, marks: list) -> dict:
        tr = self.tracer
        lo = len(tr.spans)
        try:
            with self._tracing():
                return wl.run_round(
                    lambda fn: tr.wrap("bench", "round", fn))
        finally:
            marks.append((lo, len(tr.spans)))

    def cmd_round(self, traced: bool = False) -> dict:
        gc.collect()
        before = self.calibration.speed()
        if traced:
            out = self._traced_round(self.wl, self.marks["rounds"])
        else:
            out = self.wl.run_round()
        out["speed"] = (before + self.calibration.speed()) / 2.0
        out["loadavg"] = os.getloadavg()[0]
        out["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0)
        self.rounds[traced].append(out)
        return out

    def cmd_verify(self) -> dict:
        with self._tracing():
            checks = self.wl.verify()
        if self.inject:
            checks[next(iter(checks))] = False
        return {"checks": checks, "sim_digest": self.wl.sim_digest()}

    def cmd_layers(self) -> dict:
        """Everything the traced run adds: an exact call count, one
        round on the other stencil backend, the workload's own ladders,
        then the catalogue filled from the spans."""
        import layers

        tr, wl = self.tracer, self.wl
        untraced, traced = self.rounds[False], self.rounds[True]
        # at reference speed: two rounds a side is too few to average
        # the machine's wander out of the tracing overhead
        per_op = lambda rs: (sum(r["wall"] * r["speed"] for r in rs)
                             / sum(r["ops"] for r in rs))
        ctx = {
            "backend": wl.backend,
            "traced_ops": sum(r["ops"] for r in traced),
            "traced_op_s": per_op(traced),
            "untraced_op_s": per_op(untraced),
            "cpu_s_per_op": (sum(r["cpu"] for r in untraced)
                             / sum(r["ops"] for r in untraced)),
            "op_samples": [s for r in untraced for s in r["samples"]],
            "py_calls_per_op": self._py_calls(),
            "weak528": layers.weak528(),
        }
        other = self.make(backend=wl.alt_backend)
        other.setup()
        ctx["alt_ops"] = self._traced_round(other, self.marks["alt"])["ops"]
        ctx["extras"] = wl.extras()
        ctx["loadavg_max"] = max(
            [os.getloadavg()[0]] + [r["loadavg"] for r in untraced + traced])
        out = layers.layer_metrics(tr.spans, self.marks, ctx)
        out["op_samples_n"] = len(ctx["op_samples"])
        out["missing_tracepoints"] = tr.missing
        trace_path = OUT / f"trace_{wl.name}.json"
        trace_path.write_text(json.dumps(tr.as_json()))
        out["trace_file"] = str(trace_path.relative_to(ROOT))
        return out

    def _py_calls(self) -> float:
        """Python-level calls per op, counted exactly with
        ``sys.setprofile`` over the ops of one more round (tracing off)."""
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        def profiled(fn):
            def body():
                sys.setprofile(count)
                try:
                    return fn()
                finally:
                    sys.setprofile(None)
            return body

        ops = self.wl.run_round(profiled)["ops"]
        return calls / ops

    def cmd_stream_copy(self, llc_bytes: int) -> dict:
        """Traced runs only, before set-up: the arrays would count
        towards ``peak_rss_mb``, which only untraced runs report."""
        import layers

        return layers.stream_copy(llc_bytes, quick=self.quick)


def main() -> int:
    reply = sys.stdout
    sys.stdout = sys.stderr
    worker = None
    try:
        worker = Worker(**json.loads(sys.argv[1]))
        for line in sys.stdin:
            msg = json.loads(line)
            cmd = msg.pop("cmd")
            if cmd == "exit":
                break
            out = getattr(worker, f"cmd_{cmd}")(**msg)
            reply.write(json.dumps(out) + "\n")
            reply.flush()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if worker is not None:
            shutil.rmtree(worker.tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
