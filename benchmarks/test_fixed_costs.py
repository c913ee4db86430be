"""The fixed costs of a run, measured where they are paid now.

Three scopes (DESIGN.md §9), one row group each, re-measured on every run
of this file:

* **process** — ``python -X importtime -c "import repro.api"`` in fresh
  interpreters: cumulative time, NumPy's share, the own time of the
  modules that declare stencils (where ``inspect.stack()`` used to sit)
  and what is *not* loaded;
* **decomposition / device schedule** — ten steps of ``bench/``'s
  ``decomp_2x2`` spec with a timer around ``exchange_all`` (the compiled
  halo schedule) and ``_charge_devices`` (launches priced once);
* **grid / integrator** — one terrain metric flux at a rank's tile size:
  the textbook ``contravariant_mass_flux_w`` against the integrator's
  bound ``MetricFlux``, with and without ``rhow``.

Asserted is structure, not speed: nothing heavy is imported, the traffic
and the scheduled-op counts are the benchmark's pinned ones, the bound
form returns the oracle's bytes.  The recorded block at the end is the
acceptance measurement of PR 20 (parent vs change); it is a record, not
re-measured.
"""
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import repro.dist.multigpu as multigpu
from repro.api import Experiment, RunSpec
from repro.core.advection import MetricFlux, contravariant_mass_flux_w
from repro.core.grid import bell_mountain, make_grid

#: modules with ``@stencil`` declarations on the import path of repro.api
DECLARING = ("repro.core.advection", "repro.core.helmholtz",
             "repro.core.pressure", "repro.core.boundary",
             "repro.core.coriolis", "repro.physics.kessler",
             "repro.physics.ice", "repro.physics.surface",
             "repro.physics.sedimentation")
HEAVY = ("scipy", "unittest", "numpy.testing", "numpy.f2py",
         "repro.analysis", "repro.obs.doctor.roofline")

RECORDED = """\
Recorded with PR 20 (a record of the acceptance runs, not re-measured here).
The ranking was taken before anything was changed (the WRF/Codee method,
arXiv 2409.07232); start-up, which no earlier item had ranked, was the largest
fixed cost of all four workloads.

Cold start - `python -X importtime -c "import repro.api"`, median of 3, cumulative ms
(a shared 2-vCPU box on a slow day: NumPy alone read 166-197 ms; 140 on a quiet one)
                                            parent     change
  import repro.api                          1093.8      359.9     487 -> 230 modules loaded
    numpy                                    166.2      196.6
    scipy.linalg (core/tridiag.py)           342.2          -     imported inside thomas_solve_scipy only
    the ten modules that declare stencils,   411.6       16.8     inspect.stack() -> sys._getframe(1):
      own time (33 @stencil declarations)                          diffusion 146 -> 2.3, surface 67 -> 2.5,
                                                                   advection 61 -> 5.4, helmholtz 60 -> 2.7
    everything else                          ~174       ~147
wall, median of 5 fresh interpreters:       parent     change
  python -c "import numpy"                   0.255
  python -c "import repro.api"               1.081      0.385     (0.36 on a quieter run: NumPy 0.185)
  python -c "import repro.serve"             1.322      0.379     (doctor.health without the roofline / repro.analysis)
  python -m repro.cli --help                 1.026      0.315

decomp_2x2 - ten alternating parent/change pairs of
`python3 bench/run.py --workload decomp_2x2 --seconds 18`, seeds 3, 41, 61,
71-77 (61 and 71-77 unseen during development), median [quartiles]; every
sim_digest equal to the parent's, every verify check ok:
  metric        parent                     change                     delta     pairs won
  setup_s       0.994 [0.932, 1.047]       0.401 [0.383, 0.414]       -59.6 %   10 / 10   <- the claim (medians 0.59 apart, parent IQR 0.11)
  op_ms         139.6 [135.4, 141.0]       113.0 [110.7, 115.3]       -19.1 %   10 / 10
  peak_rss_mb   127.58 [127.53, 127.71]    103.66 [103.61, 103.81]    -18.8 %   10 / 10
  per pair, setup_s: 0.812/0.391 0.986/0.415 1.088/0.352 1.001/0.404 0.928/0.411
                     1.039/0.381 1.049/0.369 1.165/0.399 0.886/0.425 0.945/0.453
  per pair, op_ms:   139.2/111.1 122.2/99.0 138.0/114.2 133.0/103.7 140.1/111.8
                     141.5/118.2 140.2/110.5 158.2/114.6 141.3/119.5 134.5/115.5

All four workloads interleaved (`python3 bench/run.py --seconds 18`), two
alternating pairs, seeds 3 and 41, parent -> change per pair; all eight
sim_digests equal, every verify check ok:
                     setup_s                      peak_rss_mb                    op_ms
  dycore_cpu         1.076 1.087 -> 0.427 0.443   137.3 137.3 -> 114.5 114.5     177.0 178.0 -> 178.4 169.6
  decomp_2x2         1.042 0.989 -> 0.337 0.374   127.6 127.6 -> 103.6 104.0     127.1 126.5 -> 106.1 107.5
  serve_stream       0.960 0.888 -> 0.342 0.276    93.9  93.5 ->  70.6  70.6      55.7  47.3 ->  52.8  48.8
  ensemble_recover   0.984 0.895 -> 0.373 0.377    90.6  90.6 ->  68.2  68.1     141.9 130.6 -> 127.4 124.8
dycore_cpu and serve_stream op_ms: no movement beyond run-to-run noise, as
predicted (neither builds an exchanger; dycore_cpu has no devices and a flat
grid).  ensemble_recover op_ms reads -2 % / -10 % over two pairs: unresolved,
not claimed (its ops are whole jobs, so ~1/8 of an op is one prepare()).

Where it went (`--trace 1`, decomp_2x2, seed 3, one parent and one change run;
what the modeled clock or the traffic decides is equal to the last digit):
  host.py_calls_per_op        74313.3  ->  33325.3
  dist.exchange_ms_per_op       20.12  ->     9.53      704 messages, 704 open-edge fills, 15 exchanges per op
  dist.self_ms_per_op           26.96  ->    12.66      (charge_step is inside MultiGpuAsuca.step's own time)
  core.self_ms_per_op           95.69  ->    66.73      MetricFlux, is_flat, AcousticGeometry
  api.prepare_ms                41.10  ->    23.64
  dist.halo_msgs_per_op 704, dist.halo_kb_per_op 6027.648, dist.exchanges_per_op 15,
  gpu.sched_calls_per_op 856, gpu.modeled_step_ms 23.191565586419728,
  dist.modeled_step_ms 17.08096792901288, perf.modeled_tflops_528 15.591681909698798: identical
Timed inside one process at the parent (10 steps, no tracer): exchange_all 23.0,
_charge_devices 7.2 ms/op; contravariant_mass_flux_w 201 us (the rows above are
this tree).  The five `doctor --regress` gates (stencil_fusion, ensemble,
scheduler, fig10_weak_scaling, roofline): OK.

One route measured and not taken (so nobody re-runs it): running members or
jobs side by side.  Four vortex 24x24x12 x 8-step jobs through Experiment,
five repetitions, on this 2-vCPU box:
                      serial     side by side    speed-up
  2 threads           0.904 s    1.519 s         0.60x    (a ufunc lasts 5-50 us; the GIL changes hands around each)
  2 forked workers    0.739 s    0.445 s         1.66x    (second run 0.818 -> 0.460 s, 1.78x)
Threads are now safe (the plan arenas and the acoustic scratch are per thread;
before, two stepping threads produced a non-finite rho or finite garbage) but
slower than one thread, so nothing schedules onto them.  Process parallelism
pays, 1.7x of a possible 2x, but is its own issue: every job needs its own
checkpoint_dir (archive names carry only the step - the identity key makes a
shared directory safe, not useful: workers would overwrite each other's
ckpt-STEP.npz), the benchmark's and the service's in-process tracepoints,
TraceSessions and the FlightRecorder see nothing of a child, ru_maxrss of the
parent (what peak_rss_mb reads) hides the children's 58 MB each, and RunResults
with their States would have to be pickled back."""


def _importtime() -> dict:
    """module -> (own us, cumulative us) of one fresh interpreter."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.api"],
        capture_output=True, text=True, check=True, timeout=120).stderr
    rows = re.findall(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)", err)
    return {name: (int(own), int(cum)) for own, cum, name in rows}


def _timed(cls, name, totals):
    """``cls.name`` with its wall time added to ``totals[name]``."""
    fn = getattr(cls, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - t0

    return timed


def _us(fn, *args, n=200):
    t0 = time.perf_counter()
    for _ in range(n):
        fn(*args)
    return 1e6 * (time.perf_counter() - t0) / n


def test_fixed_costs(benchmark, emit, monkeypatch):
    # ------------------------------------------------------------ process
    runs = [_importtime() for _ in range(3)]

    def med(pick):
        return statistics.median(pick(r) for r in runs) / 1e3

    api_ms = med(lambda r: r["repro.api"][1])
    numpy_ms = med(lambda r: r["numpy"][1])
    declaring_ms = med(lambda r: sum(r[m][0] for m in DECLARING if m in r))
    loaded_heavy = sorted(m for m in HEAVY if any(m in r for r in runs))

    # --------------------------------- decomposition and device schedule
    steps = 10
    exp = Experiment(RunSpec(
        "real-case", nx=32, ny=32, nz=16, backend="multigpu", ranks=(2, 2),
        stencil_backend="fused", metrics=True, seed=3)).prepare()
    exp.advance(1)
    totals = {"exchange_all": 0.0, "_charge_devices": 0.0}
    for name in totals:
        monkeypatch.setattr(multigpu.MultiGpuAsuca, name,
                            _timed(multigpu.MultiGpuAsuca, name, totals))
    messages = exp.machine.comm.stats.messages
    ops = sum(len(d.timeline) for d in exp.machine.devices)
    t0 = time.perf_counter()
    exp.advance(steps)
    step_ms = 1e3 * (time.perf_counter() - t0) / steps
    messages = (exp.machine.comm.stats.messages - messages) / steps
    ops = (sum(len(d.timeline) for d in exp.machine.devices) - ops) / steps
    tables = len(exp.machine.exchanger._points)     # one per exchange point
    exchange_ms = 1e3 * totals["exchange_all"] / steps
    charge_ms = 1e3 * totals["_charge_devices"] / steps

    # ---------------------------------------------------- grid/integrator
    g = make_grid(16, 16, 16, 1000.0, 1000.0, 12000.0,
                  terrain=bell_mountain(400.0, 3000.0, 8000.0, 7000.0),
                  periodic_x=False, periodic_y=False)
    r = np.random.default_rng(0)
    rhou, rhov, rhow = (r.normal(size=shape) for shape in
                        (g.shape_u, g.shape_v, g.shape_w))
    bound = MetricFlux(g)
    oracle_us = _us(contravariant_mass_flux_w, rhou, rhov, rhow, g)
    bound_us = benchmark.pedantic(lambda: _us(bound, rhou, rhov, rhow),
                                  rounds=1, iterations=1)
    metric_only_us = _us(bound, rhou, rhov)
    same = (bound(rhou, rhov, rhow).tobytes()
            == contravariant_mass_flux_w(rhou, rhov, rhow, g).tobytes())

    emit("\n".join([
        "Fixed costs of a run, as this tree pays them on this machine",
        f"  import repro.api              {api_ms:7.1f} ms cumulative, "
        f"{len(runs[0])} modules",
        f"    numpy                       {numpy_ms:7.1f} ms",
        f"    stencil-declaring modules   {declaring_ms:7.1f} ms own time "
        f"({len(DECLARING)} modules)",
        f"    heavy modules loaded        {', '.join(loaded_heavy) or 'none'}",
        f"  decomp_2x2 long step          {step_ms:7.1f} ms",
        f"    exchange_all                {exchange_ms:7.2f} ms   "
        f"{messages:.0f} messages, {tables} strip tables",
        f"    _charge_devices             {charge_ms:7.2f} ms   "
        f"{ops:.0f} scheduled ops",
        f"  metric flux, 16x16x16 terrain tile (bytes equal: {same})",
        f"    contravariant_mass_flux_w   {oracle_us:7.1f} us",
        f"    MetricFlux                  {bound_us:7.1f} us",
        f"    MetricFlux, no rhow         {metric_only_us:7.1f} us",
        "",
        RECORDED,
    ]))

    assert not loaded_heavy
    assert declaring_ms < numpy_ms
    assert (messages, ops, tables) == (704, 856, 4)
    assert same
