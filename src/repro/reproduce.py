"""Assemble EXPERIMENTS.md from the benchmark reports.

``pytest benchmarks/ --benchmark-only`` writes each experiment's
paper-vs-reproduced report under ``benchmarks/reports/``;
``python -m repro reproduce`` (or :func:`generate_experiments_markdown`)
stitches them into the EXPERIMENTS.md document, so the record of the
reproduction is always regenerable from a benchmark run.
"""
from __future__ import annotations

import pathlib

__all__ = ["SECTIONS", "generate_experiments_markdown", "write_experiments"]

#: (section title, report file, commentary) in document order
SECTIONS: list[tuple[str, str, str]] = [
    ("Fig. 4 — Single-GPU performance vs grid size",
     "test_fig04_single_gpu_performance.txt",
     "Workload: mountain-wave benchmark cost model, nx=320, nz=48, ny swept 32..256.\n"
     "Modules: `repro.perf.costmodel` (calibrated kernel table), `repro.gpu.spec/roofline`.\n"
     "Bench: `benchmarks/test_fig04_single_gpu.py`."),
    ("Fig. 4 — Device-memory limits", "test_fig04_memory_limits.txt",
     "The 4 GiB S1070 capacity caps the sweep at 320x256x48 (SP) / 320x128x48 (DP),\n"
     "exactly as stated in Sec. IV-B.  Modules: `repro.gpu.memory`."),
    ("Fig. 5 — Roofline of the five key kernels", "test_fig05_roofline.txt",
     "Eq. 6 of the paper with the S1070 constants; kernels (1)-(4) memory bound,\n"
     "warm rain compute bound beyond the 6.75 flop/B ridge.\n"
     "Bench: `benchmarks/test_fig05_roofline.py`."),
    ("Fig. 5 — Cost-table cross-check against measured FLOPs",
     "test_fig05_advection_cost_vs_measured.txt",
     "The instrumented-array counter (PAPI substitute) runs the *real* Koren\n"
     "face-flux kernel; the analytic advection cost must sit within its band."),
    ("Fig. 9 — Short-step kernel/communication breakdown at 528 GPUs",
     "test_fig09_kernel_breakdown.txt",
     "Whole vs divided (inner/boundary) kernels and the GPU<->host / MPI components\n"
     "per variable per acoustic substep.  Modules: `repro.dist.overlap`."),
    ("Fig. 10 — Weak scaling over the Table I configurations",
     "test_fig10_weak_scaling.txt",
     "Overlapping vs non-overlapping vs CPU series; efficiency computed 528-vs-6\n"
     "GPUs.  Modules: `repro.perf.scaling`, `repro.dist.overlap`."),
    ("Table I — GPU counts and mesh sizes", "test_table1_mesh_sizes.txt",
     "Regenerated from the block law nx = 320*Px - 4*(Px-1) (a structural discovery\n"
     "of this reproduction: every row of the paper's table follows it exactly)."),
    ("Table I — decomposition feasibility",
     "test_table1_decomposition_feasible.txt", ""),
    ("Fig. 11 — One-step time breakdown at 528 GPUs",
     "test_fig11_step_breakdown.txt",
     "Non-overlapping vs overlapping totals and the compute/MPI/GPU-CPU split.\n"
     "Modules: `repro.dist.overlap` (Fig. 8 pipeline on the virtual device)."),
    ("Fig. 12 — Real-data forecast (synthetic substitution)",
     "test_fig12_real_case_forecast.txt",
     "Scaled-down stand-in for the 1900x2272x48 typhoon run: moist warm-core vortex,\n"
     "coastal terrain, hourly relaxation boundaries, full dycore + warm rain on a\n"
     "2x3 process grid.  Modules: `repro.workloads.real_case`, `repro.dist.multigpu`."),
    ("Fig. 12 — decomposed == single-domain (round-off claim)",
     "test_fig12_decomposed_equals_single.txt",
     "The paper: results agree 'within the margin of machine round-off error'.\n"
     "Here the margin is exactly zero (bit-for-bit)."),
    ("Sec. VII — TSUBAME 2.0 projection", "test_sec7_projection.txt", ""),
    ("Sec. VII — communication hidden on TSUBAME 2.0",
     "test_sec7_communication_hidden.txt", ""),
    ("Validation — nonlinear model vs linear mountain-wave theory",
     "test_linear_mountain_wave_validation.txt",
     "Beyond the paper: the dycore integrated to quasi-steady state matches the\n"
     "analytic linear solution (pattern correlation > 0.75, amplitude within ~15%).\n"
     "Modules: `repro.validation.linear_theory`."),
    ("Validation — Kelvin-Helmholtz / Miles-Howard criterion",
     "test_kh_richardson_criterion.txt",
     "A tanh shear layer grows billows iff Ri < 1/4 — an independent check of the\n"
     "momentum-buoyancy coupling.  Modules: `repro.workloads.shear_layer`."),
    ("Profile — the NumPy implementation's own phase breakdown",
     "test_phase_breakdown.txt",
     "Real wall-clock shares of the reproduction (instrumented integrator):\n"
     "advection dominates and warm rain is a few percent — the same structure the\n"
     "paper reports for the CUDA kernels.  Modules: `repro.obs.trace` (`span`).\n"
     "`advect_moisture` was the largest phase (39 % of this run) until the RK3\n"
     "stage stopped transporting all-zero species (\"Host performance\" below);\n"
     "it now advects `qv` and, once it forms, `qc`."),
    ("Ablation — array ordering (Sec. IV-A-1)", "test_ordering_model.txt", ""),
    ("Ablation — real host-memory strides", "test_ordering_real_strides.txt", ""),
    ("Ablation — overlap methods 1/2/3 (Sec. V-A)",
     "test_overlap_method_ablation.txt", ""),
    ("Ablation — flux limiters (Sec. II design choice)",
     "test_limiter_ablation.txt", ""),
    ("Ablation — 1-D vs 2-D decomposition", "test_decomposition_1d_vs_2d.txt", ""),
    ("Extension — strong scaling on a fixed mesh", "test_strong_scaling.txt", ""),
    ("Extension — double-precision multi-GPU scaling",
     "test_double_precision_weak_scaling.txt", ""),
    ("Extension — Sec. VII physics prediction (cold rain implemented)",
     "test_more_physics_more_flops.txt", ""),
    ("Extension — cold convection produces snow",
     "test_cold_convection_produces_snow.txt", ""),
    ("Model transparency — parameter sensitivity",
     "test_parameter_sensitivity.txt", ""),
    ("Host performance — checkpoints at memory speed",
     "test_checkpoint_codec.txt",
     "Format 2 (docs/RESILIENCE.md): stored, not deflated; zeros only named."),
    ("Host performance — fixed costs paid once", "test_fixed_costs.txt",
     "What does not depend on the data is computed once — per process, per\n"
     "decomposition / device schedule, per grid / integrator (DESIGN.md §9 has the\n"
     "table) — instead of per process start, per message, per launch and per RK\n"
     "stage.  Bench: `benchmarks/test_fixed_costs.py`."),
]

_HEADER = """# EXPERIMENTS — paper vs. reproduced

Every table and figure of the paper's evaluation, regenerated by
`pytest benchmarks/ --benchmark-only`; this file is rebuilt from those
runs' reports by `python -m repro reproduce`.  Each benchmark *asserts*
its tolerances, so a passing suite certifies this file's numbers.

**Substitution reminder** (details in DESIGN.md): the original experiments
ran on real Tesla S1070 GPUs and the TSUBAME 1.2 InfiniBand fabric.  This
environment has neither, so performance numbers come from a calibrated
virtual-machine model — the paper's own Eq.-6 roofline plus a faithful
schedule of its Fig.-8 overlap pipeline — driven by the same kernel
structure as the real NumPy implementation.  Calibrated anchors: the
single-GPU SP/DP GFlops, the CPU sustained rate, the per-step FLOP count
implied by Fig. 11, and the Fig. 11 ms totals.  Everything else is model
output.  Functional results (conservation, wave structure, bit-identical
decomposition, the linear-theory validation) are *measured* from the real
running code.

## Headline summary

| quantity | paper | reproduced | note |
|---|---|---|---|
| single GPU, single precision | 44.3 GFlops | 45.3 | calibrated anchor |
| single GPU, double precision | 14.6 GFlops | 14.4 | DP/SP ratio 0.33 emerges from the model |
| speedup vs 1 Opteron core (SP vs DP) | 83.4x | 85.9x | "over 80-fold" |
| speedup (DP vs DP) | 26.3x | 27.8x | output |
| warm-rain kernel share of GPU time | 1.0% | 1.4% | output |
| Table I (14 rows) | — | exact | block law 320/256/overlap-4 |
| 528 GPUs, overlap, SP | 15.0 TFlops | 15.6 | output |
| Fig. 11 total/compute/MPI/GPU-CPU | 988/763/336/145 ms | 980/765/339/137 | totals calibrated, split emerges |
| communication hidden | ~53% | 55% | output |
| overlap total-time gain | ~11% | 12% | output |
| weak-scaling efficiency | >= 93% | 95% | output |
| TSUBAME 2.0 projection | ~150 TFlops | 151 (formula) / 168 (real Fermi) | output |
| GPU == CPU within round-off | yes | decomposed == single **bit for bit** | measured |
| linear mountain-wave theory | (not in paper) | corr ~0.8, amplitude ~1.1 | measured validation |
| Miles-Howard KH criterion | (not in paper) | unstable iff Ri < 1/4 | measured validation |
"""

_FOOTER = """
## Host performance — transporting only the water that exists

`bench/run.py --layers` plus a cProfile of the `dycore_cpu` spec ranked
`advect_scalar` first on the planned default: 24 of the 61 dispatches
and ≈ 87 of the ≈ 240 ms of a step, most of it on species whose field is
all-zero (no benchmark workload turns ice on; `qc`/`qr` are zero until
the first cloud; the dry vortex has seven zero species of seven). The RK3
stage now keeps an exact **active-tracer set** (docs/STENCILS.md, "Work
that is skipped exactly"). Ten alternating parent/change pairs of
`python3 bench/run.py --seconds 18`, seeds 3, 11, 12, 21-27, median
[quartiles] of `op_ms`; every `sim_digest` equal, every verify check
true, `setup_s` and `peak_rss_mb` flat (worst: `decomp_2x2/peak_rss_mb`
+0.3 %):

```text
workload           parent                  change                  delta    pairs won
dycore_cpu         237.1 [230.1, 263.5]    177.9 [170.2, 182.3]    -24.9 %  10 / 10
decomp_2x2         141.1 [139.8, 155.3]    121.2 [116.2, 125.9]    -14.1 %  10 / 10
serve_stream        68.1 [ 65.3,  71.0]     49.1 [ 48.1,  50.8]    -27.9 %  10 / 10
ensemble_recover   235.9 [219.3, 240.7]    162.4 [158.5, 172.8]    -31.2 %  10 / 10
```

**Two routes that were measured and ruled out** (on scratch copies while
the issue was written; recorded so nobody re-runs them). PR 16 had
already taken `advect_scalar` to NumPy's floor — 25 ufunc passes at
≈ 0.7 ns per element-pass, the same at 16x16x16 and 48x48x24 — so the
per-element cost was not the lever:

* *Threads.* Running the eight independent `advect_scalar` calls of a
  stage on two threads is **0.92x at 48x48x24 and 0.4x at 16x16x16**: a
  slab ufunc lasts ≈ 5 µs and the GIL changes hands around each one.
* *Slab-blocking the acoustic substep.* A 75-pass chain shaped like the
  substep, run slab by slab instead of field by field, gains **10 % of
  that chain** — the substep's operands are already L2-resident at these
  tile sizes.

**All-active control** — what the tests and guards cost when nothing can
be skipped. No benchmark workload has every tracer active, so this is the
only place that number exists. The `dycore_cpu` spec (warm-bubble
48x48x24, `cpu`, seed 3) through the public API with every species
seeded with a small positive field (`q = 1e-5 * U(0,1) * rho`) and the
warm-rain physics off (Kessler evaporates a trace of cloud to exact zero
within one step, which would make `qc` skippable again); one worker
process per tree, 60 interleaved rounds of three steps, order
alternating; the skip counter reads 0 in every run:

```text
                                   parent     change     paired change/parent, median [quartiles]   rounds won
active set only (no shared op)     195.4 ms   194.0 ms   0.995 [0.963, 1.022]                        33 / 60
as shipped (+ shared Helmholtz)    211.3 ms   205.6 ms   0.985 [0.948, 1.027]                        34 / 60
```

The wall clock cannot resolve the cost (quartiles ±3 %); the point
estimate is a 0.5 % *gain*, i.e. no measurable cost. Timed directly, the
bit test of an active 54x54x24 field is 11 µs (a zero one 7 µs) and the
four guard reductions 95 µs, run only when some species is a candidate:
7 x 3 x 11 µs = 0.23 ms of a ≈ 200 ms all-active step (0.1 %), and
≈ 0.6 ms (0.35 %) of a `dycore_cpu` step where five species are skipped.

## Known deviations and their reasons

* **Performance is modeled, not measured** — no GPU/cluster exists here.
  The model is deliberately constrained: four calibrated anchors, then
  every other figure must *follow* (see DESIGN.md Sec. 6 and the
  sensitivity table above: no single constant carries a claim).
* **`sync_skew`** (9 ms/barrier at 528 ranks) is an explicitly declared
  empirical term: the deterministic pipeline hides more communication
  than the real machine did, and the residual is attributed to inter-node
  arrival skew.  It is calibrated once against Fig. 11's total and reused
  unchanged by Fig. 10 and the ablations.
* **Fig. 12 is a synthetic case** (no JMA MANAL data): same code path,
  structural rather than meteorological assertions, scaled to minutes
  instead of hours.
* **13 water tracers** appear in the cost/overlap models per the paper's
  Fig. 7; the functional model carries the 7 hydrometeor species of
  Eq. (4) (warm rain active on 3 — ASUCA's 2010 status; the cold-rain
  extension activates qi and qs).
* **The dycore is a faithful re-derivation, not ASUCA's source** (the
  production code is closed).  The full discrete scheme is derived in
  docs/FORMULATION.md, including the documented simplifications.
"""


def generate_experiments_markdown(
    report_dir: str | pathlib.Path = "benchmarks/reports",
) -> str:
    """Render the document; missing reports are flagged inline."""
    report_dir = pathlib.Path(report_dir)
    parts = [_HEADER]
    for title, fname, blurb in SECTIONS:
        path = report_dir / fname
        body = (path.read_text().rstrip() if path.exists()
                else "(report missing — run `pytest benchmarks/ --benchmark-only`)")
        parts.append(f"\n## {title}\n")
        if blurb:
            parts.append(blurb + "\n")
        parts.append("```text\n" + body + "\n```\n")
    parts.append(_FOOTER)
    return "\n".join(parts)


def write_experiments(
    out: str | pathlib.Path = "EXPERIMENTS.md",
    report_dir: str | pathlib.Path = "benchmarks/reports",
) -> pathlib.Path:
    out = pathlib.Path(out)
    out.write_text(generate_experiments_markdown(report_dir))
    return out
