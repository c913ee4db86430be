"""Fig. 10 — Performance of ASUCA on multiple GPUs of TSUBAME:
overlapping vs non-overlapping multi-GPU computation in single precision,
plus the CPU (double precision) line, over the 14 Table-I configurations.

Paper anchors: 15.0 TFlops at 528 GPUs with the overlapping method; the
overlap advantage is ~14%; weak-scaling efficiency >= 93% (6324x6052x48 on
480+ GPUs relative to 6); the CPU line is negligible at this scale.
"""
from bench_json import write_bench_json
from repro.perf.figures import fig10
from repro.perf.scaling import weak_scaling_efficiency


def test_fig10_weak_scaling(benchmark, emit):
    fig = benchmark.pedantic(fig10, rounds=1, iterations=1)
    emit(fig.text)
    points = fig.data
    last = points[-1]
    eff = weak_scaling_efficiency(points)
    write_bench_json("fig10_weak_scaling", {
        "tflops_overlap_528": last.tflops_overlap,
        "overlap_gain_528": last.overlap_gain,
        "weak_scaling_efficiency": eff,
        "points": [
            {"n_gpus": p.n_gpus, "px": p.px, "py": p.py,
             "mesh": list(p.mesh), "tflops_overlap": p.tflops_overlap,
             "tflops_nonoverlap": p.tflops_nonoverlap,
             "tflops_cpu": p.tflops_cpu}
            for p in points
        ],
    })

    assert fig.anchors.all_within_tolerance()
    assert eff >= 0.90
    # strictly increasing TFlops, overlap always at least as good
    tf = [p.tflops_overlap for p in points]
    assert all(b > a for a, b in zip(tf, tf[1:]))
    assert all(p.tflops_overlap >= p.tflops_nonoverlap for p in points)
    # GPU line dwarfs the CPU line everywhere (the figure's visual point)
    assert all(p.tflops_overlap > 20 * p.tflops_cpu for p in points)
