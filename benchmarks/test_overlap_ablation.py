"""Sec. V-A ablation — the three overlap methods individually.

The paper motivates each optimization separately: method 1 pipelines the
13 water-substance exchanges behind one another's advection kernels
(Fig. 7); method 2 divides the short-step kernels into inner/boundary
parts (Fig. 8); method 3 fuses density with potential temperature because
density's own compute cannot hide its communication (Fig. 9 discussion).
This benchmark turns each off in isolation at the 528-GPU configuration.
"""
from repro.perf.figures import overlap_ablation


def test_overlap_method_ablation(benchmark, emit):
    fig = benchmark.pedantic(overlap_ablation, rounds=1, iterations=1)
    emit(fig.text)

    results = fig.data
    full = results["all three methods"].makespan
    # no variant beats the full set
    for label, tl in results.items():
        assert tl.makespan >= full - 1e-12, label
    # method 2 carries most of the benefit (the paper's Fig. 8 machinery)
    assert results["no method 2 (kernel division)"].makespan > 1.05 * full
    # dropping everything reverts to (approximately) the serial time
    assert results["no overlap at all"].makespan > 1.08 * full
