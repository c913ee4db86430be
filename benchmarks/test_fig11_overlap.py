"""Fig. 11 — Computation and communication time in one time step with the
non-overlapping and overlapping methods on 528 GPUs.

Paper anchors (overlap): total 988 ms with computation 763 ms, MPI 336 ms
and GPU-CPU transfer 145 ms; ~53% of the communication hidden; the total
~11% shorter than non-overlapping even though divided kernels and
asynchronous transfers individually cost more.
"""
from repro.perf.figures import fig11


def test_fig11_step_breakdown(benchmark, emit):
    fig = benchmark.pedantic(fig11, rounds=1, iterations=1)
    emit(fig.text)

    assert fig.anchors.all_within_tolerance()
    # the paper's qualitative observations
    tl_ov, tl_no = fig.data
    assert tl_ov.compute > tl_no.compute   # divided kernels cost more...
    assert tl_ov.makespan < tl_no.makespan       # ...but the total still wins
