"""Fig. 9 — Breakdown of computation and communication time for the
short-time-step kernels on 528 GPUs (6956x6052x48, single precision):
single ("whole") vs divided (inner / y-boundary / x-boundary) kernels and
the GPU-to-host / MPI / host-to-GPU communication components.

Paper shape: dividing increases total compute per variable; boundary
kernels are a sizable minority of the inner time; density's communication
exceeds its own compute (hence method 3); the effective per-link MPI
bandwidth is the measured 438 MB/s.
"""
from repro.perf.figures import fig9


def test_fig09_kernel_breakdown(benchmark, emit):
    fig = benchmark.pedantic(fig9, rounds=1, iterations=1)
    emit(fig.text)

    for vb in fig.data:     # the 528-GPU interior rank, Table-I block
        assert vb.divided_compute > vb.whole       # reduced parallelism
        assert vb.inner < vb.whole
        assert 0.05 * vb.inner < vb.boundary_y < vb.inner
        assert 0.05 * vb.inner < vb.boundary_x < vb.inner
    density = next(vb for vb in fig.data if vb.name == "Density")
    assert density.communication > density.inner   # motivates method 3
    assert fig.anchors.all_within_tolerance()
