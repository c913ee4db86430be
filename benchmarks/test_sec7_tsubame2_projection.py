"""Sec. VII — Performance estimates of the GPU ASUCA on TSUBAME 2.0.

Paper arithmetic: 15 TFlops x (988 ms / 763 ms) x (4000 / 528) ~= 150
TFlops, assuming Fermi ~= Tesla throughput, communication completely
hidden by the quadrupled bandwidth, and perfect weak scaling; "the actual
overall performance ... will likely be higher than 150 TFlops" with real
Fermi throughput.
"""
from repro.dist.network import TSUBAME_2_0
from repro.dist.overlap import OverlapModel
from repro.perf.figures import projection


def test_sec7_projection(benchmark, emit):
    fig = benchmark.pedantic(projection, rounds=1, iterations=1)
    emit(fig.text)

    assert fig.anchors.all_within_tolerance()
    # real Fermi throughput beats the conservative assumption — the
    # paper's "likely ... higher than 150 TFlops"
    _, conservative, fermi = fig.data
    assert fermi.tflops > conservative.tflops


def test_sec7_communication_hidden(benchmark, emit):
    """With >= 4x bandwidth the communication hides under computation."""

    def hidden():
        tl = OverlapModel(TSUBAME_2_0).step_timeline()
        return tl.hidden_fraction_comm_only, tl

    frac, tl = benchmark.pedantic(hidden, rounds=1, iterations=1)
    emit(
        f"TSUBAME 2.0 step: total {tl.makespan*1e3:.0f} ms, compute "
        f"{tl.compute*1e3:.0f} ms, comm {tl.communication*1e3:.0f} ms, "
        f"hidden (comm-only accounting) {100*frac:.0f}%"
    )
    assert frac > 0.9
