"""Sec. VII — Performance estimates of the GPU ASUCA on TSUBAME 2.0.

Paper arithmetic: 15 TFlops x (988 ms / 763 ms) x (4000 / 528) ~= 150
TFlops, assuming Fermi ~= Tesla throughput, communication completely
hidden by the quadrupled bandwidth, and perfect weak scaling; "the actual
overall performance ... will likely be higher than 150 TFlops" with real
Fermi throughput.
"""
import pytest

from repro.dist.network import TSUBAME_2_0
from repro.dist.overlap import OverlapModel
from repro.perf.projection import model_projection, paper_formula_projection
from repro.perf.report import ComparisonReport, format_table


def _all_projections():
    return (
        paper_formula_projection(),
        model_projection(fermi_throughput=False),
        model_projection(fermi_throughput=True),
    )


def test_sec7_projection(benchmark, emit):
    formula, conservative, fermi = benchmark.pedantic(
        _all_projections, rounds=1, iterations=1
    )
    table = format_table(
        ["method", "GPUs", "TFlops"],
        [
            [formula.method, formula.n_gpus, formula.tflops],
            [conservative.method, conservative.n_gpus, conservative.tflops],
            [fermi.method, fermi.n_gpus, fermi.tflops],
        ],
        title="Sec. VII — TSUBAME 2.0 projection",
    )
    rep = ComparisonReport("Sec. VII anchors")
    rep.add("projected TFlops (paper formula)", 150.0, formula.tflops,
            rel_tol=0.07)
    emit(table + "\n\n" + rep.render())

    assert rep.all_within_tolerance()
    # real Fermi throughput beats the conservative assumption — the
    # paper's "likely ... higher than 150 TFlops"
    assert fermi.tflops > conservative.tflops


def test_sec7_communication_hidden(benchmark, emit):
    """With >= 4x bandwidth the communication hides under computation."""

    def hidden():
        tl = OverlapModel(TSUBAME_2_0).step_timeline(True)
        return tl.hidden_fraction_comm_only, tl

    frac, tl = benchmark.pedantic(hidden, rounds=1, iterations=1)
    emit(
        f"TSUBAME 2.0 step: total {tl.makespan*1e3:.0f} ms, compute "
        f"{tl.compute*1e3:.0f} ms, comm {tl.communication*1e3:.0f} ms, "
        f"hidden (comm-only accounting) {100*frac:.0f}%"
    )
    assert frac > 0.9
