"""The producers of :mod:`repro.perf.figures` against what is checked in:
every *modeled* report under ``benchmarks/reports/`` must be what its
benchmark emits today, so the reports EXPERIMENTS.md embeds are checked
rather than trusted.  The benchmark functions run here without
``pytest-benchmark`` (one call, no timing)."""
import importlib.util
import json
import pathlib

import pytest

from repro.cli import _BENCH_TABLES
from repro.dist.overlap import method_timelines
from repro.optimeline import METHOD_NAMES, PAPER_METHOD
from repro.perf import figures

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

#: benchmark file -> the modeled (wall-clock-free) reports it writes
MODELED = {
    "test_fig04_single_gpu": ["test_fig04_single_gpu_performance",
                              "test_fig04_memory_limits"],
    "test_fig05_roofline": ["test_fig05_roofline"],
    "test_fig09_breakdown": ["test_fig09_kernel_breakdown"],
    "test_fig10_weak_scaling": ["test_fig10_weak_scaling"],
    "test_fig11_overlap": ["test_fig11_step_breakdown"],
    "test_table1_configs": ["test_table1_mesh_sizes",
                            "test_table1_decomposition_feasible"],
    "test_sec7_tsubame2_projection": ["test_sec7_projection",
                                      "test_sec7_communication_hidden"],
    "test_overlap_ablation": ["test_overlap_method_ablation"],
    "test_scaling_extensions": ["test_decomposition_1d_vs_2d",
                                "test_strong_scaling"],
    "test_dp_multigpu": ["test_double_precision_weak_scaling"],
    "test_model_sensitivity": ["test_parameter_sensitivity"],
    "test_ordering_ablation": ["test_ordering_model"],
}


class _CallOnce:
    """The ``benchmark`` fixture, minus the clock."""

    @staticmethod
    def pedantic(fn, rounds=1, iterations=1):
        return fn()


@pytest.mark.parametrize("stem, report", [
    (stem, report) for stem, reports in MODELED.items() for report in reports])
def test_checked_in_report_is_what_its_benchmark_emits(
        stem, report, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_json

    monkeypatch.setattr(bench_json, "REPORT_DIR", tmp_path)
    spec = importlib.util.spec_from_file_location(
        f"_modeled_{stem}", BENCHMARKS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    emitted = []
    getattr(module, report)(
        benchmark=_CallOnce,
        emit=lambda text, name=None: emitted.append(text))
    assert [t + "\n" for t in emitted] == [
        (BENCHMARKS / "reports" / f"{report}.txt").read_text()]
    for artifact in tmp_path.glob("BENCH_*.json"):
        assert json.loads(artifact.read_text()) == json.loads(
            (BENCHMARKS / "reports" / artifact.name).read_text())


def test_every_bench_table_is_a_producer():
    for table in _BENCH_TABLES:
        assert callable(getattr(figures, table)), table


def test_ablation_without_method_1_is_none_of_the_named_methods():
    """Divide + fuse without the water pipeline is a fifth schedule: the
    ablation needs it, and no name in METHOD_NAMES reaches it."""
    assert figures.ABLATION["no method 1 (water pipeline)"] not in \
        METHOD_NAMES.values()
    no1 = figures.overlap_ablation().data["no method 1 (water pipeline)"]
    named = method_timelines()
    assert all(no1.makespan != tl.makespan for tl in named.values())
    # the divided, fused substeps of the paper's run; only the tracers wait
    assert no1.compute == named[PAPER_METHOD].compute
    assert no1.makespan > named[PAPER_METHOD].makespan
