"""Sec. V-A ablation — the three overlap methods individually.

The paper motivates each optimization separately: method 1 pipelines the
13 water-substance exchanges behind one another's advection kernels
(Fig. 7); method 2 divides the short-step kernels into inner/boundary
parts (Fig. 8); method 3 fuses density with potential temperature because
density's own compute cannot hide its communication (Fig. 9 discussion).
This benchmark turns each off in isolation at the 528-GPU configuration.
"""
import pytest

from repro.dist.overlap import OverlapConfig, OverlapModel
from repro.perf.report import format_table

VARIANTS = [
    ("all three methods", OverlapConfig()),
    ("no method 1 (water pipeline)", OverlapConfig(method1_pipeline=False)),
    ("no method 2 (kernel division)", OverlapConfig(method2_divide=False)),
    ("no method 3 (rho+theta fusion)", OverlapConfig(method3_fuse=False)),
    ("no overlap at all", OverlapConfig(method1_pipeline=False,
                                        method2_divide=False,
                                        method3_fuse=False)),
]


def _sweep():
    out = []
    for label, cfg in VARIANTS:
        model = OverlapModel(config=cfg)
        overlap = cfg.method1_pipeline or cfg.method2_divide or cfg.method3_fuse
        tl = model.step_timeline(overlap)
        out.append((label, tl))
    return out


def test_overlap_method_ablation(benchmark, emit):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    base = rows[0][1].makespan
    table = format_table(
        ["variant", "total [ms]", "compute [ms]", "vs full [%]"],
        [
            [label, tl.makespan * 1e3, tl.compute * 1e3,
             100.0 * (tl.makespan / base - 1.0)]
            for label, tl in rows
        ],
        title="Sec. V-A — overlap-method ablation (528 GPUs, SP)",
    )
    emit(table)

    results = dict(rows)
    full = results["all three methods"].makespan
    # no variant beats the full set
    for label, tl in rows[1:]:
        assert tl.makespan >= full - 1e-12, label
    # method 2 carries most of the benefit (the paper's Fig. 8 machinery)
    assert results["no method 2 (kernel division)"].makespan > 1.05 * full
    # dropping everything reverts to (approximately) the serial time
    assert results["no overlap at all"].makespan > 1.08 * full
