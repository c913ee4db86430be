"""Performance measurement and modeling: FLOP counting (PAPI substitute),
the ASUCA kernel cost table, weak-scaling sweeps, the TSUBAME 2.0
projection, the paper's own numbers (``PAPER``) and, in
:mod:`repro.perf.figures`, one producer per paper figure.

``scaling`` and ``projection`` are loaded lazily (PEP 562): they pull in
:mod:`repro.dist` (the overlap model), which importers that only price
a step do not need.
"""
from .counting import CountingArray, FlopCounter
from .costmodel import (
    ASUCA_KERNELS,
    DEFAULT_NS,
    ROOFLINE_KERNELS,
    StepCost,
    asuca_step_cost,
    cpu_step_time,
    launch_schedule,
)
from .report import PAPER, ComparisonReport, format_table

__all__ = [
    "CountingArray", "FlopCounter",
    "ASUCA_KERNELS", "ROOFLINE_KERNELS", "StepCost", "asuca_step_cost",
    "cpu_step_time", "launch_schedule", "DEFAULT_NS",
    "ScalingPoint", "weak_scaling_sweep", "weak_scaling_efficiency",
    "StrongScalingPoint", "strong_scaling_sweep",
    "DecompositionVariant", "decomposition_ablation", "near_square_factors",
    "Projection", "paper_formula_projection", "model_projection",
    "SensitivityRow", "sensitivity_sweep",
    "PAPER", "ComparisonReport", "format_table",
]

_LAZY = {
    "ScalingPoint": "scaling",
    "weak_scaling_sweep": "scaling",
    "weak_scaling_efficiency": "scaling",
    "StrongScalingPoint": "scaling",
    "strong_scaling_sweep": "scaling",
    "DecompositionVariant": "scaling",
    "decomposition_ablation": "scaling",
    "near_square_factors": "scaling",
    "Projection": "projection",
    "paper_formula_projection": "projection",
    "model_projection": "projection",
    "SensitivityRow": "sensitivity",
    "sensitivity_sweep": "sensitivity",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        mod = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
