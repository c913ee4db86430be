"""Sensitivity analysis of the performance model's free parameters.

The reproduction's performance claims rest on a handful of calibrated
constants (DESIGN.md Sec. 6): the sustained-bandwidth and sustained-compute
efficiencies of the virtual GPU, the CPU sustained rate, the message
volume per exchange, the boundary-kernel inefficiency, and the barrier
skew.  This module perturbs each by a given fraction and reports the
effect on the two headline outputs — single-GPU GFlops and the 528-GPU
TFlops — a tornado analysis that shows which knobs actually carry the
claims (and that no single knob is doing hidden work).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..dist.network import TSUBAME_1_2
from ..dist.overlap import OverlapConfig, OverlapModel
from ..gpu.spec import Precision, TESLA_S1070
from .costmodel import asuca_step_cost

__all__ = ["SensitivityRow", "sensitivity_sweep", "PARAMETERS"]


@dataclass
class SensitivityRow:
    """Effect of one parameter perturbation."""

    parameter: str
    delta: float                 #: applied relative perturbation
    gflops_single: float         #: single-GPU SP GFlops
    tflops_528: float            #: 528-GPU overlap TFlops
    gflops_sensitivity: float    #: d(ln output) / d(ln parameter)
    tflops_sensitivity: float


def _outputs(gpu_spec, overlap_cfg) -> tuple[float, float]:
    cost = asuca_step_cost(320, 256, 48, spec=gpu_spec)
    cluster = dataclasses.replace(TSUBAME_1_2, gpu=gpu_spec)
    tl = OverlapModel(cluster, config=overlap_cfg).step_timeline()
    return cost.gflops, cost.cluster_tflops(528, tl.makespan)


#: (name, how to apply a relative delta) — the model's free parameters
PARAMETERS = [
    "bandwidth_efficiency",
    "compute_efficiency",
    "boundary_factor",
    "sync_skew",
    "extra_exchange_fields",
]


def _apply(param: str, delta: float):
    spec = TESLA_S1070
    cfg = OverlapConfig()
    if param in ("bandwidth_efficiency", "compute_efficiency"):
        spec = dataclasses.replace(
            spec, **{param: getattr(spec, param) * (1.0 + delta)}
        )
    else:
        cfg = dataclasses.replace(
            cfg, **{param: getattr(cfg, param) * (1.0 + delta)}
        )
    return spec, cfg


def sensitivity_sweep(delta: float = 0.2) -> list[SensitivityRow]:
    """Perturb each parameter by ``+delta`` and report elasticities."""
    base_g, base_t = _outputs(TESLA_S1070, OverlapConfig())
    rows = []
    for param in PARAMETERS:
        spec, cfg = _apply(param, delta)
        gf, tf = _outputs(spec, cfg)
        rows.append(SensitivityRow(
            parameter=param,
            delta=delta,
            gflops_single=gf,
            tflops_528=tf,
            gflops_sensitivity=(gf / base_g - 1.0) / delta,
            tflops_sensitivity=(tf / base_t - 1.0) / delta,
        ))
    return rows
