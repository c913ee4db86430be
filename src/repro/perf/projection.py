"""TSUBAME 2.0 performance projection (paper Sec. VII).

The paper projects ~150 TFlops for 4000 Fermi GPUs from three ingredients:

1. the measured 15 TFlops at 528 GPUs with 988 ms total / 763 ms compute,
2. the assumption that a Fermi GPU delivers about the same compute and
   memory throughput as the S1070 while intra-/inter-node bandwidth
   at least quadruples, hiding communication completely, and
3. perfect weak scaling to 4000 GPUs::

       15 TFlops * (988 / 763) * (4000 / 528) ~= 150 TFlops

``paper_formula_projection`` reproduces exactly that arithmetic from the
*model's own* Fig. 11 numbers; ``model_projection`` instead re-runs the
overlap model on the TSUBAME 2.0 cluster spec (optionally with real Fermi
throughput, which the paper itself calls a conservative lower bound).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..dist.network import ClusterSpec, TSUBAME_1_2, TSUBAME_2_0
from ..dist.overlap import OverlapModel
from ..gpu.spec import Precision, TESLA_S1070
from .costmodel import asuca_step_cost

__all__ = ["Projection", "paper_formula_projection", "model_projection"]


@dataclass
class Projection:
    """A projected sustained performance."""

    tflops: float
    n_gpus: int
    step_time: float
    method: str


def paper_formula_projection(
    n_gpus: int = 4000,
    baseline_gpus: int = 528,
) -> Projection:
    """Sec. VII's own arithmetic, fed with the model's measured 528-GPU
    step: TFlops_528 * (total / compute) * (n / 528)."""
    model = OverlapModel(TSUBAME_1_2)
    tl = model.step_timeline()
    tflops_528 = asuca_step_cost(320, 256, 48).cluster_tflops(
        baseline_gpus, tl.makespan)
    tflops = tflops_528 * (tl.makespan / tl.compute) * (n_gpus / baseline_gpus)
    return Projection(
        tflops=tflops,
        n_gpus=n_gpus,
        step_time=tl.compute,
        method="paper Sec. VII formula (communication fully hidden, "
               "Fermi == Tesla throughput, perfect weak scaling)",
    )


def model_projection(
    n_gpus: int = 4000,
    *,
    fermi_throughput: bool = False,
    cluster: ClusterSpec = TSUBAME_2_0,
    precision: Precision = Precision.SINGLE,
) -> Projection:
    """Re-run the overlap model on the TSUBAME 2.0 interconnect.

    ``fermi_throughput=False`` keeps the paper's conservative assumption
    (Fermi compute/memory ~= Tesla) by swapping the S1070 throughput into
    the 2.0 cluster; ``True`` uses the real M2050 numbers, which is why
    the paper expects "likely ... higher than 150 TFlops".
    """
    if not fermi_throughput:
        cluster = dataclasses.replace(cluster, gpu=dataclasses.replace(
            TESLA_S1070, pcie_bandwidth=cluster.gpu.pcie_bandwidth))
    model = OverlapModel(cluster, precision=precision)
    tl = model.step_timeline()
    per_gpu = asuca_step_cost(320, 256, 48, spec=cluster.gpu, precision=precision)
    return Projection(
        tflops=per_gpu.cluster_tflops(n_gpus, tl.makespan),
        n_gpus=n_gpus,
        step_time=tl.makespan,
        method=("overlap model on TSUBAME 2.0, "
                + ("real Fermi throughput" if fermi_throughput
                   else "Tesla-equivalent throughput (conservative)")),
    )
