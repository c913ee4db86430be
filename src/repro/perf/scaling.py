"""Weak-scaling model (paper Fig. 10 / Table I).

Every GPU holds a 320 x 256 x 48 block; the global meshes follow Table I.
The scaling benchmark is the periodic mountain-wave test (paper Sec. V-B),
so every rank exchanges on both sides of both directions regardless of the
process-grid size; the only scale-dependent cost is the synchronization
arrival skew, which grows slowly with rank count (per-node jitter
dominates over tree depth) and is calibrated at 528 GPUs.  Together these
produce the paper's >= 93% weak-scaling efficiency and the ~14% overlap
advantage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..dist.decomposition import TABLE1_CONFIGS, table1_mesh
from ..dist.network import ClusterSpec, TSUBAME_1_2
from ..dist.overlap import OverlapConfig, OverlapModel
from ..gpu.spec import OPTERON_CORE, Precision
from ..optimeline import Overlap
from .costmodel import DEFAULT_NS, asuca_step_cost

__all__ = [
    "ScalingPoint", "weak_scaling_sweep", "weak_scaling_efficiency",
    "StrongScalingPoint", "strong_scaling_sweep",
    "DecompositionVariant", "decomposition_ablation", "near_square_factors",
]

#: rank count at which the default OverlapConfig.sync_skew was calibrated
_SKEW_REFERENCE_RANKS = 528


@dataclass
class ScalingPoint:
    """One point of the Fig. 10 curves."""

    n_gpus: int
    px: int
    py: int
    mesh: tuple[int, int, int]
    step_time_overlap: float
    step_time_nonoverlap: float
    tflops_overlap: float
    tflops_nonoverlap: float
    tflops_cpu: float

    @property
    def overlap_gain(self) -> float:
        return 1.0 - self.step_time_overlap / self.step_time_nonoverlap


def _skew_for(n_ranks: int, base: float) -> float:
    if n_ranks <= 1:
        return 0.0
    return base * (math.log2(n_ranks) / math.log2(_SKEW_REFERENCE_RANKS)) ** 0.25


def _rank_model(cluster: ClusterSpec, px: int, py: int,
                overlap_config: OverlapConfig, **model_kwargs) -> OverlapModel:
    """The overlap model of the slowest rank of a periodic ``px x py``
    process grid: both sides communicate along every decomposed axis, and
    the barrier skew is scaled to the rank count."""
    return OverlapModel(
        cluster,
        links_x=2 if px > 1 else 0,
        links_y=2 if py > 1 else 0,
        config=replace(overlap_config, sync_skew=_skew_for(
            px * py, overlap_config.sync_skew)),
        **model_kwargs,
    )


def weak_scaling_sweep(
    cluster: ClusterSpec = TSUBAME_1_2,
    configs: list[tuple[int, int]] = TABLE1_CONFIGS,
    *,
    precision: Precision = Precision.SINGLE,
    ns: int = DEFAULT_NS,
    overlap_config: OverlapConfig = OverlapConfig(),
    cpu_parallel_efficiency: float = 0.9,
) -> list[ScalingPoint]:
    """Model every (px, py) configuration; returns Fig. 10's three series."""
    per_gpu = asuca_step_cost(320, 256, 48, spec=cluster.gpu,
                              precision=precision, ns=ns)
    cpu_cost = asuca_step_cost(320, 256, 48, spec=OPTERON_CORE,
                               precision=Precision.DOUBLE, ns=ns)
    cpu_sustained = OPTERON_CORE.peak_flops_dp * OPTERON_CORE.compute_efficiency
    points = []
    for px, py in configs:
        n = px * py
        model = _rank_model(cluster, px, py, overlap_config,
                            precision=precision, ns=ns)
        t_ov = model.step_timeline().makespan
        t_no = model.step_timeline(Overlap.SERIAL).makespan
        points.append(
            ScalingPoint(
                n_gpus=n, px=px, py=py, mesh=table1_mesh(px, py),
                step_time_overlap=t_ov,
                step_time_nonoverlap=t_no,
                tflops_overlap=per_gpu.cluster_tflops(n, t_ov),
                tflops_nonoverlap=per_gpu.cluster_tflops(n, t_no),
                tflops_cpu=n * cpu_sustained * cpu_parallel_efficiency / 1e12,
            )
        )
    return points


def weak_scaling_efficiency(points: list[ScalingPoint]) -> float:
    """Per-GPU performance of the largest run relative to the smallest —
    the paper reports >= 93% for 528 vs 6 GPUs."""
    first, last = points[0], points[-1]
    per_gpu_first = first.tflops_overlap / first.n_gpus
    per_gpu_last = last.tflops_overlap / last.n_gpus
    return per_gpu_last / per_gpu_first


# ---------------------------------------------------------------------------
# extensions beyond the paper's figures: strong scaling and the 1-D vs 2-D
# decomposition trade-off ("We decompose the given grid in both the x and y
# directions" — this quantifies why)
# ---------------------------------------------------------------------------

def near_square_factors(n: int) -> tuple[int, int]:
    """The factorization (px, py) of n with px <= py closest to square."""
    best = (1, n)
    for px in range(1, int(math.isqrt(n)) + 1):
        if n % px == 0:
            best = (px, n // px)
    return best


@dataclass
class StrongScalingPoint:
    """One point of a fixed-global-mesh scaling curve."""

    n_gpus: int
    px: int
    py: int
    local_mesh: tuple[int, int, int]
    step_time: float
    speedup: float
    efficiency: float


def strong_scaling_sweep(
    nx: int = 1900,
    ny: int = 2272,
    nz: int = 48,
    gpu_counts: list[int] | None = None,
    cluster: ClusterSpec = TSUBAME_1_2,
    *,
    precision: Precision = Precision.SINGLE,
    ns: int = DEFAULT_NS,
    overlap_config: OverlapConfig = OverlapConfig(),
) -> list[StrongScalingPoint]:
    """Fix the global mesh (default: the paper's 54-GPU real-data case)
    and add GPUs: per-rank compute shrinks linearly but halo strips only
    shrink with the local edge length, so efficiency decays — the cost
    structure that makes *weak* scaling the paper's headline metric."""
    gpu_counts = gpu_counts or [1, 2, 6, 12, 24, 54, 96, 216]
    points: list[StrongScalingPoint] = []
    t1 = None
    for n in gpu_counts:
        px, py = near_square_factors(n)
        loc_nx, loc_ny = max(nx // px, 8), max(ny // py, 8)
        t = _rank_model(cluster, px, py, overlap_config,
                        nx=loc_nx, ny=loc_ny, nz=nz, precision=precision,
                        ns=ns).step_timeline().makespan
        if t1 is None:
            t1 = t
        speedup = t1 / t
        points.append(StrongScalingPoint(
            n_gpus=n, px=px, py=py, local_mesh=(loc_nx, loc_ny, nz),
            step_time=t, speedup=speedup, efficiency=speedup / (n / gpu_counts[0]),
        ))
    return points


@dataclass
class DecompositionVariant:
    """1-D vs 2-D decomposition comparison row."""

    label: str
    px: int
    py: int
    local_mesh: tuple[int, int, int]
    halo_bytes_per_exchange: float
    step_time: float


def decomposition_ablation(
    n_gpus: int = 528,
    nx: int | None = None,
    ny: int | None = None,
    nz: int = 48,
    cluster: ClusterSpec = TSUBAME_1_2,
    *,
    precision: Precision = Precision.SINGLE,
    overlap_config: OverlapConfig = OverlapConfig(),
) -> list[DecompositionVariant]:
    """Compare x-slab (n x 1), y-slab (1 x n) and near-square 2-D
    decompositions of the same global mesh: slabs carry far larger halo
    strips per rank, which is why the paper decomposes in both x and y."""
    if nx is None or ny is None:
        nx, ny, _ = table1_mesh(*near_square_factors(n_gpus))
    variants = []
    sq = near_square_factors(n_gpus)
    for label, (px, py) in (
        (f"x-slabs ({n_gpus}x1)", (n_gpus, 1)),
        (f"y-slabs (1x{n_gpus})", (1, n_gpus)),
        (f"2-D ({sq[0]}x{sq[1]})", sq),
    ):
        loc_nx, loc_ny = max(nx // px, 8), max(ny // py, 8)
        model = _rank_model(cluster, px, py, overlap_config,
                            nx=loc_nx, ny=loc_ny, nz=nz, precision=precision)
        w = overlap_config.exchange_width
        item = precision.itemsize
        bytes_per_field = (
            (2 if px > 1 else 0) * w * loc_ny * nz * item
            + (2 if py > 1 else 0) * w * loc_nx * nz * item
        )
        variants.append(DecompositionVariant(
            label=label, px=px, py=py, local_mesh=(loc_nx, loc_ny, nz),
            halo_bytes_per_exchange=bytes_per_field,
            step_time=model.step_timeline().makespan,
        ))
    return variants
