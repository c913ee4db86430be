"""Interconnect and cluster models (TSUBAME 1.2 and 2.0).

Link numbers follow the paper: nodes join two S1070 GPUs via PCI-Express
Gen1 x8 and talk over dual-rail SDR InfiniBand whose peak throughput is
2 GB/s; the *achieved* neighbor-exchange bandwidth with Voltaire MPI is
438 MB/s (Sec. V-B / Fig. 9).  TSUBAME 2.0 (Sec. VII) moves to three Fermi
GPUs per node on full-bisection dual-rail QDR InfiniBand (8 GB/s peak),
which the paper models as "each GPU ... more than four times the
bandwidth" — we encode exactly that factor.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..gpu.spec import DeviceSpec, FERMI_M2050, TESLA_S1070

__all__ = [
    "LinkSpec",
    "ClusterSpec",
    "TSUBAME_1_2",
    "TSUBAME_2_0",
    "PCIE_GEN1_X8",
    "PCIE_GEN2_X16",
    "IB_SDR_MPI",
    "IB_QDR_MPI",
]


@dataclass(frozen=True)
class LinkSpec:
    """Point-to-point link: latency + effective (achieved) bandwidth."""

    name: str
    bandwidth: float         #: achieved bandwidth [B/s]
    latency: float = 20e-6   #: per-message latency [s]

    def transfer_time(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth


#: effective rate calibrated against the paper's Fig. 11 GPU-CPU bar
#: (145 ms for the per-step halo staging volume)
PCIE_GEN1_X8 = LinkSpec("PCIe Gen1 x8", bandwidth=2.2e9, latency=10e-6)
PCIE_GEN2_X16 = LinkSpec("PCIe Gen2 x16", bandwidth=6.0e9, latency=8e-6)
#: per-neighbor MPI exchange over dual-rail SDR IB: the paper's measured
#: 438 MB/s effective
IB_SDR_MPI = LinkSpec("SDR InfiniBand + MPI", bandwidth=0.438e9, latency=25e-6)
#: TSUBAME 2.0: ">= 4x the per-GPU bandwidth" of the above (Sec. VII)
IB_QDR_MPI = LinkSpec("QDR InfiniBand + MPI", bandwidth=4 * 0.438e9, latency=15e-6)


@dataclass(frozen=True)
class ClusterSpec:
    """A GPU cluster for the multi-GPU performance model."""

    name: str
    gpu: DeviceSpec
    gpus_per_node: int
    pcie: LinkSpec
    mpi: LinkSpec
    max_gpus: int


TSUBAME_1_2 = ClusterSpec(
    name="TSUBAME 1.2",
    gpu=TESLA_S1070,
    gpus_per_node=2,
    pcie=PCIE_GEN1_X8,
    mpi=IB_SDR_MPI,
    max_gpus=680,
)

TSUBAME_2_0 = ClusterSpec(
    name="TSUBAME 2.0",
    gpu=FERMI_M2050,
    gpus_per_node=3,
    pcie=PCIE_GEN2_X16,
    mpi=IB_QDR_MPI,
    max_gpus=4224,
)
