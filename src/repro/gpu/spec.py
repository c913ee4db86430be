"""Hardware specifications of the devices the paper benchmarks.

The numbers are the paper's own (Sec. III): Tesla S1070 GPUs with
691.2 GFlops single / 86.4 GFlops double peak and 102.4 GB/s device-memory
bandwidth, 30 SMs x 8 SPs at 1.44 GHz with 16 KB shared memory per SM and
4 GB of device memory; nodes attach two GPUs via PCI-Express Gen1 x8; the
TSUBAME 2.0 projection (Sec. VII) uses Fermi-class GPUs.  The CPU baseline
is one 2.4 GHz AMD Opteron core running the original Fortran.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Precision",
    "DeviceSpec",
    "TESLA_S1070",
    "FERMI_M2050",
    "OPTERON_CORE",
    "DEVICE_SPECS",
    "device_spec",
    "GIB",
]

GIB = 1024 ** 3


class Precision(Enum):
    """Floating-point precision of a run (paper Fig. 4 compares both)."""

    SINGLE = 4
    DOUBLE = 8

    @property
    def itemsize(self) -> int:
        return self.value


@dataclass(frozen=True)
class DeviceSpec:
    """Performance-relevant description of one device."""

    name: str
    peak_flops_sp: float          #: [flop/s]
    peak_flops_dp: float
    mem_bandwidth: float          #: device/main memory bandwidth [B/s]
    mem_capacity: int             #: [B]
    pcie_bandwidth: float         #: host link bandwidth, one direction [B/s]
    sm_count: int = 0             #: streaming multiprocessors (0 for CPUs)
    sp_per_sm: int = 0
    clock_hz: float = 0.0
    shared_mem_per_sm: int = 0    #: [B]
    is_gpu: bool = True
    #: sustained fraction of peak flops actually achievable by real code
    #: (instruction mix, dual-issue limits); calibrated together with
    #: the kernel table (gpu.asuca_kernels)
    compute_efficiency: float = 1.0
    #: sustained fraction of peak memory bandwidth achieved by real stencil
    #: kernels (GT200-era codes streamed at ~60-75% of peak)
    bandwidth_efficiency: float = 1.0
    #: grid points needed to reach ~half of peak memory throughput
    #: (latency-hiding saturation; shapes the rising part of Fig. 4)
    saturation_points: float = 150_000.0

    def peak_flops(self, precision: Precision) -> float:
        if precision is Precision.SINGLE:
            return self.peak_flops_sp
        return self.peak_flops_dp

    def effective_bandwidth(self, n_points: float) -> float:
        """Bandwidth after the latency-hiding saturation curve
        ``B_eff = B * n / (n + n_sat)``; ~B for large grids."""
        if not self.is_gpu or self.saturation_points <= 0:
            return self.mem_bandwidth
        return self.mem_bandwidth * n_points / (n_points + self.saturation_points)

    @property
    def total_sp(self) -> int:
        return self.sm_count * self.sp_per_sm


#: the paper's GPU (one of the four in a Tesla S1070 box)
TESLA_S1070 = DeviceSpec(
    name="NVIDIA Tesla S1070 (GT200)",
    peak_flops_sp=691.2e9,
    peak_flops_dp=86.4e9,
    mem_bandwidth=102.4e9,
    mem_capacity=4 * GIB,
    pcie_bandwidth=1.5e9,       # PCIe Gen1 x8, effective
    sm_count=30,
    sp_per_sm=8,
    clock_hz=1.44e9,
    shared_mem_per_sm=16 * 1024,
    compute_efficiency=0.36,
    bandwidth_efficiency=0.54,
    saturation_points=150_000.0,
)

#: TSUBAME 2.0 GPU for the Sec. VII projection ("assuming a Fermi GPU
#: provides almost the same computational performance and device memory
#: bandwidth as Tesla S1070" — we carry the real Fermi numbers and let the
#: projection use either assumption)
FERMI_M2050 = DeviceSpec(
    name="NVIDIA Tesla M2050 (Fermi)",
    peak_flops_sp=1030.0e9,
    peak_flops_dp=515.0e9,
    mem_bandwidth=148.0e9,
    mem_capacity=3 * GIB,
    pcie_bandwidth=6.0e9,       # PCIe Gen2 x16, effective
    sm_count=14,
    sp_per_sm=32,
    clock_hz=1.15e9,
    shared_mem_per_sm=48 * 1024,
    compute_efficiency=0.36,
    bandwidth_efficiency=0.54,
    saturation_points=120_000.0,
)

#: short names accepted wherever a device spec is chosen by string
#: (``repro serve --device ...``, fleet construction)
DEVICE_SPECS: dict[str, DeviceSpec] = {}


def device_spec(name: "str | DeviceSpec") -> DeviceSpec:
    """Look up a :class:`DeviceSpec` by short name ('s1070', 'm2050',
    'opteron'), case-insensitively; passes specs through unchanged."""
    if isinstance(name, DeviceSpec):
        return name
    try:
        return DEVICE_SPECS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown device {name!r}; choose one of "
            f"{', '.join(sorted(DEVICE_SPECS))}") from None


#: one 2.4 GHz Opteron core running the original Fortran (paper Fig. 4
#: baseline).  ``compute_efficiency`` is calibrated so the sustained
#: double-precision throughput of the production code is ~0.53 GFlops
#: (= 44.3 / 83.4, the paper's measured ratio).
OPTERON_CORE = DeviceSpec(
    name="AMD Opteron 2.4 GHz core",
    peak_flops_sp=9.6e9,
    peak_flops_dp=4.8e9,
    mem_bandwidth=6.4e9,
    mem_capacity=32 * GIB,
    pcie_bandwidth=6.4e9,
    is_gpu=False,
    compute_efficiency=0.11,
    saturation_points=0.0,
)

DEVICE_SPECS.update({
    "s1070": TESLA_S1070,
    "m2050": FERMI_M2050,
    "opteron": OPTERON_CORE,
})
