"""Virtual CUDA GPU substrate: device specs, roofline model (paper Eq. 6),
streams/engines with a simulated clock, device memory accounting, kernels
with cost models, coalescing and shared-memory models.

Names resolve on first use (PEP 562): ``repro.serve.fleet`` needs
``gpu.spec`` alone and must not pay for the runner and the kernel table.
"""
import importlib

_MODULE_OF = {name: module for module, names in {
    "spec": "DeviceSpec Precision TESLA_S1070 FERMI_M2050 OPTERON_CORE",
    "device": "Access GPUDevice Stream Event Op",
    "memory": "DeviceArray DeviceAllocator max_grid_fits",
    "kernel": "Kernel KernelCostModel LaunchConfig",
    "roofline": "kernel_time attainable_flops arithmetic_intensity "
                "ridge_intensity",
    "coalescing": "ArrayOrder bandwidth_fraction stride_microbenchmark",
    "sharedmem": "TileSpec ASUCA_ADVECTION_TILE global_reads_per_point",
    "occupancy": "SMLimits GT200_LIMITS FERMI_LIMITS Occupancy occupancy",
    "runtime": "GpuAsucaRunner",
}.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(
            f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
