#!/usr/bin/env python
"""Kernel-level performance analysis on the virtual Tesla S1070: places
the five key ASUCA kernels on the paper's Eq.-6 roofline (Fig. 5),
reports the single-GPU calibration (Fig. 4 anchors), and shows why the
x-z-y array ordering beats the Fortran kij ordering (Sec. IV-A-1) —
including a *real* NumPy stride measurement of the same effect.

Run:  python examples/gpu_roofline_analysis.py
"""
import numpy as np

from repro.gpu import ArrayOrder, TESLA_S1070, attainable_flops
from repro.gpu.coalescing import bandwidth_fraction, stride_microbenchmark
from repro.gpu.roofline import ridge_intensity
from repro.perf import asuca_step_cost
from repro.perf.figures import fig4, roofline


def main() -> None:
    spec = TESLA_S1070

    fig = roofline(spec)
    print(fig.text)
    ridge = ridge_intensity(spec)
    print("compute bound:", ", ".join(
        p.name for p in fig.data if p.intensity > ridge))
    print(f"(ridge at {ridge:.2f} flop/B; peak {spec.peak_flops_sp/1e9:.1f} GFlops, "
          f"{spec.mem_bandwidth/1e9:.1f} GB/s)")

    print("\nroofline curve (Eq. 6, alpha = 0):")
    for ai in (0.05, 0.2, 1.0, 5.0, 25.0, 100.0):
        print(f"  AI {ai:6.2f} -> attainable "
              f"{attainable_flops(ai, spec)/1e9:7.1f} GFlops")

    print("\nsingle GPU vs one Opteron core:")
    print(fig4().anchors.render())

    print("\n=== Sec. IV-A-1: array ordering ===")
    for order in (ArrayOrder.XZY, ArrayOrder.KIJ):
        frac = bandwidth_fraction(order)
        c = asuca_step_cost(320, 256, 48, order=order)
        print(f"{order.value}: coalesced bandwidth fraction {frac:5.2f} "
              f"-> {c.gflops:5.1f} GFlops")

    print("\nreal host-memory stride effect (same direction, smaller ratio):")
    res = stride_microbenchmark()
    print(f"  contiguous: {res['contiguous_seconds']*1e3:7.2f} ms"
          f"   strided: {res['strided_seconds']*1e3:7.2f} ms"
          f"   ratio {res['strided_seconds']/res['contiguous_seconds']:.2f}x")


if __name__ == "__main__":
    main()
