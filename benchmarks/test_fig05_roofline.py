"""Fig. 5 — Relationship between arithmetic intensity and performance for
the five key ASUCA kernels on the Tesla S1070, against the Eq.-6 curve.

Paper shape: kernels (1)-(4) are memory-bandwidth bound and sit below the
ridge; the coordinate transformation (1) is slowest (2 reads + 1 write per
1 flop); the warm-rain kernel (5) is transcendental-heavy and approaches
the compute roof.  The analytic advection cost is cross-validated against
the instrumented-array FLOP counter running the *real* Koren kernel.
"""
import numpy as np
import pytest

from repro.core.advection import limited_face_flux
from repro.gpu.roofline import ridge_intensity
from repro.gpu.spec import TESLA_S1070
from repro.perf.costmodel import ASUCA_KERNELS, ROOFLINE_KERNELS
from repro.perf.counting import FlopCounter
from repro.perf.figures import roofline
from repro.perf.report import ComparisonReport


def test_fig05_roofline(benchmark, emit):
    fig = benchmark.pedantic(roofline, rounds=1, iterations=1)
    emit(fig.text)

    by_name = {name: p for (_, name), p in zip(ROOFLINE_KERNELS, fig.data)}
    perfs = {name: p.gflops for name, p in by_name.items()}
    ais = {name: p.intensity for name, p in by_name.items()}
    ridge = ridge_intensity(TESLA_S1070)

    # paper orderings and boundedness
    assert perfs["coord_transform"] == min(perfs.values())
    assert perfs["warm_rain"] == max(perfs.values())
    for name in ("coord_transform", "pgf_x", "advection", "helmholtz"):
        assert ais[name] < ridge, f"{name} must be memory bound"
    assert ais["warm_rain"] > ridge  # compute bound
    # every kernel sits below its Eq.-6 ceiling
    for p in fig.data:
        assert p.gflops <= p.ceiling_gflops * 1.0001
    # coordinate transform anchor: 1 flop / 12 bytes
    assert ais["coord_transform"] == pytest.approx(1.0 / 12.0)


def test_fig05_advection_cost_vs_measured(benchmark, emit):
    """PAPI substitute: the measured FLOPs of the real Koren face-flux
    kernel validate the analytic advection cost (3 directions x 4-pt
    stencils + divergence bookkeeping)."""

    def measure():
        counter = FlopCounter()
        n = 128
        rng = np.random.default_rng(0)
        phi = counter.wrap(rng.normal(size=n))
        flux = counter.wrap(rng.normal(size=n - 1))
        limited_face_flux(phi, flux, axis=0)
        return counter.flops / (n - 3)

    per_face = benchmark.pedantic(measure, rounds=1, iterations=1)
    analytic_per_point = ASUCA_KERNELS["advection"].cost.flops_per_point
    # three directions of face fluxes plus interpolation/divergence ~ 4-5x
    implied = 3.0 * per_face
    rep = ComparisonReport("Fig. 5 cross-check: advection flops/point")
    rep.add("analytic cost-table value", analytic_per_point, implied,
            rel_tol=0.6)
    emit(rep.render())
    assert 0.4 * analytic_per_point < implied < 1.6 * analytic_per_point
