"""Tests of the bound table kernels and the model-vs-reality ranking."""
import numpy as np
import pytest

from repro.gpu.asuca_kernels import ASUCA_KERNELS, bind, measure_kernel_times
from repro.gpu.coalescing import ArrayOrder
from repro.gpu.spec import Precision, TESLA_S1070
from repro.stencil import native
from repro.workloads.shear_layer import make_shear_layer_case


@pytest.fixture(scope="module")
def setup():
    case = make_shear_layer_case(nx=32, ny=24, nz=16)
    return case.model.grid, case.model.ref, case.state


def test_bound_kernels_execute(setup):
    g, ref, _ = setup
    kernels = bind(g, ref)
    assert set(kernels) == set(ASUCA_KERNELS)
    rho_hat = ref.rho_c * g.jac[:, :, None]
    result = kernels["coord_transform"].fn(rho_hat)
    np.testing.assert_allclose(result, ref.rho_c)  # J = 1: identity here
    duration, _, _ = kernels["coord_transform"].price(
        g.n_interior_cells, TESLA_S1070, Precision.SINGLE, ArrayOrder.XZY)
    assert duration > 0
    # EOS kernel: the physical result of the bound reference
    result = kernels["eos_pressure"].fn(ref.rhotheta_c * g.jac[:, :, None])
    np.testing.assert_allclose(result, ref.p_c, rtol=1e-10)


def test_measured_ranking_matches_model(setup):
    """Both the host CPU (NumPy) and the modeled GPU are bandwidth bound
    on these kernels, so the cheap/expensive ordering must agree: the
    1-flop coordinate transform is the fastest per launch and the
    advection stencil the slowest of the streaming kernels."""
    g, ref, state = setup
    wall = measure_kernel_times(g, ref, state)          # what ships
    assert set(wall) == set(ASUCA_KERNELS)
    assert wall["coord_transform"] < wall["advection"]
    # the bandwidth argument is about the NumPy kernels: a compiled
    # advection keeps its temporaries in registers and lands beside pgf_x
    with native.using(None):
        wall = measure_kernel_times(g, ref, state)
    assert wall["coord_transform"] < wall["advection"]
    assert wall["pgf_x"] < wall["advection"]
    # and the model agrees on that ordering
    model = {
        name: ASUCA_KERNELS[name].duration(
            g.n_interior_cells, TESLA_S1070, Precision.SINGLE
        )
        for name in wall
    }
    assert model["coord_transform"] < model["advection"]
    assert model["pgf_x"] < model["advection"]
