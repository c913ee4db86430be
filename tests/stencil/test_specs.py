"""The stencil registry, its executor machinery, and the declared-shape
contracts the rest of the repo derives from (docs/STENCILS.md)."""
import numpy as np
import pytest

from repro.api import RunSpec
from repro.stencil import (
    BACKENDS,
    FUSED_IMPLS,
    StencilExecutor,
    active_executor,
    default_backend,
    load_dycore_specs,
    use_executor,
)
from repro.stencil.spec import StencilFunction, stencil


# ----------------------------------------------------------------- registry
def test_production_specs_register_and_validate():
    specs = load_dycore_specs()
    # the hot dycore + physics kernels are all declared
    for name in ("advect_scalar", "advect_u", "advect_v", "advect_w",
                 "limited_face_flux", "horizontal_laplacian_c",
                 "hyperdiffusion_c", "vertical_diffusion_c",
                 "eos_pressure", "helmholtz_solve", "fill_halos_state",
                 "kessler_step"):
        assert name in specs, name
    for spec in specs.values():
        assert spec.halo >= 0
        assert spec.writes
        assert spec.launch == (64, 4, 1)  # the paper's block geometry
        assert spec.origin is not None and spec.origin[1] > 0


def test_duplicate_registration_raises():
    with pytest.raises(ValueError, match="already registered"):
        @stencil(name="advect_scalar", reads=("a",), writes=("b",), halo=1)
        def advect_scalar_again(a):  # pragma: no cover - never called
            return a


def test_decorated_function_is_a_stencil_function():
    from repro.core.advection import advect_scalar

    assert isinstance(advect_scalar, StencilFunction)
    assert advect_scalar.spec.name == "advect_scalar"
    assert advect_scalar.spec.halo == 2
    # the undecorated kernel stays reachable for probes/fallbacks
    assert callable(advect_scalar.reference)


# --------------------------------------------------------- declared costs
def test_stencil_has_no_table_back_reference():
    """The kernel table names the spec it is priced from, never the
    reverse, so there is nothing to reconcile."""
    with pytest.raises(TypeError, match="table"):
        stencil(reads=("a",), writes=("b",), table="advection")


# ----------------------------------------------------------------- executor
def test_backend_validation_and_numba_gating():
    """The never-installed numba slot is gone: it is an unknown backend
    like any other, at the executor and at the RunSpec."""
    assert BACKENDS == ("reference", "fused")
    for unknown in ("cuda", "numba"):
        with pytest.raises(ValueError, match="unknown stencil backend"):
            StencilExecutor(unknown)
        with pytest.raises(ValueError, match="unknown stencil backend"):
            RunSpec(stencil_backend=unknown).normalized()


def test_default_backend_follows_environment(monkeypatch):
    monkeypatch.delenv("REPRO_STENCIL_BACKEND", raising=False)
    assert default_backend() == "reference"
    monkeypatch.setenv("REPRO_STENCIL_BACKEND", "fused")
    assert default_backend() == "fused"
    monkeypatch.setenv("REPRO_STENCIL_BACKEND", "gpu")
    with pytest.raises(ValueError, match="REPRO_STENCIL_BACKEND"):
        default_backend()


def test_use_executor_scopes_dispatch():
    ex = StencilExecutor("fused")
    assert active_executor() is not ex
    with use_executor(ex):
        assert active_executor() is ex
    assert active_executor() is not ex


def test_fused_dispatch_counts_and_falls_back():
    """A fused impl that declines (NotImplemented) falls back to the
    reference and the stats show it."""
    from repro.core.advection import advect_scalar
    from repro.core.grid import make_grid
    from repro.core.limiter import minmod

    g = make_grid(nx=8, ny=8, nz=6, dx=100.0, dy=100.0, ztop=600.0)
    r = np.random.default_rng(3)
    phi = r.normal(size=(g.nxh, g.nyh, g.nz))
    fx = r.normal(size=(g.nxh + 1, g.nyh, g.nz))
    fy = r.normal(size=(g.nxh, g.nyh + 1, g.nz))
    fz = r.normal(size=(g.nxh, g.nyh, g.nz + 1))

    ex = StencilExecutor("fused")
    with use_executor(ex):
        out_fused = advect_scalar(phi, fx, fy, fz, g)
        # a non-Koren limiter is outside the fused plan: falls back
        out_minmod = advect_scalar(phi, fx, fy, fz, g, limiter=minmod)
    assert ex.accelerated >= 1 and ex.fallbacks >= 1
    assert ex.calls["advect_scalar"] == 2
    np.testing.assert_array_equal(
        out_fused, advect_scalar.reference(phi, fx, fy, fz, g))
    np.testing.assert_array_equal(
        out_minmod, advect_scalar.reference(phi, fx, fy, fz, g,
                                            limiter=minmod))
    assert "fused" in ex.report()


def test_fused_impls_cover_the_hot_dycore():
    load_dycore_specs()
    for name in ("advect_scalar", "advect_u", "advect_v", "advect_w",
                 "limited_face_flux", "horizontal_laplacian_c",
                 "hyperdiffusion_c", "vertical_diffusion_c",
                 "eos_pressure", "helmholtz_solve"):
        assert name in FUSED_IMPLS, name


# --------------------------------------------------------------- pool
def test_buffer_pool_reuses_within_and_across_leases():
    from repro.stencil import BufferPool

    pool = BufferPool()
    with pool.lease() as mem:
        a = mem.take((4, 4))
        b = mem.take((4, 4))
        assert a is not b
    with pool.lease() as mem:
        c = mem.take((4, 4))
    assert pool.allocations == 2 and pool.reuses == 1
    assert c is a or c is b
    stats = pool.stats()
    assert stats["bytes_allocated"] == 2 * 4 * 4 * 8
