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
    load_dycore_specs,
    native,
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


def test_use_executor_scopes_dispatch():
    """``auto`` is ``fused``; a reference executor holds every compiled
    body off for exactly its block."""
    assert RunSpec().normalized().stencil_backend == "fused"
    assert active_executor().backend == "fused"
    lib = native.kernels()
    for backend in BACKENDS:
        ex = StencilExecutor(backend)
        assert active_executor() is not ex
        with use_executor(ex):
            assert active_executor() is ex
            assert native.kernels() is (
                None if backend == "reference" else lib)
        assert active_executor() is not ex
        assert native.kernels() is lib


def test_fused_dispatch_counts_and_falls_back():
    """A compiled entry that declines (NotImplemented) falls back to the
    reference and the stats show it; a kernel without an entry counts as
    neither."""
    from repro.core.advection import advect_scalar
    from repro.core.grid import make_grid
    from repro.core.state import State
    from repro.physics.kessler import kessler_step

    g = make_grid(nx=8, ny=8, nz=6, dx=100.0, dy=100.0, ztop=600.0)
    r = np.random.default_rng(3)
    rho = 1.0 + 0.1 * r.random(g.shape_c)

    def moist(dtype):
        return State(g, rho.astype(dtype), None, None, None,
                     (300.0 * rho).astype(dtype),
                     {n: (1e-3 * rho).astype(dtype) for n in ("qv", "qc",
                                                              "qr")})

    phi = r.normal(size=(g.nxh, g.nyh, g.nz))
    fx = r.normal(size=(g.nxh + 1, g.nyh, g.nz))
    fy = r.normal(size=(g.nxh, g.nyh + 1, g.nz))
    fz = r.normal(size=(g.nxh, g.nyh, g.nz + 1))

    lib = native.kernels()                  # loaded and checked first
    ex = StencilExecutor("fused")
    states = [moist(np.float64), moist(np.float32)]
    with use_executor(ex):
        out = advect_scalar(phi, fx, fy, fz, g)
        # a float64 state takes the compiled warm rain where a library is
        # loaded; a float32 one is declined: its oracle runs
        for st in states:
            kessler_step(st, None, 10.0)
    assert (ex.calls["advect_scalar"], ex.calls["kessler_step"]) == (1, 2)
    assert ex.accelerated == (lib is not None)
    assert ex.fallbacks == 2 - ex.accelerated
    np.testing.assert_array_equal(
        out, advect_scalar.reference(phi, fx, fy, fz, g))
    want = moist(np.float32)
    kessler_step.reference(want, None, 10.0)
    for name in ("rho", "rhotheta", "qv", "qc", "qr"):
        assert states[1].get(name).tobytes() == want.get(name).tobytes()
    assert "fused" in ex.report()


def test_fused_impls_cover_the_hot_dycore():
    """The compiled entries are exactly the dispatched kernels with a C
    body; every other kernel has one text, its oracle."""
    load_dycore_specs()
    assert sorted(FUSED_IMPLS) == ["fill_halos_state", "kessler_step"]


def test_without_a_library_every_compiled_entry_declines():
    """Under ``native.using(None)`` every ``FUSED_IMPLS`` entry hands the
    call back (``NotImplemented``) and touches nothing, so a kernel's only
    NumPy text, its oracle, runs."""
    from repro.core.grid import make_grid
    from repro.core.state import State

    load_dycore_specs()
    g = make_grid(nx=6, ny=5, nz=5, dx=100.0, dy=130.0, ztop=500.0)
    r = np.random.default_rng(7)
    cell, u, v, w = (1.0 + r.random(s) for s in (
        g.shape_c, g.shape_u, g.shape_v, g.shape_w))
    st = State(g, cell, u, v, w, 300.0 * cell,
               {n: 1e-3 * r.random(g.shape_c) for n in ("qv", "qc", "qr")})
    before = [st.get(n).copy() for n in st.prognostic_names()]
    args = dict(fill_halos_state=(st,), kessler_step=(st, None, 10.0))
    assert set(args) == set(FUSED_IMPLS)
    with native.using(None):
        for name, impl in FUSED_IMPLS.items():
            assert impl(*args[name]) is NotImplemented, name
    for old, name in zip(before, st.prognostic_names()):
        assert st.get(name).tobytes() == old.tobytes(), name


# ------------------------------------------------------------ scratch
def test_the_scratch_advection_rows_do_not_grow_with_x():
    """An :class:`AcousticScratch` holds advect.c's five carried rows of
    the widest staggered row: a function of the row, never of the
    field's x extent."""
    from repro.core.acoustic import AcousticScratch
    from repro.core.grid import make_grid

    def arena(nx):
        grid = make_grid(nx, 48, 24, 100.0, 100.0, 2400.0, halo=2)
        return AcousticScratch(grid).arena.size

    assert arena(48) == 5 * 53 * 25
    # a 25x larger field costs the same rows
    assert arena(1296) == arena(48)
