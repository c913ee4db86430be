"""The ASUCA kernel table: every per-kernel fact, declared once.

The paper's single-GPU argument is one table read three ways: per-point
FLOP and byte counts placed on Eq. 6 (Fig. 5), the Fig. 1 execution flow
that says how often each kernel launches per long time step, and the
Fig. 9 grouping of kernels into short-step variables.
:data:`KERNEL_TABLE` holds one :class:`KernelDecl` per kernel carrying
all of it, plus the executable side: the reference NumPy implementation
and the recipe the counting hook measures it with.  Everything else is a
*view* of that table:

* :data:`ASUCA_KERNELS` — name -> launchable :class:`~repro.gpu.kernel.Kernel`
  (cost model + launch geometry + timeline tag); :func:`bind` is the same
  view with the reference implementations attached;
* :func:`step_schedule` / :func:`launch_schedule` — launches per long
  step (three Wicker-Skamarock RK stages running 1, ns/2 and ns acoustic
  substeps; tracer advection, coordinate transforms, physics and
  boundary kernels once per long step);
* :data:`ROOFLINE_KERNELS` — the five kernels of the paper's Fig. 5;
* :data:`SHORT_STEP_VARIABLES` — the Fig. 9 variables and their kernels;
* :attr:`KernelDecl.flops_band` / :attr:`~KernelDecl.bytes_band` — the
  measured-vs-table drift bands of the live roofline.

A spec-backed entry names the one ``@stencil`` declaration it is priced
from: per-point cost, launch geometry and drift bands are read off that
spec object, so the table and the declaration cannot disagree.  The
per-kernel numbers and ``compute_efficiency`` in the device spec are
calibrated (tests/perf/test_calibration.py) so that the 320 x 256 x 48
single-precision mesh lands at ~44.3 GFlops with the double-precision
run at ~33% of it, after which every other figure is model *output*.

Adding or re-costing a kernel is one edit here (docs/DOCTOR.md).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..core.advection import advect_scalar
from ..core.boundary import fill_halos_state
from ..core.grid import Grid
from ..core.helmholtz import HelmholtzOperator, helmholtz_solve
from ..core.pressure import eos_pressure, linearization_coefficient
from ..core.reference import ReferenceState
from ..core.state import State
from ..physics.ice import IceConfig, cold_rain_step
from ..physics.kessler import KesslerConfig, kessler_step
from ..stencil.spec import StencilSpec
from .kernel import Kernel, KernelCostModel, LaunchConfig

__all__ = [
    "KernelDecl",
    "StepShape",
    "KERNEL_TABLE",
    "ASUCA_KERNELS",
    "ROOFLINE_KERNELS",
    "SHORT_STEP_VARIABLES",
    "DEFAULT_NS",
    "DEFAULT_DRIFT_BAND",
    "BYTES_DRIFT_BAND",
    "step_shape",
    "step_schedule",
    "launch_schedule",
    "drift",
    "bind",
    "measure_kernel_times",
]

#: acoustic substeps of the final RK stage (even); total substeps per long
#: step = 1 + ns/2 + ns.  Chosen with the per-substep kernel list so one
#: long step costs ~2.8e10 flop on a 320x256x48 mesh — the figure implied
#: by the paper's 15.0 TFlops over 528 GPUs at 988 ms/step (Figs. 10/11).
DEFAULT_NS = 12

#: tracers whose advection is pipelined in the paper's Fig. 7 experiment
N_WATER_TRACERS = 13

#: the five short-time-step variables of the paper's Fig. 9, in its order
FIG9_VARIABLES = ("Momentum (x)", "Momentum (y)", "Helmholtz-like eq.",
                  "Density", "Potential temperature")

#: acceptable measured/table flops-per-point ratio (outside → ROOF01)
#: when the kernel's ``@stencil`` declares no tighter ``flops_band=``.
#: The spread is real: ufunc weights charge a divide at 4 and an exp at 8
#: where the hand table counts 1, and the table rounds stencils up.
DEFAULT_DRIFT_BAND: tuple[float, float] = (0.2, 5.0)

#: acceptable measured/table bytes-per-point ratio (outside → ROOF02)
#: absent a declared ``bytes_band=``.  Streamed NumPy traffic counts every
#: temporary array — measured bytes run up to ~40x the table's
#: global-memory estimate on fused stencils (the CUDA kernels keep
#: temporaries in registers) — so this band only catches gross drift (a
#: kernel reading fields the table never knew about, or touching almost
#: nothing).
BYTES_DRIFT_BAND: tuple[float, float] = (0.25, 64.0)


@dataclass(frozen=True)
class StepShape:
    """What the launch counts of one long step depend on."""

    stages: int     #: Wicker-Skamarock RK stages
    nsub: int       #: acoustic substeps summed over the stages
    tracers: int    #: water-substance tracers (the Fig. 7 pipeline)
    ice: bool       #: cold-rain extension active


def step_shape(ns: int = DEFAULT_NS, *, include_ice: bool = False) -> StepShape:
    """The long step's shape for ``ns`` acoustic substeps in the final
    RK stage: 3 stages running 1 + ns/2 + ns substeps."""
    return StepShape(stages=3, nsub=1 + max(ns // 2, 1) + ns,
                     tracers=N_WATER_TRACERS, ice=include_ice)


@dataclass(frozen=True)
class KernelDecl:
    """Everything known about one table kernel.

    Exactly one of ``spec`` (the ``@stencil`` declaration the entry is
    priced from) and ``cost`` (a literal per-point cost, for kernels with
    no declared NumPy counterpart; these launch with the default
    (64, 4, 1) block marching along y) is given.  The reference function
    and the measurement recipe are required fields: a declaration without
    them cannot be constructed.
    """

    name: str
    tag: str                    #: device-timeline tag of its launches
    #: launches per long step
    launches: Callable[[StepShape], int]
    #: reference NumPy implementation, ``fn(terms, *args)`` over the
    #: bound :class:`_Terms`; follows the paper's Sec. IV kernel
    #: description and multiplies by precomputed inverse spacings the way
    #: the CUDA kernels do rather than dividing per point
    reference: Callable
    #: ``state -> (args, points)``: the arguments one measurement pass
    #: calls the bound reference with — real prognostic fields of the
    #: live state wherever the kernel reads one — and the point count the
    #: measured totals normalize by (processed elements; interior cells
    #: for the column-wise physics)
    measure: Callable[[State], tuple[tuple, float]]
    spec: StencilSpec | None = None
    cost: KernelCostModel | None = None
    fig5: str | None = None     #: label on the paper's Fig. 5 roofline
    fig9: tuple[str, ...] = ()  #: Fig. 9 variables its substep work is in

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.cost is None):
            raise ValueError(f"kernel {self.name!r}: give exactly one of "
                             f"spec= and cost=")
        unknown = set(self.fig9) - set(FIG9_VARIABLES)
        if unknown:
            raise ValueError(f"kernel {self.name!r}: unknown Fig. 9 "
                             f"variable(s) {sorted(unknown)}")

    def kernel(self, fn: Callable | None = None) -> Kernel:
        """The launchable view, optionally bound to an implementation."""
        spec = self.spec
        return Kernel(
            self.name,
            KernelCostModel(*spec.cost_tuple()) if spec else self.cost,
            fn=fn,
            launch_config=spec.launch_config() if spec else LaunchConfig(),
            tag=self.tag,
        )

    @property
    def flops_band(self) -> tuple[float, float]:
        """(lo, hi) measured/table flops ratio band: the band the spec
        declares, else the default."""
        band = self.spec.flops_band if self.spec else None
        return band if band is not None else DEFAULT_DRIFT_BAND

    @property
    def bytes_band(self) -> tuple[float, float]:
        """(lo, hi) measured/table bytes ratio band."""
        band = self.spec.bytes_band if self.spec else None
        return band if band is not None else BYTES_DRIFT_BAND


def drift(measured_pp: float, table_pp: float,
          band: tuple[float, float]) -> float | None:
    """Measured/table per-point ratio when outside ``band``, else None
    (in band).  Kernels the table prices at zero (``array_copy`` flops)
    are skipped — there is no ratio to take."""
    if table_pp <= 0:
        return None
    ratio = measured_pp / table_pp
    lo, hi = band
    return None if lo <= ratio <= hi else ratio


# ------------------------------------------------- reference implementations
#: acoustic substep length and Rayleigh-damping rate of the explicit
#: updates, and the f-plane Coriolis parameter (representative constants;
#: the measured counts are data-independent)
_DTAU, _RDAMP, _F0 = 0.5, 1.0e-3, 1.0e-4


class _Terms:
    """Grid and reference-state terms the reference kernels share,
    computed once per :func:`bind`."""

    def __init__(self, grid: Grid, ref: ReferenceState):
        self.grid, self.ref = grid, ref
        self.jac3 = grid.jac[:, :, None]
        self.inv_jac3 = 1.0 / self.jac3
        self.inv_dx, self.inv_dy = 1.0 / grid.dx, 1.0 / grid.dy
        self.inv_dz3 = (1.0 / grid.dz_c)[None, None, :]
        # spacing between neighboring cell centers (interior faces)
        self.inv_dzf = (1.0 / grid.dz_f[1:-1])[None, None, :]
        self.jac_u3 = grid.jac_u[:, :, None]
        self.jac_v3 = grid.jac_v[:, :, None]
        self.dzdx_u = grid.dzdx_at_u()
        self.dzdy_v = grid.dzdy_at_v()
        self.rhotheta_ref = ref.rhotheta_c * self.jac3
        self.cp_lin = linearization_coefficient(
            eos_pressure(self.rhotheta_ref, grid), self.rhotheta_ref)
        self.helm = HelmholtzOperator(grid, ref.theta_wf, self.cp_lin,
                                      dtau=_DTAU, beta=0.55)
        # Davies relaxation mask: nonzero on a halo-wide rim, zero inside —
        # the kernel sweeps the full field exactly like the GPU launch does
        self.wmask = wmask = np.zeros((grid.nxh, grid.nyh, 1))
        for i, w in enumerate(np.linspace(1.0, 0.0, 2 * grid.halo)):
            wmask[i, :, 0] = np.maximum(wmask[i, :, 0], w)
            wmask[-1 - i, :, 0] = np.maximum(wmask[-1 - i, :, 0], w)
            wmask[:, i, 0] = np.maximum(wmask[:, i, 0], w)
            wmask[:, -1 - i, 0] = np.maximum(wmask[:, -1 - i, 0], w)


def _advection(t: _Terms, phi, fx, fy, fz):
    return advect_scalar(phi, fx, fy, fz, t.grid)


def _coriolis(t: _Terms, rhou, rhov):
    vc = 0.5 * (rhov[:, 1:] + rhov[:, :-1])       # v at cell centers
    uc = 0.5 * (rhou[1:] + rhou[:-1])             # u at cell centers
    return _F0 * vc, -_F0 * uc


def _coord_transform(t: _Terms, rho_hat):
    return rho_hat / t.jac3


def _pgf_metric(t: _Terms, rt):
    # pressure perturbation from the prognostic via the linearized EOS
    # (2 flops/pt), shared by both horizontal PGF kernels
    pp = t.cp_lin * (rt - t.rhotheta_ref)
    return pp, (pp[:, :, 1:] - pp[:, :, :-1]) * t.inv_dzf     # c levels


def _pgf_x(t: _Terms, rt):
    pp, dpdz = _pgf_metric(t, rt)
    grad = (pp[1:] - pp[:-1]) * t.inv_dx                      # u faces
    # terrain-following metric correction: + dz/dx * dp/dz
    grad[:, :, :-1] += t.dzdx_u[1:-1, :, :-1] * (0.5 * (dpdz[1:] + dpdz[:-1]))
    out_u = np.zeros(t.grid.shape_u, dtype=np.asarray(rt).dtype)
    out_u[1:-1] = -t.jac_u3[1:-1] * grad
    return out_u


def _pgf_y(t: _Terms, rt):
    pp, dpdz = _pgf_metric(t, rt)
    grad = (pp[:, 1:] - pp[:, :-1]) * t.inv_dy
    grad[:, :, :-1] += t.dzdy_v[:, 1:-1, :-1] * (
        0.5 * (dpdz[:, 1:] + dpdz[:, :-1]))
    out_v = np.zeros(t.grid.shape_v, dtype=np.asarray(rt).dtype)
    out_v[:, 1:-1] = -t.jac_v3[:, 1:-1] * grad
    return out_v


def _momentum_update(t: _Terms, rhou, pgf_t, adv_t):
    # explicit acoustic momentum update with Rayleigh damping
    return rhou + _DTAU * (pgf_t + adv_t - _RDAMP * rhou)


def _continuity(t: _Terms, rhou, rhov, rhow):
    div = ((rhou[1:] - rhou[:-1]) * t.inv_dx
           + (rhov[:, 1:] - rhov[:, :-1]) * t.inv_dy
           + (rhow[:, :, 1:] - rhow[:, :, :-1]) * t.inv_dz3)
    return -div * t.inv_jac3


def _theta_update(t: _Terms, rt, fx, fy, fz):
    theta_w = t.ref.theta_wf
    div = ((fx[1:] - fx[:-1]) * t.inv_dx
           + (fy[:, 1:] - fy[:, :-1]) * t.inv_dy)
    divw = (fz[:, :, 1:] * theta_w[:, :, 1:]
            - fz[:, :, :-1] * theta_w[:, :, :-1]) * t.inv_dz3
    return rt - _DTAU * (div + divw)


def _helmholtz(t: _Terms, rhs):
    return t.helm.solve(rhs)


def _vertical_flux(t: _Terms, phi, rhow):
    flux = 0.5 * (rhow[:, :, 1:] + rhow[:, :, :-1]) * phi
    out_c = np.zeros_like(np.asarray(phi))
    out_c[:, :, 1:-1] = ((flux[:, :, 2:] - flux[:, :, :-2])
                         * t.inv_dz3[:, :, 1:-1])
    return out_c


def _eos_pressure(t: _Terms, rhotheta_hat):
    return eos_pressure(rhotheta_hat, t.grid)


def _array_copy(t: _Terms, src):
    return np.positive(src)                        # 0 flops, 1r + 1w


def _boundary_ops(t: _Terms, phi):
    # dense masked Davies relaxation toward the reference (the mask is
    # zero in the interior; the launch still sweeps the whole field)
    return phi - t.wmask * (phi - t.ref.rhotheta_c)


def _microphysics(step, config, species: tuple[str, ...]):
    """Reference for a column-physics kernel: ``step`` run on a throwaway
    supersaturated state, so all condensation/evaporation/autoconversion
    branches are active (the production intent of the kernel); the input
    arrays are copied so measurement never mutates the live run state."""
    def fn(t: _Terms, rho, rt):
        rho = rho.copy()
        q = {"qv": 0.02 * rho, "qc": 2e-3 * rho, "qr": 1e-3 * rho}
        q.update({name: 5e-4 * rho for name in species})
        g = t.grid
        st = State(grid=g, rho=rho, rhou=g.zeros_u(), rhov=g.zeros_v(),
                   rhow=g.zeros_w(), rhotheta=rt.copy(), q=q)
        step(st, t.ref, 5.0, config)
        return st.get("rhotheta")
    return fn


# ---------------------------------------------------- measurement recipes
def _cells(*fields: str):
    """The named live prognostic fields, counts normalized per cell."""
    return lambda s: (tuple(s.get(f) for f in fields), float(s.rho.size))


def _faces(face: str):
    """``rhotheta`` in, counts normalized per face of the ``face`` field
    the kernel writes."""
    return lambda s: ((s.rhotheta,), float(s.get(face).size))


def _columns(s: State):
    return (s.rho, s.rhotheta), float(s.grid.n_interior_cells)


def _helmholtz_rhs(s: State):
    rhs = s.rhow[:, :, 1:-1]
    return (rhs,), float(rhs.size)


def _momentum_fields(s: State):
    zeros_u = np.zeros_like(np.asarray(s.rhou))
    return (s.rhou, zeros_u, zeros_u), float(s.rhou.size)


# --------------------------------------------------------------- the table
def _table(*decls: KernelDecl) -> dict[str, KernelDecl]:
    table = {d.name: d for d in decls}
    if len(table) != len(decls):
        raise ValueError("duplicate kernel name in the table")
    return table


#: the ASUCA kernel table, in Fig. 1 execution-flow order (the order the
#: launches are charged in).  ``fig5`` marks the paper's Fig. 5 kernels.
KERNEL_TABLE: dict[str, KernelDecl] = _table(
    # slow tendencies.  Advection (x-momentum representative): Koren-
    # limited 4-point stencils in 3 directions; shared-memory tiling keeps
    # effective global reads low (Sec. IV-A-2).  Momentum x/y/z + theta
    # per stage, water-substance tracers per stage (RK3 recomputes them)
    KernelDecl(
        "advection", "long", spec=advect_scalar.spec, fig5="(3) advection",
        launches=lambda s: s.stages * 4 + s.stages * s.tracers,
        reference=_advection,
        measure=_cells("rhotheta", "rhou", "rhov", "rhow")),
    KernelDecl(
        "coriolis", "long", cost=KernelCostModel(8.0, 3.0, 2.0),
        launches=lambda s: s.stages,
        reference=_coriolis, measure=_cells("rhou", "rhov")),
    # coordinate transformation rho = J rho^: 2 reads, 1 write, 1 flop.
    # Momentum (3), density, theta, water substances, roughly twice each
    # per long step
    KernelDecl(
        "coord_transform", "transform", cost=KernelCostModel(1.0, 2.0, 1.0),
        fig5="(1) coordinate transformation",
        launches=lambda s: 2 * (3 + 1 + 1 + s.tracers),
        reference=_coord_transform, measure=_cells("rho")),
    # acoustic substeps: pressure gradients (linearized EOS plus the
    # terrain-following metric correction), explicit momentum updates
    # (x, y), continuity, theta acoustic update, 1-D Helmholtz-like
    # tridiagonal solve, vertical-flux updates of rho and theta,
    # EOS/pressure update
    KernelDecl(
        "pgf_x", "short", cost=KernelCostModel(14.0, 5.0, 1.0),
        fig5="(2) pressure gradient (x)", fig9=("Momentum (x)",),
        launches=lambda s: s.nsub,
        reference=_pgf_x, measure=_faces("rhou")),
    KernelDecl(
        "pgf_y", "short", cost=KernelCostModel(14.0, 5.0, 1.0),
        fig9=("Momentum (y)",),
        launches=lambda s: s.nsub,
        reference=_pgf_y, measure=_faces("rhov")),
    KernelDecl(
        "momentum_update", "short", cost=KernelCostModel(10.0, 4.0, 1.0),
        fig9=("Momentum (x)", "Momentum (y)"),
        launches=lambda s: 2 * s.nsub,
        reference=_momentum_update, measure=_momentum_fields),
    KernelDecl(
        "continuity", "short", cost=KernelCostModel(10.0, 5.0, 1.0),
        fig9=("Density",),
        launches=lambda s: s.nsub,
        reference=_continuity, measure=_cells("rhou", "rhov", "rhow")),
    KernelDecl(
        "theta_update", "short", cost=KernelCostModel(12.0, 6.0, 1.0),
        fig9=("Potential temperature",),
        launches=lambda s: s.nsub,
        reference=_theta_update,
        measure=_cells("rhotheta", "rhou", "rhov", "rhow")),
    KernelDecl(
        "helmholtz", "short", spec=helmholtz_solve.spec,
        fig5="(4) Helmholtz-like eq.", fig9=("Helmholtz-like eq.",),
        launches=lambda s: s.nsub,
        reference=_helmholtz, measure=_helmholtz_rhs),
    KernelDecl(
        "vertical_flux", "short", cost=KernelCostModel(9.0, 4.0, 1.0),
        fig9=("Helmholtz-like eq.", "Density"),
        launches=lambda s: 2 * s.nsub,
        reference=_vertical_flux, measure=_cells("rho", "rhow")),
    KernelDecl(
        "eos_pressure", "short", spec=eos_pressure.spec,
        fig9=("Potential temperature",),
        launches=lambda s: s.nsub,
        reference=_eos_pressure, measure=_cells("rhotheta")),
    # RK-stage base copies and halo packing copies
    KernelDecl(
        "array_copy", "copy", cost=KernelCostModel(0.0, 1.0, 1.0),
        launches=lambda s: 5 * s.stages,
        reference=_array_copy, measure=_cells("rhotheta")),
    # warm rain: transcendental-heavy, few memory accesses ("contains
    # mathematical functions, such as log, exp, with few memory accesses";
    # "called once per time step and spends only 1.0% GPU time")
    KernelDecl(
        "warm_rain", "physics", spec=kessler_step.spec,
        fig5="(5) warm rain",
        launches=lambda s: 1,
        reference=_microphysics(kessler_step,
                                KesslerConfig(sedimentation=True), ()),
        measure=_columns),
    # the cold-rain (ice) extension — the paper's future work: "typical
    # physics processes are compute bound and can easily extract GPU's
    # performance" (Sec. V-B) and will "result in increased Flops"
    # (Sec. VII).  Costed from repro.physics.ice.COLD_RAIN_FLOPS_PER_POINT.
    KernelDecl(
        "cold_rain", "physics", cost=KernelCostModel(320.0, 6.0, 5.0),
        launches=lambda s: int(s.ice),
        reference=_microphysics(cold_rain_step, IceConfig(), ("qi", "qs")),
        measure=_columns),
    KernelDecl(
        "boundary_ops", "boundary", spec=fill_halos_state.spec,
        launches=lambda s: 4,
        reference=_boundary_ops, measure=_cells("rhotheta")),
)

# ------------------------------------------------------------------- views
#: name -> launchable (unbound) kernel: cost model, geometry, timeline tag
ASUCA_KERNELS: dict[str, Kernel] = {
    name: d.kernel() for name, d in KERNEL_TABLE.items()}

#: the five kernels of the paper's Fig. 5 as (label, name), in its numbering
ROOFLINE_KERNELS: list[tuple[str, str]] = sorted(
    (d.fig5, name) for name, d in KERNEL_TABLE.items() if d.fig5)

#: the Fig. 9 variables, each with the kernels whose per-substep work
#: belongs to it
SHORT_STEP_VARIABLES: list[tuple[str, list[str]]] = [
    (var, [name for name, d in KERNEL_TABLE.items() if var in d.fig9])
    for var in FIG9_VARIABLES]


def step_schedule(ns: int = DEFAULT_NS, *,
                  include_ice: bool = False) -> list[tuple[Kernel, int]]:
    """(kernel, launches per long step) for every kernel that launches,
    in charging order.  ``include_ice`` adds the cold-rain extension
    kernel (the paper's future work)."""
    shape = step_shape(ns, include_ice=include_ice)
    return [(ASUCA_KERNELS[name], count)
            for name, d in KERNEL_TABLE.items()
            if (count := d.launches(shape))]


def launch_schedule(ns: int = DEFAULT_NS, *,
                    include_ice: bool = False) -> list[tuple[str, int]]:
    """:func:`step_schedule` by kernel name."""
    return [(k.name, count)
            for k, count in step_schedule(ns, include_ice=include_ice)]


def bind(grid: Grid, ref: ReferenceState) -> dict[str, Kernel]:
    """Every table kernel with ``fn`` bound to its reference
    implementation on the given grid.  Each ``fn`` takes the arrays it
    needs and returns the computed field; the counting hook measures
    real FLOP/byte counts by calling it on instrumented arrays."""
    terms = _Terms(grid, ref)
    return {name: d.kernel(partial(d.reference, terms))
            for name, d in KERNEL_TABLE.items()}


def measure_kernel_times(
    grid: Grid, ref: ReferenceState, state: State, *, repeats: int = 3
) -> dict[str, float]:
    """Best-of-N wall times [s] of the bound kernels on this machine,
    each called with its measurement recipe's arguments: the *measured
    wall-time ranking* of the NumPy kernels must agree with the modeled
    memory-traffic ranking, because both the host CPU and the modeled
    GPU are bandwidth-bound on these stencils."""
    times: dict[str, float] = {}
    for name, k in bind(grid, ref).items():
        args, _ = KERNEL_TABLE[name].measure(state)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            k.fn(*args)
            best = min(best, time.perf_counter() - t0)
        times[name] = best
    return times
