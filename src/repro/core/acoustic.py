"""HE-VI acoustic (short) time step.

Each Runge-Kutta stage of the long step integrates the fast (acoustic and
gravity-wave) modes from the long-step start over the stage interval in
``n`` substeps of ``dtau`` (paper Sec. II: "horizontally explicit and
vertically implicit (HE-VI) scheme with a time-splitting method").

Per substep:

1. perturbation pressure ``pp = (p^t - p_ref) + Cp (Theta - Theta^t)``
   (linearized EOS about the long-step start, reference state subtracted
   so a balanced atmosphere is exactly stationary), with forward-in-time
   divergence damping ``pp_h = pp + damp * (pp - pp_prev)``;
2. explicit horizontal momentum update: metric-corrected horizontal
   gradient of ``pp_h`` plus the slow forcing;
3. explicit parts of the continuity and thermodynamic updates (updated
   horizontal fluxes, metric vertical fluxes, slow forcings);
4. vertically implicit update of W via the tridiagonal
   :class:`~repro.core.helmholtz.HelmholtzOperator` (trapezoidal
   off-centering ``beta``), then the implied vertical-flux updates of
   ``rho`` and ``rhotheta``.

The perturbation fluxes for ``rhotheta`` are taken relative to the RK
*stage* fluxes (whose full advective tendency sits in the slow forcing), so
that a uniform-theta atmosphere stays exactly uniform — the discrete
consistency property the tests assert.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np

from .. import constants as c
from .advection import MetricFlux, contravariant_mass_flux_w
from .grid import Grid
from ..obs.trace import span
from ..stencil import native
from ..stencil.executor import active_executor
from .helmholtz import HelmholtzOperator, helmholtz_brackets
from .pressure import eos_pressure, linearization_coefficient
from .reference import ReferenceState
from .state import State

__all__ = ["AcousticContext", "AcousticGeometry", "SlowForcing",
           "AcousticScratch", "SubstepBinding", "AcousticStepper",
           "build_context", "finish_numpy", "ACOUSTIC_FIELDS"]


class AcousticGeometry:
    """Every substep operand that the grid (and its reference state) alone
    decides, evaluated with the substep's own operations: the interior face
    slices, the negated face Jacobians, the terrain metric products, the
    metric mass flux and the buoyancy reference ``G rho_ref``.  One per
    :class:`~repro.core.rk3.Rk3Integrator`, not one per stage; it holds
    the integrator's :attr:`scratch`."""

    _scratch: "AcousticScratch | None" = None

    def __init__(self, grid: Grid, ref: ReferenceState):
        g = self.grid = grid
        self.has_terrain = not g.is_flat()
        self.jac3 = g.jac[:, :, None]
        self.rho_ref_hat = ref.rho_c * self.jac3
        self.su, self.sv = su, sv = g.isl_u, g.isl_v
        self.njac_u = -g.jac_u[su][:, :, None]
        self.njac_v = -g.jac_v[sv][:, :, None]
        self.met_u = self.met_v = self.dzc2 = None
        if self.has_terrain:
            #: the spacings `_dpp_dz_centers` divides by, bottom to top
            self.dzc2 = np.concatenate(([g.z_c[1] - g.z_c[0]],
                                        g.z_c[2:] - g.z_c[:-2],
                                        [g.z_c[-1] - g.z_c[-2]]))
            self.met_u = (g.jac_u[su][:, :, None] * g.dzsdx_u[su][:, :, None]
                          * g.decay_c[None, None, :])
            self.met_v = (g.jac_v[sv][:, :, None] * g.dzsdy_v[sv][:, :, None]
                          * g.decay_c[None, None, :])
        self.metric_flux = MetricFlux(g)

    @property
    def scratch(self) -> "AcousticScratch":
        """The integrator's :class:`AcousticScratch`, made on first use and
        dropped by :meth:`~repro.core.rk3.Rk3Integrator.release`: one
        integrator steps on one thread at a time, so two runs stepped side
        by side never compute in each other's temporaries."""
        if self._scratch is None:
            self._scratch = AcousticScratch(self.grid)
        return self._scratch


@dataclass
class SlowForcing:
    """Slow-mode forcings and the stage fluxes they were computed with."""

    r_u: np.ndarray          # tendency of rhou (interior u faces valid)
    r_v: np.ndarray
    r_w: np.ndarray          # tendency of rhow (interior w faces valid)
    r_theta: np.ndarray      # tendency of rhotheta (interior cells valid)
    fx_s: np.ndarray         # stage-state mass fluxes: the stage state's
    fy_s: np.ndarray         # rhou / rhov (copies where it is refilled)
    w_s: np.ndarray          # stage-state rhow (boundary faces zero)
    m_s: np.ndarray          # stage-state metric vertical flux
    #: the eight addresses, in field order, where the compiled stage
    #: produced them (its output block's and the stage state's)
    ptrs: "list | None" = field(default=None, repr=False)


@dataclass
class AcousticContext:
    """Linearization data frozen at the long-step start ``t``."""

    grid: Grid
    cp_lin: np.ndarray           # p' = cp_lin * (G rho theta)'
    pc: np.ndarray               # p_t - p_ref - cp_lin * rhotheta at t
    rho_ref_hat: np.ndarray      # G * rho_ref (buoyancy reference)
    theta_xf: np.ndarray         # theta^t at u faces
    theta_yf: np.ndarray         # theta^t at v faces
    theta_wf: np.ndarray         # theta^t at w faces (boundary faces too)
    geom: AcousticGeometry       # the integrator's grid-only operands
    #: the Helmholtz operator's dtau-independent brackets (built on first
    #: use where the compiled linearization did not build them)
    brackets: tuple | None = field(default=None, repr=False)
    _helm: dict = field(default_factory=dict, repr=False)
    #: the addresses of the five linearization fields (:meth:`pointers`)
    _ptrs: "list | None" = field(default=None, repr=False)

    def helmholtz(self, dtau: float, beta: float) -> HelmholtzOperator:
        """The vertical implicit operator of this linearization for one
        ``(dtau, beta)``, assembled (and factored) once per value from the
        one set of brackets: RK stages 2 and 3 share it whenever ``ns`` is
        even."""
        key = (dtau, beta)
        if key not in self._helm:
            if self.brackets is None:
                self.brackets = helmholtz_brackets(self.grid, self.theta_wf,
                                                   self.cp_lin)
            self._helm[key] = HelmholtzOperator(
                self.grid, self.theta_wf, self.cp_lin, dtau, beta,
                self.brackets)
        return self._helm[key]

    def pointers(self) -> "list | native.Unbound":
        """The addresses of ``cp_lin pc theta_xf theta_yf theta_wf``, taken
        once per context."""
        if self._ptrs is None:
            g = self.grid
            self._ptrs = native.pointers(
                np.float64, dict(cp_lin=self.cp_lin, pc=self.pc,
                                 theta_xf=self.theta_xf,
                                 theta_yf=self.theta_yf,
                                 theta_wf=self.theta_wf),
                dict(cp_lin=g.shape_c, pc=g.shape_c, theta_xf=g.shape_u,
                     theta_yf=g.shape_v, theta_wf=g.shape_w))
        return self._ptrs


def build_context(state: State, ref: ReferenceState, p_ref: np.ndarray,
                  geom: AcousticGeometry | None = None) -> AcousticContext:
    """Precompute the acoustic linearization at the long-step start, from
    the EOS pressure (into the geometry's scratch): one compiled pass, the
    EOS included, where a verified library is loaded, else the EOS and
    the NumPy below — the same bytes.  ``geom`` is the integrator's
    :class:`AcousticGeometry` (built here for a caller that keeps none)."""
    g = state.grid
    geom = geom or AcousticGeometry(g, ref)
    ctx = _context_native(state, p_ref, geom)
    if ctx is not None:
        return ctx
    p_t = eos_pressure(state.rhotheta, g, out=geom.scratch.c[0])
    cp_lin = linearization_coefficient(p_t, state.rhotheta)
    theta = state.rhotheta / state.rho

    theta_xf = np.empty(g.shape_u, dtype=theta.dtype)
    theta_xf[1:-1] = 0.5 * (theta[1:] + theta[:-1])
    theta_xf[0] = theta[0]
    theta_xf[-1] = theta[-1]

    theta_yf = np.empty(g.shape_v, dtype=theta.dtype)
    theta_yf[:, 1:-1] = 0.5 * (theta[:, 1:] + theta[:, :-1])
    theta_yf[:, 0] = theta[:, 0]
    theta_yf[:, -1] = theta[:, -1]

    theta_wf = np.empty(g.shape_w, dtype=theta.dtype)
    theta_wf[:, :, 1:-1] = 0.5 * (theta[:, :, 1:] + theta[:, :, :-1])
    theta_wf[:, :, 0] = theta[:, :, 0]
    theta_wf[:, :, -1] = theta[:, :, -1]

    return AcousticContext(
        grid=g,
        cp_lin=cp_lin,
        pc=p_t - p_ref - cp_lin * state.rhotheta,
        rho_ref_hat=geom.rho_ref_hat,
        theta_xf=theta_xf,
        theta_yf=theta_yf,
        theta_wf=theta_wf,
        geom=geom,
    )


def _context_native(state: State, p_ref: np.ndarray, geom: AcousticGeometry
                    ) -> AcousticContext | None:
    """:func:`build_context`'s EOS, linearization and Helmholtz brackets in
    one call of csrc/acoustic.c's ``acoustic_context`` (the pressure and
    ``theta`` into scratch fields), credited as the one ``eos_pressure``
    dispatch the NumPy text makes; ``None`` where no verified library
    takes the operands (a float32 state: counted)."""
    lib = native.kernels()
    if lib is None:
        return None
    g = state.grid
    ptrs = state.pointers()
    if isinstance(ptrs, native.Unbound):
        native.unbound("contexts", ptrs)
        return None
    rho, rhotheta = ptrs[0], ptrs[4]
    why = native.pointers(np.float64, dict(p_ref=p_ref),
                          dict(p_ref=g.shape_c))
    if isinstance(why, native.Unbound):
        native.unbound("contexts", why)
        return None
    ctx = AcousticContext(
        grid=g, rho_ref_hat=geom.rho_ref_hat, geom=geom,
        brackets=tuple(np.empty(g.shape_c[:2] + (g.nz - 1,))
                       for _ in range(3)),
        cp_lin=np.empty(g.shape_c), pc=np.empty(g.shape_c),
        theta_xf=np.empty(g.shape_u), theta_yf=np.empty(g.shape_v),
        theta_wf=np.empty(g.shape_w))
    # the rest are float64 fields of the grid's shape: the grid's, the
    # scratch's, the context's
    p_t, theta = geom.scratch.c[:2]
    xsup, xsub, ydiag = ctx.brackets
    lib.context(ctypes.byref(lib.context_args(
        nxh=g.nxh, nyh=g.nyh, nz=g.nz, gamma=c.CP / c.CV, half_g=0.5 * c.G,
        rd=c.RD, p0=c.P0, rho=rho, rt=rhotheta, **{
            name: a.ctypes.data for name, a in dict(
                jac=g.jac, p_t=p_t, p_ref=p_ref, dz_c=g.dz_c, dz_f=g.dz_f,
                theta=theta, cp_lin=ctx.cp_lin, pc=ctx.pc, xf=ctx.theta_xf,
                yf=ctx.theta_yf, wf=ctx.theta_wf, xsup=xsup, xsub=xsub,
                ydiag=ydiag).items()})))
    active_executor().calls["eos_pressure"] += 1
    return ctx


def _dpp_dz_centers(pp: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
    """(1/G) d(pp)/dx3 at cell centers (= physical d pp/dz), centered in the
    interior, one-sided at the bottom/top cells; written into ``out``."""
    mid = out[:, :, 1:-1]
    np.subtract(pp[:, :, 2:], pp[:, :, :-2], out=mid)
    np.divide(mid, (grid.z_c[2:] - grid.z_c[:-2])[None, None, :], out=mid)
    out[:, :, 0] = (pp[:, :, 1] - pp[:, :, 0]) / (grid.z_c[1] - grid.z_c[0])
    out[:, :, -1] = (pp[:, :, -1] - pp[:, :, -2]) / (grid.z_c[-1] - grid.z_c[-2])
    out /= grid.jac[:, :, None]
    return out


def _dz_center_from_faces(
    flux_w: np.ndarray, grid: Grid, out: np.ndarray | None = None
) -> np.ndarray:
    """(d/dx3) of a w-face flux, at centers: (F[k+1] - F[k]) / dz_c[k]."""
    out = np.subtract(flux_w[:, :, 1:], flux_w[:, :, :-1], out=out)
    return np.divide(out, grid.dz_c[None, None, :], out=out)


class AcousticScratch:
    """Every within-substep temporary of one integrator's grid, allocated
    once and shared by its steppers (a substep runs to
    completion, so nothing here is live between substeps; the
    divergence-damping history ``pp`` and the stage's ``dws`` are the
    :class:`SubstepBinding`'s for that reason), and the compiled slow stage's
    (:class:`~repro.core.rk3.StageBinding`: it runs before a stage's first
    substep).  Float64 like the grid metrics every chain runs through."""

    def __init__(self, grid: Grid):
        def buf(shape, count):
            return [np.empty(shape) for _ in range(count)]

        nx, ny, nz, terrain = grid.nx, grid.ny, grid.nz, not grid.is_flat()
        nxh, nyh = grid.nxh, grid.nyh
        self.c = buf((nxh, nyh, nz), 3 if terrain else 2)  # cell-shaped
        self.gu = buf((nx + 1, ny, nz), 1 + terrain)      # interior u faces
        self.gv = buf((nx, ny + 1, nz), 1 + terrain)      # interior v faces
        self.i = buf((nx, ny, nz), 5)                     # interior cells
        self.k = buf((nx, ny, nz - 1), 2)                 # interior w faces
        self.w = buf((nxh, nyh, nz + 1), 2)               # w-shaped
        # the Helmholtz operator's image of w, on the w buffers' memory
        n = nxh * nyh * (nz - 1)
        self.aw = [w.reshape(-1)[:n].reshape(nxh, nyh, nz - 1)
                   for w in self.w]
        #: Helmholtz right-hand side; its halo columns stay zero
        self.rhs = np.zeros((nxh, nyh, nz - 1))
        #: the slow stage's velocities at the u and v faces (its w, fz and
        #: theta or q / rho go on w[0], w[1] and c[0]) and advection rows
        self.u = np.empty((nxh + 1, nyh, nz))
        self.v = np.empty((nxh, nyh + 1, nz))
        self.arena = np.zeros(5 * (nyh + 1) * (nz + 1))
        #: the warm rain's surface precipitation and its product with dt
        self.precip = np.empty((2, nx, ny))

    def arrays(self) -> list:
        """Every array of the scratch's own memory (no view)."""
        return [*self.c, *self.gu, *self.gv, *self.i, *self.k, *self.w,
                self.rhs, self.u, self.v, self.arena, self.precip]


#: prognostic fields refreshed after every acoustic substep — the
#: variables the paper exchanges in the short time step (Sec. V-A)
ACOUSTIC_FIELDS = ["rho", "rhou", "rhov", "rhow", "rhotheta"]


class SubstepBinding:
    """What one integrator's substeps keep between its stages, bound the
    first time it steps: its geometry's
    :class:`AcousticScratch` and, where a verified library takes the
    grid's operands, the compiled substep's struct with every grid,
    geometry, scratch, metric-flux, damping-pair and ``dws`` address set,
    and the one call a substep makes.  The damping pair ``pp`` and ``dws``
    are the binding's, so every stage of its integrator reuses them.  A
    stage sets only scalars and the addresses of its state, context,
    forcing and operator, each taken once per block
    (:meth:`AcousticStepper._bind`), so a binding serves one stage at a
    time."""

    def __init__(self, geom: AcousticGeometry):
        g = geom.grid
        self.geom = geom
        self.lib = native.kernels()
        self.scratch = s = geom.scratch
        #: substep k writes pp[k % 2] and reads pp[(k - 1) % 2]; the
        #: stage-flux vertical theta transport
        self.pp = (np.empty(g.shape_c), np.empty(g.shape_c))
        self.dws = np.empty((g.nx, g.ny, g.nz))
        #: the struct and the call, else ``None``; ``unbound`` says why a
        #: loaded library could not take the operands
        self.args = self.substep = self.unbound = None
        if self.lib is None:
            return
        #: the compiled substep's columns and its Thomas block, in turn
        self.col = np.empty(self.lib.THOMAS_BLOCK * (g.nz + 1))
        arrays = dict(
            rho_ref_hat=geom.rho_ref_hat, jac=g.jac, njac_u=geom.njac_u,
            njac_v=geom.njac_v, dz_c=g.dz_c, dz_f=g.dz_f, pp_h=s.c[0],
            dppdz=s.c[-1], rho_e=s.i[0], theta_e=s.i[3], rhs=s.rhs,
            m_now=s.w[0], w_new=s.w[1], col=self.col, pp0=self.pp[0],
            pp1=self.pp[1], dws=self.dws)
        if geom.has_terrain:
            arrays.update(met_u=geom.met_u, met_v=geom.met_v, dzc2=geom.dzc2)
        ptrs = native.pointers(np.float64, arrays,
                               dict(rho_ref_hat=g.shape_c))
        metric = geom.metric_flux.args(self.lib)
        if geom.has_terrain and metric is None:
            ptrs = geom.metric_flux._unbound
        if isinstance(ptrs, native.Unbound):
            self.unbound = ptrs
            return
        a = self.args = self.lib.acoustic_args(
            nxh=g.nxh, nyh=g.nyh, nz=g.nz, h=g.halo, nx=g.nx, ny=g.ny,
            dx=g.dx, dy=g.dy, grav=c.G, **dict(zip(arrays, ptrs)))
        if geom.has_terrain:
            a.metric = ctypes.addressof(metric)
        self.substep = functools.partial(self.lib.substep, ctypes.byref(a))

    def current(self, geom: AcousticGeometry) -> bool:
        """Bound for ``geom``, with the library now in force."""
        return self.geom is geom and self.lib is native.kernels()


class AcousticStepper:
    """Resumable HE-VI integrator: one object per RK stage.

    ``substep()`` advances one acoustic substep *without* touching halos;
    the caller must refresh halos of :data:`ACOUSTIC_FIELDS` between
    substeps (periodic fill or multi-GPU exchange).  ``finish()`` applies
    the slow moisture tendencies and returns the stage state.  Its one
    caller is :meth:`repro.core.rk3.Rk3Integrator.step_phases`, which
    turns every refresh into a ``yield`` — the single-domain and the
    decomposed driver both resume that generator, which is what makes
    the two runs bit-identical.  It hands every stage its
    :class:`SubstepBinding` (``binding``), which a stage replaces where
    it is not :meth:`~SubstepBinding.current`; without one a stepper binds
    its own.  ``st`` is the stage state, already a copy of ``base`` (the
    integrator's buffer; default: a fresh copy).
    """

    def __init__(
        self,
        base: State,
        forcing: SlowForcing,
        ctx: AcousticContext,
        ref: ReferenceState,
        dts: float,
        nsub: int,
        *,
        beta: float = 0.55,
        div_damp: float = 0.1,
        binding: SubstepBinding | None = None,
        st: State | None = None,
        stage=None,
    ):
        self.base = base
        #: the compiled stage that produced ``forcing`` (its
        #: :meth:`~repro.core.rk3.StageBinding.finish` applies the moisture)
        self.stage = stage
        self.forcing = forcing
        self.ctx = ctx
        self.ref = ref
        self.dts = dts
        self.nsub = nsub
        self.beta = beta
        self.div_damp = div_damp
        g = ctx.grid
        self.g = g
        self.dtau = dts / nsub
        self.st = base.copy() if st is None else st
        self.st.time = base.time + dts
        self.helm = ctx.helmholtz(self.dtau, beta)
        self.geom = geom = ctx.geom
        self._done = 0
        if binding is None or not binding.current(geom):
            binding = SubstepBinding(geom)
        self.binding = binding
        self.s = binding.scratch
        #: the binding's damping pair and ``dws`` (the compiled substep
        #: evaluates the stage-flux vertical theta transport on its first
        #: call)
        self._pp, self.dws = binding.pp, binding.dws
        #: this stage's compiled struct, else ``None``; ``_unbound`` says
        #: why a loaded library could not take the operands (counted once
        #: a stage, here)
        self._args = self._unbound = None
        if binding.lib is not None:
            bound = self._bind()
            if isinstance(bound, native.Unbound):
                self._unbound = bound
                native.unbound("acoustic stages", bound)
            else:
                self._args = bound
        if self._args is None:
            # the one stage-invariant operand the grid does not decide
            sx, sy = g.isl
            self.dws = (_dz_center_from_faces(ctx.theta_wf * forcing.w_s,
                                              g)[sx, sy] / geom.jac3[sx, sy])

    @property
    def pp_prev(self) -> np.ndarray | None:
        """The divergence-damping history: the last substep's ``pp``."""
        return self._pp[(self._done - 1) % 2] if self._done else None

    def _bind(self) -> "ctypes.Structure | native.Unbound":
        """This stage's operands into the binding's struct: the state, the
        linearization, the forcing and the operator with its Thomas
        factors, every address taken once per block (the state's
        :meth:`~repro.core.state.State.pointers`, the context's, the
        compiled stage's and the compiled assembly's; a forcing or an
        operator from the NumPy bodies is checked here); or why not."""
        b, ctx, f, st, g, helm = (self.binding, self.ctx, self.forcing,
                                  self.st, self.g, self.helm)
        if b.args is None:
            return b.unbound
        if st.layout.shapes[:4] != (g.shape_c, g.shape_u, g.shape_v,
                                    g.shape_w):
            return native.Unbound("rho", f"shape {st.rho.shape}")
        state = st.pointers()
        if isinstance(state, native.Unbound):
            return state
        lin = ctx.pointers()
        if isinstance(lin, native.Unbound):
            return lin
        forcing = f.ptrs or native.pointers(np.float64, dict(
            r_u=f.r_u, r_v=f.r_v, r_w=f.r_w, r_theta=f.r_theta, fx_s=f.fx_s,
            fy_s=f.fy_s, w_s=f.w_s, m_s=f.m_s), dict(
            r_u=g.shape_u, r_v=g.shape_v, r_w=g.shape_w, r_theta=g.shape_c,
            fx_s=g.shape_u, fy_s=g.shape_v, w_s=g.shape_w, m_s=g.shape_w))
        if isinstance(forcing, native.Unbound):
            return forcing
        op = helm.addresses
        if op is None:
            fsub, fcp, fden = helm.thomas_factors()
            op = native.pointers(np.float64, dict(
                sup=helm.sup, sub=helm.sub, diag=helm.diag, fsub=fsub,
                fcp=fcp, fden=fden))
            if isinstance(op, native.Unbound):
                return op
        a = b.args
        a.k, a.dtau, a.beta, a.damp = 0, self.dtau, self.beta, self.div_damp
        a.omb, a.ratio = 1.0 - self.beta, (1.0 - self.beta) / self.beta
        a.rho, a.rhou, a.rhov, a.rhow, a.rhotheta = state[:5]
        a.cp_lin, a.pc, a.theta_xf, a.theta_yf, a.theta_wf = lin
        (a.r_u, a.r_v, a.r_w, a.r_theta, a.fx_s, a.fy_s, a.w_s,
         a.m_s) = forcing
        a.fsub, a.fcp, a.fden = op[3:]
        a.sub = a.diag = a.sup = None
        if self.beta < 1.0:             # else: no trapezoidal correction
            a.sup, a.sub, a.diag = op[:3]
        return a

    def substep(self) -> list[str]:
        """One acoustic substep; returns the field names whose halos are
        now stale and must be exchanged by the caller."""
        if self._done >= self.nsub:
            raise RuntimeError("all substeps already taken")
        with span("acoustic_substep", cat="phase"):
            return self._substep_impl()

    def _pgf(self, pp_h, dppdz, axis, sl, njac, met, d, tend, mom):
        """Explicit horizontal momentum update along ``axis`` on the
        interior faces ``sl``: ``mom += dtau * (pgf + tend)``."""
        lo = tuple(slice(s.start - (a == axis), s.stop - (a == axis))
                   for a, s in enumerate(sl))
        pgf, *t = (self.s.gu, self.s.gv)[axis]
        np.subtract(pp_h[sl], pp_h[lo], out=pgf)
        np.divide(pgf, d, out=pgf)
        np.multiply(njac, pgf, out=pgf)
        if dppdz is not None:
            t, = t
            np.add(dppdz[sl], dppdz[lo], out=t)
            np.multiply(0.5, t, out=t)
            np.multiply(met, t, out=t)
            np.add(pgf, t, out=pgf)
        np.add(pgf, tend[sl], out=pgf)
        np.multiply(self.dtau, pgf, out=pgf)
        np.add(mom[sl], pgf, out=mom[sl])

    def _substep_impl(self) -> list[str]:
        """One substep: one call of csrc/acoustic.c's ``acoustic_substep``
        where the stage is bound, else the NumPy chain — the same bytes."""
        if self._args is None:
            self._substep_numpy()
        else:
            self.binding.substep()
        self._done += 1
        return list(ACOUSTIC_FIELDS)

    def _substep_numpy(self) -> None:
        ctx, forcing, st, g, s = self.ctx, self.forcing, self.st, self.g, self.s
        geom = self.geom
        h, nx, ny = g.halo, g.nx, g.ny
        sx, sy = g.isl
        dtau, beta, jac3 = self.dtau, self.beta, geom.jac3
        i0, i1, i2, i3, i4 = s.i
        k0, k1 = s.k
        w0, w1 = s.w

        # (1) perturbation pressure ------------------------------------
        pp = self._pp[self._done % 2]
        np.multiply(ctx.cp_lin, st.rhotheta, out=pp)
        np.add(ctx.pc, pp, out=pp)
        if self.pp_prev is not None and self.div_damp > 0.0:
            pp_h = s.c[0]
            np.subtract(pp, self.pp_prev, out=pp_h)
            np.multiply(self.div_damp, pp_h, out=pp_h)
            np.add(pp, pp_h, out=pp_h)
        else:
            pp_h = pp

        # (2) horizontal momentum (explicit) ---------------------------
        dppdz = None
        if geom.has_terrain:
            dppdz = _dpp_dz_centers(pp_h, g, s.c[2])
        self._pgf(pp_h, dppdz, 0, geom.su, geom.njac_u,
                  geom.met_u, g.dx, forcing.r_u, st.rhou)
        self._pgf(pp_h, dppdz, 1, geom.sv, geom.njac_v,
                  geom.met_v, g.dy, forcing.r_v, st.rhov)

        # (3) explicit parts of continuity / thermodynamics ------------
        # horizontal divergence of the updated mass fluxes
        xp, xm = slice(h + 1, h + nx + 1), slice(h, h + nx)
        yp, ym = slice(h + 1, h + ny + 1), slice(h, h + ny)
        np.subtract(st.rhou[xp, sy], st.rhou[xm, sy], out=i0)
        np.divide(i0, g.dx, out=i0)
        np.subtract(st.rhov[sx, yp], st.rhov[sx, ym], out=i1)
        np.divide(i1, g.dy, out=i1)
        np.add(i0, i1, out=i0)
        if geom.has_terrain:
            m_now = geom.metric_flux(st.rhou, st.rhov)
            np.add(i0, _dz_center_from_faces(m_now, g, s.c[1])[sx, sy], out=i0)
        else:
            np.add(i0, 0.0, out=i0)      # the flat metric term (-0.0 -> +0.0)
        np.multiply(dtau, i0, out=i0)
        rho_e = np.subtract(st.rho[sx, sy], i0, out=i0)

        # theta: perturbation fluxes relative to the stage fluxes (only
        # the interior faces of the differences are ever read)
        du_p = np.subtract(st.rhou[geom.su], forcing.fx_s[geom.su], out=s.gu[0])
        dv_p = np.subtract(st.rhov[geom.sv], forcing.fy_s[geom.sv], out=s.gv[0])
        np.multiply(ctx.theta_xf[xp, sy], du_p[1:], out=i1)
        np.multiply(ctx.theta_xf[xm, sy], du_p[:-1], out=i2)
        np.subtract(i1, i2, out=i1)
        np.divide(i1, g.dx, out=i1)                           # dfx_t
        np.multiply(ctx.theta_yf[sx, yp], dv_p[:, 1:], out=i2)
        np.multiply(ctx.theta_yf[sx, ym], dv_p[:, :-1], out=i3)
        np.subtract(i2, i3, out=i2)
        np.divide(i2, g.dy, out=i2)                           # dfy_t
        np.subtract(forcing.r_theta[sx, sy], i1, out=i3)
        np.subtract(i3, i2, out=i3)
        if geom.has_terrain:
            np.subtract(m_now, forcing.m_s, out=w0)
            np.multiply(ctx.theta_wf, w0, out=w0)
            np.subtract(i3, _dz_center_from_faces(w0, g, s.c[1])[sx, sy], out=i3)
        # (flat: the reference subtracts dm_p = 0.0, an exact identity)
        # explicit stage-flux vertical theta transport is inside r_theta;
        # add back the w_s part that the implicit operator will replace
        np.add(i3, self.dws, out=i3)
        np.multiply(dtau, i3, out=i3)
        theta_e = np.add(st.rhotheta[sx, sy], i3, out=i3)

        # (4) vertical implicit solve ----------------------------------
        np.multiply(beta, rho_e, out=i1)
        np.multiply(1.0 - beta, st.rho[sx, sy], out=i2)
        rho_be = np.add(i1, i2, out=i1)
        np.multiply(beta, theta_e, out=i2)
        np.multiply(1.0 - beta, st.rhotheta[sx, sy], out=i4)
        np.add(i2, i4, out=i2)                                # theta_be
        np.multiply(ctx.cp_lin[sx, sy], i2, out=i2)
        pp_be = np.add(ctx.pc[sx, sy], i2, out=i2)
        np.subtract(pp_be[:, :, 1:], pp_be[:, :, :-1], out=k0)
        np.divide(k0, g.dz_f[None, None, 1:-1], out=k0)       # dz_pp
        np.subtract(rho_be, ctx.rho_ref_hat[sx, sy], out=i1)
        np.add(i1[:, :, 1:], i1[:, :, :-1], out=k1)
        np.multiply(0.5, k1, out=k1)                          # buoy
        np.negative(k0, out=k0)
        np.multiply(c.G, k1, out=k1)
        np.subtract(k0, k1, out=k0)
        np.add(k0, forcing.r_w[sx, sy, 1:-1], out=k0)
        np.multiply(dtau, k0, out=k0)
        rhs_i = s.rhs[sx, sy]
        np.add(st.rhow[sx, sy, 1:-1], k0, out=rhs_i)
        # trapezoidal correction from the known W^n
        if beta < 1.0:
            aw = self.helm.apply(st.rhow, *s.aw)
            np.subtract(st.rhow[sx, sy, 1:-1], aw[sx, sy], out=k1)
            np.multiply((1.0 - beta) / beta, k1, out=k1)
            np.add(rhs_i, k1, out=rhs_i)
        with span("helmholtz_solve", cat="phase"):
            w_new = self.helm.solve(s.rhs)
        np.multiply(beta, w_new, out=w0)
        np.multiply(1.0 - beta, st.rhow, out=w1)
        w_beta = np.add(w0, w1, out=w0)

        # implied vertical-flux updates
        np.multiply(dtau, _dz_center_from_faces(w_beta, g, s.c[1])[sx, sy], out=i1)
        np.divide(i1, jac3[sx, sy], out=i1)
        np.subtract(rho_e, i1, out=st.rho[sx, sy])
        np.multiply(ctx.theta_wf, w_beta, out=w1)
        np.multiply(dtau, _dz_center_from_faces(w1, g, s.c[1])[sx, sy], out=i1)
        np.divide(i1, jac3[sx, sy], out=i1)
        np.subtract(theta_e, i1, out=st.rhotheta[sx, sy])
        st.rhow[sx, sy] = w_new[sx, sy]

    def finish(self, q_tendencies: dict[str, np.ndarray | None] | None = None
               ) -> list[str]:
        """Apply the slow moisture tendencies over the full stage interval
        (moisture is a slow mode); returns the fields needing exchange —
        every species, inactive ones (tendency ``None``, field left at the
        base's ``+0.0``) too, so all ranks exchange the same list.  One
        compiled call where the stage's
        :class:`~repro.core.rk3.StageBinding` takes the states
        (:meth:`~repro.core.rk3.StageBinding.finish`), else
        :func:`finish_numpy`."""
        if self._done != self.nsub:
            raise RuntimeError(f"finish() after {self._done}/{self.nsub} substeps")
        if not q_tendencies:
            return []
        if self.stage is None or not self.stage.finish(
                self.st, self.base, self.dts, len(q_tendencies)):
            finish_numpy(self.st, self.base, self.dts, q_tendencies)
        return list(q_tendencies.keys())


def finish_numpy(st: State, base: State, dts: float,
                 q_tendencies: dict) -> None:
    """:meth:`AcousticStepper.finish`'s NumPy text (its oracle): ``st``'s
    active species become ``base + dts * tend`` on the interior."""
    sx, sy = st.grid.isl
    for name, tend in q_tendencies.items():
        if tend is None:
            continue
        out = st.q[name][sx, sy]
        np.multiply(dts, tend[sx, sy], out=out)
        np.add(base.q[name][sx, sy], out, out=out)


def native_check(lib) -> str:
    """What differs between ``lib``'s compiled acoustic bodies and their
    oracles ("" when nothing does): the terrain metric flux against
    :func:`~repro.core.advection.contravariant_mass_flux_w` (``rhow`` given
    and ``None``; float64 and float32 momenta); then, flat grid and
    terrain, against the NumPy that is their oracle: the EOS and the
    linearization of :func:`build_context` with the Helmholtz brackets, the
    operator and its Thomas factors, :meth:`State.velocities`, the stage's
    ``dws``, two substeps (the first has no damping history; the Thomas block is
    reached here, against :func:`~repro.core.tridiag.thomas_solve`) of one
    stage and one substep of a second stage on the same binding (its
    operator the first stage's); and the slow stage against
    :func:`~repro.core.rk3.slow_tendencies`' NumPy text (on the bodies
    proved before it and the advections' oracles), a first stage flat
    with the sponge and a later one on terrain with Coriolis, over an
    active species, an idle one and one whose only nonzero byte is a lone
    ``-0.0``: the advection's only check, as ``slow_stage`` is its only
    caller; each refills a stage state from the base (the later one the
    state it read, its fluxes moved out first)."""
    from ..stencil.executor import StencilExecutor, use_executor
    from .boundary import rayleigh_coefficient
    from .grid import make_grid
    from .limiter import koren
    from .rk3 import DynamicsConfig, StageBinding, slow_tendencies

    def hill(x, y):
        return 40.0 + 30.0 * np.sin(x / 90.0 + y)

    wave = native.wave
    g = make_grid(3, 3, 5, 100.0, 130.0, 500.0, terrain=hill)   # 9 x 9 columns
    flux = MetricFlux(g)
    for dtype in (np.float64, np.float32):
        rhou, rhov, rhow = (wave(s, k, 3.0).astype(dtype) for s, k in (
            (g.shape_u, 0.7), (g.shape_v, 1.9), (g.shape_w, 2.9)))
        for w in (rhow, None):
            with native.using(lib):
                got = flux(rhou, rhov, w)
            if not native.same(got, contravariant_mass_flux_w(
                    rhou, rhov, np.zeros_like(rhow) if w is None else w, g)):
                return (f"metric flux, {np.dtype(dtype).name} momenta, rhow "
                        f"{'None' if w is None else 'given'}")
    for terrain in (None, hill):
        g = make_grid(3, 2, 5, 100.0, 130.0, 500.0, terrain=terrain)
        where = "terrain" if terrain else "flat"
        base = State(g, wave(g.shape_c, 1.3, 2.0), wave(g.shape_u, 0.7),
                     wave(g.shape_v, 1.9), wave(g.shape_w, 2.9),
                     wave(g.shape_c, 0.3, 600.0))
        forcing = SlowForcing(*(wave(s, k) for s, k in (
            (g.shape_u, 1.1), (g.shape_v, 1.2), (g.shape_w, 1.4),
            (g.shape_c, 1.5), (g.shape_u, 1.6), (g.shape_v, 1.7),
            (g.shape_w, 1.8), (g.shape_w, 2.1))))
        geom = AcousticGeometry(g, ReferenceState(
            *[None] * 3, wave(g.shape_c, 2.3, 2.0), *[None] * 5))
        runs = {}                       # by "took the NumPy bodies"
        for use in (lib, None):
            # the battery's own dispatches (the EOS, the NumPy side's
            # solve) go to an executor of its own, uncounted; a reference
            # one would hold ``lib`` off and compare the oracle with itself
            with native.using(use), use_executor(StencilExecutor("fused")):
                ctx = build_context(base, None, wave(g.shape_c, 2.2), geom)
                pressure = geom.scratch.c[0].copy()
                velocities = base.velocities()
                stepper = AcousticStepper(base, forcing, ctx, None, 0.2, 2)
                stepper.substep()
                stepper.substep()
                first = [a.copy() for a in (
                    stepper.dws, stepper.pp_prev,
                    *map(stepper.st.get, ACOUSTIC_FIELDS))]
                again = AcousticStepper(stepper.st, forcing, ctx, None, 0.1,
                                        1, binding=stepper.binding)
                again.substep()
            helm = stepper.helm
            runs[stepper._args is None] = {
                "EOS pressure": (pressure,),
                "linearization": (ctx.cp_lin, ctx.pc, ctx.theta_xf,
                                  ctx.theta_yf, ctx.theta_wf),
                "Helmholtz brackets": ctx.brackets,
                "Helmholtz operator": (helm.sup, helm.sub, helm.diag,
                                       *helm.thomas_factors()),
                "velocities": velocities,
                "stage theta transport": first[:1],
                "acoustic substep": first[1:],
                "rebound stage": tuple(map(again.st.get, ACOUSTIC_FIELDS))}
        if len(runs) != 2:
            return f"acoustic substep, {where} grid"
        for what, got in runs[False].items():
            if not all(map(native.same, got, runs[True][what])):
                return f"{what}, {where} grid"
        # the slow stage: flat with the sponge, terrain with Coriolis
        lone = np.zeros(g.shape_c)
        lone[4, 3, 2] = -0.0
        base = State(g, *map(base.get, ACOUSTIC_FIELDS),
                     {"qv": wave(g.shape_c, 0.9, 0.01),
                      "qc": np.zeros(g.shape_c), "qr": lone},
                     precip_accum=wave((g.nx, g.ny), 0.8, 1.0))
        cfg = DynamicsConfig(coriolis_f=1e-4 if terrain else 0.0)
        sponge = None if terrain else rayleigh_coefficient(g, 600.0, 60.0)[1]
        # the NumPy text runs on the bodies proved above (their oracles
        # would cost 10 ms here) and on the advections' oracles
        text = StencilExecutor("fused")
        idle = ["qc", "qr"] if terrain else None     # a later stage, a first
        # the stage states set up: a later stage reads its own
        into = [State.of(g, base.layout, base.block * 0.75) for _ in range(2)]
        read = into[0].copy() if terrain else base
        with native.using(lib), use_executor(text):
            binding = StageBinding(geom)
            (forcing, q_tend), (want, q_want) = (slow_tendencies(
                st if terrain else base, cfg, koren, sponge, base,
                geom.metric_flux, idle, b, into=st)
                for b, st in zip((binding, None), into))
        # the forcing, the refilled blocks, and the fluxes against the
        # bytes they held before the refill
        pairs = [*zip(_forcing(forcing), _forcing(want)),
                 (into[0].block, into[1].block),
                 (forcing.fx_s, read.rhou), (forcing.fy_s, read.rhov)]
        if binding.args is None or not all(native.same(*p) for p in pairs) \
                or [t is None for t in q_tend.values()] != [
                    t is None for t in q_want.values()] \
                or not all(t is None or native.same(t, q_want[n])
                           for n, t in q_tend.items()):
            return f"slow stage, {where} grid"
        # the moisture finish of that stage, on its idle flags
        finished = [State(g, *map(base.get, ACOUSTIC_FIELDS), {
            n: wave(g.shape_c, 0.4 + k, 0.2) for k, n in enumerate(base.q)})
            for _ in range(2)]
        binding.finish(finished[0], base, 0.7, len(q_tend))
        finish_numpy(finished[1], base, 0.7, q_want)
        if not native.same(finished[0].block, finished[1].block):
            return f"moisture finish, {where} grid"
    return ""


def _forcing(f: SlowForcing) -> tuple:
    return (f.r_u, f.r_v, f.r_w, f.r_theta, f.fx_s, f.fy_s, f.w_s, f.m_s)
