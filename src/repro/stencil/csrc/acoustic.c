/* The HE-VI acoustic step of repro/core/acoustic.py.  One substep is one
 * call, acoustic_substep: pressure and horizontal momentum, the terrain
 * metric flux, the explicit continuity / thermodynamics with the Helmholtz
 * right-hand side, the Thomas solve and the implied update, so Python
 * crosses into C once a substep.  An RK stage's slow tendencies are one
 * call too, slow_stage (repro/core/rk3.py).  The metric flux (MetricFlux)
 * is an entry point of its own; once a long step come the EOS with the
 * linearization (acoustic_context) and the operator assembly
 * (acoustic_operator), and state_velocities whenever State.velocities is
 * asked.  An entry a captured step replays (repro/core/program.py) is
 * `int entry(void *)` over one struct.  Float64 like AcousticScratch.
 * Every expression mirrors one ufunc call of the NumPy
 * oracle (AcousticStepper._substep_numpy, contravariant_mass_flux_w,
 * thomas_solve, build_context, HelmholtzOperator, State.velocities,
 * slow_tendencies), in its order, so the fields come out the same bytes;
 * see advect.c for the rules.  slow_stage is the advection's only caller,
 * so the load-time check of the slow stage is the advection's check.
 * Not cloned per ISA: these loops wait on memory, a 48x48x24 substep read
 * 1.40 / 1.49 / 1.57 ms as SSE2 / AVX2 / AVX-512, and three clones doubled
 * the build.
 */

/* columns of one Thomas block (read by repro.stencil.native:
 * SubstepBinding sizes its col buffer from it): its n x THOMAS_BLOCK
 * elimination buffer stays in L1 */
#define THOMAS_BLOCK 64

/* ---- G rho u^3 at the w faces: repro.core.advection's
 * contravariant_mass_flux_w, reached from MetricFlux, one x row at a time.
 * The metrics are float64; the momenta are float64 or (f32) float32,
 * widened row by row, and a float32 result is rounded where the oracle
 * rounds it: after the rhow division and on the store.  jac_u == NULL on
 * a flat grid (no metric term), rhow == NULL for the metric part alone
 * (an all +0.0 rhow). */
typedef struct {
    long nxh, nyh, nz;
    const double *jac, *jac_u, *jac_v, *dzsdx_u, *dzsdy_v, *decay_f;
    double *rows;               /* scratch: 4 (nyh + 1) (nz + 1) */
} metric_args;

/* dst[0, n) = p[i, i + n) as double, p float32 (f32) or float64.  The two
 * helpers are out of line: inlined at their three call sites they cost
 * 0.04 s of build and nothing measurable at run time. */
static __attribute__((noinline)) void widen(double *restrict dst, const void *p, int f32, long i,
                  long n)
{
    if (f32)
        for (long j = 0; j < n; j++)
            dst[j] = ((const float *)p)[i + j];
    else
        for (long j = 0; j < n; j++)
            dst[j] = ((const double *)p)[i + j];
}

/* the metric term of one row of u (v) faces, in place: m / jac * dzs */
static __attribute__((noinline)) void face_terms(double *restrict t, const double *restrict jac,
                       const double *restrict dzs, long ncol, long nz)
{
    for (long c = 0; c < ncol; c++)
        for (long k = 0; k < nz; k++)
            t[c * nz + k] = t[c * nz + k] / jac[c] * dzs[c];
}

void acoustic_metric_flux(const metric_args *restrict a, int f32,
                          const void *rhou, const void *rhov,
                          const void *rhow, void *out)
{
    const long nyh = a->nyh, nz = a->nz, nw = nz + 1;
    const long rv = (nyh + 1) * nz, rw = nyh * nw;
    /* the u-face terms of rows x and x + 1, the v-face terms of row x, the
     * result row (in place when float64) and the horizontal column sum */
    double *axp = a->rows, *axn = axp + rv, *ay = axn + rv;
    double *m = ay + rv, *hz = m + rw;

    for (long x = -1; x < a->nxh; x++) {
        if (a->jac_u) {
            const long f = (x + 1) * nyh;
            widen(axn, rhou, f32, f * nz, nyh * nz);
            face_terms(axn, a->jac_u + f, a->dzsdx_u + f, nyh, nz);
        }
        double *t = axp; axp = axn; axn = t;
        if (x < 0)
            continue;
        double *o = f32 ? m : (double *)out + x * rw;
        if (rhow) {
            widen(o, rhow, f32, x * rw, rw);
            for (long c = 0; c < nyh; c++)
                for (long k = 1; k < nz; k++)
                    o[c * nw + k] = o[c * nw + k] / a->jac[x * nyh + c];
            if (f32)
                for (long i = 0; i < rw; i++)
                    o[i] = (float)o[i];
        } else {
            for (long i = 0; i < rw; i++)
                o[i] = 0.0;
        }
        if (a->jac_u) {
            const long f = x * (nyh + 1);
            widen(ay, rhov, f32, f * nz, rv);
            face_terms(ay, a->jac_v + f, a->dzsdy_v + f, nyh + 1, nz);
            for (long c = 0; c < nyh; c++) {
                /* axp is row x + 1 now, axn row x */
                for (long k = 0; k < nz; k++)
                    hz[k] = 0.5 * (axp[c * nz + k] + axn[c * nz + k])
                        + 0.5 * (ay[(c + 1) * nz + k] + ay[c * nz + k]);
                for (long k = 1; k < nz; k++)
                    o[c * nw + k] = o[c * nw + k]
                        - 0.5 * (hz[k] + hz[k - 1]) * a->decay_f[k];
            }
        }
        for (long c = 0; c < nyh; c++)
            o[c * nw] = o[c * nw + nz] = 0.0;
        if (f32)
            for (long i = 0; i < rw; i++)
                ((float *)out)[x * rw + i] = (float)o[i];
    }
}

/* ---- the Thomas solve of repro.core.tridiag.thomas_solve for nb columns
 * from c0 (acoustic_substep below solves the interior columns only),
 * marching in k with the columns innermost: ncol columns of n unknowns,
 * its forward-elimination factors sub / cp / den, computed once per
 * operator, k-leading (n x ncol), rhs column-leading (ncol x n), w the
 * (ncol x n + 2) result with zero end faces.  The block is transposed
 * into dp (n x bc) and back; the divisions are kept (a reciprocal would
 * round twice).  Not cloned:
 * 2916 columns x 23 levels read 178 us plain and 193-197 us with the
 * three clones (the divider does as many elements per cycle at any width). */
static void thomas_block(long ncol, long n, long bc, long c0, long nb,
                         const double *restrict sub,
                         const double *restrict cp,
                         const double *restrict den,
                         const double *restrict rhs, double *restrict w,
                         double *restrict dp)
{
    for (long j = 0; j < nb; j++)
        for (long k = 0; k < n; k++)
            dp[k * bc + j] = rhs[(c0 + j) * n + k];
    for (long j = 0; j < nb; j++)
        dp[j] = dp[j] / den[c0 + j];
    for (long k = 1; k < n; k++) {
        double *restrict d = dp + k * bc;
        const double *restrict dm = d - bc;
        const double *s = sub + k * ncol + c0, *e = den + k * ncol + c0;
        for (long j = 0; j < nb; j++)
            d[j] = (d[j] - s[j] * dm[j]) / e[j];
    }
    for (long k = n - 2; k >= 0; k--) {
        double *restrict d = dp + k * bc;
        const double *restrict dn = d + bc;
        const double *q = cp + k * ncol + c0;
        for (long j = 0; j < nb; j++)
            d[j] = d[j] - q[j] * dn[j];
    }
    for (long j = 0; j < nb; j++) {
        double *o = w + (c0 + j) * (n + 2);
        o[0] = 0.0;
        for (long k = 0; k < n; k++)
            o[k + 1] = dp[k * bc + j];
        o[n + 1] = 0.0;
    }
}

/* ---- one HE-VI acoustic substep (repro.core.acoustic.AcousticStepper),
 * one call: (1)-(2) pressure and horizontal momentum, the terrain metric
 * flux m_now, (3)-(4) the explicit continuity / thermodynamics and the
 * Helmholtz right-hand side, the Thomas solve into w_new, and the implied
 * rho / rhotheta / rhow update.  The first substep of a stage (k == 0)
 * also evaluates the stage-invariant vertical theta transport dws.  An
 * integrator binds its grid, geometry and scratch once, a stage its
 * state, context, forcing, operator, damping pair and dws. */
typedef struct {
    long nxh, nyh, nz, h, nx, ny;
    long k;                     /* substeps taken this stage */
    double dtau, beta, omb, ratio, damp, dx, dy, grav;
    /* the linearization and the stage forcing */
    const double *cp_lin, *pc, *rho_ref_hat, *theta_xf, *theta_yf, *theta_wf;
    const double *r_u, *r_v, *r_w, *r_theta, *fx_s, *fy_s, *m_s, *w_s;
    /* the operator (sub / diag / sup NULL when beta == 1: no trapezoidal
     * correction) and its k-leading Thomas factors */
    const double *sub, *diag, *sup, *fsub, *fcp, *fden;
    /* grid-only operands; met_u / met_v / dzc2 / metric NULL on a flat
     * grid */
    const double *jac, *njac_u, *njac_v, *met_u, *met_v, *dz_c, *dz_f, *dzc2;
    const metric_args *metric;
    /* the state, updated in place */
    double *rho, *rhou, *rhov, *rhow, *rhotheta;
    /* the stage's damping pair (substep k writes pp0 / pp1 as k is even /
     * odd and reads the other as its history) and dws */
    double *pp0, *pp1, *dws;
    /* the integrator's scratch: pressure with damping, its z derivative,
     * the explicit rho / rhotheta, the Helmholtz right-hand side (halo
     * columns zero), m_now, w_new, and columns for the segments and the
     * Thomas block */
    double *pp_h, *dppdz, *rho_e, *theta_e, *rhs, *m_now, *w_new, *col;
} acoustic_args;

/* the stage-flux vertical theta transport the implicit operator replaces:
 * (d/dx3 of theta_wf * w_s) / G at the interior cells */
static void stage_dws(const acoustic_args *restrict a)
{
    const long nyh = a->nyh, nz = a->nz, h = a->h;
    for (long x = 0; x < a->nx; x++)
        for (long y = 0; y < a->ny; y++) {
            const long c = (x + h) * nyh + y + h, w = c * (nz + 1);
            const double *th = a->theta_wf + w, *ws = a->w_s + w;
            double *d = a->dws + (x * a->ny + y) * nz;
            for (long k = 0; k < nz; k++)
                d[k] = (th[k + 1] * ws[k + 1] - th[k] * ws[k]) / a->dz_c[k]
                    / a->jac[c];
        }
}

/* (1) perturbation pressure with divergence damping, (2) the explicit
 * horizontal momentum update */
static void substep_momentum(const acoustic_args *restrict a, double *restrict pp,
                     const double *pp_prev)
{
    const long nyh = a->nyh, nz = a->nz, h = a->h, nx = a->nx, ny = a->ny;
    const long ncell = a->nxh * nyh * nz;
    const double dtau = a->dtau;
    const double *pp_h = pp;

    for (long i = 0; i < ncell; i++)
        pp[i] = a->pc[i] + a->cp_lin[i] * a->rhotheta[i];
    if (pp_prev && a->damp > 0.0) {
        for (long i = 0; i < ncell; i++)
            a->pp_h[i] = pp[i] + a->damp * (pp[i] - pp_prev[i]);
        pp_h = a->pp_h;
    }
    if (a->dzc2) {
        /* (1/G) d(pp)/dx3 at centres: centred, one-sided at the ends */
        for (long c = 0; c < a->nxh * nyh; c++) {
            const double *p = pp_h + c * nz;
            double *d = a->dppdz + c * nz;
            d[0] = (p[1] - p[0]) / a->dzc2[0] / a->jac[c];
            for (long k = 1; k < nz - 1; k++)
                d[k] = (p[k + 1] - p[k - 1]) / a->dzc2[k] / a->jac[c];
            d[nz - 1] = (p[nz - 1] - p[nz - 2]) / a->dzc2[nz - 1] / a->jac[c];
        }
    }
    /* u faces [h, h + nx] x [h, h + ny): the cell behind is one row back */
    for (long x = 0; x <= nx; x++)
        for (long y = 0; y < ny; y++) {
            const long f = x * ny + y, i = ((x + h) * nyh + y + h) * nz;
            const long b = i - nyh * nz;
            for (long k = 0; k < nz; k++) {
                double g = a->njac_u[f] * ((pp_h[i + k] - pp_h[b + k]) / a->dx);
                if (a->met_u)
                    g = g + a->met_u[f * nz + k]
                        * (0.5 * (a->dppdz[i + k] + a->dppdz[b + k]));
                a->rhou[i + k] = a->rhou[i + k] + dtau * (g + a->r_u[i + k]);
            }
        }
    /* v faces [h, h + nx) x [h, h + ny]: rows of nyh + 1 columns, cells
     * of nyh */
    for (long x = 0; x < nx; x++)
        for (long y = 0; y <= ny; y++) {
            const long f = x * (ny + 1) + y;
            const long i = ((x + h) * nyh + y + h) * nz, b = i - nz;
            const long v = ((x + h) * (nyh + 1) + y + h) * nz;
            for (long k = 0; k < nz; k++) {
                double g = a->njac_v[f] * ((pp_h[i + k] - pp_h[b + k]) / a->dy);
                if (a->met_v)
                    g = g + a->met_v[f * nz + k]
                        * (0.5 * (a->dppdz[i + k] + a->dppdz[b + k]));
                a->rhov[v + k] = a->rhov[v + k] + dtau * (g + a->r_v[v + k]);
            }
        }
}

/* (3) the explicit parts of continuity and thermodynamics, (4) the
 * right-hand side of the vertical implicit solve */
static void substep_rhs(const acoustic_args *restrict a)
{
    const long nyh = a->nyh, nz = a->nz, h = a->h, nx = a->nx, ny = a->ny;
    const long su = nyh * nz;
    const double dtau = a->dtau, beta = a->beta, omb = a->omb;
    double *restrict pp_be = a->col, *restrict buoy = a->col + nz;
    const double *m_now = a->metric ? a->m_now : 0;

    for (long x = 0; x < nx; x++)
        for (long y = 0; y < ny; y++) {
            const long c = (x + h) * nyh + y + h, i = c * nz;
            const long u = i, v = ((x + h) * (nyh + 1) + y + h) * nz;
            const long w = c * (nz + 1), n = (x * ny + y) * nz;
            const long r = c * (nz - 1);
            const double *mn = m_now ? m_now + w : 0;
            for (long k = 0; k < nz; k++) {
                double d = (a->rhou[u + su + k] - a->rhou[u + k]) / a->dx
                    + (a->rhov[v + nz + k] - a->rhov[v + k]) / a->dy;
                if (mn)
                    d = d + (mn[k + 1] - mn[k]) / a->dz_c[k];
                else
                    d = d + 0.0;        /* the flat metric term: -0 -> +0 */
                const double rho_e = a->rho[i + k] - dtau * d;

                /* theta: perturbation fluxes relative to the stage fluxes */
                double tx = a->theta_xf[u + su + k]
                    * (a->rhou[u + su + k] - a->fx_s[u + su + k]);
                tx = (tx - a->theta_xf[u + k]
                      * (a->rhou[u + k] - a->fx_s[u + k])) / a->dx;
                double ty = a->theta_yf[v + nz + k]
                    * (a->rhov[v + nz + k] - a->fy_s[v + nz + k]);
                ty = (ty - a->theta_yf[v + k]
                      * (a->rhov[v + k] - a->fy_s[v + k])) / a->dy;
                double t = a->r_theta[i + k] - tx - ty;
                if (mn) {
                    const double *ms = a->m_s + w, *th = a->theta_wf + w;
                    t = t - (th[k + 1] * (mn[k + 1] - ms[k + 1])
                             - th[k] * (mn[k] - ms[k])) / a->dz_c[k];
                }
                const double theta_e = a->rhotheta[i + k]
                    + dtau * (t + a->dws[n + k]);
                a->rho_e[n + k] = rho_e;
                a->theta_e[n + k] = theta_e;

                /* the beta-weighted pressure and buoyancy of the solve */
                const double theta_be = beta * theta_e
                    + omb * a->rhotheta[i + k];
                pp_be[k] = a->pc[i + k] + a->cp_lin[i + k] * theta_be;
                buoy[k] = beta * rho_e + omb * a->rho[i + k]
                    - a->rho_ref_hat[i + k];
            }
            const double *rw = a->rhow + w, *fw = a->r_w + w;
            for (long k = 0; k < nz - 1; k++) {
                double f = -((pp_be[k + 1] - pp_be[k]) / a->dz_f[k + 1])
                    - a->grav * (0.5 * (buoy[k + 1] + buoy[k]));
                double rhs = rw[k + 1] + dtau * (f + fw[k + 1]);
                if (a->diag) {
                    /* trapezoidal correction from the known W^n */
                    const double aw = a->sub[r + k] * rw[k]
                        + a->diag[r + k] * rw[k + 1]
                        + a->sup[r + k] * rw[k + 2];
                    rhs = rhs + a->ratio * (rw[k + 1] - aw);
                }
                a->rhs[r + k] = rhs;
            }
        }
}

/* the implied vertical-flux updates of rho and rhotheta, and the new W */
static void substep_update(const acoustic_args *restrict a)
{
    const long nyh = a->nyh, nz = a->nz, h = a->h, nx = a->nx, ny = a->ny;
    const double dtau = a->dtau, beta = a->beta, omb = a->omb;
    double *restrict wb = a->col, *restrict tw = a->col + nz + 1;

    for (long x = 0; x < nx; x++)
        for (long y = 0; y < ny; y++) {
            const long c = (x + h) * nyh + y + h, i = c * nz;
            const long w = c * (nz + 1), n = (x * ny + y) * nz;
            for (long k = 0; k <= nz; k++) {
                wb[k] = beta * a->w_new[w + k] + omb * a->rhow[w + k];
                tw[k] = a->theta_wf[w + k] * wb[k];
                a->rhow[w + k] = a->w_new[w + k];
            }
            for (long k = 0; k < nz; k++) {
                a->rho[i + k] = a->rho_e[n + k]
                    - dtau * ((wb[k + 1] - wb[k]) / a->dz_c[k]) / a->jac[c];
                a->rhotheta[i + k] = a->theta_e[n + k]
                    - dtau * ((tw[k + 1] - tw[k]) / a->dz_c[k]) / a->jac[c];
            }
        }
}

int acoustic_substep(acoustic_args *restrict a)
{
    const long ncol = a->nxh * a->nyh;
    double *pp = a->k % 2 ? a->pp1 : a->pp0;

    if (a->k == 0)
        stage_dws(a);
    substep_momentum(a, pp, a->k == 0 ? 0 : a->k % 2 ? a->pp0 : a->pp1);
    if (a->metric)
        acoustic_metric_flux(a->metric, 0, a->rhou, a->rhov, 0, a->m_now);
    substep_rhs(a);
    /* the interior columns, a row at a time: rhow takes nothing else from
     * w_new */
    for (long x = a->h; x < a->h + a->nx; x++)
        for (long y = 0; y < a->ny; y += THOMAS_BLOCK)
            thomas_block(ncol, a->nz - 1, THOMAS_BLOCK, x * a->nyh + a->h + y,
                         a->ny - y < THOMAS_BLOCK ? a->ny - y : THOMAS_BLOCK,
                         a->fsub, a->fcp, a->fden, a->rhs, a->w_new, a->col);
    substep_update(a);
    a->k++;
    return 0;
}

/* ---- repro.core.acoustic.build_context: the EOS of
 * repro.core.pressure.eos_pressure into p_t (its five operations in
 * order, the pow NumPy's loop), then the linearization: cp_lin, pc and
 * theta = rhotheta / rho at the u / v / w faces (two-point means, the
 * edge faces copy their cell; theta is scratch), and the three
 * dtau-independent brackets of repro.core.helmholtz.HelmholtzOperator
 * (xsup, xsub, ydiag: (nxh, nyh, nz - 1)), all halo-inclusive. */
typedef struct {
    long nxh, nyh, nz;
    double gamma, half_g, rd, p0;
    const double *jac, *rho, *rt, *p_ref, *dz_c, *dz_f;
    double *p_t, *theta, *cp_lin, *pc, *xf, *yf, *wf, *xsup, *xsub, *ydiag;
} context_args;

static void context(long nxh, long nyh, long nz, double gamma,
                      double half_g, double rd, double p0,
                      const double *restrict jac, const double *restrict rho,
                      const double *restrict rt, double *restrict p_t,
                      const double *restrict p_ref,
                      const double *restrict dz_c,
                      const double *restrict dz_f, double *restrict theta,
                      double *restrict cp_lin, double *restrict pc,
                      double *restrict xf, double *restrict yf,
                      double *restrict wf, double *restrict xsup,
                      double *restrict xsub, double *restrict ydiag)
{
    const long ncell = nxh * nyh * nz, row = nyh * nz, nw = nz + 1;
    double inv_dzf[nz], inv_dzc[nz];

    for (long k = 0; k < nz; k++) {
        inv_dzf[k] = 1.0 / dz_f[k];
        inv_dzc[k] = 1.0 / dz_c[k];
    }
    for (long c = 0; c < nxh * nyh; c++)
        for (long k = c * nz; k < (c + 1) * nz; k++)
            p_t[k] = (rd * (rt[k] / jac[c])) / p0;
    ufunc_pow(p_t, gamma, p_t, ncell);
    for (long i = 0; i < ncell; i++) {
        p_t[i] = p0 * p_t[i];
        theta[i] = rt[i] / rho[i];
        cp_lin[i] = (gamma * p_t[i]) / rt[i];
        pc[i] = (p_t[i] - p_ref[i]) - cp_lin[i] * rt[i];
    }
    /* u faces: x rows of nyh nz; v faces: per x row, y columns of nz */
    for (long j = 0; j < row; j++) {
        xf[j] = theta[j];
        xf[nxh * row + j] = theta[(nxh - 1) * row + j];
    }
    for (long i = row; i < ncell; i++)
        xf[i] = 0.5 * (theta[i] + theta[i - row]);
    for (long x = 0; x < nxh; x++) {
        const double *t = theta + x * row;
        double *v = yf + x * (row + nz);
        for (long k = 0; k < nz; k++) {
            v[k] = t[k];
            v[row + k] = t[row - nz + k];
        }
        for (long j = nz; j < row; j++)
            v[j] = 0.5 * (t[j] + t[j - nz]);
    }
    for (long c = 0; c < nxh * nyh; c++) {
        const double *t = theta + c * nz, *cp = cp_lin + c * nz;
        double *restrict w = wf + c * nw;
        double *restrict su = xsup + c * (nz - 1);
        double *restrict sb = xsub + c * (nz - 1);
        double *restrict dg = ydiag + c * (nz - 1);
        w[0] = t[0];
        for (long k = 1; k < nz; k++)
            w[k] = 0.5 * (t[k] + t[k - 1]);
        w[nz] = t[nz - 1];
        /* interior w face k = m + 1 */
        for (long m = 0; m < nz - 1; m++) {
            const long k = m + 1;
            su[m] = cp[k] * w[k + 1] * inv_dzf[k] * inv_dzc[k]
                + half_g * inv_dzc[k];
            sb[m] = cp[k - 1] * w[k - 1] * inv_dzf[k] * inv_dzc[k - 1]
                - half_g * inv_dzc[k - 1];
            dg[m] = w[k] * (cp[k] * inv_dzc[k] + cp[k - 1] * inv_dzc[k - 1])
                * inv_dzf[k] - half_g * (inv_dzc[k - 1] - inv_dzc[k]);
        }
    }
}

int acoustic_context(const context_args *a)
{
    context(a->nxh, a->nyh, a->nz, a->gamma, a->half_g, a->rd, a->p0, a->jac,
            a->rho, a->rt, a->p_t, a->p_ref, a->dz_c, a->dz_f, a->theta,
            a->cp_lin, a->pc, a->xf, a->yf, a->wf, a->xsup, a->xsub, a->ydiag);
    return 0;
}

/* ---- one (dtau, beta) operator from the brackets: sup = (-s) xsup,
 * sub = (-s) xsub, diag = 1 + s ydiag with s = sq / jac per column
 * (column-leading, ncol x n), and the forward-elimination factors of
 * HelmholtzOperator.thomas_factors, k-leading (n x ncol), a block of bc
 * columns at a time (the transposes stay in cache).  Returns 1 when a
 * diagonal entry is <= 0 (HelmholtzOperator raises). */
typedef struct {
    long ncol, n;
    double sq;
    const double *jac, *xsup, *xsub, *ydiag;
    double *sup, *sub, *diag, *fsub, *fcp, *fden;
} operator_args;

static int assemble(long ncol, long n, double sq, const double *restrict jac,
                      const double *restrict xsup, const double *restrict xsub,
                      const double *restrict ydiag, double *restrict sup,
                      double *restrict sub, double *restrict diag,
                      double *restrict fsub, double *restrict fcp,
                      double *restrict fden)
{
    const long bc = THOMAS_BLOCK;
    int bad = 0;
    for (long c0 = 0; c0 < ncol; c0 += bc) {
        const long c1 = ncol - c0 < bc ? ncol : c0 + bc;
        for (long c = c0; c < c1; c++) {
            const double s = sq / jac[c], ns = -s;
            for (long k = 0; k < n; k++) {
                const long o = c * n + k;
                sup[o] = ns * xsup[o];
                sub[o] = ns * xsub[o];
                diag[o] = 1.0 + s * ydiag[o];
                bad |= diag[o] <= 0.0;
            }
        }
        for (long k = 0; k < n; k++)
            for (long c = c0; c < c1; c++) {
                fcp[k * ncol + c] = sup[c * n + k];
                fsub[k * ncol + c] = sub[c * n + k];
                fden[k * ncol + c] = diag[c * n + k];
            }
        for (long c = c0; c < c1; c++)
            fcp[c] = fcp[c] / fden[c];
        for (long k = 1; k < n; k++) {
            double *restrict cp = fcp + k * ncol;
            double *restrict den = fden + k * ncol;
            const double *restrict cpm = cp - ncol;
            const double *restrict s = fsub + k * ncol;
            for (long c = c0; c < c1; c++) {
                den[c] = den[c] - s[c] * cpm[c];
                cp[c] = cp[c] / den[c];
            }
        }
    }
    return bad;
}

int acoustic_operator(const operator_args *a)
{
    return assemble(a->ncol, a->n, a->sq, a->jac, a->xsup, a->xsub, a->ydiag,
                    a->sup, a->sub, a->diag, a->fsub, a->fcp, a->fden);
}

/* ---- the velocities of repro.core.state.State.velocities: each momentum
 * divided by the two-point mean of rho at its faces, the edge faces taking
 * their cell's rho.  The faces of one axis: `outer` blocks of n cells of
 * `inner` contiguous values each, n + 1 faces a block. */
static void face_velocity(long outer, long n, long inner,
                          const double *restrict rho,
                          const double *restrict m, double *restrict out)
{
    for (long o = 0; o < outer; o++) {
        const double *r = rho + o * n * inner;
        const double *mo = m + o * (n + 1) * inner;
        double *v = out + o * (n + 1) * inner;
        for (long j = 0; j < inner; j++)
            v[j] = mo[j] / r[j];
        for (long f = 1; f < n; f++)
            for (long j = 0; j < inner; j++)
                v[f * inner + j] = mo[f * inner + j]
                    / (0.5 * (r[f * inner + j] + r[(f - 1) * inner + j]));
        for (long j = 0; j < inner; j++)
            v[n * inner + j] = mo[n * inner + j] / r[(n - 1) * inner + j];
    }
}

void state_velocities(long nxh, long nyh, long nz, const double *restrict rho,
                      const double *restrict rhou, const double *restrict rhov,
                      const double *restrict rhow, double *restrict u,
                      double *restrict v, double *restrict w)
{
    face_velocity(1, nxh, nyh * nz, rho, rhou, u);
    face_velocity(nxh, nyh, nz, rho, rhov, v);
    face_velocity(nxh * nyh, nz, 1, rho, rhow, w);
}

/* ---- one RK stage's slow tendencies (repro.core.rk3.slow_tendencies,
 * StageBinding): the velocities, the metric flux fz, the inactive-species
 * decision, the four advections of advect.c, the f-plane Coriolis force,
 * the Rayleigh sponge on r_w, one advection per active species, w_s and
 * the metric part m_s, so Python crosses into C once a stage.  An
 * integrator binds its grid, sponge and scratch once, a stage its state,
 * species table and flag rows (a first one takes every species as a
 * candidate).  Float64 and the Koren limiter only (StageBinding
 * declines the rest). */
#define STAGE_MAXQ 8            /* read by repro.stencil.native */
enum { ADV_SCALAR, ADV_U, ADV_V, ADV_W };   /* advect.c's variants */

void advect_f64(int variant, const double *p, const double *fx,
                const double *fy, const double *fz, double *out, long nyh,
                long nz, long x0, long x1, long y0, long y1, double dx,
                double dy, const double *dz, double *scratch);

typedef struct {
    long nxh, nyh, nz, h, nx, ny;
    long nq;                    /* species this stage sees */
    long first;                 /* no earlier stage: scan the base too */
    double dx, dy;
    double f;                   /* the f-plane parameter, 0: no Coriolis */
    const double *dz_c, *dz_f;
    const double *ray;          /* the sponge at w levels, NULL: none */
    const metric_args *metric;
    /* the stage state */
    const double *rho, *rhou, *rhov, *rhow, *rhotheta;
    /* the forcing, written whole */
    double *r_u, *r_v, *r_w, *r_theta, *w_s, *m_s;
    double *fx_s, *fy_s;        /* a later stage's rhou / rhov moved out */
    void *stage;                /* refilled last from base (bytes), or NULL */
    const void *base;
    long bytes;
    /* per species, 1 where the stage before (prev) or this one (idle, its
     * tendency left unwritten) found it inactive */
    const long *prev;
    long *idle;
    /* the integrator's scratch: the velocities, theta or q / rho, fz and the
     * advection's rows */
    double *u, *v, *w, *phi, *fz, *arena;
    /* 3 nq addresses: the stage fields, the base fields, the tendencies */
    double *q[3 * STAGE_MAXQ];
} stage_args;

/* every byte of p[0, n) is zero (rk3's zero_bits: -0.0 is not) */
static int zero_bits(const double *p, long n)
{
    unsigned long long acc = 0;
    for (long i = 0; i < n; i++) {
        unsigned long long b;
        memcpy(&b, p + i, sizeof b);
        acc |= b;
    }
    return acc == 0;
}

/* the oracle's guard on a skipped transport, isfinite(fx.sum() +
 * fy.sum() + fz.sum()) and rho.min() > 0: 1 or 0, and -1 where every flux
 * is finite but their magnitudes sum past 2^1021, so that whether NumPy's
 * sum overflows is not decided here (below that bound no partial sum in
 * any order can reach DBL_MAX) */
static int stage_exact(const stage_args *restrict a)
{
    const long nc = a->nxh * a->nyh * a->nz;
    const long n[3] = {nc + a->nyh * a->nz, nc + a->nxh * a->nz,
                       nc + a->nxh * a->nyh};
    const double *f[3] = {a->rhou, a->rhov, a->fz};
    double s = 0.0;

    for (int j = 0; j < 3; j++)
        for (long i = 0; i < n[j]; i++) {
            if (!isfinite(f[j][i]))
                return 0;
            s += fabs(f[j][i]);
        }
    for (long i = 0; i < nc; i++)
        if (!(a->rho[i] > 0.0))
            return 0;
    return s < 0x1p1021 ? 1 : -1;
}

/* out = zeros, then advect.c's -div(F p) on the interior of one
 * staggering (u faces run to h + nx inclusive, v faces to h + ny) */
static void stage_advect(const stage_args *restrict a, int variant,
                         const double *p, double *out, long n)
{
    memset(out, 0, n * sizeof *out);
    advect_f64(variant, p, a->rhou, a->rhov, a->fz, out, a->nyh, a->nz,
               a->h, a->h + a->nx + (variant == ADV_U), a->h,
               a->h + a->ny + (variant == ADV_V), a->dx, a->dy,
               variant == ADV_W ? a->dz_f : a->dz_c, a->arena);
}

/* repro.core.coriolis.coriolis_tendencies added to r_u and r_v: rhov
 * averaged to the u faces 1..nxh-1 and rhou to the v faces 1..nyh-1 over
 * four points, left to right; the edge faces add the oracle's +0.0 */
static void stage_coriolis(const stage_args *restrict a)
{
    const long nxh = a->nxh, nyh = a->nyh, nz = a->nz;
    const double f = a->f, nfv = -(0.5 * (f + f));
    const double *ru = a->rhou, *rv = a->rhov;

    for (long x = 0; x <= nxh; x++)
        for (long j = 0; j < nyh; j++) {
            double *o = a->r_u + (x * nyh + j) * nz;
            if (x == 0 || x == nxh) {
                for (long k = 0; k < nz; k++)
                    o[k] = o[k] + 0.0;
                continue;
            }
            const double *e = rv + (x * (nyh + 1) + j) * nz;
            const double *w = e - (nyh + 1) * nz;
            for (long k = 0; k < nz; k++)
                o[k] = o[k] + f * (0.25 * (((e[k] + e[nz + k]) + w[k])
                                           + w[nz + k]));
        }
    for (long x = 0; x < nxh; x++)
        for (long j = 0; j <= nyh; j++) {
            double *o = a->r_v + (x * (nyh + 1) + j) * nz;
            if (j == 0 || j == nyh) {
                for (long k = 0; k < nz; k++)
                    o[k] = o[k] + 0.0;
                continue;
            }
            const double *n = ru + (x * nyh + j) * nz, *s = n - nz;
            const double *ne = n + nyh * nz, *se = s + nyh * nz;
            for (long k = 0; k < nz; k++)
                o[k] = o[k] + nfv * (0.25 * (((n[k] + ne[k]) + s[k])
                                             + se[k]));
        }
}

/* 0 (the stage set up last, after every read of its state), or 1 where
 * the guard could not be decided (nothing but scratch written: the
 * caller runs the oracle) */
int slow_stage(stage_args *restrict a)
{
    const long nxh = a->nxh, nyh = a->nyh, nz = a->nz, nq = a->nq;
    const long nc = nxh * nyh * nz, nw = nc + nxh * nyh;
    double *const *q = a->q;
    long any = 0;

    state_velocities(nxh, nyh, nz, a->rho, a->rhou, a->rhov, a->rhow, a->u,
                     a->v, a->w);
    acoustic_metric_flux(a->metric, 0, a->rhou, a->rhov, a->rhow, a->fz);
    /* docs/STENCILS.md "Work that is skipped exactly" */
    for (long n = 0; n < nq; n++) {
        a->idle[n] = (a->first || a->prev[n]) && zero_bits(q[n], nc)
            && (!a->first || q[nq + n] == q[n] || zero_bits(q[nq + n], nc));
        any |= a->idle[n];
    }
    if (any) {
        const int exact = stage_exact(a);
        if (exact < 0)
            return 1;
        if (!exact)
            for (long n = 0; n < nq; n++)
                a->idle[n] = 0;
    }
    stage_advect(a, ADV_U, a->u, a->r_u, nc + nyh * nz);
    stage_advect(a, ADV_V, a->v, a->r_v, nc + nxh * nz);
    stage_advect(a, ADV_W, a->w, a->r_w, nw);
    for (long i = 0; i < nc; i++)
        a->phi[i] = a->rhotheta[i] / a->rho[i];
    stage_advect(a, ADV_SCALAR, a->phi, a->r_theta, nc);
    if (a->f != 0.0)
        stage_coriolis(a);
    if (a->ray)
        for (long c = 0; c < nxh * nyh; c++)
            for (long k = 0; k <= nz; k++) {
                const long i = c * (nz + 1) + k;
                a->r_w[i] = a->r_w[i] - a->ray[k] * a->rhow[i];
            }
    for (long n = 0; n < nq; n++) {
        if (a->idle[n])
            continue;
        for (long i = 0; i < nc; i++)
            a->phi[i] = q[n][i] / a->rho[i];
        stage_advect(a, ADV_SCALAR, a->phi, q[2 * nq + n], nc);
    }
    memcpy(a->w_s, a->rhow, nw * sizeof *a->w_s);
    for (long c = 0; c < nxh * nyh; c++)
        a->w_s[c * (nz + 1)] = a->w_s[c * (nz + 1) + nz] = 0.0;
    acoustic_metric_flux(a->metric, 0, a->rhou, a->rhov, 0, a->m_s);
    if (a->fx_s) {
        memcpy(a->fx_s, a->rhou, (nc + nyh * nz) * sizeof *a->fx_s);
        memcpy(a->fy_s, a->rhov, (nc + nxh * nz) * sizeof *a->fy_s);
    }
    if (a->stage)
        memcpy(a->stage, a->base, a->bytes);
    return 0;
}

/* ---- the moisture finish of AcousticStepper.finish: every species the
 * stage left active (idle[n] == 0: the slow stage's flags, so that the
 * skip is decided here) takes q = base + dts * tend on the interior
 * cells, in the oracle's two ufunc calls; an idle species keeps the
 * base's +0.0. */
typedef struct {
    long nxh, nyh, nz, h, nx, ny, nq;
    double dts;
    const long *idle;
    double *q[STAGE_MAXQ];
    const double *base[STAGE_MAXQ], *tend[STAGE_MAXQ];
} moisture_args;

int moisture_finish(const moisture_args *restrict a)
{
    const long nz = a->nz, nyh = a->nyh;

    for (long n = 0; n < a->nq; n++) {
        if (a->idle[n])
            continue;
        for (long x = a->h; x < a->h + a->nx; x++)
            for (long y = a->h; y < a->h + a->ny; y++) {
                const long i = (x * nyh + y) * nz;
                double *restrict q = a->q[n] + i;
                const double *b = a->base[n] + i, *t = a->tend[n] + i;
                for (long k = 0; k < nz; k++) {
                    const double dq = a->dts * t[k];
                    q[k] = b[k] + dq;
                }
            }
    }
    return 0;
}
