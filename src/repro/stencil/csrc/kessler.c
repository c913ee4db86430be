/* Kessler warm rain (repro/physics/kessler.py) with its rain
 * sedimentation (repro/physics/sedimentation.py), as one call: kessler_step
 * runs the sedimentation's CFL loop, then the microphysics, as eight
 * column segments over the scratch b0..b4 and, between them, every exp
 * and pow of the scheme through NumPy's own loop (loops.c).  No segment
 * calls libm except sqrt, which is correctly rounded on both sides.
 * Every expression mirrors one ufunc call of the oracle, in its order,
 * with NumPy's maximum / minimum (a NaN in the first operand wins, else
 * the comparison; two selects, the form gcc vectorises).
 *
 * The fields are halo-inclusive (nxh, nyh, nz) and updated in place on
 * the interior; from segment (3) to segment (7) the interior holds the
 * mixing ratios q / rho and theta instead of the G rho-weighted values.
 * Scratch is interior-shaped (nx, ny, nz).  The surface rate (precip) is
 * added, times dt, to the accumulator (accum: the state's interior slot),
 * as the oracle's two ufuncs do.  A row of a captured step
 * (repro/core/program.py): `int entry(void *)`.
 */
typedef struct {
    long nyh, nz, h, nx, ny;
    long sedimented, evaporation, saturation;
    /* the scheme's constants, as the oracle's modules hold them */
    double dt, k1, qc0, k2, rd, p0, lv, cp, eps, lv_cp;
    double es0, ta, t00, tb, tetens_num, vt_coef, vt_exp, rho_sfc;
    double max_cfl, dz_min;         /* the CFL loop's, as the oracle's */
    double gamma, kappa;            /* the EOS's and the Exner pow's */
    const double *jac, *dz_c;
    double *rho, *rhotheta, *qv, *qc, *qr, *precip, *accum;
    double *b0, *b1, *b2, *b3, *b4;
    /* one sedimentation sub-step, set by the CFL loop: dt_sub, dt_sub / dt */
    double dt_sub, frac;
} kessler_args;

static inline double kmax(double a, double b)
{
    double t = a > b ? a : b;
    return a != a ? a : t;
}

static inline double kmin(double a, double b)
{
    double t = a < b ? a : b;
    return a != a ? a : t;
}

/* the Tetens exponent A (T - T00) / (T - B) */
static inline double tetens(const kessler_args *a, double t)
{
    return (a->ta * (t - a->t00)) / (t - a->tb);
}

/* one column of nz cells: the fields at its interior cell, the scratch,
 * the Jacobian; returns the column's largest terminal velocity in segment
 * (1), NaN if it has one.  Out of line with every array a restrict
 * parameter: gcc 12 vectorises none of these loops over restrict locals
 * ("no vectype for stmt"). */
static __attribute__((noinline)) double
column(const kessler_args *a, int seg, double jac, double *restrict rho,
       double *restrict rt, double *restrict qv, double *restrict qc,
       double *restrict qr, double *restrict b0, double *restrict b1,
       double *restrict b2, double *restrict b3, double *restrict b4,
       double *restrict precip)
{
    const long nz = a->nz;
    double vmax = 0.0;
    int nan = 0;

    switch (seg) {
    case 0:     /* sedimentation: rho q_r (b0), the pow base (b1), the
                 * density factor sqrt(rho_sfc / max(rho, 1e-10)) (b2) */
        for (long k = 0; k < nz; k++) {
            b0[k] = kmax(qr[k], 0.0) / jac;
            b1[k] = kmax(b0[k], 0.0);
            b2[k] = sqrt(a->rho_sfc / kmax(rho[k] / jac, 1e-10));
        }
        break;
    case 1:     /* terminal velocity; the flux rho q_r V_t (b0) */
        for (long k = 0; k < nz; k++) {
            const double vt = (a->vt_coef * b1[k]) * b2[k];
            b0[k] = b0[k] * vt;
            vmax = vt > vmax ? vt : vmax;
            nan |= vt != vt;
        }
        break;
    case 2:     /* upstream fall-out over dt_sub */
        for (long k = 0; k < nz; k++) {
            const double dq = k < nz - 1 ? (b0[k + 1] - b0[k]) / a->dz_c[k]
                                         : -b0[k] / a->dz_c[k];
            qr[k] = qr[k] + a->dt_sub * dq;
            rho[k] = rho[k] + a->dt_sub * dq;
        }
        *precip = *precip + a->frac * b0[0];
        break;
    case 3:     /* mixing ratios and theta; the EOS pow base (b0) and
                 * max(q_r, 0) for accretion (b1) */
        for (long k = 0; k < nz; k++) {
            const double r = rho[k];
            if (a->sedimented)
                qr[k] = kmax(qr[k], 0.0);
            b0[k] = (a->rd * (rt[k] / jac)) / a->p0;
            qv[k] = qv[k] / r;
            qc[k] = qc[k] / r;
            qr[k] = qr[k] / r;
            rt[k] = rt[k] / r;
            b1[k] = kmax(qr[k], 0.0);
        }
        break;
    case 4:     /* pressure (b0), the Exner pow base (b2), autoconversion
                 * and accretion; rho q_r for the evaporation pows (b1) */
        for (long k = 0; k < nz; k++) {
            const double p = a->p0 * b0[k];
            b0[k] = p;
            b2[k] = p / a->p0;
            const double auto_ = a->k1 * kmax(qc[k] - a->qc0, 0.0);
            const double accr = (a->k2 * kmax(qc[k], 0.0)) * b1[k];
            const double d = kmin((auto_ + accr) * a->dt, kmax(qc[k], 0.0));
            qc[k] = qc[k] - d;
            qr[k] = qr[k] + d;
            if (a->evaporation)
                b1[k] = (kmax(qr[k], 0.0) * rho[k]) / jac;
        }
        break;
    case 5:     /* the Tetens exponent at T = theta pi (b4) */
        for (long k = 0; k < nz; k++)
            b4[k] = tetens(a, rt[k] * b2[k]);
        break;
    case 6:     /* rain evaporation; the Tetens exponent at the new T (b4) */
        for (long k = 0; k < nz; k++) {
            const double p = b0[k], pi = b2[k], es = a->es0 * b4[k];
            const double qvs = (a->eps * es) / kmax(p - es, 0.1 * p);
            const double subsat = kmax(qvs - qv[k], 0.0) / qvs;
            const double vent = 1.6 + 124.9 * b3[k];
            const double rate = ((subsat * vent) * b1[k])
                / ((5.4e5 + 2.55e6 / (p * qvs)) * (rho[k] / jac));
            const double d = kmin(kmin(rate * a->dt, kmax(qr[k], 0.0)),
                                  kmax(qvs - qv[k], 0.0));
            qr[k] = qr[k] - d;
            qv[k] = qv[k] + d;
            rt[k] = rt[k] - (a->lv / (a->cp * pi)) * d;
            b4[k] = tetens(a, rt[k] * pi);
        }
        break;
    case 7:     /* saturation adjustment (es(T) read once: the oracle's
                 * two evaluations on one T are the same bits), then the
                 * state back to G rho-weighted values */
        if (a->saturation)
            for (long k = 0; k < nz; k++) {
                const double p = b0[k], pi = b2[k], es = a->es0 * b4[k];
                const double den = kmax(p - es, 0.1 * p);
                const double qvs = (a->eps * es) / den;
                const double tb = rt[k] * pi - a->tb;
                const double dlnes = a->tetens_num / (tb * tb);
                const double dqs = ((qvs * dlnes) * p) / den;
                const double dq = (qv[k] - qvs) / (1.0 + a->lv_cp * dqs);
                const double cond = kmax(dq, -kmax(qc[k], 0.0));
                qv[k] = qv[k] - cond;
                qc[k] = qc[k] + cond;
                rt[k] = rt[k] + (a->lv / (a->cp * pi)) * cond;
            }
        for (long k = 0; k < nz; k++) {
            const double r = rho[k];
            rt[k] = rt[k] * r;
            qv[k] = kmax(qv[k], 0.0) * r;
            qc[k] = kmax(qc[k], 0.0) * r;
            qr[k] = kmax(qr[k], 0.0) * r;
        }
        break;
    }
    return nan ? NAN : vmax;
}

/* segment seg over every interior column */
static double segment(const kessler_args *a, int seg)
{
    double vmax = 0.0;
    int nan = 0;

    for (long x = 0; x < a->nx; x++)
        for (long y = 0; y < a->ny; y++) {
            const long c = (x + a->h) * a->nyh + y + a->h, i = c * a->nz;
            const long col = x * a->ny + y, n = col * a->nz;
            const double v = column(a, seg, a->jac[c], a->rho + i,
                                    a->rhotheta + i, a->qv + i, a->qc + i,
                                    a->qr + i, a->b0 + n, a->b1 + n,
                                    a->b2 + n, a->b3 + n, a->b4 + n,
                                    a->precip + col);
            vmax = v > vmax ? v : vmax;
            nan |= v != v;
        }
    return nan ? NAN : vmax;
}

/* dst = b ** y over n cells (dst may be b).  The bases are mostly +0.0
 * (no rain), where NumPy's pow is three times slower than on a positive
 * base, and +0.0 ** y is +0.0 for every y > 0: only the other entries
 * (bits not +0.0: -0.0 and NaN too) are raised, packed to the front of
 * p, then unpacked backwards. */
static void powers(const double *b, long n, double *p, double y, double *dst)
{
    long m = 0;
    for (long i = 0; i < n; i++)
        if (b[i] != 0.0 || signbit(b[i]))
            p[m++] = b[i];
    ufunc_pow(p, y, p, m);
    for (long i = n - 1; i >= 0; i--)
        dst[i] = b[i] != 0.0 || signbit(b[i]) ? p[--m] : 0.0;
}

/* one warm-rain step: precip is the sedimentation's surface rate */
int kessler_step(kessler_args *a)
{
    const long n = a->nx * a->ny * a->nz;
    double remaining = a->dt;

    memset(a->precip, 0, sizeof *a->precip * a->nx * a->ny);
    /* the oracle's CFL loop, its floats included: Python's
     * min(remaining, x) keeps remaining where x is NaN */
    for (int it = 0; a->sedimented && it < 64; it++) {
        segment(a, 0);
        powers(a->b1, n, a->b4, a->vt_exp, a->b1);
        const double vmax = segment(a, 1);
        if (vmax <= 0.0)
            break;
        const double x = (a->max_cfl * a->dz_min) / vmax;
        a->dt_sub = x < remaining ? x : remaining;
        a->frac = a->dt_sub / a->dt;
        segment(a, 2);
        remaining -= a->dt_sub;
        if (remaining <= 1e-12)
            break;
    }
    segment(a, 3);
    ufunc_pow(a->b0, a->gamma, a->b0, n);
    powers(a->b1, n, a->b4, 0.875, a->b1);
    segment(a, 4);
    ufunc_pow(a->b2, a->kappa, a->b2, n);
    if (a->evaporation) {
        powers(a->b1, n, a->b4, 0.2046, a->b3);
        powers(a->b1, n, a->b4, 0.525, a->b1);
    }
    if (a->evaporation || a->saturation) {
        segment(a, 5);
        ufunc_exp(a->b4, a->b4, n);
    }
    if (a->evaporation) {
        segment(a, 6);
        if (a->saturation)
            ufunc_exp(a->b4, a->b4, n);
    }
    segment(a, 7);
    for (long i = 0; i < a->nx * a->ny; i++)
        a->accum[i] = a->accum[i] + a->precip[i] * a->dt;
    return 0;
}
