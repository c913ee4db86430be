/* Koren-limited flux-form advection.
 *
 * repro/stencil/native.py compiles this text once, in a translation unit
 * of its own, with REAL = double, F(x) = x_f64 and ABS = fabs, behind a
 * prelude that defines KERNEL (exported, and cloned per ISA where the
 * compiler can).  Its one caller is acoustic.c's slow_stage (advect_f64);
 * faces_f64 and advect_f64 are bound to be checked alone.  The width stays a
 * macro: a float32 build is one more inclusion.
 *
 * Every expression mirrors one NumPy ufunc call of the oracle in
 * repro/core/advection.py (limited_face_flux, advect_scalar / u / v / w,
 * and repro/core/limiter.py's koren), in the same order on the operands
 * the oracle's where() keeps, so the result is the same bytes
 * (docs/STENCILS.md "Compiled bodies"): no contraction, no reassociation,
 * and NumPy's own answers for
 *   minimum(a, b)   t = a < b ? a : b;  a != a ? a : t     (two selects)
 *   maximum(0, x)   0 > x ? 0 : x
 *   sign(x)         1, -1, +0 for either zero, x itself for a NaN
 * written as sequential selects, which is the form gcc vectorises.
 */

static inline REAL F(minimum)(REAL a, REAL b)
{
    REAL t = a < b ? a : b;
    return a != a ? a : t;
}

/* out[i] = fa[i] * phi_face for the n faces between p[i] and p[i + s]:
 * the flux sign picks the stencil (a, b, c) or (d, c, b) first, then
 * base + 0.5 * koren(base - up, down - base) runs once -- the select the
 * oracle's where() makes after evaluating both, exact for every operand. */
KERNEL void F(faces)(const REAL *restrict p, long s, const REAL *restrict fa,
                     REAL *restrict out, long n)
{
    for (long i = 0; i < n; i++) {
        REAL f = fa[i];
        int pos = f >= (REAL)0.0;
        REAL base = pos ? p[i] : p[i + s];
        REAL down = pos ? p[i + s] : p[i];
        REAL up = pos ? p[i - s] : p[i + 2 * s];
        REAL g1 = base - up;
        REAL g2 = down - base;
        REAL sg = g1;
        sg = g1 == (REAL)0.0 ? (REAL)0.0 : sg;
        sg = g1 < (REAL)0.0 ? (REAL)-1.0 : sg;
        sg = g1 > (REAL)0.0 ? (REAL)1.0 : sg;
        g1 = ABS(g1);
        g2 = g2 * sg;
        g2 = (REAL)2.0 * g2;
        REAL t3 = (g1 + g2) / (REAL)3.0;
        g2 = F(minimum)(g2, t3);
        g1 = (REAL)2.0 * g1;
        g2 = F(minimum)(g2, g1);
        g2 = (REAL)0.0 > g2 ? (REAL)0.0 : g2;
        g2 = sg * g2;
        g2 = (REAL)0.5 * g2;
        out[i] = f * (base + g2);
    }
}

/* ---- the aligned mass flux of one direction: dst[j, k] over nj columns
 * of n2 entries, from mass-flux columns a (and b) that are sa apart.
 * Out of line, and F(advect) below not cloned: its twelve fill sites
 * inlined into three clones of two widths built in 4.1 s instead of
 * 1.2 s and ran no faster (the time is in F(faces), which is cloned). */
#define FILL static __attribute__((noinline)) void
FILL F(fill_copy)(REAL *restrict dst, long n2, const REAL *restrict a,
                         long sa, long nj, long nk)
{
    for (long j = 0; j < nj; j++)
        for (long k = 0; k < nk; k++)
            dst[j * n2 + k] = a[j * sa + k];
}

FILL F(fill_mean)(REAL *restrict dst, long n2, const REAL *restrict a,
                         const REAL *restrict b, long sa, long nj, long nk)
{
    for (long j = 0; j < nj; j++)
        for (long k = 0; k < nk; k++)
            dst[j * n2 + k] = (REAL)0.5 * (a[j * sa + k] + b[j * sa + k]);
}

/* cell-centre columns of nz averaged to the nz + 1 w levels */
FILL F(fill_levels)(REAL *restrict dst, const REAL *restrict a,
                           long nj, long nz)
{
    for (long j = 0; j < nj; j++) {
        REAL *d = dst + j * (nz + 1);
        const REAL *c = a + j * nz;
        d[0] = c[0];
        for (long k = 1; k < nz; k++)
            d[k] = (REAL)0.5 * (c[k] + c[k - 1]);
        d[nz] = c[nz - 1];
    }
}

#undef FILL
#ifndef REPRO_VARIANTS
#define REPRO_VARIANTS
enum { SCALAR, U, V, W };   /* acoustic.c's ADV_SCALAR .. ADV_W */
#endif

/* -div(F p) of one staggered field p of shape (n0, n1, n2) on rows
 * [x0, x1) x columns [y0, y1); fx / fy / fz are the mass fluxes of the
 * (nxh, nyh, nz) cell grid at its u / v / w points.  One pass in x: the
 * x face row of a cell row is kept for the next one (prev / cur), the y
 * and z faces of a row live in fyb / fzb, the aligned mass flux of the
 * sweep in hand in fa -- five rows of n1 * n2 in `scratch`.  dz is the
 * z spacing at the field's own levels (dz_c, or dz_f for w). */
void F(advect)(int variant, const REAL *restrict p,
                      const REAL *restrict fx, const REAL *restrict fy,
                      const REAL *restrict fz, REAL *restrict out,
                      long nyh, long nz, long x0, long x1, long y0, long y1,
                      REAL dx, REAL dy, const REAL *restrict dz,
                      REAL *restrict scratch)
{
    const long n1 = nyh + (variant == V), n2 = nz + (variant == W);
    const long row = n1 * n2, lo = y0 * n2, hi = y1 * n2, nj = y1 - y0;
    const long sx = nyh * nz, sy = (nyh + 1) * nz, sz = nyh * (nz + 1);
    REAL *fa = scratch, *prev = fa + row, *cur = prev + row,
         *fyb = cur + row, *fzb = fyb + row;

    for (long x = x0 - 1; x < x1; x++) {
        /* x faces between rows x and x + 1, columns [y0, y1) */
        const REAL *a = fx + (x + 1) * sx + y0 * nz;
        switch (variant) {
        case SCALAR: F(fill_copy)(fa + lo, n2, a, nz, nj, nz); break;
        case U: F(fill_mean)(fa + lo, n2, a, a - sx, nz, nj, nz); break;
        case V: F(fill_mean)(fa + lo, n2, a, a - nz, nz, nj, nz); break;
        case W: F(fill_levels)(fa + lo, a, nj, nz); break;
        }
        F(faces)(p + x * row + lo, row, fa + lo, cur + lo, hi - lo);
        if (x < x0) {
            REAL *t = prev; prev = cur; cur = t;
            continue;
        }
        const REAL *px = p + x * row;
        REAL *o = out + x * row;
        for (long i = lo; i < hi; i++)
            o[i] = -((cur[i] - prev[i]) / dx);

        /* y faces between columns j and j + 1, j in [y0 - 1, y1) */
        a = fy + x * sy + y0 * nz;
        switch (variant) {
        case SCALAR: F(fill_copy)(fa + lo - n2, n2, a, nz, nj + 1, nz); break;
        case U: F(fill_mean)(fa + lo - n2, n2, a, a - sy, nz, nj + 1, nz); break;
        case V: F(fill_mean)(fa + lo - n2, n2, a, a - nz, nz, nj + 1, nz); break;
        case W: F(fill_levels)(fa + lo - n2, a, nj + 1, nz); break;
        }
        F(faces)(px + lo - n2, n2, fa + lo - n2, fyb + lo - n2, hi - lo + n2);
        for (long i = lo; i < hi; i++)
            o[i] = o[i] - (fyb[i] - fyb[i - n2]) / dy;

        /* z faces between levels k and k + 1: limited on 1..n2-3 (the
         * flat sweep also fills the row-straddling position n2-1, which
         * is never read), first-order upwind on 0 and n2-2 */
        a = fz + x * sz + y0 * (nz + 1);
        switch (variant) {
        case SCALAR: F(fill_copy)(fa + lo, n2, a + 1, nz + 1, nj, nz - 1); break;
        case U: F(fill_mean)(fa + lo, n2, a + 1, a + 1 - sz, nz + 1, nj, nz - 1); break;
        case V: F(fill_mean)(fa + lo, n2, a + 1, a - nz, nz + 1, nj, nz - 1); break;
        case W: F(fill_mean)(fa + lo, n2, a + 1, a, nz + 1, nj, nz); break;
        }
        for (long j = y0; j < y1; j++)
            fa[j * n2 + n2 - 1] = (REAL)0.0;
        F(faces)(px + lo, 1, fa + lo, fzb + lo, hi - lo);
        for (long j = y0; j < y1; j++) {
            const REAL *pc = px + j * n2, *fc = fa + j * n2;
            REAL *zc = fzb + j * n2, *oc = o + j * n2;
            const REAL *e = fz + x * sz + j * (nz + 1);
            zc[0] = fc[0] * (fc[0] >= (REAL)0.0 ? pc[0] : pc[1]);
            zc[n2 - 2] = fc[n2 - 2] * (fc[n2 - 2] >= (REAL)0.0
                                        ? pc[n2 - 2] : pc[n2 - 1]);
            if (variant == W) {
                for (long k = 1; k < n2 - 1; k++)
                    oc[k] = oc[k] - (zc[k] - zc[k - 1]) / dz[k];
                oc[0] = (REAL)0.0;
                oc[n2 - 1] = (REAL)0.0;
                continue;
            }
            REAL e0 = e[0], e1 = e[nz];
            if (variant == U) {
                e0 = (REAL)0.5 * (e0 + e[-sz]);
                e1 = (REAL)0.5 * (e1 + e[nz - sz]);
            } else if (variant == V) {
                e0 = (REAL)0.5 * (e0 + e[-(nz + 1)]);
                e1 = (REAL)0.5 * (e1 + e[-1]);
            }
            oc[0] = oc[0] - (zc[0] - e0) / dz[0];
            for (long k = 1; k < n2 - 1; k++)
                oc[k] = oc[k] - (zc[k] - zc[k - 1]) / dz[k];
            oc[n2 - 1] = oc[n2 - 1] - (e1 - zc[n2 - 2]) / dz[n2 - 1];
        }
        REAL *t = prev; prev = cur; cur = t;
    }
}
