/* The rows of a long step that are not its dynamics, each a row of a
 * captured step (repro/core/program.py), `int entry(void *)`: the strip
 * runner of repro/core/boundary.py (Strips.copy is its oracle), the input
 * copy (State.assign), the Davies relaxation (RelaxationBC.apply) and the
 * state check (State.validate).
 *
 * The strip runner: every halo refresh, the single-domain fill and a
 * decomposed exchange point alike, as one table of byte copies (any
 * dtype).  Row r of `rows` is STRIP_LONGS longs: dst field, src field,
 * bytes, dst / src offsets, outer count with dst / src strides, inner
 * count with dst / src strides.  Rows run in order and each copy is one
 * memmove: NumPy reads an overlapping source first, which is what memmove
 * does.
 */
#define STRIP_LONGS 11           /* read by repro.stencil.native */

typedef struct {
    long nrow;
    const long *rows;
    char *const *fields;        /* the slots' addresses */
} strips_args;

int halo_strips(const strips_args *a)
{
    char *const *fields = a->fields;
    for (const long *d = a->rows; d < a->rows + STRIP_LONGS * a->nrow;
         d += STRIP_LONGS) {
        char *dst = fields[d[0]] + d[3];
        const char *src = fields[d[1]] + d[4];
        for (long i = 0; i < d[5]; i++)
            for (long j = 0; j < d[8]; j++)
                memmove(dst + i * d[6] + j * d[9],
                        src + i * d[7] + j * d[10], d[2]);
    }
    return 0;
}

/* ---- one state's block into another's (State.assign) */
typedef struct {
    char *dst;
    const char *src;
    long bytes;
} copy_args;

int state_copy(const copy_args *a)
{
    memcpy(a->dst, a->src, a->bytes);
    return 0;
}

/* ---- Davies relaxation (RelaxationBC.apply): f -= c (f - t) on every
 * relaxed field, as the oracle's three ufuncs (f - t, c * that, f - that),
 * in its order.  Field n's RELAX_LONGS longs of `shape`: its x, y and z
 * extents and its target's x and y strides (elements); t[n] is the
 * target at the field's first cell, c[n] the (x, y) coefficients. */
#define RELAX_MAXF 16           /* read by repro.stencil.native */
#define RELAX_LONGS 5

typedef struct {
    long nf;
    const long *shape;
    double *f[RELAX_MAXF];
    const double *t[RELAX_MAXF];
    const double *c[RELAX_MAXF];
} relax_args;

int boundary_relax(const relax_args *a)
{
    for (long n = 0; n < a->nf; n++) {
        const long *s = a->shape + RELAX_LONGS * n;
        for (long i = 0; i < s[0]; i++)
            for (long j = 0; j < s[1]; j++) {
                double *restrict f = a->f[n] + (i * s[1] + j) * s[2];
                const double *restrict t = a->t[n] + i * s[3] + j * s[4];
                const double c = a->c[n][i * s[1] + j];
                for (long k = 0; k < s[2]; k++) {
                    const double d = c * (f[k] - t[k]);
                    f[k] = f[k] - d;
                }
            }
    }
    return 0;
}

/* ---- the state check (State.validate): 1 where an interior value of a
 * prognostic is not finite or an interior density not > 0, else 0.  The
 * fields are float64 and halo-inclusive: field n spans nxh + sx, nyh + sy
 * and nz + sz cells (rhou, rhov and rhow are staggered), its interior
 * x and y cells are [h, h + nx) and [h, h + ny), all of z. */
#define STATE_MAXF 13           /* the dynamic fields and STAGE_MAXQ species */

typedef struct {
    long nxh, nyh, nz, h, nx, ny, nf;
    const double *f[STATE_MAXF];
} validate_args;

int state_validate(const validate_args *a)
{
    for (long n = 0; n < a->nf; n++) {
        const long sy = n == 2, nyf = a->nyh + sy, nzf = a->nz + (n == 3);
        long bad = 0;
        for (long x = a->h; x < a->h + a->nx; x++)
            for (long y = a->h; y < a->h + a->ny; y++) {
                const double *restrict v = a->f[n] + (x * nyf + y) * nzf;
                if (n == 0)
                    for (long k = 0; k < nzf; k++)
                        bad |= !(v[k] > 0.0) | !(v[k] - v[k] == 0.0);
                else
                    for (long k = 0; k < nzf; k++)
                        bad |= !(v[k] - v[k] == 0.0);
            }
        if (bad)
            return 1;
    }
    return 0;
}
