/* The strip runner of repro/core/boundary.py (Strips.copy is its oracle):
 * every halo refresh, the single-domain fill and a decomposed exchange
 * point alike, as one table of byte copies (any dtype).  Row r of `rows`
 * is STRIP_LONGS longs: dst field, src field, bytes, dst / src offsets,
 * outer count with dst / src strides, inner count with dst / src strides.
 * Rows run in order and each copy is one memmove: NumPy reads an
 * overlapping source first, which is what memmove does.
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
