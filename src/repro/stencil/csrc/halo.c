/* The strip runner of repro/core/boundary.py (Strips.copy is its oracle):
 * every halo refresh, the single-domain fill and a decomposed exchange
 * point alike, as one table of byte copies (any dtype).  Row r of `rows`
 * is eleven longs: dst field, src field, bytes, dst / src offsets, outer
 * count with dst / src strides, inner count with dst / src strides.  Rows
 * run in order and each copy is one memmove: NumPy reads an overlapping
 * source first, which is what memmove does.
 */
void halo_strips(long nrow, const long *rows, char *const *fields)
{
    for (const long *d = rows; d < rows + 11 * nrow; d += 11) {
        char *dst = fields[d[0]] + d[3];
        const char *src = fields[d[1]] + d[4];
        for (long i = 0; i < d[5]; i++)
            for (long j = 0; j < d[8]; j++)
                memmove(dst + i * d[6] + j * d[9],
                        src + i * d[7] + j * d[10], d[2]);
    }
}
