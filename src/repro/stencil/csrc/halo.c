/* fill_halos_state of repro/core/boundary.py: the periodic or open
 * (zero-gradient) halo fill of each named field, x first, then y, as byte
 * copies (any dtype).  Every slice assignment of fill_halo_x / fill_halo_y
 * is one memmove, in their order: NumPy copies an overlapping source
 * first, which is what memmove does.
 */
/* one axis: n units of `unit` bytes (x rows, or y columns of one row) with
 * h halo units each side, plus one seam unit when staggered */
static void fill_axis(char *a, long unit, long h, long n, long periodic,
                      long stag)
{
    if (periodic) {
        memmove(a, a + n * unit, h * unit);
        if (stag) {
            memmove(a + (h + n + 1) * unit, a + (h + 1) * unit, h * unit);
            /* the two images of the seam face agree exactly */
            memmove(a + (h + n) * unit, a + h * unit, unit);
        } else {
            memmove(a + (h + n) * unit, a + h * unit, h * unit);
        }
    } else {
        const long hi = h + n - 1 + stag;       /* the last interior unit */
        for (long j = 0; j < h; j++) {
            memmove(a + j * unit, a + h * unit, unit);
            memmove(a + (hi + 1 + j) * unit, a + hi * unit, unit);
        }
    }
}

/* nfield fields; desc holds five longs a field: x rows, y columns, bytes
 * of one (x, y) column, and the x / y staggering */
void halo_fill(long nfield, char *const *fields, const long *desc, long h,
               long nx, long ny, long periodic_x, long periodic_y)
{
    for (long f = 0; f < nfield; f++) {
        const long *d = desc + 5 * f;
        const long row = d[1] * d[2];
        fill_axis(fields[f], row, h, nx, periodic_x, d[3]);
        for (long x = 0; x < d[0]; x++)
            fill_axis(fields[f] + x * row, d[2], h, ny, periodic_y, d[4]);
    }
}
