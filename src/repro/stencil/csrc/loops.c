/* NumPy's own float64 loops of exp and power, which the C bodies call
 * where the oracle calls np.exp / np.power (libm's round differently),
 * with the arguments NumPy passes: one contiguous pass, a scalar exponent
 * at stride 0.  This file opens the unit: Python.h before any header. */
#define _GNU_SOURCE 1
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_API_VERSION
#define NO_IMPORT
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>
#include <math.h>
#include <string.h>

/* [0] numpy.exp's, [1] numpy.power's */
static PyUFuncGenericFunction loop[2];
static void *loop_data[2];

/* at load: loop i[f] of ufunc[f], its all-double one (read only: no GIL
 * needed) */
void repro_loops(const PyUFuncObject *const *ufunc, const long *i)
{
    for (int f = 0; f < 2; f++) {
        loop[f] = ufunc[f]->functions[i[f]];
        loop_data[f] = ufunc[f]->data[i[f]];
    }
}

/* out = np.exp(x) over n doubles (out may be x) */
static void ufunc_exp(double *x, double *out, long n)
{
    char *args[2] = {(char *)x, (char *)out};
    npy_intp len = n, steps[2] = {8, 8};
    if (n > 0)
        loop[0](args, &len, steps, loop_data[0]);
}

/* out = np.power(x, y) over n doubles, y a scalar (out may be x) */
static void ufunc_pow(double *x, double y, double *out, long n)
{
    char *args[3] = {(char *)x, (char *)&y, (char *)out};
    npy_intp len = n, steps[3] = {8, 0, 8};
    if (n > 0)
        loop[1](args, &len, steps, loop_data[1]);
}
