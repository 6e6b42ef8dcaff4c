/* Compiled three-point stencil kernel.
 *
 * The arithmetic is ordered exactly as in _stencil_py.py; built with
 * -ffp-contract=off (no FMA contraction) the two backends agree bit for bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

/* One explicit pass from a into b; the two edge nodes keep their values. */
static void stencil_pass(const double *restrict a, double *restrict b,
                         npy_intp nx, double nu)
{
    b[0] = a[0];
    b[nx - 1] = a[nx - 1];
    for (npy_intp i = 1; i < nx - 1; i++)
        b[i] = a[i] + nu * ((a[i + 1] - 2.0 * a[i]) + a[i - 1]);
}

static PyObject *apply_passes(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *values_obj, *nus_obj;
    if (!PyArg_ParseTuple(args, "OO:apply_passes", &values_obj, &nus_obj))
        return NULL;
    /* A fresh contiguous float64 copy, so the caller's array is never written;
     * 1 dimension (nx) or 2 (rows, nx), each row an independent line. */
    PyArrayObject *a = (PyArrayObject *)PyArray_FROMANY(
        values_obj, NPY_DOUBLE, 1, 2, NPY_ARRAY_CARRAY | NPY_ARRAY_ENSURECOPY);
    if (a == NULL)
        return NULL;
    npy_intp nx = PyArray_DIM(a, PyArray_NDIM(a) - 1);
    if (nx < 3) {
        Py_DECREF(a);
        PyErr_SetString(PyExc_ValueError, "stencil needs at least 3 nodes");
        return NULL;
    }
    PyArrayObject *nus = (PyArrayObject *)PyArray_FROMANY(
        nus_obj, NPY_DOUBLE, 1, 1, NPY_ARRAY_IN_ARRAY);
    PyArrayObject *b = nus ? (PyArrayObject *)PyArray_SimpleNew(
        PyArray_NDIM(a), PyArray_DIMS(a), NPY_DOUBLE) : NULL;
    if (b == NULL) {
        Py_DECREF(a);
        Py_XDECREF(nus);
        return NULL;
    }
    npy_intp n_pass = PyArray_DIM(nus, 0), size = PyArray_SIZE(a);
    const double *nu = PyArray_DATA(nus);
    double *src = PyArray_DATA(a), *dst = PyArray_DATA(b), *tmp;
    Py_BEGIN_ALLOW_THREADS
    for (npy_intp j = 0; j < n_pass; j++) {
        for (npy_intp r = 0; r < size; r += nx)
            stencil_pass(src + r, dst + r, nx, nu[j]);
        tmp = src, src = dst, dst = tmp;
    }
    Py_END_ALLOW_THREADS
    Py_DECREF(nus);
    /* The ping-pong leaves the last pass in b after an odd number of passes. */
    PyArrayObject *out = n_pass % 2 ? b : a;
    Py_DECREF(n_pass % 2 ? a : b);
    return (PyObject *)out;
}

/* format_rows: each float64 cell as exactly the text of Python's '%.17g' % v.
 *
 * A finite normal v = m * 2^e2 (m a 53-bit integer) is scaled by 10^q, q = 16 - k and
 * k = floor(log10 |v|), to a 17-digit integer D and the top 64 bits F of its fraction: m
 * times the 128-bit mantissa of 10^q is exact in 192 bits. The table of 10^q is built
 * from 10^0 by repeated *10 and /10, each step rounded to nearest, so an entry errs by
 * at most 2^-128 relative per inexact step: none for 0 <= q <= 55 (5^q < 2^128), at most
 * 292 steps, under 2^-119.8 in all (2^-122.7 measured with exact integers). D < 2^57.5,
 * so F errs by under 2^-62.3 from the table and under 2^-64 from its truncation: under
 * 2^3 units of 2^-64. An F within MARGIN = 2^8 units of one half is a tie, or too near
 * one to tell, so that cell goes to PyOS_double_to_string, the function '%' itself
 * calls; so do zero, subnormals, inf and NaN. Any other F rounds D as the exact value. */
#define CELL_MAX 24 /* "-4.9406564584124654e-324": sign, 17 digits, '.', 5 exponent chars */
#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 u128;
#define Q_MIN (-292) /* q over every normal double and both guesses of k */
#define Q_MAX 324
#define MARGIN ((uint64_t)1 << 8)
#define E17 100000000000000000ULL
static struct { u128 m; int e; } tens[Q_MAX - Q_MIN + 1]; /* 10^q ~ m * 2^e, m >= 2^127 */

static void build_tens(void)
{
    u128 m = (u128)1 << 127;
    int e = -127;
    for (int q = 0; q <= Q_MAX; q++) { /* m * 10 has 131 or 132 bits: keep the top 128 */
        tens[q - Q_MIN].m = m, tens[q - Q_MIN].e = e;
        u128 lo = (u128)(uint64_t)m * 10, hi = (m >> 64) * 10 + (lo >> 64);
        int r = hi >> 67 ? 4 : 3;
        m = (hi << (64 - r) | (uint64_t)lo >> r) + ((uint64_t)lo >> (r - 1) & 1), e += r;
    }
    m = (u128)1 << 127, e = -127;
    for (int q = -1; q >= Q_MIN; q--) { /* m / 10 = (m / 5) / 2, renormalized by 2^r */
        u128 d = m / 5;
        int r = d >> 125 ? 2 : 3;
        unsigned t = (unsigned)(m % 5) << r;
        m = (d << r) + t / 5 + (t % 5 >= 3), e -= r + 1;
        tens[q - Q_MIN].m = m, tens[q - Q_MIN].e = e;
    }
}

/* Write v's '%.17g' text at p and return its end, or NULL where it cannot prove it. */
static char *format_fast(double v, char *p)
{
    uint64_t bits, d, f;
    memcpy(&bits, &v, sizeof bits);
    int be = (int)(bits >> 52 & 0x7ff);
    if (be == 0 || be == 0x7ff)
        return NULL;
    uint64_t m = (bits & (((uint64_t)1 << 52) - 1)) | (uint64_t)1 << 52;
    int e2 = be - 1075, k = (int)floor((e2 + 52) * 0.30102999566398119521); /* k or k - 1 */
    for (;; k++) {
        u128 t = tens[16 - k - Q_MIN].m;
        int s = -(e2 + tens[16 - k - Q_MIN].e) - 64; /* in [58, 63]: D < 2^64 */
        u128 lo = (u128)m * (uint64_t)t, hi = (u128)m * (uint64_t)(t >> 64) + (lo >> 64);
        d = (uint64_t)(hi >> s), f = (uint64_t)(hi << (128 - s) >> 64) | (uint64_t)lo >> s;
        if (d < E17)
            break;
    }
    if (f - (((uint64_t)1 << 63) - MARGIN) <= 2 * MARGIN)
        return NULL;
    if ((d += f >> 63) == E17)
        d /= 10, k++;
    char digits[17];
    int n = 17, exp_form = k < -4 || k >= 17, point = exp_form ? 1 : k + 1; /* before '.' */
    for (int i = 16; i >= 0; i--)
        digits[i] = (char)('0' + d % 10), d /= 10;
    while (digits[n - 1] == '0')
        n--;
    if (bits >> 63)
        *p++ = '-';
    if (point <= 0) /* 0.000ddd */
        memcpy(p, "0.000", 2 - point), p += 2 - point;
    for (int i = 0; i < point; i++)
        *p++ = i < n ? digits[i] : '0';
    if (point > 0 && n > point)
        *p++ = '.';
    for (int i = point > 0 ? point : 0; i < n; i++)
        *p++ = digits[i];
    if (exp_form) { /* e+XX: a sign and at least two digits */
        int a = k < 0 ? -k : k;
        *p++ = 'e', *p++ = k < 0 ? '-' : '+';
        if (a >= 100)
            *p++ = (char)('0' + a / 100);
        *p++ = (char)('0' + a / 10 % 10), *p++ = (char)('0' + a % 10);
    }
    return p;
}
#else
static void build_tens(void) {}
static char *format_fast(double Py_UNUSED(v), char *Py_UNUSED(p)) { return NULL; }
#endif

/* Write v's '%.17g' text at p and return its end, or NULL with an exception set. */
static char *format_cell(double v, char *p)
{
    char *end = format_fast(v, p), *text;
    if (end != NULL || (text = PyOS_double_to_string(v, 'g', 17, 0, NULL)) == NULL)
        return end;
    size_t n = strlen(text);
    memcpy(p, text, n);
    PyMem_Free(text);
    return p + n;
}

static PyObject *format_rows(PyObject *Py_UNUSED(self), PyObject *arg)
{
    PyArrayObject *a = (PyArrayObject *)PyArray_FROMANY(arg, NPY_DOUBLE, 2, 2,
                                                       NPY_ARRAY_CARRAY_RO);
    if (a == NULL)
        return NULL;
    npy_intp rows = PyArray_DIM(a, 0), cols = PyArray_DIM(a, 1), size = PyArray_SIZE(a);
    const double *v = PyArray_DATA(a);
    /* each cell and the ' ' or '\n' after it, and the '\n' of a row of no cells */
    char *text = size <= (PY_SSIZE_T_MAX - rows) / (CELL_MAX + 1)
                     ? PyMem_Malloc(size * (CELL_MAX + 1) + rows) : NULL, *p = text;
    PyObject *out = text ? NULL : PyErr_NoMemory();
    for (npy_intp r = 0; p && r < rows; r++) {
        for (npy_intp c = 0; p && c < cols; c++) {
            if (c)
                *p++ = ' ';
            p = format_cell(*v++, p);
        }
        if (p)
            *p++ = '\n';
    }
    if (p)
        out = PyUnicode_DecodeASCII(text, p - text, NULL);
    PyMem_Free(text);
    Py_DECREF(a);
    return out;
}

static PyMethodDef methods[] = {
    {"apply_passes", apply_passes, METH_VARARGS,
     "apply_passes(values, nus, /)\n--\n\n"
     "Run one explicit stencil pass per entry of nus and return a new float64\n"
     "array of the input's shape, (nx,) or (rows, nx), each row an independent\n"
     "line. Interior nodes update as v[i] + nu * (v[i+1] - 2 v[i] + v[i-1]);\n"
     "the two edge nodes of every row keep their incoming values."},
    {"format_rows", format_rows, METH_O,
     "format_rows(block, /)\n--\n\n"
     "Return a float64 (rows, cols) block as text: each cell exactly '%.17g' % v,\n"
     "cells joined by ' ', every row ended by '\\n'."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_stencil", "Compiled stencil kernel and table formatter.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__stencil(void)
{
    import_array();
    build_tens();
    return PyModule_Create(&module);
}
