/* Compiled three-point stencil kernel.
 *
 * The arithmetic is ordered exactly as in _stencil_py.py; built with
 * -ffp-contract=off (no FMA contraction) the two backends agree bit for bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

static PyMethodDef methods[] = {
    {"apply_passes", apply_passes, METH_VARARGS,
     "apply_passes(values, nus, /)\n--\n\n"
     "Run one explicit stencil pass per entry of nus and return a new float64\n"
     "array of the input's shape, (nx,) or (rows, nx), each row an independent\n"
     "line. Interior nodes update as v[i] + nu * (v[i+1] - 2 v[i] + v[i-1]);\n"
     "the two edge nodes of every row keep their incoming values."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_stencil", "Compiled three-point stencil kernel.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__stencil(void)
{
    import_array();
    return PyModule_Create(&module);
}
