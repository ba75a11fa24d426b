/*
 * Compiled tanh-sinh kernels of pqtrig: the C twin of ``_dequad_py``.
 *
 * The arithmetic, node tables, stopping rules and the level clamp follow
 * ``_dequad_py`` and the level loop ``_nodes.run_levels`` operation for
 * operation; the two backends walk the same nodes and return the same
 * evaluation counts.  Node tables are built under the GIL, up to the
 * clamped level a call needs; the level loop runs with the GIL released,
 * so sweeps can call these kernels from several threads in parallel.
 *
 * Each kernel returns the tuple (value, error_estimate, evaluations,
 * converged).  Build it as a plain extension (``setup.py``) or by hand:
 *
 *     cc -O3 -fPIC -shared -I<python include dir> _dequad_c.c -o _dequad_c<EXT_SUFFIX> -lm
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define PI_HALF 1.5707963267948966
#define LN_HALF (-0.6931471805599453)
#define EPS 2.220446049250313e-16
#define TAU_MAX 6.9
#define MAX_LEVEL 16 /* deeper levels are clamped, as in _nodes.run_levels */

enum mode { ARCSIN, ARCSINH, MSTAR };

/* one node of a level: the du/dtau weight, ln(omu/2) and ln(1 - omu/2),
 * where omu = 1 - tanh((pi/2) sinh(tau)) is formed without cancellation */
typedef struct {
    double w, ln_lo, ln_hi;
} node;

static node *tables[MAX_LEVEL + 1];
static Py_ssize_t table_len[MAX_LEVEL + 1];

/* Tabulate level `level` (tau = 1, 2, ... at level 0, odd multiples of
 * 2**-level above it), exactly as _nodes._build does.  Needs the GIL. */
static int
build_table(int level)
{
    double h = level == 0 ? 1.0 : ldexp(1.0, -level);
    long k = 1, step = level == 0 ? 1 : 2;
    Py_ssize_t n = 0, cap = (Py_ssize_t)(TAU_MAX / (h * step)) + 2;
    node *buf = PyMem_RawMalloc(cap * sizeof(node));

    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    while (k * h <= TAU_MAX) {
        double tau = k * h, s = PI_HALF * sinh(tau), e2, omu, w;
        if (2.0 * s > 1400.0)
            break;
        e2 = exp(-2.0 * s);
        omu = 2.0 * e2 / (1.0 + e2);
        w = PI_HALF * cosh(tau) * (4.0 * e2 / ((1.0 + e2) * (1.0 + e2)));
        if (w == 0.0 || omu == 0.0)
            break;
        buf[n].w = w;
        buf[n].ln_lo = -2.0 * s - log1p(e2);
        buf[n].ln_hi = log1p(-0.5 * omu);
        n++;
        k += step;
    }
    tables[level] = buf;
    table_len[level] = n;
    return 0;
}

/* log(1 + e**a) without overflow */
static inline double
softplus(double a)
{
    if (a > 0.0)
        return a + log1p(exp(-a));
    return log1p(exp(a));
}

/* integrand sum over the two symmetric nodes of one |tau| */
static inline double
pair(enum mode mode, double alpha, double q, double lnx, const node *nd)
{
    double gp, gm, lng;

    if (mode == ARCSIN) {
        /* t = x*(1 - omu/2) on the + side, t = x*omu/2 on the - side */
        gp = pow(-expm1(q * (lnx + nd->ln_hi)), alpha);
        gm = pow(-expm1(q * (lnx + nd->ln_lo)), alpha);
    }
    else if (mode == ARCSINH) {
        gp = exp(alpha * softplus(q * (lnx + nd->ln_hi)));
        gm = exp(alpha * softplus(q * (lnx + nd->ln_lo)));
    }
    else {
        /* half-line map t = (1-v)/v: integrand (1+t**q)**(-1/p) / v**2 */
        lng = alpha * softplus(q * (nd->ln_lo - nd->ln_hi)) - 2.0 * nd->ln_hi;
        gp = lng > -745.0 ? exp(lng) : 0.0;
        lng = alpha * softplus(q * (nd->ln_hi - nd->ln_lo)) - 2.0 * nd->ln_lo;
        gm = lng > -745.0 ? exp(lng) : 0.0;
    }
    return nd->w * (gp + gm);
}

static double
centre(enum mode mode, double alpha, double q, double lnx)
{
    double g;

    if (mode == ARCSIN)
        g = pow(-expm1(q * (lnx + LN_HALF)), alpha);
    else if (mode == ARCSINH)
        g = exp(alpha * softplus(q * (lnx + LN_HALF)));
    else
        g = exp(alpha * softplus(0.0) - 2.0 * LN_HALF);
    return PI_HALF * g;
}

typedef struct {
    double value, err;
    long evals;
    int converged;
} result;

/* The level loop of _nodes.run_levels; runs without the GIL.  `levels`
 * is already clamped and its tables are built. */
static result
pq_quad(enum mode mode, double p, double q, double x, double tol,
        int levels, long max_evals)
{
    result r = {0.0, 0.0, 0, 1};
    double alpha, half, lnx, raw_tol, raw, c, h = 1.0, value, new_value;
    int small;
    Py_ssize_t i;
    int level;

    if (mode != MSTAR && x == 0.0)
        return r;
    alpha = -1.0 / p;
    half = mode == MSTAR ? 0.5 : 0.5 * x;
    lnx = mode == MSTAR ? 0.0 : log(x);
    raw_tol = tol / half;

    raw = centre(mode, alpha, q, lnx);
    r.evals = 1;
    for (i = 0; i < table_len[0]; i++) {
        c = pair(mode, alpha, q, lnx, &tables[0][i]);
        raw += c;
        r.evals += 2;
        if (fabs(c) <= 1e-17 * fabs(raw)) /* level-0 taus are all >= 1 */
            break;
    }
    value = raw * h;
    r.err = INFINITY;
    r.converged = 0;
    for (level = 1; level <= levels; level++) {
        h *= 0.5;
        small = 0;
        for (i = 0; i < table_len[level]; i++) {
            c = pair(mode, alpha, q, lnx, &tables[level][i]);
            raw += c;
            r.evals += 2;
            if (fabs(c) <= 1e-17 * fabs(raw) && (2 * i + 1) * h >= 1.0) {
                if (++small >= 2)
                    break;
            }
            else
                small = 0;
        }
        new_value = raw * h;
        r.err = fabs(new_value - value);
        value = new_value;
        if (r.err <= raw_tol) {
            r.converged = 1;
            break;
        }
        if (r.err <= 8.0 * EPS * fabs(value) || r.evals >= max_evals)
            break;
    }
    r.value = value * half;
    r.err *= half;
    return r;
}

/* Shared entry point: parse (p, q[, x], tol=1e-12, max_levels=12,
 * max_evals=1000000) positionally, run the kernel, build the tuple. */
static PyObject *
run(enum mode mode, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t nfixed = mode == MSTAR ? 2 : 3, i, slot;
    double d[4] = {0.0, 0.0, 1.0, 1e-12}; /* p, q, x, tol */
    long n[2] = {12, 1000000};            /* max_levels, max_evals */
    int levels, level;
    result r;
    PyObject *out;

    if (nargs < nfixed || nargs > nfixed + 3) {
        PyErr_Format(PyExc_TypeError, "%s() takes from %zd to %zd positional arguments (%zd given)",
                     name, nfixed, nfixed + 3, nargs);
        return NULL;
    }
    for (i = 0; i < nargs; i++) {
        slot = i < nfixed ? i : i - nfixed + 3; /* mstar_quad has no x */
        if (slot < 4)
            d[slot] = PyFloat_AsDouble(args[i]);
        else
            n[slot - 4] = PyLong_AsLong(args[i]);
        if (PyErr_Occurred())
            return NULL;
    }

    levels = n[0] > MAX_LEVEL ? MAX_LEVEL : n[0] < 0 ? 0 : (int)n[0];
    for (level = 0; level <= levels; level++)
        if (tables[level] == NULL && build_table(level) < 0)
            return NULL;

    Py_BEGIN_ALLOW_THREADS
    r = pq_quad(mode, d[0], d[1], d[2], d[3], levels, n[1]);
    Py_END_ALLOW_THREADS

    out = PyTuple_New(4);
    if (out == NULL)
        return NULL;
    PyTuple_SET_ITEM(out, 0, PyFloat_FromDouble(r.value));
    PyTuple_SET_ITEM(out, 1, PyFloat_FromDouble(r.err));
    PyTuple_SET_ITEM(out, 2, PyLong_FromLong(r.evals));
    PyTuple_SET_ITEM(out, 3, PyBool_FromLong(r.converged));
    if (!PyTuple_GET_ITEM(out, 0) || !PyTuple_GET_ITEM(out, 1) || !PyTuple_GET_ITEM(out, 2))
        Py_CLEAR(out);
    return out;
}

static PyObject *
arcsin_quad(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run(ARCSIN, "arcsin_quad", args, nargs);
}

static PyObject *
arcsinh_quad(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run(ARCSINH, "arcsinh_quad", args, nargs);
}

static PyObject *
mstar_quad(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run(MSTAR, "mstar_quad", args, nargs);
}

static PyMethodDef methods[] = {
    {"arcsin_quad", (PyCFunction)(void (*)(void))arcsin_quad, METH_FASTCALL,
     "arcsin_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000, /)\n--\n\n"
     "Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1."},
    {"arcsinh_quad", (PyCFunction)(void (*)(void))arcsinh_quad, METH_FASTCALL,
     "arcsinh_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000, /)\n--\n\n"
     "Integral of (1 + t**q)**(-1/p) over [0, x], x >= 0."},
    {"mstar_quad", (PyCFunction)(void (*)(void))mstar_quad, METH_FASTCALL,
     "mstar_quad(p, q, tol=1e-12, max_levels=12, max_evals=1000000, /)\n--\n\n"
     "Integral of (1 + t**q)**(-1/p) over [0, inf); requires p < q."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "pqtrig._dequad_c",
    "Compiled tanh-sinh kernels; the C twin of pqtrig._dequad_py.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__dequad_c(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
