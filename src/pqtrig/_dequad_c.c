/*
 * Compiled series kernels of pqtrig: the C twin of ``_dequad_py``.
 *
 * The series, their stopping rules, bounds and term caps follow
 * ``_dequad_py`` operation for operation, so the two backends sum the
 * same terms and return the same term counts (see its docstring for the
 * three series and their truncation bounds).  Each kernel returns the
 * tuple (value, bound, terms, converged).  ``solve`` runs the inverse
 * solves of a whole list of targets, every forward value included, with
 * the GIL released; it follows ``_dequad_py.solve`` operation for
 * operation, so both backends take the same steps, and each target is
 * solved from the cold start of a one-target call.  Where the Python
 * kernel caches the far form's constant per (p, q), this one computes it
 * once per call: per ``arcsinh_series`` call that needs it, and per
 * ``solve`` call.  Build it as a plain extension (``setup.py``) or by
 * hand:
 *
 *     cc -O3 -fPIC -shared -I<python include dir> _dequad_c.c -o _dequad_c<EXT_SUFFIX> -lm
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define EPS 2.220446049250313e-16
#define HALF_EPS (0.5 * EPS)
/* the rounding allowance of each bound, in ulps of the value */
#define ROUNDING (16.0 * EPS)
#define MAX_TERMS 1000
#define LN2 0.6931471805599453
#define LN3 1.0986122886681098
/* fdlibm's split of ln 2, as in _dequad_py */
#define LN2_HI 6.93147180369123816490e-01
#define LN2_LO 1.90821492927058770002e-10
#define SQRT_HALF 0.7071067811865476
#define SPLIT 134217729.0 /* 2**27 + 1 */
/* arcsinh takes the Pfaff form up to x**q = (1 + sqrt(5))/2, as in _dequad_py */
#define LN_SWITCH 0.48121182505960347

typedef struct {
    double value, bound;
    long terms;
    int converged;
} result;

/* sum_{n>=0} (a)_n / n! z**n / (1 + q n), its remainder bound in *rest and
 * its term count in *terms; _dequad_py._series */
static double
series(double a, double q, double z, double *rest, long *terms)
{
    double total = 1.0, t = 1.0, u = 1.0, an = a, m, r;
    long n = 0;

    while (n < MAX_TERMS) {
        n++;
        m = z * an / n;
        r = m > z ? m : z;
        if (t * r <= HALF_EPS * total * (1.0 - r)) {
            *rest = r < 1.0 ? t * r / (1.0 - r) : INFINITY;
            *terms = n;
            return total;
        }
        u *= m;
        t = u / (1.0 + q * n);
        total += t;
        an += 1.0;
    }
    m = z * an / (n + 1);
    r = m > z ? m : z;
    *rest = r < 1.0 ? t * r / (1.0 - r) : INFINITY;
    *terms = n + 1;
    return total;
}

/* sum_{n>=1} (-1)**n (b)_n / n! w**n / (e0 - q n), its bound in *next and
 * its term count in *terms; _dequad_py._alternating */
static double
alternating(double b, double q, double e0, double w, double scale, double base, double *next,
            long *terms)
{
    double total = 0.0, u = 1.0, t, stop = HALF_EPS * base;
    long n = 0;

    for (;;) {
        n++;
        u *= -w * (b + (n - 1)) / n;
        t = u / (e0 - q * n);
        if (fabs(t) * scale <= stop || n > MAX_TERMS) {
            *next = fabs(t);
            *terms = n - 1;
            return total;
        }
        total += t;
    }
}

static inline int
converged(double value, double bound, double tol)
{
    return bound <= tol * (value > 1.0 ? value : 1.0);
}

static result
arcsin_kernel(double p, double q, double x, double tol)
{
    result r = {0.0, 0.0, 0, 1};
    double rest, s;

    if (x == 0.0)
        return r;
    s = series(1.0 / p, q, exp(q * log(x)), &rest, &r.terms);
    r.value = x * s;
    r.bound = x * rest + ROUNDING * r.value;
    r.converged = converged(r.value, r.bound, tol);
    return r;
}

/* (a b, its rounding error in *err), exactly; _dequad_py._two_prod */
static double
two_prod(double a, double b, double *err)
{
    double prod = a * b, t, ah, al, bh, bl;

    t = SPLIT * a;
    ah = t - (t - a);
    al = a - ah;
    t = SPLIT * b;
    bh = t - (t - b);
    bl = b - bh;
    *err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl;
    return prod;
}

/* the far form's e_0 = e0 + e_lo, its constant C and C's bound;
 * _dequad_py._far_form */
typedef struct {
    double e0, e_lo, c, cb;
    int set;
} far_form;

static void
far_setup(double p, double q, far_form *f)
{
    double d = p - q, t = d - p, d_lo, prod, err, s, rest, pre, at_x0, x0e, alt, next;
    long n;

    d_lo = (p - (d - t)) - (q + t);
    f->e0 = d / p;
    prod = two_prod(f->e0, p, &err);
    f->e_lo = ((d - prod) - err + d_lo) / p;
    s = series(1.0 + 1.0 / q - 1.0 / p, q, 2.0 / 3.0, &rest, &n);
    pre = exp((LN2 - LN3) / q);
    at_x0 = pre * s;
    x0e = exp(f->e0 * (LN2 / q));
    alt = alternating(1.0 / p, q, f->e0, 0.5, x0e, at_x0, &next, &n);
    f->c = at_x0 - x0e * alt;
    f->cb = pre * rest + x0e * next + ROUNDING * (at_x0 + x0e * fabs(alt));
    f->set = 1;
}

/* x**(e0 + e_lo) to about an ulp, for x >= 1; _dequad_py._pow_e0 */
static double
pow_e0(double e0, double e_lo, double x)
{
    int k;
    double m = frexp(x, &k), a, b, hi, lo, r, j;

    if (m < SQRT_HALF) {
        m = 2.0 * m;
        k = k - 1;
    }
    a = k * LN2_HI;
    b = k * LN2_LO + log(m);
    hi = two_prod(e0, a, &lo);
    r = lo + e0 * b + e_lo * a;
    j = floor(r + 0.5);
    return exp(hi + j) * exp(r - j);
}

/* arcsinh by the Pfaff form where x**q <= (1 + sqrt(5))/2 and by the far
 * form beyond, whose constants `f` sets up on first use */
static result
arcsinh_kernel(double p, double q, double x, double tol, far_form *f)
{
    result r = {0.0, 0.0, 0, 1};
    double lx, xq, s, rest, pre, lr, y, x0e, xe0, mid, base, next;

    if (x == 0.0)
        return r;
    lx = log(x);
    if (q * lx <= LN_SWITCH) {
        xq = exp(q * lx);
        s = series(1.0 + 1.0 / q - 1.0 / p, q, xq / (1.0 + xq), &rest, &r.terms);
        pre = x * exp(-log1p(xq) / q);
        r.value = pre * s;
        r.bound = pre * rest + ROUNDING * r.value;
    }
    else {
        if (!f->set)
            far_setup(p, q, f);
        lr = lx - LN2 / q;
        y = f->e0 * lr;
        x0e = exp(f->e0 * (LN2 / q));
        xe0 = pow_e0(f->e0, f->e_lo, x);
        if (f->e0 == 0.0)
            mid = lr;
        else if (-0.5 <= y && y <= 0.5)
            mid = x0e * expm1(y) / f->e0;
        else
            mid = (xe0 - x0e) / f->e0;
        base = f->c + mid;
        s = alternating(1.0 / p, q, f->e0, exp(-q * lx), xe0, base, &next, &r.terms);
        r.value = base + xe0 * s;
        r.bound = f->cb + (xe0 * next + ROUNDING * r.value);
    }
    r.converged = converged(r.value, r.bound, tol);
    return r;
}

static PyObject *
result_tuple(result r)
{
    PyObject *out = PyTuple_New(4);

    if (out == NULL)
        return NULL;
    PyTuple_SET_ITEM(out, 0, PyFloat_FromDouble(r.value));
    PyTuple_SET_ITEM(out, 1, PyFloat_FromDouble(r.bound));
    PyTuple_SET_ITEM(out, 2, PyLong_FromLong(r.terms));
    PyTuple_SET_ITEM(out, 3, PyBool_FromLong(r.converged));
    if (!PyTuple_GET_ITEM(out, 0) || !PyTuple_GET_ITEM(out, 1) || !PyTuple_GET_ITEM(out, 2))
        Py_CLEAR(out);
    return out;
}

/* parse (p, q, x, tol=1e-12) positionally into d; -1 on error */
static int
kernel_args(const char *name, PyObject *const *args, Py_ssize_t nargs, double *d)
{
    Py_ssize_t i;

    if (nargs < 3 || nargs > 4) {
        PyErr_Format(PyExc_TypeError, "%s() takes from 3 to 4 positional arguments (%zd given)",
                     name, nargs);
        return -1;
    }
    for (i = 0; i < nargs; i++) {
        d[i] = PyFloat_AsDouble(args[i]);
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *
arcsin_series(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double d[4] = {0.0, 0.0, 0.0, 1e-12}; /* p, q, x, tol */

    if (kernel_args("arcsin_series", args, nargs, d) < 0)
        return NULL;
    return result_tuple(arcsin_kernel(d[0], d[1], d[2], d[3]));
}

static PyObject *
arcsinh_series(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double d[4] = {0.0, 0.0, 0.0, 1e-12};
    far_form f = {0.0, 0.0, 0.0, 0.0, 0};

    if (kernel_args("arcsinh_series", args, nargs, d) < 0)
        return NULL;
    return result_tuple(arcsinh_kernel(d[0], d[1], d[2], d[3], &f));
}

/* ---- inverse solves: the twin of _dequad_py.solve ---- */

enum solve_mode { SIN, SINH };
enum status { SOLVED, BUDGET, UNCONVERGED, OVERFLOW };

typedef struct {
    double root;
    long iterations, terms;
    enum status status;
} solution;

/* math.ulp of a finite double */
static double
ulp(double x)
{
    double up = nextafter(x, INFINITY);

    return isinf(up) ? x - nextafter(x, -INFINITY) : up - x;
}

/* log(1 + e**a) without overflow */
static inline double
softplus(double a)
{
    if (a > 0.0)
        return a + log1p(exp(-a));
    return log1p(exp(a));
}

/* one target of solve(), _dequad_py._solve_one; runs without the GIL.  The
 * bracket opens at [0, top]; `f` holds the far form's constants of sinh
 * once a forward value has needed them. */
static solution
solve_run(enum solve_mode mode, double p, double q, double y, double top, double tol,
          long max_iters, double qtol, far_form *f)
{
    solution out = {0.0, 0, 0, SOLVED};
    double lo = 0.0, hi = top, s, resid, s_new, a, lns, g_step;
    long it;
    result r;

    if (mode == SINH)
        s = y;
    else {
        /* start from the two-term series, as in _dequad_py._solve_one */
        s = y - pow(y, q + 1.0) / (p * (q + 1.0));
        if (!(0.0 < s && s < top))
            s = top;
    }
    for (it = 1; it <= max_iters; it++) {
        out.iterations = it;
        out.root = s;
        r = mode == SIN ? arcsin_kernel(p, q, s, qtol) : arcsinh_kernel(p, q, s, qtol, f);
        out.terms += r.terms;
        if (!r.converged) {
            out.status = UNCONVERGED;
            return out;
        }
        resid = r.value - y;
        if (fabs(resid) <= tol)
            return out;
        if (resid < 0.0)
            lo = s;
        else
            hi = s;
        if (hi < INFINITY && hi - lo <= 2.0 * ulp(hi)) {
            out.root = 0.5 * (lo + hi);
            return out;
        }

        /* the Newton step; nan where its variable leaves its range */
        s_new = NAN;
        if (mode == SIN)
            /* dF/ds = (1 - s**q)**(-1/p) */
            s_new = s - resid * pow(1.0 - pow(s, q), 1.0 / p);
        else if (s <= 1.0)
            /* dF/ds = (1 + s**q)**(-1/p) */
            s_new = s - resid * exp(log1p(pow(s, q)) / p);
        else {
            /* in x = s**a, a = 1 - q/p: dF/dx = (1 + s**-q)**(-1/p) / a */
            a = 1.0 - q / p;
            lns = log(s);
            g_step = resid * exp(softplus(-q * lns) / p);
            if (a == 0.0)
                s_new = s * exp(-g_step);
            else {
                g_step *= a * exp(-a * lns); /* the relative step in x */
                if (g_step < 1.0)
                    s_new = s * exp(log1p(-g_step) / a);
            }
        }
        if (s_new == s) /* a step below one ulp: the neighbouring float toward the root */
            s_new = nextafter(s, resid < 0.0 ? hi : lo);
        if (!(lo < s_new && s_new < hi)) {
            /* no upper bound: square s above 2, double it below; with a
             * bracket, bisect geometrically where sinh's s >= 1 */
            if (hi == INFINITY)
                s_new = lo > 2.0 ? lo * lo : 2.0 * lo;
            else {
                s_new = mode == SINH && s >= 1.0 ? sqrt(lo) * sqrt(hi) : NAN;
                if (!(lo < s_new && s_new < hi))
                    s_new = 0.5 * (lo + hi);
            }
        }
        if (s_new == INFINITY) {
            out.root = lo;
            out.status = OVERFLOW;
            return out;
        }
        s = s_new;
    }
    out.iterations = max_iters;
    out.root = hi < INFINITY ? 0.5 * (lo + hi) : lo;
    out.status = BUDGET;
    return out;
}

static PyObject *
solve(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *names[] = {"sin", "sinh"};
    double d[4] = {0.0, 0.0, 0.0, 1e-12}; /* p, q, tol, qtol */
    long max_iters = 0;
    int mode = -1;
    Py_ssize_t i, count;
    PyObject *seq, *list = NULL, *item;
    double *ys = NULL, top;
    solution *sols = NULL;
    far_form f = {0.0, 0.0, 0.0, 0.0, 0};

    if (nargs < 6 || nargs > 7) {
        PyErr_Format(PyExc_TypeError, "solve() takes from 6 to 7 positional arguments (%zd given)",
                     nargs);
        return NULL;
    }
    for (i = 0; i < 2 && PyUnicode_Check(args[0]); i++)
        if (PyUnicode_CompareWithASCIIString(args[0], names[i]) == 0)
            mode = (int)i;
    if (mode < 0) {
        PyErr_Format(PyExc_ValueError, "unknown solve mode %R", args[0]);
        return NULL;
    }
    /* positions 1, 2, 4 and 6 are floats, 3 the targets, 5 an integer */
    for (i = 1; i < nargs; i++) {
        if (i == 1 || i == 2)
            d[i - 1] = PyFloat_AsDouble(args[i]);
        else if (i == 4)
            d[2] = PyFloat_AsDouble(args[i]);
        else if (i == 6)
            d[3] = PyFloat_AsDouble(args[i]);
        else if (i == 5)
            max_iters = PyLong_AsLong(args[i]);
        if (PyErr_Occurred())
            return NULL;
    }
    if ((seq = PySequence_Fast(args[3], "solve() targets must be a sequence")) == NULL)
        return NULL;
    count = PySequence_Fast_GET_SIZE(seq);
    ys = PyMem_RawMalloc((count ? count : 1) * sizeof(double));
    sols = PyMem_RawMalloc((count ? count : 1) * sizeof(solution));
    if (ys == NULL || sols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < count; i++) {
        ys[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
        if (PyErr_Occurred())
            goto done;
    }

    Py_BEGIN_ALLOW_THREADS
    top = mode == SIN ? exp(-LN2 / d[1]) : INFINITY;
    for (i = 0; i < count; i++)
        sols[i] = solve_run((enum solve_mode)mode, d[0], d[1], ys[i], top, d[2], max_iters, d[3],
                            &f);
    Py_END_ALLOW_THREADS

    if ((list = PyList_New(count)) == NULL)
        goto done;
    for (i = 0; i < count; i++) {
        if ((item = PyTuple_New(4)) == NULL) {
            Py_CLEAR(list);
            goto done;
        }
        PyList_SET_ITEM(list, i, item);
        PyTuple_SET_ITEM(item, 0, PyFloat_FromDouble(sols[i].root));
        PyTuple_SET_ITEM(item, 1, PyLong_FromLong(sols[i].iterations));
        PyTuple_SET_ITEM(item, 2, PyLong_FromLong(sols[i].terms));
        PyTuple_SET_ITEM(item, 3, PyLong_FromLong((long)sols[i].status));
        if (!PyTuple_GET_ITEM(item, 0) || !PyTuple_GET_ITEM(item, 1) || !PyTuple_GET_ITEM(item, 2)
            || !PyTuple_GET_ITEM(item, 3)) {
            Py_CLEAR(list);
            goto done;
        }
    }
done:
    PyMem_RawFree(ys);
    PyMem_RawFree(sols);
    Py_DECREF(seq);
    return list;
}

static PyMethodDef methods[] = {
    {"arcsin_series", (PyCFunction)(void (*)(void))arcsin_series, METH_FASTCALL,
     "arcsin_series(p, q, x, tol=1e-12, /)\n--\n\n"
     "Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1, as a series;\n"
     "returns (value, bound, terms, converged)."},
    {"arcsinh_series", (PyCFunction)(void (*)(void))arcsinh_series, METH_FASTCALL,
     "arcsinh_series(p, q, x, tol=1e-12, /)\n--\n\n"
     "Integral of (1 + t**q)**(-1/p) over [0, x], x >= 0, as a series;\n"
     "returns (value, bound, terms, converged)."},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(mode, p, q, ys, tol, max_iters, qtol=1e-12, /)\n"
     "--\n\n"
     "Bracketed Newton solves of one inverse at the targets ys, in any\n"
     "order, each from the cold start of a one-target call; returns one\n"
     "(root, iterations, terms, status) per target.  See\n"
     "pqtrig._dequad_py.solve."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "pqtrig._dequad_c",
    "Compiled series kernels; the C twin of pqtrig._dequad_py.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__dequad_c(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
                      || PyModule_AddIntConstant(m, "SOLVED", SOLVED) < 0
                      || PyModule_AddIntConstant(m, "BUDGET", BUDGET) < 0
                      || PyModule_AddIntConstant(m, "UNCONVERGED", UNCONVERGED) < 0
                      || PyModule_AddIntConstant(m, "OVERFLOW", OVERFLOW) < 0))
        Py_CLEAR(m);
    return m;
}
