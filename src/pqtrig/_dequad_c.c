/*
 * Compiled series kernels of pqtrig: the C twin of ``_dequad_py``.
 *
 * The series, their stopping rules, bounds and term caps follow
 * ``_dequad_py`` operation for operation, so the two backends sum the same
 * terms and return the same term counts (see its docstring for the four
 * series and their truncation bounds: arcsin's bottom half, its top form
 * anchored at w = 1 - x**q = 1/2, arcsinh's Pfaff form and its far form).
 * Each kernel returns the tuple (value, bound, terms, converged), where
 * converged is the fixed rule bound <= 1e-13 max(1, |value|) of both
 * backends.  ``solve`` runs the inverse solves of a whole list of targets,
 * every forward value included, with the GIL released; it follows
 * ``_dequad_py.solve`` operation for operation, so both backends take the
 * same steps, and each target is solved from the cold start of a
 * one-target call.  Where the Python kernel caches the far and top forms'
 * constants per (p, q), this one computes them once per kernel or
 * ``solve`` call that needs them.  Build it as a plain extension
 * (``setup.py``) or by hand:
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

/* sum_{n>=1} (-1)**n (b)_n / n! w**n / (e0 - q n), the magnitude of the
 * next term in *next and its term count in *terms; _dequad_py._alternating */
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
converged(double value, double bound)
{
    return bound <= 1e-13 * (value > 1.0 ? value : 1.0);
}

static result
arcsin_kernel(double p, double q, double x)
{
    result r = {0.0, 0.0, 0, 1};
    double rest, s;

    if (x == 0.0)
        return r;
    s = series(1.0 / p, q, exp(q * log(x)), &rest, &r.terms);
    r.value = x * s;
    r.bound = x * rest + ROUNDING * r.value;
    r.converged = converged(r.value, r.bound);
    return r;
}

/* the top form's e = (p - 1)/p, S, C - S and C's bound; _dequad_py._top_form */
typedef struct {
    double e, c, c_lo, cb;
    int set;
} top_form;

static void
top_setup(double p, double q, top_form *g)
{
    double s, rest, pre, scale, tail, next;
    long n;

    g->e = (p - 1.0) / p;
    s = series(1.0 / p, q, 0.5, &rest, &n);
    pre = expm1(-LN2 / q); /* 2**(-1/q) - 1 */
    scale = exp(-g->e * LN2) / q; /* 2**-e / q */
    tail = alternating(1.0 - 1.0 / q, -1.0, g->e, -0.5, scale, s, &next, &n);
    g->c = s;
    g->c_lo = pre * s + scale * tail;
    g->cb = (1.0 + pre) * rest + 2.0 * scale * next + ROUNDING * (s + fabs(g->c_lo));
    g->set = 1;
}

/* arcsin_pq where 1 - x**q = w = e**-t, t >= ln 2, by the top form, whose
 * constants `g` sets up on first use; _dequad_py.arcsin_top */
static result
top_kernel(double p, double q, double t, top_form *g)
{
    result r = {0.0, 0.0, 0, 1};
    double v, y, mid, scale, base, s, next;

    if (!g->set)
        top_setup(p, q, g);
    v = exp(-g->e * t); /* w**e */
    y = g->e * (t - LN2); /* e ln(1/(2 w)) */
    mid = (y <= 0.5 ? v * expm1(y) : exp(-g->e * LN2) - v) / (g->e * q);
    scale = v / q;
    base = g->c_lo + mid;
    s = alternating(1.0 - 1.0 / q, -1.0, g->e, -exp(-t), scale, g->c + base, &next, &r.terms);
    r.value = g->c + (base - scale * s);
    r.bound = g->cb + (2.0 * scale * next + ROUNDING * r.value);
    r.converged = converged(r.value, r.bound);
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
    double d = p - q, t = d - p, d_lo, prod, err, sc, s, rest, pre, at_x0, x0e, alt, next;
    long n;

    d_lo = (p - (d - t)) - (q + t);
    f->e0 = d / p;
    f->e_lo = 0.0;
    if (fabs(f->e0) < 0x1p62) {
        sc = 0x1p-600; /* exact, and keeps Dekker's split of p finite */
        prod = two_prod(f->e0, sc * p, &err);
        f->e_lo = ((sc * d - prod) - err + sc * d_lo) / (sc * p);
    }
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
arcsinh_kernel(double p, double q, double x, far_form *f)
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
        /* x**e0 = x0e e**y, below the least subnormal where y <= -750 */
        xe0 = y > -750.0 ? pow_e0(f->e0, f->e_lo, x) : 0.0;
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
    r.converged = converged(r.value, r.bound);
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

/* parse (p, q, x) positionally into d; -1 on error */
static int
kernel_args(const char *name, PyObject *const *args, Py_ssize_t nargs, double *d)
{
    Py_ssize_t i;

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly 3 positional arguments (%zd given)",
                     name, nargs);
        return -1;
    }
    for (i = 0; i < 3; i++) {
        d[i] = PyFloat_AsDouble(args[i]);
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *
arcsin_series(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double d[3]; /* p, q, x */

    if (kernel_args("arcsin_series", args, nargs, d) < 0)
        return NULL;
    return result_tuple(arcsin_kernel(d[0], d[1], d[2]));
}

static PyObject *
arcsinh_series(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double d[3];
    far_form f = {0.0, 0.0, 0.0, 0.0, 0};

    if (kernel_args("arcsinh_series", args, nargs, d) < 0)
        return NULL;
    return result_tuple(arcsinh_kernel(d[0], d[1], d[2], &f));
}

static PyObject *
arcsin_top(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double d[3]; /* p, q, t */
    top_form g = {0.0, 0.0, 0.0, 0.0, 0};

    if (kernel_args("arcsin_top", args, nargs, d) < 0)
        return NULL;
    return result_tuple(top_kernel(d[0], d[1], d[2], &g));
}

/* ---- inverse solves: the twin of _dequad_py.solve ---- */

enum solve_mode { SIN, SINH, TOP };
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

/* one target of solve(), _dequad_py._solve_one, without the GIL: the bracket
 * opens at [bottom, top], sin and top start at or above the root (top at
 * bottom where its start leaves its range) and sinh below it; `f` and `g`
 * hold the far and top forms' constants once a forward value needs them. */
static solution
solve_run(enum solve_mode mode, double p, double q, double y, double bottom, double top,
          long max_iters, far_form *f, top_form *g)
{
    solution out = {0.0, 0, 0, SOLVED};
    double lo = bottom, hi = top, s, resid, s_new, a, lns, g_step, z, v;
    long it;
    result r;

    if (mode == SINH)
        s = y;
    else if (mode == TOP) {
        if (!g->set)
            top_setup(p, q, g);
        /* w**e = 2**-e - (y - C) e q, as t = ln(1/w) */
        g_step = ((y - g->c) - g->c_lo) * g->e * q * exp(g->e * LN2);
        s = 0.0 < g_step && g_step < 1.0 ? LN2 - log1p(-g_step) / g->e : bottom;
    }
    else if (y >= top)
        s = top;
    else {
        z = pow(y, q); /* one Newton step from y on three terms of the series */
        v = 0.5 / p * (1.0 / p + 1.0) * z * z; /* c2 z**2 */
        s = y - y * (z / (p * (q + 1.0)) + v / (2.0 * q + 1.0)) / (1.0 + z / p + v);
    }
    for (it = 1; it <= max_iters; it++) {
        out.iterations = it;
        out.root = s;
        r = mode == SIN ? arcsin_kernel(p, q, s)
            : mode == TOP ? top_kernel(p, q, s, g) : arcsinh_kernel(p, q, s, f);
        out.terms += r.terms;
        if (!r.converged) {
            out.status = UNCONVERGED;
            return out;
        }
        resid = r.value - y;
        if (fabs(resid) <= r.bound)
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
        else if (mode == TOP) {
            /* in v = w**e: v + resid e q (1 - w)**(1 - 1/q) = v (1 + g_step) */
            g_step = resid * g->e * q * exp((1.0 - 1.0 / q) * log1p(-exp(-s)) + g->e * s);
            if (g_step > -1.0)
                s_new = s - log1p(g_step) / g->e;
        }
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
    static const char *names[] = {"sin", "sinh", "top"};
    long max_iters;
    int mode = -1;
    Py_ssize_t i, count;
    PyObject *seq, *list = NULL, *item;
    double p, q, *ys = NULL, bottom, top;
    solution *sols = NULL;
    far_form f = {0.0, 0.0, 0.0, 0.0, 0};
    top_form g = {0.0, 0.0, 0.0, 0.0, 0};

    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "solve() takes exactly 5 positional arguments (%zd given)",
                     nargs);
        return NULL;
    }
    for (i = 0; i < 3 && PyUnicode_Check(args[0]); i++)
        if (PyUnicode_CompareWithASCIIString(args[0], names[i]) == 0)
            mode = (int)i;
    if (mode < 0) {
        PyErr_Format(PyExc_ValueError, "unknown solve mode %R", args[0]);
        return NULL;
    }
    /* positions 1 and 2 are floats, 3 the targets, 4 an integer */
    p = PyFloat_AsDouble(args[1]);
    q = PyFloat_AsDouble(args[2]);
    max_iters = PyLong_AsLong(args[4]);
    if (PyErr_Occurred())
        return NULL;
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
    bottom = mode == TOP ? LN2 : 0.0;
    top = mode == SIN ? exp(-LN2 / q) : INFINITY;
    for (i = 0; i < count; i++)
        sols[i] = solve_run((enum solve_mode)mode, p, q, ys[i], bottom, top, max_iters, &f, &g);
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
     "arcsin_series(p, q, x, /)\n--\n\n"
     "Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1, as a series;\n"
     "returns (value, bound, terms, converged)."},
    {"arcsinh_series", (PyCFunction)(void (*)(void))arcsinh_series, METH_FASTCALL,
     "arcsinh_series(p, q, x, /)\n--\n\n"
     "Integral of (1 + t**q)**(-1/p) over [0, x], x >= 0, as a series;\n"
     "returns (value, bound, terms, converged)."},
    {"arcsin_top", (PyCFunction)(void (*)(void))arcsin_top, METH_FASTCALL,
     "arcsin_top(p, q, t, /)\n--\n\n"
     "Integral of (1 - u**q)**(-1/p) over [0, x], where 1 - x**q = e**-t and\n"
     "t >= ln 2, by the top form; returns (value, bound, terms, converged)."},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(mode, p, q, ys, max_iters, /)\n"
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
