/*
 * Compiled series kernels of pqtrig: the C twin of ``_dequad_py``.
 *
 * The series, their stopping rules, bounds and term caps follow
 * ``_dequad_py`` operation for operation, so the two backends sum the same
 * terms and return the same term counts (see its docstring for the four
 * series and their truncation bounds: arcsin's bottom half, its top form
 * anchored at w = 1 - x**q = 1/2, arcsinh's Pfaff form and its far form).
 * Like its twin it has three entries.  ``forward(mode, ...)``, with mode
 * "sin", "top" or "sinh" (``forward_at``), returns the tuple (value,
 * bound, terms, converged), where converged is the fixed rule bound <=
 * 1e-13 max(1, |value|) of both backends, and holds the GIL.
 * ``solve(fn, ...)`` is the inverse of one function, "sin", "cos",
 * "sincos" or "sinh", over a column of targets, with the GIL released:
 * each target's domain test, endpoint or route to a mode (``target``),
 * its solve (``solve_run``) and the map from its root to its value
 * (``mapped``).  Each distinct target, by its bits, is solved once in a
 * hash table of positions, from the cold start of a one-target call, and
 * the column of values comes back with one record per failed position.
 * It follows ``_dequad_py.solve`` operation for operation, so both
 * backends take the same steps.  ``means`` is the Hölder mean column
 * (``holder``), operation for operation as ``_dequad_py.means``.  Where
 * the Python kernel caches the far and top forms' constants per (p, q),
 * this one computes them once per call that needs them.  Both twins
 * parse their names by one rule (``name_of``).
 * Build it as a plain extension (``setup.py``) or by hand:
 *
 *     cc -O3 -fPIC -shared -I<python include dir> _dequad_c.c -o _dequad_c<EXT_SUFFIX> -lm
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

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
    int converged; /* set by forward_at */
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

static result
arcsin_kernel(double p, double q, double x)
{
    result r = {0.0, 0.0, 0, 0};
    double rest, s;

    if (x == 0.0)
        return r;
    s = series(1.0 / p, q, exp(q * log(x)), &rest, &r.terms);
    r.value = x * s;
    r.bound = x * rest + ROUNDING * r.value;
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
 * constants `g` sets up on first use; _dequad_py._arcsin_top */
static result
top_kernel(double p, double q, double t, top_form *g)
{
    result r = {0.0, 0.0, 0, 0};
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
    result r = {0.0, 0.0, 0, 0};
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

/* ---- the three entries: forward, solve and means ---- */

enum mode { SIN, SINH, TOP };
enum function { F_SIN, F_COS, F_SINCOS, F_SINH };
enum status { SOLVED, BUDGET, UNCONVERGED, OVERFLOW, DOMAIN };

static const char *const mode_names[] = {"sin", "sinh", "top", NULL};
static const char *const function_names[] = {"sin", "cos", "sincos", "sinh", NULL};

/* the index in `names` of args[0], a `kind` of name, and p and q from
 * args[1] and args[2], of `entry`, which takes `count` arguments; -1 with
 * an exception set, a ValueError for an unknown name as in _dequad_py */
static int
name_of(const char *entry, Py_ssize_t count, const char *const *names, const char *kind,
        PyObject *const *args, Py_ssize_t nargs, double *p, double *q)
{
    int i;

    if (nargs != count) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd positional arguments (%zd given)",
                     entry, count, nargs);
        return -1;
    }
    for (i = 0; names[i] != NULL && PyUnicode_Check(args[0]); i++)
        if (PyUnicode_CompareWithASCIIString(args[0], names[i]) == 0) {
            *p = PyFloat_AsDouble(args[1]);
            if (*p == -1.0 && PyErr_Occurred())
                return -1;
            *q = PyFloat_AsDouble(args[2]);
            return *q == -1.0 && PyErr_Occurred() ? -1 : i;
        }
    PyErr_Format(PyExc_ValueError, "unknown %s %R", kind, args[0]);
    return -1;
}

/* the forward value of `mode` at x (t for top), converged by the one rule
 * of both backends; `f` and `g` hold the far and top forms' constants once
 * a value needs them */
static result
forward_at(enum mode mode, double p, double q, double x, far_form *f, top_form *g)
{
    result r = mode == SIN ? arcsin_kernel(p, q, x)
               : mode == TOP ? top_kernel(p, q, x, g) : arcsinh_kernel(p, q, x, f);

    r.converged = r.bound <= 1e-13 * (r.value > 1.0 ? r.value : 1.0);
    return r;
}

static PyObject *
forward(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p, q, x;
    far_form f = {0.0, 0.0, 0.0, 0.0, 0};
    top_form g = {0.0, 0.0, 0.0, 0.0, 0};
    int mode = name_of("forward", 4, mode_names, "mode", args, nargs, &p, &q);

    if (mode < 0 || ((x = PyFloat_AsDouble(args[3])) == -1.0 && PyErr_Occurred()))
        return NULL;
    return result_tuple(forward_at((enum mode)mode, p, q, x, &f, &g));
}

/* ---- inverse solves: the twin of _dequad_py.solve ---- */

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

/* the solve of one target in `mode`, _dequad_py._solve_one, without the
 * GIL: the bracket opens at [bottom, top], sin and top start at or above
 * the root (top at bottom where its start leaves its range) and sinh below
 * it; `f` and `g` hold the far and top forms' constants once a forward
 * value needs them. */
static solution
solve_run(enum mode mode, double p, double q, double y, double bottom, double top,
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
        r = forward_at(mode, p, q, s, f, g);
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

#define TOP_PAD 1e-12 /* how far the domain of sin_pq and cos_pq reaches above half_pi_pq */

/* one target's value (sin, or cos for F_COS; sincos's pair) and its
 * failure record */
typedef struct {
    double sin, cos;
    long iterations;
    enum status status;
} outcome;

/* fn_pq from a root in `mode`, in sin (sinh's value too) unless fn is
 * cos, and in cos where fn is cos or sincos; _dequad_py._mapped */
static void
mapped(enum function fn, double p, double q, enum mode mode, double root, outcome *o)
{
    if (mode == TOP) {
        if (fn != F_COS)
            o->sin = exp(log1p(-exp(-root)) / q);
        if (fn != F_SIN)
            o->cos = exp(-root / p);
    }
    else {
        o->sin = root;
        if (fn == F_COS || fn == F_SINCOS)
            o->cos = exp(log1p(-pow(root, q)) / p);
    }
}

/* one target of solve(), _dequad_py._target, without the GIL: the domain
 * test, the endpoints, the mode and the solve; `sin_top` is 2**(-1/q) */
static outcome
target(enum function fn, double p, double q, double y, double top, double split, double sin_top,
       long max_iters, far_form *f, top_form *g)
{
    outcome o = {NAN, NAN, 0, DOMAIN};
    enum mode mode;
    solution s;

    if (!(fn == F_SINH ? 0.0 <= y && y < top : 0.0 <= y && y <= top + TOP_PAD))
        return o;
    if (y == 0.0 || y >= top) { /* (a sinh y is below its top here) */
        o.sin = y == 0.0 ? 0.0 : 1.0;
        o.cos = 1.0 - o.sin;
        o.status = SOLVED;
        return o;
    }
    mode = fn == F_SINH ? SINH : y < split ? SIN : TOP;
    s = solve_run(mode, p, q, y, mode == TOP ? LN2 : 0.0, mode == SIN ? sin_top : INFINITY,
                  max_iters, f, g);
    mapped(fn, p, q, mode, s.root, &o);
    o.iterations = s.iterations;
    o.status = s.status;
    return o;
}

/* the slot of `table` (size a power of 2, -1 where empty) that holds the
 * first position of ys whose target has y's bits, or the empty slot
 * where it goes */
static Py_ssize_t
slot_of(const Py_ssize_t *table, Py_ssize_t size, const double *ys, double y)
{
    uint64_t bits, other, h;
    Py_ssize_t slot;

    memcpy(&bits, &y, sizeof bits);
    h = (bits ^ (bits >> 29)) * 0x9E3779B97F4A7C15ULL;
    slot = (Py_ssize_t)((h ^ (h >> 32)) & (uint64_t)(size - 1));
    for (;; slot = (slot + 1) & (size - 1)) {
        if (table[slot] < 0)
            return slot;
        memcpy(&other, &ys[table[slot]], sizeof other);
        if (other == bits)
            return slot;
    }
}

static PyObject *
float_pair(double a, double b)
{
    PyObject *x = PyFloat_FromDouble(a), *y = PyFloat_FromDouble(b), *out = NULL;

    if (x != NULL && y != NULL)
        out = PyTuple_Pack(2, x, y);
    Py_XDECREF(x);
    Py_XDECREF(y);
    return out;
}

static PyObject *
solve(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long max_iters;
    int fn;
    Py_ssize_t i, count, size, slot, *table = NULL;
    PyObject *seq, *values = NULL, *failures = NULL, *item, *out = NULL;
    double p, q, top, split, sin_top, value, *ys = NULL;
    outcome *outs = NULL;
    far_form f = {0.0, 0.0, 0.0, 0.0, 0};
    top_form g = {0.0, 0.0, 0.0, 0.0, 0};

    /* after fn, p and q: the targets, top, split and an integer */
    if ((fn = name_of("solve", 7, function_names, "function", args, nargs, &p, &q)) < 0
        || ((top = PyFloat_AsDouble(args[4])) == -1.0 && PyErr_Occurred())
        || ((split = PyFloat_AsDouble(args[5])) == -1.0 && PyErr_Occurred())
        || ((max_iters = PyLong_AsLong(args[6])) == -1 && PyErr_Occurred()))
        return NULL;
    if ((seq = PySequence_Fast(args[3], "solve() targets must be a sequence")) == NULL)
        return NULL;
    count = PySequence_Fast_GET_SIZE(seq);
    for (size = 2; size < 2 * count; size *= 2)
        ;
    ys = PyMem_RawMalloc((count ? count : 1) * sizeof(double));
    outs = PyMem_RawMalloc((count ? count : 1) * sizeof(outcome));
    table = PyMem_RawMalloc(size * sizeof(Py_ssize_t));
    if (ys == NULL || outs == NULL || table == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < count; i++) {
        ys[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
        if (PyErr_Occurred())
            goto done;
    }

    /* each distinct target (by its bits) is solved once, at its first
     * position, and the later ones copy its outcome */
    Py_BEGIN_ALLOW_THREADS
    sin_top = exp(-LN2 / q);
    for (i = 0; i < size; i++)
        table[i] = -1;
    for (i = 0; i < count; i++) {
        slot = slot_of(table, size, ys, ys[i]);
        if (table[slot] >= 0)
            outs[i] = outs[table[slot]];
        else {
            table[slot] = i;
            outs[i] = target((enum function)fn, p, q, ys[i], top, split, sin_top, max_iters, &f,
                             &g);
        }
    }
    Py_END_ALLOW_THREADS

    if ((values = PyList_New(count)) == NULL || (failures = PyList_New(0)) == NULL)
        goto done;
    for (i = 0; i < count; i++) {
        value = fn == F_COS ? outs[i].cos : outs[i].sin;
        item = fn == F_SINCOS ? float_pair(outs[i].sin, outs[i].cos) : PyFloat_FromDouble(value);
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(values, i, item);
        if (outs[i].status != SOLVED) {
            item = Py_BuildValue("(nild)", i, (int)outs[i].status, outs[i].iterations, value);
            if (item == NULL || PyList_Append(failures, item) < 0) {
                Py_XDECREF(item);
                goto done;
            }
            Py_DECREF(item);
        }
    }
    out = PyTuple_Pack(2, values, failures);
done:
    Py_XDECREF(values);
    Py_XDECREF(failures);
    PyMem_RawFree(ys);
    PyMem_RawFree(outs);
    PyMem_RawFree(table);
    Py_DECREF(seq);
    return out;
}

/* ---- Hölder means: the twin of _dequad_py.means ---- */

#define TINY 2.2250738585072014e-308 /* the least normal float */
#define GEOMETRIC 0x1p-50 /* below |r| d**2 of this, the geometric mean is H_r */

/* H_r(a, b), operation for operation as in _dequad_py.means */
static double
holder(double r, double a, double b)
{
    double lo, hi, m, other, ratio, d, e, mean, ab, fm, fy, half;
    int em, ey, geometric = r == 0.0;

    if (a < b) {
        lo = a;
        hi = b;
    }
    else if (b < a) {
        lo = b;
        hi = a;
    }
    else
        return a;
    if (!geometric) {
        /* m dominates the power sum, so r d <= 0 and expm1(r d) is in (-1, 0] */
        m = r > 0.0 ? hi : lo;
        other = r > 0.0 ? lo : hi;
        ratio = other / m;
        d = TINY <= ratio && ratio < INFINITY ? log(ratio) : log(other) - log(m);
        geometric = fabs(r) * d * d < GEOMETRIC;
    }
    if (geometric) {
        ab = a * b;
        mean = TINY <= ab && ab < INFINITY ? sqrt(ab) : sqrt(a) * sqrt(b);
    }
    else {
        e = log1p(0.5 * expm1(r * d)) / r; /* ln(H_r / m) */
        if (-708.0 < e && e < 709.0)
            mean = m * exp(e);
        else { /* scale m, apply exp(e/2) twice */
            fm = frexp(m, &em);
            half = exp(0.5 * e);
            fy = frexp(fm * half, &ey);
            mean = ldexp(fy * half, em + ey);
        }
    }
    return mean < lo ? lo : mean > hi ? hi : mean;
}

static PyObject *
means(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double r, a, b;
    Py_ssize_t i, count;
    PyObject *as, *bs = NULL, *out = NULL, *item;

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "means() takes exactly 3 positional arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (((r = PyFloat_AsDouble(args[0])) == -1.0 && PyErr_Occurred())
        || (as = PySequence_Fast(args[1], "means() columns must be sequences")) == NULL)
        return NULL;
    if ((bs = PySequence_Fast(args[2], "means() columns must be sequences")) == NULL)
        goto done;
    /* as zip(a, b) */
    count = PySequence_Fast_GET_SIZE(as) < PySequence_Fast_GET_SIZE(bs)
                ? PySequence_Fast_GET_SIZE(as) : PySequence_Fast_GET_SIZE(bs);
    if ((out = PyList_New(count)) == NULL)
        goto done;
    for (i = 0; i < count; i++) {
        if (((a = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(as, i))) == -1.0 && PyErr_Occurred())
            || ((b = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(bs, i))) == -1.0
                && PyErr_Occurred())
            || (item = PyFloat_FromDouble(holder(r, a, b))) == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        PyList_SET_ITEM(out, i, item);
    }
done:
    Py_DECREF(as);
    Py_XDECREF(bs);
    return out;
}

static PyMethodDef methods[] = {
    {"forward", (PyCFunction)(void (*)(void))forward, METH_FASTCALL,
     "forward(mode, p, q, x, /)\n--\n\n"
     "The series value of a mode at x (t = ln(1/w) for \"top\"):\n"
     "(value, bound, terms, converged).  See pqtrig._dequad_py.forward."},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(fn, p, q, ys, top, split, max_iters, /)\n"
     "--\n\n"
     "fn_pq (\"sin\", \"cos\", \"sincos\" or \"sinh\") at every target of ys,\n"
     "each distinct target solved once from the cold start, with the GIL\n"
     "released: (values, failures), the values aligned with ys and one\n"
     "(index, status, iterations, estimate) per failed position.  See\n"
     "pqtrig._dequad_py.solve."},
    {"means", (PyCFunction)(void (*)(void))means, METH_FASTCALL,
     "means(order, a, b, /)\n--\n\n"
     "The Hölder mean of order `order` (0: geometric) of each pair of the\n"
     "columns a and b.  See pqtrig._dequad_py.means."},
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
                      || PyModule_AddIntConstant(m, "OVERFLOW", OVERFLOW) < 0
                      || PyModule_AddIntConstant(m, "DOMAIN", DOMAIN) < 0))
        Py_CLEAR(m);
    return m;
}
