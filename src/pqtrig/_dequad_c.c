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
 * converged).  There are two, one per defining integral over [0, x].
 * ``solve`` runs the inverse solves of a whole list of targets, every
 * forward value included, with the GIL released; it follows
 * ``_dequad_py.solve`` operation for operation, so both backends take the
 * same steps.  Within one call each forward value after the first full
 * tanh-sinh quadrature continues from the last one (the anchor) by a
 * G7/K15 Gauss-Kronrod step over [min(s, s_a), max(s, s_a)], 15
 * evaluations, where |s - s_a| <= min(s, s_a)/2 (and, for sin,
 * |s - s_a| <= (1 - max(s, s_a))/2), |K15 - G7| <= qtol/100 and the
 * chain's summed estimates stay within qtol; otherwise a full quadrature
 * becomes the new anchor, unless it is a sinh quadrature over [0, s] with
 * s > 1e4, which anchors nothing.  On the lab's sweep-c rounds this takes
 * a round's solves from 210,960 integrand evaluations to 35,078 (see
 * _dequad_py.solve).  Build it as a plain extension (``setup.py``) or by
 * hand:
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
/* solve_list extrapolates the cubic through two roots no farther than this
 * many times their spacing, as _dequad_py.solve does */
#define HERMITE_REACH 16.0
/* solve_run replaces a full forward quadrature by a K15 step from the anchor
 * that spans at most STEP_REACH of its distance from t = 0 (and, for sin,
 * from t = 1) and whose error estimate is at most qtol / STEP_TOL, as
 * _dequad_py._solve_one does */
#define STEP_REACH 0.5
#define STEP_TOL 100.0
/* a full sinh quadrature over [0, s] anchors steps only up to s =
 * DIRECT_REACH, where it stays within its tolerance (see _dequad_py) */
#define DIRECT_REACH 1e4

enum mode { ARCSIN, ARCSINH };

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

/* the integrand at t = e**lnt: (1 - t**q)**alpha or (1 + t**q)**alpha */
static inline double
integrand(enum mode mode, double alpha, double q, double lnt)
{
    if (mode == ARCSIN)
        return pow(-expm1(q * lnt), alpha);
    return exp(alpha * softplus(q * lnt));
}

/* integrand sum over the two symmetric nodes of one |tau|: t = x*(1 - omu/2)
 * on the + side, t = x*omu/2 on the - side */
static inline double
pair(enum mode mode, double alpha, double q, double lnx, const node *nd)
{
    return nd->w * (integrand(mode, alpha, q, lnx + nd->ln_hi)
                    + integrand(mode, alpha, q, lnx + nd->ln_lo));
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
    double alpha = -1.0 / p, lnx, half, raw_tol, raw, c, h = 1.0, value, new_value;
    int small;
    Py_ssize_t i;
    int level;

    if (x == 0.0)
        return r;
    lnx = log(x);
    half = 0.5 * x;
    raw_tol = tol / half;

    raw = PI_HALF * integrand(mode, alpha, q, lnx + LN_HALF);
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

/* Clamp max_levels as _nodes.run_levels does and build the node tables
 * up to it; needs the GIL.  Returns the clamped level, or -1 on error. */
static int
prepare_levels(long max_levels)
{
    int levels = max_levels > MAX_LEVEL ? MAX_LEVEL : max_levels < 0 ? 0 : (int)max_levels;
    int level;

    for (level = 0; level <= levels; level++)
        if (tables[level] == NULL && build_table(level) < 0)
            return -1;
    return levels;
}

/* Shared entry point: parse (p, q, x, tol=1e-12, max_levels=12,
 * max_evals=1000000) positionally, run the kernel, build the tuple. */
static PyObject *
run(enum mode mode, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    double d[4] = {0.0, 0.0, 0.0, 1e-12}; /* p, q, x, tol */
    long n[2] = {12, 1000000};            /* max_levels, max_evals */
    Py_ssize_t i;
    int levels;
    result r;
    PyObject *out;

    if (nargs < 3 || nargs > 6) {
        PyErr_Format(PyExc_TypeError, "%s() takes from 3 to 6 positional arguments (%zd given)",
                     name, nargs);
        return NULL;
    }
    for (i = 0; i < nargs; i++) {
        if (i < 4)
            d[i] = PyFloat_AsDouble(args[i]);
        else
            n[i - 4] = PyLong_AsLong(args[i]);
        if (PyErr_Occurred())
            return NULL;
    }
    if ((levels = prepare_levels(n[0])) < 0)
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

/* ---- inverse solves: the twin of _dequad_py.solve ---- */

/* The Gauss-Kronrod G7/K15 rule of QUADPACK's qk15 on [-1, 1], as in
 * _dequad_py: the Kronrod abscissae from the outermost in (the odd ones are
 * the Gauss abscissae, the last is the centre), the K15 weights, and the G7
 * weights of the odd abscissae and the centre. */
static const double XK[8] = {
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
};
static const double WK[8] = {
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
};
static const double WG[4] = {
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
};

/* K15 of the integrand of `mode` over [a, b], 0 < a <= b, with its error
 * estimate |K15 - G7| in *err, summed as _dequad_py._k15 sums them */
static double
k15(enum mode mode, double p, double q, double a, double b, double *err)
{
    double alpha = -1.0 / p, h = 0.5 * (b - a), c = a + h, fc, k, g, dx, f;
    int i;

    fc = integrand(mode, alpha, q, log(c));
    k = WK[7] * fc;
    g = WG[3] * fc;
    for (i = 0; i < 7; i++) {
        dx = h * XK[i];
        f = integrand(mode, alpha, q, log(c - dx)) + integrand(mode, alpha, q, log(c + dx));
        k += WK[i] * f;
        if (i & 1)
            g += WG[i >> 1] * f;
    }
    *err = fabs(k - g) * h;
    return k * h;
}

enum solve_mode { SIN, SINH };
enum status { SOLVED, BUDGET, UNCONVERGED, OVERFLOW };

typedef struct {
    double root;
    long iterations, evals;
    enum status status;
} solution;

/* math.ulp of a finite double */
static double
ulp(double x)
{
    double up = nextafter(x, INFINITY);

    return isinf(up) ? x - nextafter(x, -INFINITY) : up - x;
}

/* The forward value last computed in a solve_list call, at s: F(s) = v, or
 * top + v in the tail form, with the error estimates of its chain added up
 * in err; `set` is 0 before the first full quadrature. */
typedef struct {
    double s, v, err;
    int tail, set;
} anchor;

/* runs without the GIL; the tables up to `levels` are built.  A finite
 * `start` replaces the cold start (see solve_list). */
static solution
solve_run(enum solve_mode mode, double p, double q, double y, double top, double tol,
          long max_iters, double qtol, int levels, long max_evals, double start, anchor *an)
{
    solution out = {0.0, 0, 0, SOLVED};
    double rest = top - y, g = (q - p) / p, lo = 0.0, hi = 1.0, s, mid;
    double resid, s_new, a, b, lns, g_step, inc, e;
    int stepped, tail;
    long it;
    result r;

    if (mode == SINH) {
        hi = INFINITY;
        s = y;
    }
    else {
        /* start from the two-term series, as in _dequad_py.solve */
        s = y - pow(y, q + 1.0) / (p * (q + 1.0));
        mid = pow(0.5, 1.0 / q);
        if (!(0.0 < s && s < mid))
            s = mid;
    }
    if (!isnan(start))
        s = start;
    for (it = 1; it <= max_iters; it++) {
        /* the residual F(s) - y: the anchor's v plus a K15 step where the
         * guard allows one, else a full quadrature, which becomes the anchor
         * where it is trusted */
        out.iterations = it;
        out.root = s;
        stepped = 0;
        if (an->set) {
            a = s < an->s ? s : an->s;
            b = s < an->s ? an->s : s;
            if (0.0 < a && b - a <= STEP_REACH * a
                && (mode == SINH || b - a <= STEP_REACH * (1.0 - b))) {
                inc = k15(mode == SIN ? ARCSIN : ARCSINH, p, q, a, b, &e);
                out.evals += 15;
                stepped = e <= qtol / STEP_TOL && an->err + e <= qtol;
                if (stepped) {
                    an->v = s > an->s ? an->v + inc : an->v - inc;
                    an->s = s;
                    an->err += e;
                }
            }
        }
        if (!stepped) {
            tail = mode == SINH && top < INFINITY && s > 1.0 && pow(s, -g) <= 0.5;
            if (mode == SIN)
                r = pq_quad(ARCSIN, p, q, s, qtol, levels, max_evals);
            else if (tail) {
                r = pq_quad(ARCSINH, p, q / g, pow(s, -g), qtol * (g < 1.0 ? g : 1.0), levels,
                            max_evals);
                r.value = -(r.value / g);
                r.err /= g;
            }
            else
                r = pq_quad(ARCSINH, p, q, s, qtol, levels, max_evals);
            out.evals += r.evals;
            if (!r.converged) {
                out.status = UNCONVERGED;
                return out;
            }
            an->s = s;
            an->v = r.value;
            an->err = r.err;
            an->tail = tail;
            an->set = mode == SIN || tail || s <= DIRECT_REACH;
        }
        resid = an->tail ? rest + an->v : an->v - y;
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

/* ds/dy at a root s: (1 - s**q)**(1/p) for sin, (1 + s**q)**(1/p) for sinh */
static double
slope(enum solve_mode mode, double p, double q, double s)
{
    if (mode == SIN)
        return pow(1.0 - pow(s, q), 1.0 / p);
    return exp(softplus(q * log(s)) / p);
}

/* Solve every target of the ascending list ys[0..n), warm-starting each
 * from the targets solved before it, as _dequad_py.solve does; runs
 * without the GIL. */
static void
solve_list(enum solve_mode mode, double p, double q, const double *ys, Py_ssize_t n,
           double top, double tol, long max_iters, double qtol, int levels, long max_evals,
           solution *out)
{
    double ya = 0.0, sa = 0.0, da = 0.0, yb = 0.0, sb = 0.0, db = 0.0;
    double start, u, h, m, c2, c3;
    int known = 0; /* SOLVED targets so far, up to two: (ya, sa, da) and (yb, sb, db) */
    anchor an = {0.0, 0.0, 0.0, 0, 0};
    Py_ssize_t i;

    for (i = 0; i < n; i++) {
        start = NAN;
        if (known > 0) {
            u = ys[i] - yb;
            h = yb - ya;
            if (known == 1 || u > HERMITE_REACH * h)
                start = sb + u * db;
            else {
                /* the cubic Hermite extrapolation through the last two roots */
                m = (sb - sa) / h;
                c2 = (da + 2.0 * db - 3.0 * m) / h;
                c3 = (da + db - 2.0 * m) / h / h;
                start = sb + u * (db + u * (c2 + u * c3));
            }
            if (!(sb < start && start < INFINITY) || (mode == SIN && start >= 1.0))
                start = NAN;
        }
        out[i] = solve_run(mode, p, q, ys[i], top, tol, max_iters, qtol, levels, max_evals,
                           start, &an);
        if (out[i].status == SOLVED) {
            ya = yb;
            sa = sb;
            da = db;
            yb = ys[i];
            sb = out[i].root;
            db = slope(mode, p, q, sb);
            if (known < 2)
                known++;
        }
    }
}

static PyObject *
solve(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *names[] = {"sin", "sinh"};
    double d[5] = {0.0, 0.0, 0.0, 0.0, 1e-12}; /* p, q, top, tol, qtol */
    long n[3] = {0, 12, 1000000};              /* max_iters, max_levels, max_evals */
    int mode = -1, levels;
    Py_ssize_t i, count;
    PyObject *seq, *list = NULL, *item;
    double *ys = NULL;
    solution *sols = NULL;

    if (nargs < 7 || nargs > 10) {
        PyErr_Format(PyExc_TypeError, "solve() takes from 7 to 10 positional arguments (%zd given)",
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
    /* positions 1, 2, 4, 5 and 7 are floats, 3 the targets, 6, 8 and 9 integers */
    for (i = 1; i < nargs; i++) {
        if (i == 1 || i == 2)
            d[i - 1] = PyFloat_AsDouble(args[i]);
        else if (i == 4 || i == 5)
            d[i - 2] = PyFloat_AsDouble(args[i]);
        else if (i == 7)
            d[4] = PyFloat_AsDouble(args[i]);
        else if (i != 3)
            n[i == 6 ? 0 : i - 7] = PyLong_AsLong(args[i]);
        if (PyErr_Occurred())
            return NULL;
    }
    if ((levels = prepare_levels(n[1])) < 0)
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
        if (i > 0 && !(ys[i] > ys[i - 1])) {
            PyErr_SetString(PyExc_ValueError, "solve() targets must be strictly ascending");
            goto done;
        }
    }

    Py_BEGIN_ALLOW_THREADS
    solve_list((enum solve_mode)mode, d[0], d[1], ys, count, d[2], d[3], n[0], d[4], levels,
               n[2], sols);
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
        PyTuple_SET_ITEM(item, 2, PyLong_FromLong(sols[i].evals));
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
    {"arcsin_quad", (PyCFunction)(void (*)(void))arcsin_quad, METH_FASTCALL,
     "arcsin_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000, /)\n--\n\n"
     "Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1."},
    {"arcsinh_quad", (PyCFunction)(void (*)(void))arcsinh_quad, METH_FASTCALL,
     "arcsinh_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000, /)\n--\n\n"
     "Integral of (1 + t**q)**(-1/p) over [0, x], x >= 0."},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(mode, p, q, ys, top, tol, max_iters, qtol=1e-12, max_levels=12, max_evals=1000000, /)\n"
     "--\n\n"
     "Bracketed Newton solves of one inverse at the strictly ascending\n"
     "targets ys, each warm-started from the roots before it; returns one\n"
     "(root, iterations, evaluations, status) per target.  See\n"
     "pqtrig._dequad_py.solve."},
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

    if (m != NULL && (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
                      || PyModule_AddIntConstant(m, "SOLVED", SOLVED) < 0
                      || PyModule_AddIntConstant(m, "BUDGET", BUDGET) < 0
                      || PyModule_AddIntConstant(m, "UNCONVERGED", UNCONVERGED) < 0
                      || PyModule_AddIntConstant(m, "OVERFLOW", OVERFLOW) < 0))
        Py_CLEAR(m);
    return m;
}
