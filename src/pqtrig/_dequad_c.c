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
 * converged).  ``solve`` runs a whole inverse solve, every forward
 * quadrature included, with the GIL released; it follows
 * ``_dequad_py.solve`` operation for operation, so both backends take the
 * same steps.  Build it as a plain extension (``setup.py``) or by hand:
 *
 *     cc -O3 -fPIC -shared -I<python include dir> _dequad_c.c -o _dequad_c<EXT_SUFFIX> -lm
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define PI_HALF 1.5707963267948966
#define LN_HALF (-0.6931471805599453)
#define LN_2PI 1.8378770664093453 /* ln(2 pi), the constant of ln(w) */
#define LN_TINY (-40.0) /* below this ln r, ln(1 - (1 - r)**q) = ln(q r) */
#define EPS 2.220446049250313e-16
#define TAU_MAX 6.9
#define MAX_LEVEL 16 /* deeper levels are clamped, as in _nodes.run_levels */

enum mode { ARCSIN, ARCSINH, MSTAR, TOP };

/* one node of a level: the du/dtau weight, ln(omu/2), ln(1 - omu/2) and
 * ln(w), where omu = 1 - tanh((pi/2) sinh(tau)) is formed without
 * cancellation and ln(w) from its closed form */
typedef struct {
    double w, ln_lo, ln_hi, ln_w;
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
        buf[n].ln_w = LN_2PI + log(cosh(tau)) - 2.0 * s - 2.0 * log1p(e2);
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

/* ln(1 - (1 - r)**q) at r = e**lnr; for tiny r it is ln(q r) */
static inline double
top_lng(double q, double lnq, double lnr)
{
    double r;

    if (lnr < LN_TINY)
        return lnq + lnr;
    r = exp(lnr);
    if (r >= 1.0)
        return 0.0;
    return log(-expm1(q * log1p(-r)));
}

/* what the integrand of one call depends on; lnx is ln d for TOP, whose
 * terms carry the half-width in lnh */
typedef struct {
    enum mode mode;
    double alpha, q, lnx, lnq, lnh;
} integrand;

/* integrand sum over the two symmetric nodes of one |tau| */
static inline double
pair(const integrand *f, const node *nd)
{
    double alpha = f->alpha, q = f->q, lnx = f->lnx, gp, gm, lng;

    if (f->mode == ARCSIN) {
        /* t = x*(1 - omu/2) on the + side, t = x*omu/2 on the - side */
        gp = pow(-expm1(q * (lnx + nd->ln_hi)), alpha);
        gm = pow(-expm1(q * (lnx + nd->ln_lo)), alpha);
    }
    else if (f->mode == ARCSINH) {
        gp = exp(alpha * softplus(q * (lnx + nd->ln_hi)));
        gm = exp(alpha * softplus(q * (lnx + nd->ln_lo)));
    }
    else if (f->mode == TOP) {
        /* offsets r = 1 - t from the singular end; weight, half-width
         * and integrand are joined in log space */
        return exp(nd->ln_w + f->lnh + alpha * top_lng(q, f->lnq, lnx + nd->ln_hi))
               + exp(nd->ln_w + f->lnh + alpha * top_lng(q, f->lnq, lnx + nd->ln_lo));
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
centre(const integrand *f)
{
    double g, alpha = f->alpha, q = f->q, lnx = f->lnx;

    if (f->mode == ARCSIN)
        g = pow(-expm1(q * (lnx + LN_HALF)), alpha);
    else if (f->mode == ARCSINH)
        g = exp(alpha * softplus(q * (lnx + LN_HALF)));
    else if (f->mode == TOP)
        g = exp(f->lnh + alpha * top_lng(q, f->lnq, f->lnh));
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
    integrand f;
    double half, raw_tol, raw, c, h = 1.0, value, new_value;
    int small;
    Py_ssize_t i;
    int level;

    if (mode != MSTAR && x == 0.0)
        return r;
    f.mode = mode;
    f.alpha = -1.0 / p;
    f.q = q;
    f.lnx = mode == MSTAR ? 0.0 : log(x);
    f.lnq = mode == TOP ? log(q) : 0.0;
    f.lnh = f.lnx + LN_HALF;
    half = mode == TOP ? 1.0 : mode == MSTAR ? 0.5 : 0.5 * x; /* TOP terms carry it */
    raw_tol = tol / half;

    raw = centre(&f);
    r.evals = 1;
    for (i = 0; i < table_len[0]; i++) {
        c = pair(&f, &tables[0][i]);
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
            c = pair(&f, &tables[level][i]);
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

/* Shared entry point: parse (p, q[, x], tol=1e-12, max_levels=12,
 * max_evals=1000000) positionally, run the kernel, build the tuple. */
static PyObject *
run(enum mode mode, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t nfixed = mode == MSTAR ? 2 : 3, i, slot;
    double d[4] = {0.0, 0.0, 1.0, 1e-12}; /* p, q, x, tol */
    long n[2] = {12, 1000000};            /* max_levels, max_evals */
    int levels;
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

static PyObject *
mstar_quad(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run(MSTAR, "mstar_quad", args, nargs);
}

static PyObject *
arcsin_top_quad(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run(TOP, "arcsin_top_quad", args, nargs);
}

/* ---- inverse solves: the twin of _dequad_py.solve ---- */

enum solve_mode { SIN, COS, SINH };
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

/* runs without the GIL; the tables up to `levels` are built */
static solution
solve_run(enum solve_mode mode, double p, double q, double y, double top, double tol,
          long max_iters, double qtol, int levels, long max_evals)
{
    solution out = {0.0, 0, 0, SOLVED};
    double rest = top - y, lo = 0.0, hi = 1.0, s, w = 0.0, u, sq = 0.0, vp = 0.0;
    double resid, s_new, z, a, lns, g, t;
    int upper = 0;
    long it;
    result r;

    if (mode == SINH) {
        hi = INFINITY;
        s = y;
    }
    else {
        /* start from models of arcsin_pq, as in _dequad_py.solve */
        w = rest * (p - 1.0) / p * q;
        u = w < 1.0 ? pow(w, p / (p - 1.0)) : 1.0;
        if (u <= 0.5)
            s = mode == SIN ? exp(log1p(-u) / q) : pow(w, 1.0 / (p - 1.0));
        else {
            s = y - pow(y, q + 1.0) / (p * (q + 1.0));
            t = u < 1.0 ? exp(log1p(-u) / q) : 0.0;
            s = t > s ? t : s;
            t = pow(0.5, 1.0 / q);
            s = t < s ? t : s;
            if (mode == COS)
                s = exp(log1p(-pow(s, q)) / p);
        }
    }
    for (it = 1; it <= max_iters; it++) {
        /* the residual F(s) - y; `upper` marks the top-of-branch form */
        if (mode == SIN) {
            sq = pow(s, q);
            upper = sq >= 0.5;
            if (upper) {
                r = pq_quad(TOP, p, q, 1.0 - s, qtol, levels, max_evals);
                resid = rest - r.value;
            }
            else {
                r = pq_quad(ARCSIN, p, q, s, qtol, levels, max_evals);
                resid = r.value - y;
            }
        }
        else if (mode == COS) {
            vp = pow(s, p);
            upper = vp <= 0.5;
            if (upper) {
                /* 1 - (1 - v**p)**(1/q), which does not round to 0 for tiny v */
                r = pq_quad(TOP, p, q, -expm1(log1p(-vp) / q), qtol, levels, max_evals);
                resid = rest - r.value;
            }
            else {
                w = pow(-expm1(p * log(s)), 1.0 / q);
                r = pq_quad(ARCSIN, p, q, w, qtol, levels, max_evals);
                resid = r.value - y;
            }
        }
        else {
            r = pq_quad(ARCSINH, p, q, s, qtol, levels, max_evals);
            resid = r.value - y;
        }
        out.evals += r.evals;
        out.iterations = it;
        out.root = s;
        if (!r.converged) {
            out.status = UNCONVERGED;
            return out;
        }
        if (fabs(resid) <= tol)
            return out;
        if (mode == COS ? resid > 0.0 : resid < 0.0)
            lo = s;
        else
            hi = s;
        if (hi < INFINITY && hi - lo <= 2.0 * ulp(hi)) {
            out.root = 0.5 * (lo + hi);
            return out;
        }

        /* the Newton step; nan where its variable leaves its range */
        s_new = NAN;
        if (mode == SIN && upper) {
            /* dF/dw = -p / ((p - 1) q s**(q - 1)) */
            w = pow(-expm1(q * log(s)), 1.0 - 1.0 / p);
            w += resid * (p - 1.0) / p * q * pow(s, q - 1.0);
            if (0.0 < w && w < 1.0)
                s_new = exp(log1p(-pow(w, p / (p - 1.0))) / q);
        }
        else if (mode == SIN)
            s_new = s - resid * pow(1.0 - sq, 1.0 / p);
        else if (mode == COS && upper) {
            /* dF/dz = -p / (q (p - 1)) (1 - v**p)**(1/q - 1) */
            z = pow(s, p - 1.0);
            z += resid * q * (p - 1.0) / p * pow(1.0 - vp, 1.0 - 1.0 / q);
            if (0.0 < z && z < 1.0)
                s_new = pow(z, 1.0 / (p - 1.0));
        }
        else if (mode == COS) {
            /* dF/dw = 1 / v */
            w -= resid * s;
            if (0.0 <= w && w < 1.0)
                s_new = exp(log1p(-pow(w, q)) / p);
        }
        else if (s <= 1.0)
            /* dF/ds = (1 + s**q)**(-1/p) */
            s_new = s - resid * exp(log1p(pow(s, q)) / p);
        else {
            /* in x = s**a, a = 1 - q/p: dF/dx = (1 + s**-q)**(-1/p) / a */
            a = 1.0 - q / p;
            lns = log(s);
            g = resid * exp(softplus(-q * lns) / p);
            if (a == 0.0)
                s_new = s * exp(-g);
            else {
                g *= a * exp(-a * lns); /* the relative step in x */
                if (g < 1.0)
                    s_new = s * exp(log1p(-g) / a);
            }
        }
        if (!(lo < s_new && s_new < hi))
            s_new = hi < INFINITY ? 0.5 * (lo + hi) : 2.0 * lo;
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
    static const char *names[] = {"sin", "cos", "sinh"};
    double d[6] = {0.0, 0.0, 0.0, 0.0, 0.0, 1e-12}; /* p, q, y, top, tol, qtol */
    long n[3] = {0, 12, 1000000};                  /* max_iters, max_levels, max_evals */
    int mode = -1, levels;
    Py_ssize_t i;
    solution r;

    if (nargs < 7 || nargs > 10) {
        PyErr_Format(PyExc_TypeError, "solve() takes from 7 to 10 positional arguments (%zd given)",
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
    /* positions 1-5 and 7 are floats, 6, 8 and 9 integers */
    for (i = 1; i < nargs; i++) {
        if (i <= 5)
            d[i - 1] = PyFloat_AsDouble(args[i]);
        else if (i == 7)
            d[5] = PyFloat_AsDouble(args[i]);
        else
            n[i == 6 ? 0 : i - 7] = PyLong_AsLong(args[i]);
        if (PyErr_Occurred())
            return NULL;
    }
    if ((levels = prepare_levels(n[1])) < 0)
        return NULL;

    Py_BEGIN_ALLOW_THREADS
    r = solve_run((enum solve_mode)mode, d[0], d[1], d[2], d[3], d[4], n[0], d[5], levels, n[2]);
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(dlli)", r.root, r.iterations, r.evals, (int)r.status);
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
    {"arcsin_top_quad", (PyCFunction)(void (*)(void))arcsin_top_quad, METH_FASTCALL,
     "arcsin_top_quad(p, q, d, tol=1e-12, max_levels=12, max_evals=1000000, /)\n--\n\n"
     "Integral of (1 - t**q)**(-1/p) over [1 - d, 1], 0 <= d <= 1."},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(mode, p, q, y, top, tol, max_iters, qtol=1e-12, max_levels=12, max_evals=1000000, /)\n"
     "--\n\n"
     "Bracketed Newton solve of one inverse; returns (root, iterations,\n"
     "evaluations, status).  See pqtrig._dequad_py.solve."},
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
