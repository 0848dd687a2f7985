/* Compiled kernels of topicforge, loaded through ctypes by kernels.py.
 *
 * Built with gcc -O2 -shared -fPIC -ffp-contract=off: no fused multiply-add
 * and no fast-math, so every + - * / rounds once as IEEE double arithmetic
 * does, whatever the CPU's vector width.  No libm function is called: the
 * powers come from an exp and a log made of those operations and exact
 * exponent-bit scaling, so the bytes do not depend on which variant of
 * libm's pow the C library picks for the CPU.  The numpy twins in
 * tests/test_reduction.py repeat every operation below and must give equal
 * bits.
 */
#include <math.h> /* INFINITY and NAN only; no libm function is called */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TABLE_BITS 7
#define TABLE_SIZE (1 << TABLE_BITS)
/* Edges whose powers are computed in one pass, so the independent
 * exp/log evaluations overlap in the pipeline. */
#define CHUNK 256
#define GRAD_CLIP 4.0

/* ln 2 as a 32-bit head, whose multiples by |k| < 2^21 are exact, and the
 * rounded remainder (fdlibm's split). */
static const double LN2_HI = 0x1.62e42feep-1;
static const double LN2_LO = 0x1.a39ef35793c76p-33;
/* Adding then subtracting this rounds a double of magnitude below 2^35 to
 * a multiple of 2^-16. */
static const double ROUND_2M16 = 0x1.8p36;
/* Adding then subtracting this rounds to an integer. */
static const double ROUND_INT = 0x1.8p52;

static double log_c[TABLE_SIZE];      /* c_j = 1 + (j + 1/2) / 128 */
static double log_inv_c[TABLE_SIZE];  /* 1 / c_j */
static double log_c_hi[TABLE_SIZE];   /* log c_j rounded to a multiple of 2^-16 */
static double log_c_lo[TABLE_SIZE];   /* log c_j minus log_c_hi */
static double exp_t[TABLE_SIZE];      /* 2^(j / 128) */
static double ln2_hi16, ln2_lo16, inv_ln2_n;

static inline uint64_t as_bits(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

static inline double from_bits(uint64_t u)
{
    double x;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* 2^e for -1022 <= e <= 1023. */
static inline double pow2i(int64_t e)
{
    return from_bits((uint64_t)(e + 1023) << 52);
}

/* log x for x in [1, 2) by the atanh series; slow, used only for tables. */
static double series_log(double x)
{
    double s = (x - 1.0) / (x + 1.0);
    double s2 = s * s;
    double t = 1.0 / 41.0;
    for (int i = 19; i >= 0; i--)
        t = 1.0 / (2 * i + 1) + s2 * t;
    return 2.0 * s * t;
}

/* exp v for v in [0, ln 2) by the Taylor series; slow, used only for tables. */
static double series_exp(double v)
{
    double t = 1.0;
    for (int i = 24; i >= 1; i--)
        t = 1.0 + v * t / i;
    return t;
}

static double round_2m16(double x)
{
    return (x + ROUND_2M16) - ROUND_2M16;
}

__attribute__((constructor)) static void build_tables(void)
{
    for (int j = 0; j < TABLE_SIZE; j++) {
        double c = 1.0 + (j + 0.5) / TABLE_SIZE;
        double l = series_log(c);
        log_c[j] = c;
        log_inv_c[j] = 1.0 / c;
        log_c_hi[j] = round_2m16(l);
        log_c_lo[j] = l - log_c_hi[j];
        exp_t[j] = series_exp((j * LN2_HI + j * LN2_LO) / TABLE_SIZE);
    }
    ln2_hi16 = round_2m16(LN2_HI);
    ln2_lo16 = (LN2_HI - ln2_hi16) + LN2_LO;
    inv_ln2_n = TABLE_SIZE / (LN2_HI + LN2_LO);
}

/* log x = *hi + *lo for finite x > 0.  *hi is a multiple of 2^-16 below
 * 2^10 in magnitude, so it has at most 26 significant bits. */
static inline void log_parts(double x, double *hi, double *lo)
{
    uint64_t u = as_bits(x);
    int64_t k = 0;
    if (u < (UINT64_C(1) << 52)) { /* subnormal: scale up exactly */
        u = as_bits(x * 0x1p52);
        k = -52;
    }
    k += (int64_t)(u >> 52) - 1023;
    int j = (int)(u >> (52 - TABLE_BITS)) & (TABLE_SIZE - 1);
    double m = from_bits((u & ((UINT64_C(1) << 52) - 1)) | (UINT64_C(1023) << 52));
    double r = (m - log_c[j]) * log_inv_c[j];
    double q = r * r * (-0.5 + r * (1.0 / 3 + r * (-0.25 + r * (0.2 + r * (-1.0 / 6)))));
    *hi = k * ln2_hi16 + log_c_hi[j];
    *lo = (k * ln2_lo16 + log_c_lo[j]) + (r + q);
}

/* exp(y_hi + y_lo), with |y_lo| small against 1. */
static inline double exp_parts(double y_hi, double y_lo)
{
    double y = y_hi + y_lo;
    if (!(y < 710.0))
        return y > 0.0 ? INFINITY : y; /* overflow, or NaN */
    if (y < -746.0)
        return 0.0;
    double kd = (y * inv_ln2_n + ROUND_INT) - ROUND_INT;
    int64_t ki = (int64_t)kd;
    double r = (y_hi - kd * (LN2_HI / TABLE_SIZE)) + (y_lo - kd * (LN2_LO / TABLE_SIZE));
    double q = r + r * r * (0.5 + r * (1.0 / 6 + r * (1.0 / 24 + r * (1.0 / 120))));
    double t = exp_t[ki & (TABLE_SIZE - 1)];
    double v = t + t * q;
    int64_t e = ki >> TABLE_BITS;
    if (e > 1023)
        return (v * 0x1p1023) * pow2i(e - 1023);
    if (e < -1022)
        return (v * pow2i(e + 1022)) * 0x1p-1022;
    return v * pow2i(e);
}

/* An exponent split for exact products with a log_parts head:
 * hi has at most 26 significant bits and hi + lo == e. */
typedef struct {
    double e, hi, lo;
} exponent;

static exponent split(double e)
{
    double c = 134217729.0 * e; /* 2^27 + 1 */
    exponent s = {e, c - (c - e), 0.0};
    s.lo = e - s.hi;
    return s;
}

/* x^e for x that is 0, infinite or NaN. */
static double special_power(double x, double e)
{
    if (x == 0.0 || x == INFINITY) {
        if (e == 0.0)
            return 1.0;
        return (e > 0.0) == (x == 0.0) ? 0.0 : INFINITY;
    }
    return NAN;
}

/* x^e = exp(e log x) from the parts of log x. */
static inline double power_from_log(double hi, double lo, exponent e)
{
    return exp_parts(e.hi * hi, e.lo * hi + e.e * lo);
}

static inline int finite_positive(double x)
{
    return x > 0.0 && x < INFINITY;
}

/* The logs of a batch, as log_parts heads and tails (0 where x is not
 * finite and positive).  Taking every log before any exp keeps the two
 * dependency chains of one power from serialising the batch. */
static void logs(const double *x, int64_t count, double *hi, double *lo)
{
    for (int64_t k = 0; k < count; k++) {
        if (finite_positive(x[k]))
            log_parts(x[k], hi + k, lo + k);
        else
            hi[k] = lo[k] = 0.0;
    }
}

/* out[k] = x[k]^e, given logs(x, ...) in hi and lo. */
static void powers(const double *x, int64_t count, exponent e,
                   const double *hi, const double *lo, double *out)
{
    for (int64_t k = 0; k < count; k++)
        out[k] = finite_positive(x[k]) ? power_from_log(hi[k], lo[k], e)
                                       : special_power(x[k], e.e);
}

void tf_power(const double *x, int64_t count, double e, double *out)
{
    double hi[CHUNK], lo[CHUNK];
    exponent s = split(e);
    for (int64_t c0 = 0; c0 < count; c0 += CHUNK) {
        int64_t cn = count - c0 < CHUNK ? count - c0 : CHUNK;
        logs(x + c0, cn, hi, lo);
        powers(x + c0, cn, s, hi, lo, out + c0);
    }
}

/* Negative sample i of a run: splitmix64 of the seed's (i+1)-th Weyl
 * step, mapped to [0, n) by a multiply-high exact for n < 2^32. */
static inline int64_t negative_sample(uint64_t seed, uint64_t i, uint64_t n)
{
    uint64_t z = seed + (i + 1) * UINT64_C(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)) * UINT64_C(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94d049bb133111eb);
    z ^= z >> 31;
    return (int64_t)(((z >> 32) * n + (((z & UINT64_C(0xffffffff)) * n) >> 32)) >> 32);
}

static inline double clip(double g)
{
    return g > GRAD_CLIP ? GRAD_CLIP : (g < -GRAD_CLIP ? -GRAD_CLIP : g);
}

static inline double squared_distance(const double *x, const double *y, int64_t dim)
{
    double d = x[0] - y[0];
    double r2 = d * d;
    for (int64_t c = 1; c < dim; c++) {
        d = x[c] - y[c];
        r2 += d * d;
    }
    return r2;
}

typedef struct {
    double *coords, *delta, *grad, *r2, *hi, *lo, *coeff, *push;
    int64_t *due, *samples;
    int64_t n, dim, nsr;
    double a, two_b, minus_two_ab;
    exponent b, b1;
    uint64_t seed, drawn;
} layout;

/* Clipped attraction of every due edge's head toward its tail, into grad. */
static void attract(layout *L, const int64_t *heads, const int64_t *tails, int64_t m)
{
    int64_t dim = L->dim;
    for (int64_t c0 = 0; c0 < m; c0 += CHUNK) {
        int64_t cn = m - c0 < CHUNK ? m - c0 : CHUNK;
        for (int64_t i = 0; i < cn; i++) {
            int64_t e = L->due[c0 + i];
            L->r2[i] = squared_distance(L->coords + heads[e] * dim, L->coords + tails[e] * dim, dim);
        }
        logs(L->r2, cn, L->hi, L->lo);
        powers(L->r2, cn, L->b1, L->hi, L->lo, L->coeff); /* r2^(b-1), for now */
        for (int64_t i = 0; i < cn; i++) {
            double x = L->r2[i], p1 = L->coeff[i];
            double p = finite_positive(x) ? power_from_log(L->hi[i], L->lo[i], L->b)
                                          : special_power(x, L->b.e);
            L->coeff[i] = x > 0.0 ? (L->minus_two_ab * p1) / (1.0 + L->a * p) : 0.0;
        }
        for (int64_t i = 0; i < cn; i++) {
            int64_t e = L->due[c0 + i];
            const double *xh = L->coords + heads[e] * dim, *xt = L->coords + tails[e] * dim;
            double *g = L->grad + (c0 + i) * dim;
            for (int64_t c = 0; c < dim; c++)
                g[c] = clip(L->coeff[i] * (xh[c] - xt[c]));
        }
    }
}

/* Push each due edge's anchor away from nsr sampled points, adding each
 * anchor's pushes in draw order to its delta. */
static void repel(layout *L, const int64_t *anchors, int64_t m)
{
    const int64_t dim = L->dim, nsr = L->nsr;
    const uint64_t seed = L->seed, n = (uint64_t)L->n;
    const double a = L->a, two_b = L->two_b, *coords = L->coords;
    double *r2 = L->r2, *coeff = L->coeff, *push = L->push, *delta = L->delta;
    int64_t *samples = L->samples;
    uint64_t drawn = L->drawn;
    for (int64_t c0 = 0; c0 < m; c0 += CHUNK) {
        int64_t cn = m - c0 < CHUNK ? m - c0 : CHUNK;
        for (int64_t i = 0; i < cn; i++) {
            const double *xa = coords + anchors[L->due[c0 + i]] * dim;
            for (int64_t s = 0; s < nsr; s++) {
                int64_t j = negative_sample(seed, drawn++, n);
                samples[i * nsr + s] = j;
                r2[i * nsr + s] = squared_distance(xa, coords + j * dim, dim);
            }
        }
        logs(r2, cn * nsr, L->hi, L->lo);
        powers(r2, cn * nsr, L->b, L->hi, L->lo, coeff);
        for (int64_t k = 0; k < cn * nsr; k++)
            coeff[k] = two_b / ((0.001 + r2[k]) * (1.0 + a * coeff[k]));
        for (int64_t i = 0; i < cn; i++) {
            int64_t p = anchors[L->due[c0 + i]];
            const double *xa = coords + p * dim;
            const int64_t *js = samples + i * nsr;
            const double *cs = coeff + i * nsr;
            /* One running sum per component, all components at once. */
            for (int64_t c = 0; c < dim; c++)
                push[c] = clip(cs[0] * (xa[c] - coords[js[0] * dim + c]));
            for (int64_t s = 1; s < nsr; s++) {
                const double *xj = coords + js[s] * dim;
                for (int64_t c = 0; c < dim; c++)
                    push[c] += clip(cs[s] * (xa[c] - xj[c]));
            }
            for (int64_t c = 0; c < dim; c++)
                delta[p * dim + c] += push[c];
        }
    }
    L->drawn = drawn;
}

/* Lay the graph out in place in coords (n x dim, row-major).
 *
 * Edge e is due once its next sample time wmax / w_e, advanced by that
 * much at each use, reaches the epoch.  Within an epoch every update is
 * computed from the epoch-start coordinates, and each point's delta adds
 * in the order: attractions as head, attractions as tail, pushes as head
 * anchor, pushes as tail anchor.  Then coords += lr * delta with
 * lr = 1 - epoch / epochs.  Returns 0, or -1 when memory runs out.
 */
int tf_optimize_layout(double *coords, int64_t n, int64_t dim,
                       const int64_t *heads, const int64_t *tails,
                       const double *weights, int64_t n_edges,
                       int64_t epochs, int64_t nsr, double a, double b,
                       uint64_t seed)
{
    if (n_edges <= 0)
        return 0;
    int64_t per_chunk = CHUNK * (nsr > 1 ? nsr : 1);
    layout L = {
        .coords = coords,
        .delta = malloc(n * dim * sizeof(double)),
        .grad = malloc(n_edges * dim * sizeof(double)),
        .r2 = malloc(per_chunk * sizeof(double)),
        .hi = malloc(per_chunk * sizeof(double)),
        .lo = malloc(per_chunk * sizeof(double)),
        .coeff = malloc(per_chunk * sizeof(double)),
        .due = malloc(n_edges * sizeof(int64_t)),
        .samples = malloc(per_chunk * sizeof(int64_t)),
        .push = malloc(dim * sizeof(double)),
        .n = n, .dim = dim, .nsr = nsr,
        .a = a, .two_b = 2.0 * b, .minus_two_ab = -2.0 * a * b,
        .b = split(b), .b1 = split(b - 1.0),
        .seed = seed, .drawn = 0,
    };
    double *step = malloc(n_edges * sizeof(double));
    double *next = malloc(n_edges * sizeof(double));
    int status = -1;
    if (!L.delta || !L.grad || !L.r2 || !L.hi || !L.lo || !L.coeff || !L.due
        || !L.samples || !L.push || !step || !next)
        goto done;
    double w_max = weights[0];
    for (int64_t e = 1; e < n_edges; e++)
        if (weights[e] > w_max)
            w_max = weights[e];
    for (int64_t e = 0; e < n_edges; e++)
        next[e] = step[e] = w_max / weights[e];
    for (int64_t epoch = 0; epoch < epochs; epoch++) {
        int64_t m = 0;
        for (int64_t e = 0; e < n_edges; e++)
            if (next[e] <= (double)epoch)
                L.due[m++] = e;
        if (m == 0)
            continue;
        double lr = 1.0 - (double)epoch / (double)epochs;
        memset(L.delta, 0, n * dim * sizeof(double));
        attract(&L, heads, tails, m);
        for (int64_t i = 0; i < m; i++)
            for (int64_t c = 0; c < dim; c++)
                L.delta[heads[L.due[i]] * dim + c] += L.grad[i * dim + c];
        for (int64_t i = 0; i < m; i++)
            for (int64_t c = 0; c < dim; c++)
                L.delta[tails[L.due[i]] * dim + c] += -L.grad[i * dim + c];
        if (nsr > 0) {
            repel(&L, heads, m);
            repel(&L, tails, m);
        }
        for (int64_t k = 0; k < n * dim; k++)
            coords[k] += lr * L.delta[k];
        for (int64_t i = 0; i < m; i++)
            next[L.due[i]] += step[L.due[i]];
    }
    status = 0;
done:
    free(L.delta);
    free(L.grad);
    free(L.r2);
    free(L.hi);
    free(L.lo);
    free(L.coeff);
    free(L.due);
    free(L.samples);
    free(L.push);
    free(step);
    free(next);
    return status;
}
