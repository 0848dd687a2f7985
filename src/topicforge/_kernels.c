/* Compiled kernels of topicforge, loaded through ctypes by kernels.py.
 *
 * Built with gcc -O2 -shared -fPIC -ffp-contract=off -pthread: no fused
 * multiply-add and no fast-math, so every + - * / rounds once as IEEE
 * double arithmetic does, whatever the CPU's vector width.  The one libm
 * call is sqrt, in the core distances and the spanning tree's distances,
 * which IEEE 754 requires to be correctly rounded, so it gives the same
 * bits on every CPU.  Both come from one KD-tree builder, and both sum
 * squared differences one coordinate at a time, so a core distance equals
 * the tree's distance to that neighbor bit for bit.  The layout's powers
 * come from an exp and a log made of + - * / and exact exponent-bit
 * scaling, so the bytes do not depend on which variant of libm's pow the
 * C library picks for the CPU.  The layout's threads write
 * disjoint rows that one thread adds up in a fixed order, so its bytes do
 * not depend on the thread count either.  The numpy twins in
 * tests/test_reduction.py repeat every operation of the layout and must
 * give equal bits, and the kNN's and the core distances must equal their
 * fixed-order dense oracles'.
 */
#include <math.h> /* sqrt, INFINITY and NAN */
#include <pthread.h>
#include <stdatomic.h>
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
    const double *coords;
    const int64_t *heads, *tails, *due;
    double *grad, *push_heads, *push_tails;
    int64_t n, dim, nsr, m;
    double a, two_b, minus_two_ab;
    exponent b, b1;
    uint64_t seed, drawn;
    atomic_int_fast64_t claimed; /* the next chunk's first position */
} layout;

/* One thread's view of the layout and its own per-chunk scratch. */
typedef struct {
    layout *L;
    double *r2, *hi, *lo, *coeff;
    int64_t *samples;
} worker;

/* Clipped attraction of the head of each due edge at positions
 * [c0, c0 + cn) toward its tail, into grad. */
static void attract(worker *W, int64_t c0, int64_t cn)
{
    const layout *L = W->L;
    const int64_t dim = L->dim, *heads = L->heads, *tails = L->tails, *due = L->due + c0;
    const double *coords = L->coords;
    for (int64_t i = 0; i < cn; i++)
        W->r2[i] = squared_distance(coords + heads[due[i]] * dim, coords + tails[due[i]] * dim, dim);
    logs(W->r2, cn, W->hi, W->lo);
    powers(W->r2, cn, L->b1, W->hi, W->lo, W->coeff); /* r2^(b-1), for now */
    for (int64_t i = 0; i < cn; i++) {
        double x = W->r2[i], p1 = W->coeff[i];
        double p = finite_positive(x) ? power_from_log(W->hi[i], W->lo[i], L->b)
                                      : special_power(x, L->b.e);
        W->coeff[i] = x > 0.0 ? (L->minus_two_ab * p1) / (1.0 + L->a * p) : 0.0;
    }
    for (int64_t i = 0; i < cn; i++) {
        const double *xh = coords + heads[due[i]] * dim, *xt = coords + tails[due[i]] * dim;
        double *g = L->grad + (c0 + i) * dim;
        for (int64_t c = 0; c < dim; c++)
            g[c] = clip(W->coeff[i] * (xh[c] - xt[c]));
    }
}

/* Push the anchor of each due edge at positions [c0, c0 + cn) away from
 * nsr sampled points, summing its pushes in draw order into push.  Sample
 * s of position i is draw first + i * nsr + s, whichever thread runs it. */
static void repel(worker *W, const int64_t *anchors, double *push, uint64_t first,
                  int64_t c0, int64_t cn)
{
    const layout *L = W->L;
    const int64_t dim = L->dim, nsr = L->nsr;
    const uint64_t seed = L->seed, n = (uint64_t)L->n;
    const double a = L->a, two_b = L->two_b, *coords = L->coords;
    double *r2 = W->r2, *coeff = W->coeff;
    int64_t *samples = W->samples;
    uint64_t drawn = first + (uint64_t)(c0 * nsr);
    for (int64_t i = 0; i < cn; i++) {
        const double *xa = coords + anchors[L->due[c0 + i]] * dim;
        for (int64_t s = 0; s < nsr; s++) {
            int64_t j = negative_sample(seed, drawn++, n);
            samples[i * nsr + s] = j;
            r2[i * nsr + s] = squared_distance(xa, coords + j * dim, dim);
        }
    }
    logs(r2, cn * nsr, W->hi, W->lo);
    powers(r2, cn * nsr, L->b, W->hi, W->lo, coeff);
    for (int64_t k = 0; k < cn * nsr; k++)
        coeff[k] = two_b / ((0.001 + r2[k]) * (1.0 + a * coeff[k]));
    for (int64_t i = 0; i < cn; i++) {
        const double *xa = coords + anchors[L->due[c0 + i]] * dim;
        const int64_t *js = samples + i * nsr;
        const double *cs = coeff + i * nsr;
        /* One running sum per component, all components at once. */
        double *p = push + (c0 + i) * dim;
        for (int64_t c = 0; c < dim; c++)
            p[c] = clip(cs[0] * (xa[c] - coords[js[0] * dim + c]));
        for (int64_t s = 1; s < nsr; s++) {
            const double *xj = coords + js[s] * dim;
            for (int64_t c = 0; c < dim; c++)
                p[c] += clip(cs[s] * (xa[c] - xj[c]));
        }
    }
}

/* Claim chunks of the due list until none is left, and compute each
 * chunk's attractions and pushes into its own rows. */
static void *run_chunks(void *arg)
{
    worker *W = arg;
    layout *L = W->L;
    const uint64_t tail_draws = L->drawn + (uint64_t)(L->m * L->nsr);
    for (;;) {
        int64_t c0 = atomic_fetch_add_explicit(&L->claimed, CHUNK, memory_order_relaxed);
        if (c0 >= L->m)
            return NULL;
        int64_t cn = L->m - c0 < CHUNK ? L->m - c0 : CHUNK;
        attract(W, c0, cn);
        if (L->nsr > 0) {
            repel(W, L->heads, L->push_heads, L->drawn, c0, cn);
            repel(W, L->tails, L->push_tails, tail_draws, c0, cn);
        }
    }
}

/* Lay the graph out in place in coords (n x dim, row-major).
 *
 * Edge e is due once its next sample time wmax / w_e, advanced by that
 * much at each use, reaches the epoch.  Within an epoch every update is
 * computed from the epoch-start coordinates, and each point's delta adds
 * in the order: attractions as head, attractions as tail, pushes as head
 * anchor, pushes as tail anchor.  Then coords += lr * delta with
 * lr = 1 - epoch / epochs.
 *
 * Up to `threads` threads, this one included, claim CHUNK-edge chunks of
 * an epoch's due list and write each edge's attraction and summed pushes
 * to rows of their own; this thread then adds the rows into delta in the
 * order above.  The draws are numbered by position in the due list, so
 * the bytes do not depend on the thread count, and a thread that cannot
 * be started leaves its chunks to the others.  Returns 0, or -1 when
 * memory runs out.
 */
int tf_optimize_layout(double *coords, int64_t n, int64_t dim,
                       const int64_t *heads, const int64_t *tails,
                       const double *weights, int64_t n_edges,
                       int64_t epochs, int64_t nsr, double a, double b,
                       uint64_t seed, int64_t threads)
{
    if (n_edges <= 0)
        return 0;
    int64_t per_chunk = CHUNK * (nsr > 1 ? nsr : 1);
    int64_t max_chunks = (n_edges + CHUNK - 1) / CHUNK;
    int64_t n_workers = threads < 1 ? 1 : (threads < max_chunks ? threads : max_chunks);
    int64_t *due = malloc(n_edges * sizeof(int64_t));
    layout L = {
        .coords = coords, .heads = heads, .tails = tails, .due = due,
        .grad = malloc(n_edges * dim * sizeof(double)),
        .push_heads = malloc(n_edges * dim * sizeof(double)),
        .push_tails = malloc(n_edges * dim * sizeof(double)),
        .n = n, .dim = dim, .nsr = nsr,
        .a = a, .two_b = 2.0 * b, .minus_two_ab = -2.0 * a * b,
        .b = split(b), .b1 = split(b - 1.0),
        .seed = seed, .drawn = 0,
    };
    double *delta = malloc(n * dim * sizeof(double));
    double *step = malloc(n_edges * sizeof(double));
    double *next = malloc(n_edges * sizeof(double));
    worker *workers = calloc(n_workers, sizeof(worker));
    pthread_t *ids = malloc(n_workers * sizeof(pthread_t));
    int status = -1;
    if (!due || !L.grad || !L.push_heads || !L.push_tails || !delta || !step
        || !next || !workers || !ids)
        goto done;
    for (int64_t t = 0; t < n_workers; t++) {
        worker *W = workers + t;
        W->L = &L;
        W->r2 = malloc(per_chunk * sizeof(double));
        W->hi = malloc(per_chunk * sizeof(double));
        W->lo = malloc(per_chunk * sizeof(double));
        W->coeff = malloc(per_chunk * sizeof(double));
        W->samples = malloc(per_chunk * sizeof(int64_t));
        if (!W->r2 || !W->hi || !W->lo || !W->coeff || !W->samples)
            goto done;
    }
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
                due[m++] = e;
        if (m == 0)
            continue;
        double lr = 1.0 - (double)epoch / (double)epochs;
        L.m = m;
        atomic_store_explicit(&L.claimed, 0, memory_order_relaxed);
        int64_t chunks = (m + CHUNK - 1) / CHUNK;
        int64_t started = 1;
        while (started < (n_workers < chunks ? n_workers : chunks)
               && pthread_create(ids + started, NULL, run_chunks, workers + started) == 0)
            started++;
        run_chunks(workers);
        for (int64_t t = 1; t < started; t++)
            pthread_join(ids[t], NULL);
        memset(delta, 0, n * dim * sizeof(double));
        for (int64_t i = 0; i < m; i++)
            for (int64_t c = 0; c < dim; c++)
                delta[heads[due[i]] * dim + c] += L.grad[i * dim + c];
        for (int64_t i = 0; i < m; i++)
            for (int64_t c = 0; c < dim; c++)
                delta[tails[due[i]] * dim + c] += -L.grad[i * dim + c];
        if (nsr > 0) {
            for (int64_t i = 0; i < m; i++)
                for (int64_t c = 0; c < dim; c++)
                    delta[heads[due[i]] * dim + c] += L.push_heads[i * dim + c];
            for (int64_t i = 0; i < m; i++)
                for (int64_t c = 0; c < dim; c++)
                    delta[tails[due[i]] * dim + c] += L.push_tails[i * dim + c];
            L.drawn += (uint64_t)(2 * m * nsr);
        }
        for (int64_t k = 0; k < n * dim; k++)
            coords[k] += lr * delta[k];
        for (int64_t i = 0; i < m; i++)
            next[due[i]] += step[due[i]];
    }
    status = 0;
done:
    if (workers)
        for (int64_t t = 0; t < n_workers; t++) {
            free(workers[t].r2);
            free(workers[t].hi);
            free(workers[t].lo);
            free(workers[t].coeff);
            free(workers[t].samples);
        }
    free(workers);
    free(ids);
    free(due);
    free(L.grad);
    free(L.push_heads);
    free(L.push_tails);
    free(delta);
    free(step);
    free(next);
    return status;
}

/* ---- KD-tree over points held as rows ---- */

/* Most points a KD-tree leaf holds. */
#define LEAF_SIZE 16

typedef struct {
    int64_t start, end;  /* the node's points are positions [start, end) */
    int64_t left, right; /* child nodes, -1 in a leaf */
} kd_node;

typedef struct {
    int64_t n, dim, n_nodes;
    double *x;       /* points in tree order, row-major */
    int64_t *index;  /* caller's index of each position */
    kd_node *nodes;  /* preorder: a node's children follow it */
    double *lo, *hi; /* each node's bounding box, dim values per node */
} kd_tree;

static int64_t count_nodes(int64_t m)
{
    return m <= LEAF_SIZE ? 1 : 1 + count_nodes(m / 2) + count_nodes(m - m / 2);
}

/* Order by coordinate c, then by index: a total order on distinct indices. */
static inline int key_less(const double *points, int64_t dim, int64_t c, int64_t i, int64_t j)
{
    double a = points[i * dim + c], b = points[j * dim + c];
    return a < b || (a == b && i < j);
}

static inline void swap_index(int64_t *idx, int64_t i, int64_t j)
{
    int64_t t = idx[i];
    idx[i] = idx[j];
    idx[j] = t;
}

/* Reorder idx[lo..hi] so that idx[k] holds the key of rank k by coordinate
 * c, smaller keys before it and larger ones after. */
static void select_rank(int64_t *idx, int64_t lo, int64_t hi, int64_t k, const double *points,
                        int64_t dim, int64_t c)
{
    while (hi > lo) {
        int64_t mid = lo + (hi - lo) / 2;
        if (key_less(points, dim, c, idx[mid], idx[lo]))
            swap_index(idx, lo, mid);
        if (key_less(points, dim, c, idx[hi], idx[lo]))
            swap_index(idx, lo, hi);
        if (key_less(points, dim, c, idx[mid], idx[hi]))
            swap_index(idx, mid, hi); /* the median of three is the pivot */
        int64_t pivot = idx[hi], store = lo;
        for (int64_t m = lo; m < hi; m++)
            if (key_less(points, dim, c, idx[m], pivot))
                swap_index(idx, store++, m);
        swap_index(idx, store, hi);
        if (store == k)
            return;
        if (store < k)
            lo = store + 1;
        else
            hi = store - 1;
    }
}

/* Build node v over positions [start, end) of T->index, splitting at the
 * median of the widest coordinate; returns the next free node. */
static int64_t build_node(kd_tree *T, const double *points, int64_t v, int64_t start,
                          int64_t end)
{
    const int64_t dim = T->dim;
    int64_t *idx = T->index;
    double *lo = T->lo + v * dim, *hi = T->hi + v * dim;
    kd_node *N = T->nodes + v;
    N->start = start;
    N->end = end;
    int64_t split = 0;
    for (int64_t c = 0; c < dim; c++) {
        lo[c] = hi[c] = points[idx[start] * dim + c];
        for (int64_t k = start + 1; k < end; k++) {
            double value = points[idx[k] * dim + c];
            if (value < lo[c])
                lo[c] = value;
            if (value > hi[c])
                hi[c] = value;
        }
        if (hi[c] - lo[c] > hi[split] - lo[split])
            split = c;
    }
    if (end - start <= LEAF_SIZE) {
        N->left = N->right = -1;
        return v + 1;
    }
    int64_t mid = start + (end - start) / 2;
    select_rank(idx, start, end - 1, mid, points, dim, split);
    N->left = v + 1;
    N->right = build_node(T, points, N->left, start, mid);
    return build_node(T, points, N->right, mid, end);
}

/* Build the tree of n >= 1 points (n x dim, row-major).  Returns 0, or -1
 * when memory runs out; free_tree releases what it allocated either way. */
static int build_tree(kd_tree *T, const double *points, int64_t n, int64_t dim)
{
    T->n = n;
    T->dim = dim;
    T->n_nodes = count_nodes(n);
    T->x = malloc(n * dim * sizeof(double));
    T->index = malloc(n * sizeof(int64_t));
    T->nodes = malloc(T->n_nodes * sizeof(kd_node));
    T->lo = malloc(T->n_nodes * dim * sizeof(double));
    T->hi = malloc(T->n_nodes * dim * sizeof(double));
    if (!T->x || !T->index || !T->nodes || !T->lo || !T->hi)
        return -1;
    for (int64_t p = 0; p < n; p++)
        T->index[p] = p;
    build_node(T, points, 0, 0, n);
    for (int64_t p = 0; p < n; p++)
        memcpy(T->x + p * dim, points + T->index[p] * dim, dim * sizeof(double));
    return 0;
}

static void free_tree(kd_tree *T)
{
    free(T->x);
    free(T->index);
    free(T->nodes);
    free(T->lo);
    free(T->hi);
}

/* Squared distance from x to the nearest point of the box [lo, hi].  Each
 * term rounds no higher than the same term of any point in the box, and
 * rounding is monotone, so it is at most that point's squared_distance. */
static inline double box_distance(const double *x, const double *lo, const double *hi,
                                  int64_t dim)
{
    double r2 = 0.0;
    for (int64_t c = 0; c < dim; c++) {
        double d = x[c] < lo[c] ? lo[c] - x[c] : (x[c] > hi[c] ? x[c] - hi[c] : 0.0);
        r2 += d * d;
    }
    return r2;
}

/* The two children of node v in the order a search from x visits them,
 * nearer box first, with their boxes' squared distances from x. */
static inline void order_children(const kd_tree *T, int64_t v, const double *x,
                                  int64_t child[2], double r2[2])
{
    const kd_node *N = T->nodes + v;
    const int64_t dim = T->dim;
    double left = box_distance(x, T->lo + N->left * dim, T->hi + N->left * dim, dim);
    double right = box_distance(x, T->lo + N->right * dim, T->hi + N->right * dim, dim);
    int swap = right < left;
    child[0] = swap ? N->right : N->left;
    child[1] = swap ? N->left : N->right;
    r2[0] = swap ? right : left;
    r2[1] = swap ? left : right;
}

/* ---- Minimum spanning tree of the mutual reachability graph ---- */

typedef struct {
    kd_tree T;
    double *core;       /* core distances in tree order */
    double *min_core;   /* smallest core distance among each node's points */
    int64_t *parent;    /* union-find over positions */
    int64_t *comp;      /* each position's component root at the round's start */
    int64_t *node_comp; /* the component of all a node's points, or -1 */
    double *best_w;     /* per component root: its best outgoing edge ... */
    int64_t *best_a, *best_b; /* ... as (weight, smaller index, larger index) */
    int64_t *best_p, *best_q; /* ... and its endpoints' positions, -1 if none */
} boruvka;

static int64_t find_root(int64_t *parent, int64_t p)
{
    while (parent[p] != p) {
        parent[p] = parent[parent[p]];
        p = parent[p];
    }
    return p;
}

static inline double max2(double a, double b)
{
    return b > a ? b : a;
}

/* Offer edge (p, q) of weight w as component cp's best: the smaller by
 * weight, then smaller index, then larger index wins. */
static inline void offer(boruvka *B, int64_t cp, double w, int64_t p, int64_t q)
{
    int64_t a = B->T.index[p], b = B->T.index[q];
    if (a > b) {
        int64_t t = a;
        a = b;
        b = t;
    }
    double bw = B->best_w[cp];
    if (w < bw || (w == bw && (a < B->best_a[cp] || (a == B->best_a[cp] && b < B->best_b[cp])))) {
        B->best_w[cp] = w;
        B->best_a[cp] = a;
        B->best_b[cp] = b;
        B->best_p[cp] = p;
        B->best_q[cp] = q;
    }
}

/* Search node v, whose box lies box_r2 (squared) from point p, for p's
 * edges out of its component cp.  A node is skipped when all its points
 * are in cp, or when no edge into it can weigh as little as cp's best. */
static void search(boruvka *B, int64_t v, double box_r2, int64_t p, int64_t cp)
{
    const kd_tree *T = &B->T;
    const kd_node *N = T->nodes + v;
    if (B->node_comp[v] == cp)
        return;
    const double core_p = B->core[p];
    if (max2(max2(sqrt(box_r2), core_p), B->min_core[v]) > B->best_w[cp])
        return;
    const int64_t dim = T->dim;
    const double *xp = T->x + p * dim;
    if (N->left < 0) {
        for (int64_t q = N->start; q < N->end; q++) {
            if (B->comp[q] == cp)
                continue;
            /* The mutual reachability weight: max(distance, core_q, core_p). */
            double w = sqrt(squared_distance(xp, T->x + q * dim, dim));
            offer(B, cp, max2(max2(w, B->core[q]), core_p), p, q);
        }
        return;
    }
    int64_t child[2];
    double r2[2];
    order_children(T, v, xp, child, r2);
    search(B, child[0], r2[0], p, cp);
    search(B, child[1], r2[1], p, cp);
}

/* Record each position's component and, bottom up, each node's. */
static void label_components(boruvka *B)
{
    const kd_tree *T = &B->T;
    for (int64_t p = 0; p < T->n; p++)
        B->comp[p] = find_root(B->parent, p);
    for (int64_t v = T->n_nodes - 1; v >= 0; v--) {
        const kd_node *N = T->nodes + v;
        int64_t c;
        if (N->left < 0) {
            c = B->comp[N->start];
            for (int64_t p = N->start + 1; p < N->end && c >= 0; p++)
                if (B->comp[p] != c)
                    c = -1;
        } else {
            c = B->node_comp[N->left] == B->node_comp[N->right] ? B->node_comp[N->left] : -1;
        }
        B->node_comp[v] = c;
    }
}

/* The minimum spanning tree of the mutual reachability graph of n points
 * (n x dim, row-major), given their core distances.  Edge (i, j) weighs
 * max(sqrt(r2), core_i, core_j), where r2 sums the squared coordinate
 * differences one coordinate at a time from coordinate 0, as
 * tf_core_distances does.
 *
 * Borůvka's rounds over a KD-tree: in each round every component takes
 * its lightest outgoing edge, by the total order (weight, smaller index,
 * larger index), so two components that take edges in one round cannot
 * close a cycle and the tree is exact.  A point's search skips nodes
 * whose points all share its component, and nodes whose lower bound
 * max(core_p, the node's smallest core, box distance) is strictly above
 * the component's best edge so far.
 *
 * Writes n - 1 rows (i, j, weight) with i < j to edges.  Returns 0, -1
 * when memory runs out, or -2 when a round finds no edge, which only NaN
 * weights cause. */
int tf_mst_reachability(const double *points, const double *core, int64_t n, int64_t dim,
                        double *edges)
{
    const int64_t n_nodes = count_nodes(n);
    boruvka B = {
        .core = malloc(n * sizeof(double)),
        .min_core = malloc(n_nodes * sizeof(double)),
        .parent = malloc(n * sizeof(int64_t)),
        .comp = malloc(n * sizeof(int64_t)),
        .node_comp = malloc(n_nodes * sizeof(int64_t)),
        .best_w = malloc(n * sizeof(double)),
        .best_a = malloc(n * sizeof(int64_t)),
        .best_b = malloc(n * sizeof(int64_t)),
        .best_p = malloc(n * sizeof(int64_t)),
        .best_q = malloc(n * sizeof(int64_t)),
    };
    int status = -1;
    if (build_tree(&B.T, points, n, dim) != 0 || !B.core || !B.min_core || !B.parent
        || !B.comp || !B.node_comp || !B.best_w || !B.best_a || !B.best_b || !B.best_p
        || !B.best_q)
        goto done;
    const kd_tree *T = &B.T;
    for (int64_t p = 0; p < n; p++) {
        B.parent[p] = p;
        B.core[p] = core[T->index[p]];
    }
    for (int64_t v = n_nodes - 1; v >= 0; v--) {
        const kd_node *N = T->nodes + v;
        double m;
        if (N->left < 0) {
            m = B.core[N->start];
            for (int64_t p = N->start + 1; p < N->end; p++)
                if (B.core[p] < m)
                    m = B.core[p];
        } else {
            m = B.min_core[N->left] < B.min_core[N->right] ? B.min_core[N->left]
                                                           : B.min_core[N->right];
        }
        B.min_core[v] = m;
    }
    status = -2;
    int64_t found = 0;
    while (found < n - 1) {
        label_components(&B);
        for (int64_t p = 0; p < n; p++) {
            B.best_w[p] = INFINITY;
            B.best_a[p] = B.best_b[p] = n;
            B.best_p[p] = B.best_q[p] = -1;
        }
        for (int64_t p = 0; p < n; p++) {
            int64_t cp = B.comp[p];
            if (!(B.core[p] > B.best_w[cp]))
                search(&B, 0, box_distance(T->x + p * dim, T->lo, T->hi, dim), p, cp);
        }
        int64_t before = found;
        for (int64_t c = 0; c < n; c++) {
            if (B.comp[c] != c || B.best_p[c] < 0)
                continue;
            int64_t ra = find_root(B.parent, B.best_p[c]), rb = find_root(B.parent, B.best_q[c]);
            if (ra == rb)
                continue; /* the component at the other end took the same edge */
            B.parent[rb] = ra;
            edges[3 * found] = (double)B.best_a[c];
            edges[3 * found + 1] = (double)B.best_b[c];
            edges[3 * found + 2] = B.best_w[c];
            found++;
        }
        if (found == before)
            goto done;
    }
    status = 0;
done:
    free_tree(&B.T);
    free(B.core);
    free(B.min_core);
    free(B.parent);
    free(B.comp);
    free(B.node_comp);
    free(B.best_w);
    free(B.best_a);
    free(B.best_b);
    free(B.best_p);
    free(B.best_q);
    return status;
}

/* ---- Exact k nearest neighbors under cosine distance ---- */

/* A point and its distance, ordered by (distance, index). */
typedef struct {
    double dist;
    int64_t index;
} neighbor;

static inline int neighbor_less(neighbor a, neighbor b)
{
    return a.dist < b.dist || (a.dist == b.dist && a.index < b.index);
}

/* Restore the max-heap order of heap[0, count) below position v. */
static void sift_down(neighbor *heap, int64_t count, int64_t v)
{
    for (int64_t c; (c = 2 * v + 1) < count; v = c) {
        if (c + 1 < count && neighbor_less(heap[c], heap[c + 1]))
            c++;
        if (!neighbor_less(heap[v], heap[c]))
            return;
        neighbor t = heap[v];
        heap[v] = heap[c];
        heap[c] = t;
    }
}

/* Offer x to the k smallest offered so far, held in heap[0, *count): a
 * max-heap once *count reaches k, so each later offer costs O(log k). */
static inline void keep_smallest(neighbor *heap, int64_t k, int64_t *count, neighbor x)
{
    if (*count < k) {
        heap[(*count)++] = x;
        if (*count == k)
            for (int64_t v = k / 2 - 1; v >= 0; v--)
                sift_down(heap, k, v);
    } else if (neighbor_less(x, heap[0])) {
        heap[0] = x;
        sift_down(heap, k, 0);
    }
}

/* A column's approximate distance from its float32 similarity s. */
static inline float approximate(float s)
{
    float a = 1.0f - s;
    return a > 0.0f ? a : 0.0f;
}

/* 1 - (x . y) clamped at 0, the dot product summed from coordinate 0. */
static inline double cosine_distance(const double *x, const double *y, int64_t dim)
{
    double s = 0.0;
    for (int64_t c = 0; c < dim; c++)
        s += x[c] * y[c];
    double d = 1.0 - s;
    return d > 0.0 ? d : 0.0;
}

/* The k nearest neighbors of rows first, ..., first + rows - 1 of unit
 * (n x dim unit rows, row-major), self excluded, given sims (rows x n,
 * row-major), the same rows' similarities to every row in float32 from a
 * product of the rows rounded to float32, in any order of summation.
 *
 * A column's approximate distance a_j = max(0, 1 - s_j), in float32, lies
 * within (dim + 4) 2^-24 of its exact distance: the rounding of the unit
 * rows to float32, the float32 sum and the float32 subtraction.  With
 * margin twice that bound, every column with a_j <= a_(k) + 2 margin,
 * where a_(k) is the k-th smallest, is a candidate, and the set holds
 * every true k-nearest column.  a_j does not increase with s_j, so a_(k)
 * is the a of the k-th largest similarity.  Each candidate's exact
 * distance is cosine_distance of the float64 rows, and the k smallest by
 * (distance, index) are written to indices and distances (rows x k),
 * ascending.  Returns 0, or -1 when memory runs out. */
int tf_knn_rows(const float *sims, int64_t rows, int64_t first, const double *unit,
                int64_t n, int64_t dim, int64_t k, int64_t *indices, double *distances)
{
    neighbor *heap = malloc(k * sizeof(neighbor));
    if (!heap)
        return -1;
    const double margin = (double)(dim + 4) * 0x1p-23;
    for (int64_t r = 0; r < rows; r++) {
        const int64_t i = first + r;
        const float *row = sims + r * n;
        const double *x = unit + i * dim;
        /* The k largest similarities, as the k smallest negated ones. */
        int64_t j = 0, count = 0;
        for (; count < k; j++)
            if (j != i)
                keep_smallest(heap, k, &count, (neighbor){-row[j], j});
        float kth = (float)-heap[0].dist;
        for (; j < n; j++) {
            if (row[j] > kth && j != i) {
                heap[0] = (neighbor){-row[j], j};
                sift_down(heap, k, 0);
                kth = (float)-heap[0].dist;
            }
        }
        const double bound = (double)approximate(kth) + 2.0 * margin;
        count = 0;
        for (j = 0; j < n; j++)
            if ((double)approximate(row[j]) <= bound && j != i)
                keep_smallest(heap, k, &count,
                              (neighbor){cosine_distance(x, unit + j * dim, dim), j});
        for (int64_t end = k - 1; end > 0; end--) {
            neighbor t = heap[0];
            heap[0] = heap[end];
            heap[end] = t;
            sift_down(heap, end, 0);
        }
        for (int64_t m = 0; m < k; m++) {
            indices[r * k + m] = heap[m].index;
            distances[r * k + m] = heap[m].dist;
        }
    }
    free(heap);
    return 0;
}

/* ---- Core distances ---- */

/* Search node v, whose box lies box_r2 (squared) from x, for the m
 * smallest squared distances from x, held by keep_smallest in heap[0,
 * *count).  Once the heap is full, a node whose box lies strictly farther
 * than its largest distance is skipped. */
static void nearest(const kd_tree *T, int64_t v, double box_r2, const double *x,
                    neighbor *heap, int64_t m, int64_t *count)
{
    if (*count == m && box_r2 > heap[0].dist)
        return;
    const kd_node *N = T->nodes + v;
    const int64_t dim = T->dim;
    if (N->left < 0) {
        for (int64_t q = N->start; q < N->end; q++)
            keep_smallest(heap, m, count, (neighbor){squared_distance(x, T->x + q * dim, dim), q});
        return;
    }
    int64_t child[2];
    double r2[2];
    order_children(T, v, x, child, r2);
    nearest(T, child[0], r2[0], x, heap, m, count);
    nearest(T, child[1], r2[1], x, heap, m, count);
}

/* The distance from each of n points (n x dim, row-major) to its k-th
 * nearest other point, into out.  The point itself is among its k + 1
 * nearest at squared distance 0, so out holds the square root of the
 * (k + 1)-th smallest squared_distance, summed one coordinate at a time
 * from coordinate 0 as the spanning tree's distances are.  Needs
 * 1 <= k < n.  Returns 0, or -1 when memory runs out. */
int tf_core_distances(const double *points, int64_t n, int64_t dim, int64_t k, double *out)
{
    kd_tree T;
    neighbor *heap = malloc((k + 1) * sizeof(neighbor));
    int status = -1;
    if (build_tree(&T, points, n, dim) != 0 || !heap)
        goto done;
    for (int64_t p = 0; p < n; p++) {
        int64_t count = 0;
        nearest(&T, 0, 0.0, T.x + p * dim, heap, k + 1, &count);
        out[T.index[p]] = sqrt(heap[0].dist);
    }
    status = 0;
done:
    free_tree(&T);
    free(heap);
    return status;
}
