/* The coder and the classifier in C, compiled on first use and loaded with
   ctypes. Three entries: `train_epoch` runs one epoch of momentum SGD on the
   coding criterion (for `trainer`), and `code_rows` codes packed rows (for
   `coder.objective`), both through one forward pass, `forward` below; and
   `classifier_pass` scores a classifier on a batch and takes its gradient
   (for `classify`; see "The classifier" below), in a `work` array of
   `classifier_work` doubles. The function of the same name in kernel.py is
   each entry's only caller and holds its whole ABI. `tanh_array`,
   `exp_array` and `log_array` are for the tests.

   Every step of `train_epoch` does what the pair gradient g and the momentum
   update v = eps v + g, theta -= alpha v do to the whole parameter set, in
   the order of the pairs. Its oracle is that step in numpy,
   `reference_gradient_and_hinge` in tests/conftest.py. Parameters and
   velocity share the flat layout of `coder.ModelParams`: embeddings
   (V, n_f), w = [W_l W_r] (n_f, 2 n_f), b (n_f).

   Lazy decay. A step gives a parameter x that its pair does not reach only
   the l2 gradient c x: c = l2 on w, and 0 on b and on an embedding row, so
   every parameter at a step whose hinge is 0 (an inactive step) and every
   row that an active pair does not read. Such a step maps x and its
   velocity linearly, and k of them are one map M^k (`powers`). So an
   inactive step writes nothing: each embedding row is kept as of the step
   it was last written at, w and b as of the last active step, and each is
   read through its M^k. An active step writes w, b and the rows its pair
   reads; the end of the epoch writes everything. A parameter that overflows
   between its writes is named at the step it overflowed by replaying its
   map (`first_failure`).

   The tables. The forward pass needs w x for its child rows x. With
   w = a w* + beta vw* and x = theta + p vel, w x is a sum of the four
   products of w* or vw* with theta or vel, which each symbol keeps in its
   row of the tables. So an inactive step costs O(K n_f) for K children: four
   table rows per child, tanh and the parent. An active step moves w and b
   on (O(n_f^2)), moves every symbol's table row onto the new w and vw
   (O(V n_f)), and steps the rows its pair reads, whose table rows take a
   product with the new w and vw each (O(n_f^2)). The tables are built
   afresh at the start of every call, so an epoch computes the same floats
   however the epochs are split across calls, and `code_rows` builds them
   from a zero velocity to code at the first step.

   Built without -ffast-math and with -ffp-contract=off, so every sum is done
   in the order written, a multiply-add is fused only where `fmadd` or `fma`
   says so, and the floats do not depend on the instruction set or the
   vector width. The loops over vectors run on `lanes`, LANES doubles
   side by side: each vector is padded with zeros to a multiple of LANES, an
   operation on lanes is LANES independent operations, and a sum over a
   vector keeps LANES partial sums, so no addition is reordered. tanh is
   `tanh_fixed` below, not libm's: it is made of additions, multiplications,
   one division and bit moves in a fixed order, so its floats do not depend
   on them either, and with no call and no branch its loop vectorises. It is
   at most 3 ulp from libm's tanh, measured on [-20, 20] in steps of 1e-5 and
   on a grid dense near 0 (tests/test_trainer.py holds it to that).
*/

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __AVX512F__
#include <immintrin.h>
#endif

#define LANES 8  /* `splat` spells out 8 */
#define EXPONENT 0x7ff0000000000000ULL
#define SIGN 0x8000000000000000ULL

static inline uint64_t to_bits(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return bits;
}

static inline double from_bits(uint64_t bits)
{
    double x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

static inline int nonfinite(double x)
{
    return (to_bits(x) & EXPONENT) == EXPONENT;
}

/* The reduction that tanh_fixed, exp_fixed and log_fixed share: y = k ln2
   + r with k an integer and |r| <= ln2 / 2. k is rounded by adding and
   subtracting ROUND = 1.5 2^52 (floor would stop the loop vectorising),
   whose sum holds k in its low bits, from which 2^k is put together; ln2 is
   split so that k ln2_hi is exact for |k| < 2^21. */
#define ROUND 0x1.8p52
#define INV_LN2 0x1.71547652b82fep0
#define LN2_HI 0x1.62e42fee00000p-1
#define LN2_LO 0x1.a39ef35793c76p-33

/* 2^k for an integer k in [-1022, 1023] */
static inline double pow2(double k)
{
    return from_bits((to_bits(k + ROUND) + 1023) << 52);
}

/* expm1 r for |r| <= ln2 / 2: r + r^2 q, q from its Taylor series to r^13,
   whose remainder is below 0.1 ulp. */
static inline double expm1_reduced(double r)
{
    const double q = 1.0 / 2 + r * (1.0 / 6 + r * (1.0 / 24 + r * (1.0 / 120
        + r * (1.0 / 720 + r * (1.0 / 5040 + r * (1.0 / 40320 + r * (1.0 / 362880
        + r * (1.0 / 3628800 + r * (1.0 / 39916800 + r * (1.0 / 479001600
        + r * (1.0 / 6227020800)))))))))));
    return r + r * r * q;
}

/* tanh x = -m / (m + 2) with the sign of x, where m = expm1(-2 |x|) =
   2^k expm1(r) + (2^k - 1) with -2 |x| = k ln2 + r. |x| is clamped at
   TANH_LIMIT, beyond which tanh rounds to 1 and below which 2^k is normal;
   the clamp keeps a NaN, which then runs through as a NaN. +-0 and +-inf
   give +-0 and +-1. */
#define TANH_LIMIT 20.0

static inline double tanh_fixed(double x)
{
    const uint64_t sign = to_bits(x) & SIGN;
    double ax = from_bits(to_bits(x) & ~SIGN);
    ax = ax > TANH_LIMIT ? TANH_LIMIT : ax;
    const double y = -2.0 * ax;
    const double k = (y * INV_LN2 + ROUND) - ROUND;
    const double scale = pow2(k);
    const double r = (y - k * LN2_HI) - k * LN2_LO;
    const double m = (scale - 1.0) + scale * expm1_reduced(r);
    return from_bits((to_bits(-m / (m + 2.0)) & ~SIGN) | sign);
}

/* exp x for x <= 0, the shifted logits of a softmax: 2^k (1 + expm1 r)
   with x = k ln2 + r. 2^k is applied as 2^(k - j) and then 2^j, with
   j = max(k, -1022), so that the product rounds once, also where it is
   subnormal. x is clamped at EXP_LIMIT, below which exp rounds to 0; the
   clamp keeps a NaN, and -inf gives 0. */
#define EXP_LIMIT -746.0

static inline double exp_fixed(double x)
{
    x = x < EXP_LIMIT ? EXP_LIMIT : x;
    const double k = (x * INV_LN2 + ROUND) - ROUND;
    const double r = (x - k * LN2_HI) - k * LN2_LO;
    const double j = k < -1022.0 ? -1022.0 : k;
    return (1.0 + expm1_reduced(r)) * pow2(k - j) * pow2(j);
}

/* log x for a normal x > 0, the probability of the right class plus
   1e-300: x = 2^k m with m in [sqrt 1/2, sqrt 2), and log m = 2 atanh s
   with s = (m - 1) / (m + 1), |s| < 0.172, from its series to s^21, whose
   remainder is below 0.01 ulp; then log x = k ln2 + log m. The exponent
   field of x gives k as (2^52 + field) - (2^52 + 1023). A NaN or an inf x
   gives NaN, through x - x. */
#define MANTISSA 0x000fffffffffffffULL
#define ONE 0x3ff0000000000000ULL
#define TWO_52 0x4330000000000000ULL
#define SQRT2 0x1.6a09e667f3bcdp0

static inline double log_fixed(double x)
{
    const uint64_t bits = to_bits(x);
    const double m1 = from_bits((bits & MANTISSA) | ONE);  /* in [1, 2) */
    const int above = m1 > SQRT2;
    const double m = above ? 0.5 * m1 : m1;
    const double k = (from_bits(TWO_52 | (bits >> 52)) - (0x1p52 + 1023.0)) + (above ? 1.0 : 0.0);
    const double s = (m - 1.0) / (m + 1.0), z = s * s, s2 = s + s;
    const double q = 1.0 / 3 + z * (1.0 / 5 + z * (1.0 / 7 + z * (1.0 / 9 + z * (1.0 / 11
        + z * (1.0 / 13 + z * (1.0 / 15 + z * (1.0 / 17 + z * (1.0 / 19 + z * (1.0 / 21)))))))));
    return (k * LN2_HI + (k * LN2_LO + (s2 + s2 * (z * q)))) + (x - x);
}

/* tanh_fixed, exp_fixed and log_fixed of x[0..n), into y; for the tests. */
void tanh_array(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = tanh_fixed(x[i]);
}

void exp_array(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = exp_fixed(x[i]);
}

void log_array(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = log_fixed(x[i]);
}

/* LANES doubles side by side. An operation on lanes is LANES independent
   operations, so a loop over them reorders no sum. */
typedef double lanes __attribute__((vector_size(LANES * sizeof(double))));

static inline lanes load(const double *x)
{
    lanes v;
    memcpy(&v, x, sizeof v);
    return v;
}

static inline void store(double *x, lanes v)
{
    memcpy(x, &v, sizeof v);
}

/* x . y for n a multiple of LANES, summed in LANES partial sums and then
   across them in order. */
static double dot(const double *x, const double *y, int64_t n)
{
    lanes acc = {0.0};
    for (int64_t i = 0; i < n; i += LANES)
        acc += load(x + i) * load(y + i);
    double total = 0.0;
    for (int j = 0; j < LANES; j++)
        total += acc[j];
    return total;
}

/* Whether some x was not finite, given the lanes of the sum of x * 0 over
   them: x * 0 is 0 for a finite x and NaN for any other. */
static inline int any_nonfinite(lanes zeros)
{
    int bad = 0;
    for (int j = 0; j < LANES; j++)
        bad |= zeros[j] != 0.0;
    return bad;
}

/* The step map. A step whose gradient on an entry x of the parameters is
   c x, besides the pair's (c = l2 on w; c = 0 on b and on an embedding
   row), maps x and its velocity v to (x - alpha (eps v + c x), eps v + c x).
   k such steps are one linear map, M^k (x, v) = (m[0] x + m[1] v,
   m[2] x + m[3] v) with m = M + 4 k; `powers` fills M^0 .. M^n by taking
   that step on the columns of M^0, the identity. An entry below the least
   normal double is set to 0: with c = 0 the velocity's eps^k would
   otherwise stay subnormal from k of about 7,000 at eps = 0.9 (eps times
   the least ones rounds back to them), and each operation on it costs
   about a hundred times a normal one. */
static void powers(double c, double alpha, double eps, int64_t n, double *M)
{
    M[0] = 1.0;
    M[1] = 0.0;
    M[2] = 0.0;
    M[3] = 1.0;
    for (double *m = M; m < M + 4 * n; m += 4) {
        m[6] = eps * m[2] + c * m[0];
        m[7] = eps * m[3] + c * m[1];
        m[4] = m[0] - alpha * m[6];
        m[5] = m[1] - alpha * m[7];
        for (int j = 4; j < 8; j++)
            if (m[j] > -DBL_MIN && m[j] < DBL_MIN)
                m[j] = 0.0;
    }
}

/* n entries x with velocity v mapped by m into x_out, v_out; 0 if that
   makes an entry of x_out non-finite. */
static int advance(const double *m, const double *x, const double *v,
                   double *x_out, double *v_out, int64_t n)
{
    int bad = 0;
    for (int64_t i = 0; i < n; i++) {
        x_out[i] = m[0] * x[i] + m[1] * v[i];
        v_out[i] = m[2] * x[i] + m[3] * v[i];
        bad |= nonfinite(x_out[i]);
    }
    return !bad;
}

/* The first step in [from, limit) after which an entry of x, mapped by
   M^k from step `from`, is not finite; `limit` if there is none. */
static int64_t first_overflow(const double *M, const double *x, const double *v,
                              int64_t n, int64_t from, int64_t limit)
{
    for (int64_t step = from; step < limit; step++) {
        const double *m = M + 4 * (step - from + 1);
        for (int64_t i = 0; i < n; i++)
            if (nonfinite(m[0] * x[i] + m[1] * v[i]))
                return step;
    }
    return limit;
}

/* The coder's state in its own copy of the parameters, each vector padded
   with zeros to P = n_f rounded up to LANES, so that every loop over one
   runs in whole vectors. An embedding row r is held as of the step stamp[r]
   it was last written at, w and b as of step tw; M^k of `row_map` (c = 0)
   brings a row or b k steps on, M^k of `w_map` (c = l2) brings w. The
   rows are also held transposed, and w and b twice, so that a step writes
   the new ones beside the old. Row r of the tables holds w * theta_r,
   w * vel_r, vw * theta_r and vw * vel_r (2 P each; see `star`), which the
   forward pass reads in place of w. The coder also holds the scratch,
   with a slot for each distinct symbol a pair reads. */
typedef struct {
    int64_t n_f, P, n_symbols, VP;      /* VP: n_symbols rounded up to LANES */
    double *theta, *vel;                /* embedding rows (n_symbols, P) */
    double *theta_t, *vel_t;            /* the same transposed, (n_f, VP) */
    double *w, *vw, *b, *vb;            /* w = [W_l W_r] (n_f, 2 P), b (P) */
    double *w_next, *vw_next, *b_next, *vb_next;
    double *tab;                        /* (n_symbols, 8 P) */
    double *row_map, *w_map;            /* M^0, M^1, ... */
    int64_t *stamp, tw;
    double *block;                      /* the arrays above, in one */
    double *h, *e, *dz, *s, *u, *sx;    /* 2 P, 2 P, 2 P, 4 P, 4 P, 8 VP */
    double *xs, *vs, *grad;             /* per slot: row, velocity, gradient */
    double *gt, *wg, *vg;               /* (n_f, LANES), (LANES, 2 P) twice */
    int64_t *slot, *touched;            /* per symbol; stamp, slot, touched in one */
} Coder;

/* For j < n_x, w * x_j and vw * x_j, where a * x = (a_l x, a_r x) for
   a = [a_l a_r] (n_f, 2 P), with x_j[k] = xt[stride k + j]; they start at
   out_w + skip j and out_v + skip j, their halves P apart. Each sum runs
   over k in order, the x_j side by side, so xt holds LANES columns. */
static void star(const Coder *C, const double *xt, int64_t stride, int64_t n_x,
                 double *out_w, double *out_v, int64_t skip)
{
    const int64_t n_f = C->n_f, P = C->P;
    for (int64_t i = 0; i < n_f; i++) {
        const double *w = C->w + 2 * P * i, *v = C->vw + 2 * P * i;
        lanes wl = {0.0}, wr = {0.0}, vl = {0.0}, vr = {0.0};
        for (int64_t k = 0; k < n_f; k++) {
            const lanes x = load(xt + stride * k);
            wl += w[k] * x;
            wr += w[P + k] * x;
            vl += v[k] * x;
            vr += v[P + k] * x;
        }
        for (int64_t j = 0; j < n_x; j++) {
            out_w[skip * j + i] = wl[j];
            out_w[skip * j + P + i] = wr[j];
            out_v[skip * j + i] = vl[j];
            out_v[skip * j + P + i] = vr[j];
        }
    }
}

/* Frees what open_coder allocated; also after it failed, as free(NULL)
   does nothing. */
static void close_coder(Coder *C)
{
    free(C->block);
    free(C->h);
    free(C->stamp);
}

/* The coder of the flat parameters theta with velocity vel (zero if NULL),
   at the first of n_steps steps with the given hyperparameters. 0, with
   nothing held, if memory runs out. */
static int open_coder(Coder *C, const double *theta, const double *vel,
                      int64_t n_symbols, int64_t n_f, int64_t n_steps,
                      double l2, double alpha, double eps)
{
    const int64_t P = (n_f + LANES - 1) / LANES * LANES;
    const int64_t VP = (n_symbols + LANES - 1) / LANES * LANES;
    const int64_t n_w = 2 * P * n_f, n_maps = 4 * (n_steps + 1), n_s = 2 * P;
    C->block = calloc(2 * n_symbols * P + 2 * n_f * VP + 4 * (n_w + P)
                      + 8 * P * n_symbols + 2 * n_maps, sizeof(double));
    C->h = calloc(6 * P + 4 * n_s + 8 * VP + 3 * n_symbols * P
                  + LANES * (n_f + 2 * n_s), sizeof(double));
    C->stamp = calloc(3 * n_symbols, sizeof(int64_t));
    if (!C->block || !C->h || !C->stamp) {
        close_coder(C);
        return 0;
    }
    C->n_f = n_f, C->P = P, C->n_symbols = n_symbols, C->VP = VP, C->tw = 0;
    C->theta = C->block, C->vel = C->theta + n_symbols * P;
    C->theta_t = C->vel + n_symbols * P, C->vel_t = C->theta_t + n_f * VP;
    C->w = C->vel_t + n_f * VP, C->vw = C->w + n_w, C->b = C->vw + n_w, C->vb = C->b + P;
    C->w_next = C->vb + P, C->vw_next = C->w_next + n_w;
    C->b_next = C->vw_next + n_w, C->vb_next = C->b_next + P;
    C->tab = C->vb_next + P, C->row_map = C->tab + 8 * P * n_symbols;
    C->w_map = C->row_map + n_maps;
    C->e = C->h + 2 * P, C->dz = C->e + 2 * P, C->s = C->dz + 2 * P;
    C->u = C->s + 2 * n_s, C->sx = C->u + 2 * n_s, C->xs = C->sx + 8 * VP;
    C->vs = C->xs + n_symbols * P, C->grad = C->vs + n_symbols * P;
    C->gt = C->grad + n_symbols * P, C->wg = C->gt + LANES * n_f, C->vg = C->wg + LANES * n_s;
    C->slot = C->stamp + n_symbols, C->touched = C->slot + n_symbols;
    for (int64_t r = 0; r < n_symbols; r++)
        C->slot[r] = -1;
    powers(0.0, alpha, eps, n_steps, C->row_map);
    powers(l2, alpha, eps, n_steps, C->w_map);

    const double *src[2] = {theta, vel};
    double *rows[2] = {C->theta, C->vel}, *cols[2] = {C->theta_t, C->vel_t};
    double *w[2] = {C->w, C->vw}, *b[2] = {C->b, C->vb};
    for (int q = 0; q < 2 && src[q]; q++) {
        const double *x = src[q], *wx = x + n_symbols * n_f, *bx = wx + 2 * n_f * n_f;
        for (int64_t r = 0; r < n_symbols; r++)
            for (int64_t k = 0; k < n_f; k++) {
                rows[q][P * r + k] = x[n_f * r + k];
                cols[q][VP * k + r] = x[n_f * r + k];
            }
        for (int64_t i = 0; i < n_f; i++)
            for (int64_t k = 0; k < n_f; k++) {
                w[q][2 * P * i + k] = wx[2 * n_f * i + k];
                w[q][2 * P * i + P + k] = wx[2 * n_f * i + n_f + k];
            }
        memcpy(b[q], bx, sizeof(double) * n_f);
    }
    for (int64_t r = 0; r < n_symbols; r += LANES) {
        const int64_t n_x = n_symbols - r < LANES ? n_symbols - r : LANES;
        double *T = C->tab + 8 * P * r;
        star(C, C->theta_t + r, VP, n_x, T, T + 4 * P, 8 * P);
        star(C, C->vel_t + r, VP, n_x, T + 2 * P, T + 6 * P, 8 * P);
    }
    return 1;
}

/* The coder at step t on one id row, the parent id then m - 1 child ids,
   with child weights cl and cr: h = tanh(w s + b), s (2 n_f) the
   children's left- and right-weighted vector sums; e = parent - h. Returns
   d = e . e. With `coded` set, h already holds the coding of these
   children (a corrupted parent leaves it as it is), and only e and d are
   computed. A child row at step t is x = theta + p vel and w is
   a w* + beta vw*, so (w_l x, w_r x) = a (w* theta) + a p (w* vel)
   + beta (vw* theta) + beta p (vw* vel): four rows of its tables. */
static double forward(const Coder *C, int64_t t, const uint8_t *ids,
                      const double *cl, const double *cr, int64_t m, int coded,
                      double *h, double *e)
{
    const int64_t P = C->P;
    if (!coded) {
        const double *mw = C->w_map + 4 * (t - C->tw), *mb = C->row_map + 4 * (t - C->tw);
        for (int64_t i = 0; i < P; i += LANES)
            store(h + i, mb[0] * load(C->b + i) + mb[1] * load(C->vb + i));
        for (int64_t j = 1; j < m; j++) {
            const double *mr = C->row_map + 4 * (t - C->stamp[ids[j]]);
            const double k[4] = {mw[0] * mr[0], mw[0] * mr[1], mw[1] * mr[0], mw[1] * mr[1]};
            const double l0 = cl[j] * k[0], l1 = cl[j] * k[1], l2 = cl[j] * k[2], l3 = cl[j] * k[3];
            const double r0 = cr[j] * k[0], r1 = cr[j] * k[1], r2 = cr[j] * k[2], r3 = cr[j] * k[3];
            const double *T = C->tab + 8 * P * ids[j];
            for (int64_t i = 0; i < P; i += LANES)
                store(h + i, load(h + i)
                      + (l0 * load(T + i) + l1 * load(T + 2 * P + i)
                         + l2 * load(T + 4 * P + i) + l3 * load(T + 6 * P + i)
                         + r0 * load(T + P + i) + r1 * load(T + 3 * P + i)
                         + r2 * load(T + 5 * P + i) + r3 * load(T + 7 * P + i)));
        }
        for (int64_t i = 0; i < P; i++)  /* apart, so the sums overlap */
            h[i] = tanh_fixed(h[i]);
    }
    const double *mr = C->row_map + 4 * (t - C->stamp[ids[0]]);
    const double *theta = C->theta + P * ids[0], *vel = C->vel + P * ids[0];
    for (int64_t i = 0; i < P; i += LANES)
        store(e + i, (mr[0] * load(theta + i) + mr[1] * load(vel + i)) - load(h + i));
    return dot(e, e, P);
}

/* d[r] = e . e of the coder on each of n_rows packed rows: row r holds the
   ids ids[r] (width = 1 + K: parent, children, padding), the child weights
   coef[r] (2, width) and n_children[r] children; theta is the flat parameter
   set. It is the coder of `train_epoch`'s first step, from a zero velocity.
   Returns 0, or -2 if memory runs out. */
int64_t code_rows(const double *theta, int64_t n_symbols, int64_t n_f,
                  int64_t n_rows, int64_t width, const uint8_t *ids,
                  const double *coef, const int64_t *n_children, double *d)
{
    Coder C;
    if (!open_coder(&C, theta, NULL, n_symbols, n_f, 0, 0.0, 0.0, 0.0))
        return -2;
    for (int64_t r = 0; r < n_rows; r++) {
        const double *cl = coef + 2 * width * r;
        d[r] = forward(&C, 0, ids + width * r, cl, cl + width, 1 + n_children[r], 0,
                       C.h, C.e);
    }
    close_coder(&C);
    return 0;
}

/* From step tw to step t, w and b, their product u = w^T dz with the two
   rows of dz at step t, and then their step at t, with the gradient
   G = dz0 s0^T + dz1 s1^T on w and dz0 + dz1 on b besides the decay, into
   the other copy. 0, with nothing changed, if w or b is not finite at t or
   after the step. */
static int step_weights(Coder *C, int64_t t, const double *dz, const double *s,
                        double *u, double l2, double alpha, double eps)
{
    const int64_t n_f = C->n_f, P = C->P, n_s = 2 * P;
    const double *mw = C->w_map + 4 * (t - C->tw), *mb = C->row_map + 4 * (t - C->tw);
    const double a = mw[0], beta = mw[1], gamma = mw[2], delta = mw[3];
    lanes zeros = {0.0};
    for (int64_t k = 0; k < n_s; k += LANES) {
        const lanes s0 = load(s + k), s1 = load(s + n_s + k);
        lanes u0 = {0.0}, u1 = {0.0};
        for (int64_t i = 0; i < n_f; i++) {
            const lanes w = load(C->w + n_s * i + k), vw = load(C->vw + n_s * i + k);
            const lanes wt = a * w + beta * vw, vt = gamma * w + delta * vw;
            u0 += dz[i] * wt;
            u1 += dz[P + i] * wt;
            const lanes v = eps * vt + (l2 * wt + (dz[i] * s0 + dz[P + i] * s1));
            const lanes w_next = wt - alpha * v;
            store(C->vw_next + n_s * i + k, v);
            store(C->w_next + n_s * i + k, w_next);
            zeros += w_next * 0.0;
        }
        store(u + k, u0);
        store(u + n_s + k, u1);
    }
    for (int64_t i = 0; i < P; i += LANES) {
        const lanes b = load(C->b + i), vb = load(C->vb + i);
        const lanes bt = mb[0] * b + mb[1] * vb;
        const lanes v = eps * (mb[2] * b + mb[3] * vb) + (load(dz + i) + load(dz + P + i));
        const lanes next = bt - alpha * v;
        store(C->vb_next + i, v);
        store(C->b_next + i, next);
        zeros += next * 0.0;
    }
    if (any_nonfinite(zeros))
        return 0;
    double *swap[4] = {C->w, C->vw, C->b, C->vb};
    C->w = C->w_next, C->vw = C->vw_next, C->b = C->b_next, C->vb = C->vb_next;
    C->w_next = swap[0], C->vw_next = swap[1], C->b_next = swap[2], C->vb_next = swap[3];
    C->tw = t + 1;
    return 1;
}

/* Every symbol's table row moved on by one step of w: m maps w*, vw* to
   the w and vw of the step without its gradient G = dz0 s0^T + dz1 s1^T,
   which adds -alpha G and G. G * x = dz0 (s0_l x, s0_r x) + dz1 (s1_l x,
   s1_r x), so a row takes the four products of s's halves with theta_r
   and with vel_r, all symbols side by side in `sx` (8, VP). */
static void rebase(Coder *C, const double *m, double alpha, const double *dz,
                   const double *s, double *sx)
{
    const int64_t n_f = C->n_f, P = C->P, VP = C->VP;
    const double m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
    for (int64_t r = 0; r < VP; r += LANES) {
        lanes acc[8];
        for (int c = 0; c < 8; c++)
            acc[c] = (lanes){0.0};
        for (int64_t k = 0; k < n_f; k++) {
            const double sk[4] = {s[k], s[P + k], s[2 * P + k], s[3 * P + k]};
            const lanes x = load(C->theta_t + VP * k + r), y = load(C->vel_t + VP * k + r);
            for (int c = 0; c < 4; c++) {
                acc[c] += sk[c] * x;
                acc[4 + c] += sk[c] * y;
            }
        }
        for (int c = 0; c < 8; c++)
            store(sx + VP * c + r, acc[c]);
    }
    for (int64_t r = 0; r < C->n_symbols; r++)
        for (int half = 0; half < 2; half++) {
            double *T = C->tab + 8 * P * r + half * P;
            const double x0 = sx[VP * half + r], x1 = sx[VP * (2 + half) + r];
            const double y0 = sx[VP * (4 + half) + r], y1 = sx[VP * (6 + half) + r];
            for (int64_t i = 0; i < P; i += LANES) {
                const lanes d0 = load(dz + i), d1 = load(dz + P + i);
                const lanes gx = d0 * x0 + d1 * x1, gy = d0 * y0 + d1 * y1;
                const lanes t1 = load(T + i), t2 = load(T + 2 * P + i);
                const lanes t3 = load(T + 4 * P + i), t4 = load(T + 6 * P + i);
                store(T + i, (m0 * t1 + m1 * t3) - alpha * gx);
                store(T + 2 * P + i, (m0 * t2 + m1 * t4) - alpha * gy);
                store(T + 4 * P + i, (m2 * t1 + m3 * t3) + gx);
                store(T + 6 * P + i, (m2 * t2 + m3 * t4) + gy);
            }
        }
}

/* The step at t of the n embedding rows touched[k], which come brought up
   to step t as xs[k] with velocity vs[k] and take the gradient grad[k] (P
   each), and of their table rows: brought to step t by the rows' map, then
   stepped as the rows are, with the products w * g and vw * g of the new w
   and vw for the gradient's part. gt (n_f, LANES), wg and vg (LANES, 2 P)
   are scratch. 0 if that makes a row non-finite. */
static int step_rows(Coder *C, int64_t t, int64_t n, const int64_t *touched,
                     const double *xs, const double *vs, const double *grad,
                     double alpha, double eps, double *gt, double *wg, double *vg)
{
    const int64_t n_f = C->n_f, P = C->P, VP = C->VP, n_s = 2 * P;
    lanes zeros = {0.0};
    for (int64_t k0 = 0; k0 < n; k0 += LANES) {
        const int64_t n_x = n - k0 < LANES ? n - k0 : LANES;
        for (int64_t k = 0; k < n_f; k++)
            for (int64_t j = 0; j < LANES; j++)
                gt[LANES * k + j] = j < n_x ? grad[P * (k0 + j) + k] : 0.0;
        star(C, gt, LANES, n_x, wg, vg, n_s);
        for (int64_t j = 0; j < n_x; j++) {
            const int64_t sym = touched[k0 + j];
            const double *x = xs + P * (k0 + j), *v = vs + P * (k0 + j);
            const double *g = grad + P * (k0 + j), *mr = C->row_map + 4 * (t - C->stamp[sym]);
            double *theta = C->theta + P * sym, *vel = C->vel + P * sym;
            for (int64_t i = 0; i < P; i += LANES) {
                const lanes v_next = eps * load(v + i) + load(g + i);
                const lanes x_next = load(x + i) - alpha * v_next;
                store(vel + i, v_next);
                store(theta + i, x_next);
                zeros += x_next * 0.0;
            }
            for (int64_t i = 0; i < n_f; i++) {
                C->theta_t[VP * i + sym] = theta[i];
                C->vel_t[VP * i + sym] = vel[i];
            }
            for (int q = 0; q < 2; q++) {
                double *Tx = C->tab + 8 * P * sym + 2 * q * n_s, *Tv = Tx + n_s;
                const double *gq = (q ? vg : wg) + n_s * j;
                for (int64_t i = 0; i < n_s; i += LANES) {
                    const lanes tx = mr[0] * load(Tx + i) + mr[1] * load(Tv + i);
                    const lanes tv = mr[2] * load(Tx + i) + mr[3] * load(Tv + i);
                    const lanes v_next = eps * tv + load(gq + i);
                    store(Tv + i, v_next);
                    store(Tx + i, tx - alpha * v_next);
                }
            }
            C->stamp[sym] = t + 1;
        }
    }
    return !any_nonfinite(zeros);
}

/* The first step before `limit` after which some parameter, brought up
   lazily, holds a non-finite entry; `limit` if there is none. */
static int64_t first_failure(const Coder *C, int64_t limit)
{
    const int64_t P = C->P;
    limit = first_overflow(C->w_map, C->w, C->vw, 2 * P * C->n_f, C->tw, limit);
    limit = first_overflow(C->row_map, C->b, C->vb, P, C->tw, limit);
    for (int64_t r = 0; r < C->n_symbols; r++)
        limit = first_overflow(C->row_map, C->theta + P * r, C->vel + P * r, P,
                               C->stamp[r], limit);
    return limit;
}

/* Every parameter brought up to step t, into theta and vel (flat); 0 if
   that makes one non-finite. */
static int close_epoch(const Coder *C, int64_t t, double *theta, double *vel)
{
    const int64_t n_f = C->n_f, P = C->P, n_symbols = C->n_symbols;
    double *w = theta + n_symbols * n_f, *vw = vel + n_symbols * n_f;
    const double *mw = C->w_map + 4 * (t - C->tw), *mb = C->row_map + 4 * (t - C->tw);
    int ok = 1;
    for (int64_t r = 0; r < n_symbols; r++)
        ok &= advance(C->row_map + 4 * (t - C->stamp[r]), C->theta + P * r, C->vel + P * r,
                      theta + n_f * r, vel + n_f * r, n_f);
    for (int64_t i = 0; i < n_f; i++)
        for (int half = 0; half < 2; half++)
            ok &= advance(mw, C->w + 2 * P * i + P * half, C->vw + 2 * P * i + P * half,
                          w + 2 * n_f * i + n_f * half, vw + 2 * n_f * i + n_f * half, n_f);
    ok &= advance(mb, C->b, C->vb, w + 2 * n_f * n_f, vw + 2 * n_f * n_f, n_f);
    return ok;
}

/* Run the n_steps steps of one epoch. Step t pairs the id row
   pairs[t, 0] (width = 1 + K ids: parent, children, padding) with its
   corrupted copy pairs[t, 1]; both take the child weights coef[rows[t]]
   (2, width) and have n_children[rows[t]] children.

   Returns -1 with the sum of the hinges in *hinge_total and the number of
   steps whose hinge is positive in *active_steps, or the first step after
   which the hinge or a parameter is not finite, or -2 if memory runs out. */
int64_t train_epoch(double *theta, double *vel, int64_t n_symbols, int64_t n_f,
                    int64_t n_steps, int64_t width, const uint8_t *pairs,
                    const int64_t *rows, const double *coef,
                    const int64_t *n_children, double delta, double l2,
                    double alpha, double eps, double *hinge_total,
                    int64_t *active_steps)
{
    Coder C;
    if (!open_coder(&C, theta, vel, n_symbols, n_f, n_steps, l2, alpha, eps))
        return -2;
    const int64_t P = C.P, n_s = 2 * P;
    double *h = C.h, *e = C.e, *dz = C.dz, *s = C.s, *u = C.u;
    double *xs = C.xs, *vs = C.vs, *grad = C.grad;
    int64_t *slot = C.slot, *touched = C.touched;

    double total = 0.0;
    int64_t active = 0;
    int64_t t = 0;
    for (; t < n_steps; t++) {
        const uint8_t *ids[2] = {pairs + 2 * width * t, pairs + 2 * width * t + width};
        const double *cl = coef + 2 * width * rows[t], *cr = cl + width;
        const int64_t m = 1 + n_children[rows[t]];

        /* the real row, then its corrupted copy, which reuses h (and s)
           when only its parent differs */
        const int same_children = ids[1][0] != ids[0][0];
        double d[2];
        for (int pi = 0; pi < 2; pi++) {
            const int coded = pi == 1 && same_children;
            if (coded)
                memcpy(h + P, h, sizeof(double) * P);
            d[pi] = forward(&C, t, ids[pi], cl, cr, m, coded, h + pi * P, e + pi * P);
        }
        const double margin = delta + d[0] - d[1];
        const double hinge = margin > 0.0 ? margin : 0.0;
        total += hinge;
        active += hinge > 0.0;
        if (nonfinite(hinge))
            goto failed;
        if (hinge == 0.0)
            continue;

        /* An active step. Each distinct symbol of the pair takes a slot,
           with its row and velocity brought up to step t (xs, vs) and a
           gradient row, summed slot by slot. */
        int64_t n_touched = 0;
        for (int pi = 0; pi < 2; pi++)
            for (int64_t j = 0; j < m; j++) {
                const int64_t sym = ids[pi][j];
                if (slot[sym] >= 0)
                    continue;
                if (!advance(C.row_map + 4 * (t - C.stamp[sym]), C.theta + P * sym,
                             C.vel + P * sym, xs + P * n_touched, vs + P * n_touched, P))
                    goto failed;
                memset(grad + P * n_touched, 0, sizeof(double) * P);
                slot[sym] = n_touched;
                touched[n_touched++] = sym;
            }
        /* s of each row; de = +-2 e (kept in e) and dz = de (h^2 - 1) */
        for (int pi = 0; pi < 2; pi++) {
            double *sp = s + pi * n_s, *ep = e + pi * P, *hp = h + pi * P, *dp = dz + pi * P;
            if (pi == 1 && same_children)
                memcpy(sp, s, sizeof(double) * n_s);
            else {
                memset(sp, 0, sizeof(double) * n_s);
                for (int64_t j = 1; j < m; j++) {
                    const double *x = xs + P * slot[ids[pi][j]];
                    for (int64_t i = 0; i < P; i++) {
                        sp[i] += cl[j] * x[i];
                        sp[P + i] += cr[j] * x[i];
                    }
                }
            }
            for (int64_t i = 0; i < P; i++) {
                ep[i] = (pi ? -2.0 : 2.0) * ep[i];
                dp[i] = ep[i] * (hp[i] * hp[i] - 1.0);
            }
        }
        /* w and b step, giving u = w^T dz at step t; then the gradient
           rows: de on the parent, cl w_l^T dz + cr w_r^T dz on a child */
        const double *m_w = C.w_map + 4 * (t - C.tw + 1);
        if (!step_weights(&C, t, dz, s, u, l2, alpha, eps))
            goto failed;
        for (int pi = 0; pi < 2; pi++)
            for (int64_t j = 0; j < m; j++) {
                double *g = grad + P * slot[ids[pi][j]];
                const double *ep = e + pi * P, *up = u + pi * n_s;
                if (j == 0)
                    for (int64_t i = 0; i < P; i++)
                        g[i] += ep[i];
                else
                    for (int64_t i = 0; i < P; i++)
                        g[i] += cl[j] * up[i] + cr[j] * up[P + i];
            }
        rebase(&C, m_w, alpha, dz, s, C.sx);

        const int ok = step_rows(&C, t, n_touched, touched, xs, vs, grad, alpha, eps,
                                 C.gt, C.wg, C.vg);
        for (int64_t k = 0; k < n_touched; k++)
            slot[touched[k]] = -1;
        if (!ok)
            goto failed;
    }
    if (close_epoch(&C, n_steps, theta, vel)) {
        t = -1;
        goto done;
    }

failed:
    t = first_failure(&C, t);
done:
    *hinge_total = total;
    *active_steps = active;
    close_coder(&C);
    return t;
}

/* The classifier. `classifier_pass` scores a `classify.ClassifierModel` on a
   `classify.Batch` and, when asked, takes its gradient, all in one call:
   the input (the counts, or hist times the embedding table), its
   standardization, the tanh layers, the softmax, the count-weighted
   cross-entropy, the accuracy and the backward pass. Its oracle is the
   row-wise pass in numpy, `reference_loss_and_gradients` in
   tests/conftest.py.

   Every matrix product is `product`: each output is a chain of fused
   multiply-adds over the inner index in order, LANES outputs of a row side
   by side, in tiles of MR rows and NB lane blocks whose sums stay in
   registers. A fused multiply-add rounds once, whether it is the AVX-512
   instruction or libm's fma, so the floats do not depend on the build;
   exp and log are exp_fixed and log_fixed above. */

#define MR 6
#define NB 4

static inline lanes splat(double x)
{
    return (lanes){x, x, x, x, x, x, x, x};
}

/* a b + c in each lane, rounded once */
static inline lanes fmadd(lanes a, lanes b, lanes c)
{
#ifdef __AVX512F__
    return (lanes)_mm512_fmadd_pd((__m512d)a, (__m512d)b, (__m512d)c);
#else
    lanes r;
    for (int j = 0; j < LANES; j++)
        r[j] = fma(a[j], b[j], c[j]);
    return r;
#endif
}

/* The first n lanes of a vector, for n >= 0 (all LANES if n >= LANES):
   loaded from x with the other lanes 0, or stored to x. */
#ifdef __AVX512F__
typedef __mmask8 part;

static inline part part_of(int64_t n)
{
    return n >= LANES ? 0xff : (part)((1u << n) - 1);
}

static inline lanes load_part(const double *x, part k)
{
    return (lanes)_mm512_maskz_loadu_pd(k, x);
}

static inline void store_part(double *x, lanes v, part k)
{
    _mm512_mask_storeu_pd(x, k, (__m512d)v);
}
#else
typedef int64_t part;

static inline part part_of(int64_t n)
{
    return n >= LANES ? LANES : n;
}

static inline lanes load_part(const double *x, part n)
{
    lanes v = {0.0};
    for (int64_t j = 0; j < n; j++)
        v[j] = x[j];
    return v;
}

static inline void store_part(double *x, lanes v, part n)
{
    for (int64_t j = 0; j < n; j++)
        x[j] = v[j];
}
#endif

/* One tile of `product`: MR rows, nb lane blocks, of which block c reads
   the lanes cols[c] of B and init and writes the lanes put[c]. Row i reads
   a[i][at t] and, if i < m, is written to out[i]; past m the rows repeat
   the last. */
static inline __attribute__((always_inline)) void tile(
    const int nb, const double *const *a, int64_t at, int64_t T, const double *B,
    int64_t ldb, const part *cols, const double *init, double *const *out, int64_t m,
    const part *put)
{
    lanes acc[MR][NB];
    for (int c = 0; c < nb; c++) {
        const lanes start = init ? load_part(init + LANES * c, cols[c]) : (lanes){0.0};
        for (int i = 0; i < MR; i++)
            acc[i][c] = start;
    }
    for (int64_t t = 0; t < T; t++) {
        lanes b[NB];
        for (int c = 0; c < nb; c++)
            b[c] = load_part(B + ldb * t + LANES * c, cols[c]);
        for (int i = 0; i < MR; i++) {
            const lanes x = splat(a[i][at * t]);
            for (int c = 0; c < nb; c++)
                acc[i][c] = fmadd(x, b[c], acc[i][c]);
        }
    }
    for (int i = 0; i < MR; i++)  /* i runs to MR, so that acc stays in registers */
        for (int c = 0; c < nb && i < m; c++)
            store_part(out[i] + LANES * c, acc[i][c], put[c]);
}

/* out = init + A B for A(i, t) = a[ai i + at t] (m, T) and B (T, n): output
   (i, j) is the chain acc = fma(A(i, t), B[t, j], acc) over t in order,
   from init[j] (0 if init is NULL). B and out have rows ldb and ldo apart;
   a row of out is written up to min(ldo, n rounded up to LANES), with 0
   past n. */
static void product(int64_t m, int64_t n, int64_t T, const double *a, int64_t ai,
                    int64_t at, const double *B, int64_t ldb, const double *init,
                    double *out, int64_t ldo)
{
    for (int64_t j = 0; j < n; j += NB * LANES) {
        const int64_t nb = n - j >= NB * LANES ? NB : (n - j + LANES - 1) / LANES;
        const double *init_j = init ? init + j : NULL;
        part cols[NB], put[NB];
        for (int c = 0; c < NB; c++) {
            const int64_t col = j + LANES * c;
            cols[c] = part_of(n > col ? n - col : 0);
            put[c] = part_of(ldo > col ? ldo - col : 0);
        }
        for (int64_t i = 0; i < m; i += MR) {
            const double *rows[MR];
            double *outs[MR];
            for (int r = 0; r < MR; r++) {
                const int64_t row = i + r < m ? i + r : m - 1;
                rows[r] = a + ai * row;
                outs[r] = out + ldo * row + j;
            }
            const int64_t mi = m - i < MR ? m - i : MR;
            switch (nb) {
            case 1:
                tile(1, rows, at, T, B + j, ldb, cols, init_j, outs, mi, put);
                break;
            case 2:
                tile(2, rows, at, T, B + j, ldb, cols, init_j, outs, mi, put);
                break;
            case 3:
                tile(3, rows, at, T, B + j, ldb, cols, init_j, outs, mi, put);
                break;
            default:
                tile(4, rows, at, T, B + j, ldb, cols, init_j, outs, mi, put);
            }
        }
    }
}

static inline int64_t padded(int64_t n)
{
    return (n + LANES - 1) / LANES * LANES;
}

/* The doubles of `work` that `classifier_pass` needs for n_layers layers
   of widths width[0..n_layers] on n_rows rows: its two results and its
   scratch. kernel.py sizes `work` by it. */
int64_t classifier_work(int64_t n_layers, const int64_t *width, int64_t n_rows)
{
    int64_t rows = 0, widest = 0, transposed = 0;
    for (int64_t l = 0; l <= n_layers; l++)
        rows += padded(width[l]);
    for (int64_t l = 0; l < n_layers; l++) {
        widest = padded(width[l]) > widest ? padded(width[l]) : widest;
        const int64_t wt = width[l + 1] * padded(width[l]);
        transposed = wt > transposed ? wt : transposed;
    }
    return 2 + 2 * padded(width[0]) + n_rows * (rows + 2 * widest) + transposed;
}

/* The pass of a classifier with n_layers layers of widths width[0..n_layers]
   (input, hidden, classes) on n_rows distinct rows: X (n_rows, n_in) the
   counts, hist the same scaled to sum 1 per row, y the labels, counts how
   often each row occurs. flat holds the model as `ClassifierModel.flat`
   does: the table (n_in, width[0]) if `table`, then W (width[l],
   width[l + 1]) and b of each layer. The input, the counts or hist times
   the table, is standardized by mu and sigma; with `fit`, mu and sigma are
   first set to the count-weighted mean and standard deviation of the input
   (where the input is constant, mu its value and sigma 1, so that it
   standardizes to exactly 0). With grad, grad gets the gradient of the
   cross-entropy in flat's layout, 0 on the table unless `fine_tune`. work
   holds classifier_work doubles: work[0] and work[1] get the
   cross-entropy and the accuracy, and the rest is scratch.

   Returns 0, or -4 if a label is not below width[n_layers], with nothing
   written. */
int64_t classifier_pass(const double *flat, int64_t n_layers, const int64_t *width,
                        int64_t table, int64_t n_in, int64_t n_rows, const double *X,
                        const double *hist, const int64_t *y, const int64_t *counts,
                        double *mu, double *sigma, int64_t fit, double *grad,
                        int64_t fine_tune, double *work)
{
    const int64_t n_classes = width[n_layers], d0 = width[0], P0 = padded(d0);
    for (int64_t r = 0; r < n_rows; r++)
        if (y[r] < 0 || y[r] >= n_classes)
            return -4;
    double n = 0.0;
    for (int64_t r = 0; r < n_rows; r++)
        n += (double)counts[r];

    /* the scratch: padded mu and sigma, the input of each layer, the
       output layer, two upstream gradients and a transposed W */
    double *result = work, *mu_p = work + 2, *sigma_p = mu_p + P0, *act[n_layers + 1];
    act[0] = sigma_p + P0;
    for (int64_t l = 0; l < n_layers; l++)
        act[l + 1] = act[l] + n_rows * padded(width[l]);
    int64_t widest = 0;
    for (int64_t l = 0; l < n_layers; l++)
        widest = padded(width[l]) > widest ? padded(width[l]) : widest;
    double *up[2] = {act[n_layers] + n_rows * padded(n_classes), NULL};
    up[1] = up[0] + n_rows * widest;
    double *wt = up[1] + n_rows * widest;
    const double *W[n_layers], *b[n_layers];
    const double *p = flat + (table ? n_in * d0 : 0);
    for (int64_t l = 0; l < n_layers; l++) {
        W[l] = p;
        b[l] = p + width[l] * width[l + 1];
        p = b[l] + width[l + 1];
    }

    /* the input, standardized */
    double *x = act[0];
    if (table)
        product(n_rows, d0, n_in, hist, n_in, 1, flat, d0, NULL, x, P0);
    else
        for (int64_t r = 0; r < n_rows; r++)
            for (int64_t k = 0; k < P0; k += LANES)
                store(x + P0 * r + k, load_part(X + n_in * r + k, part_of(d0 - k)));
    if (fit)
        for (int64_t k = 0; k < P0; k += LANES) {
            lanes sum = {0.0}, square = {0.0};
            for (int64_t r = 0; r < n_rows; r++)
                sum = fmadd(splat((double)counts[r]), load(x + P0 * r + k), sum);
            const lanes mean = sum / n;
            for (int64_t r = 0; r < n_rows; r++) {
                const lanes d = load(x + P0 * r + k) - mean;
                square = fmadd(splat((double)counts[r]), d * d, square);
            }
            for (int64_t j = k; j < k + LANES && j < d0; j++) {
                int64_t r = 1;
                while (r < n_rows && x[P0 * r + j] == x[j])
                    r++;
                mu[j] = r == n_rows ? x[j] : mean[j - k];
                sigma[j] = r == n_rows ? 1.0 : sqrt(square[j - k] / n);
            }
        }
    for (int64_t k = 0; k < P0; k++) {
        mu_p[k] = k < d0 ? mu[k] : 0.0;
        sigma_p[k] = k < d0 ? sigma[k] : 1.0;
    }
    for (int64_t r = 0; r < n_rows; r++)
        for (int64_t k = 0; k < P0; k += LANES)
            store(x + P0 * r + k, (load(x + P0 * r + k) - load(mu_p + k)) / load(sigma_p + k));

    /* the layers: tanh(a W + b), and the logits a W + b at the top */
    for (int64_t l = 0; l < n_layers; l++) {
        const int64_t Pa = padded(width[l]), Pz = padded(width[l + 1]);
        double *z = act[l + 1];
        product(n_rows, width[l + 1], width[l], act[l], Pa, 1, W[l], width[l + 1], b[l], z, Pz);
        if (l < n_layers - 1)
            for (int64_t i = 0; i < n_rows * Pz; i++)
                z[i] = tanh_fixed(z[i]);
    }

    /* the softmax of each row, its accuracy (ties go to the lowest class)
       and its cross-entropy; then (probabilities - one-hot) count / n */
    const int64_t Pc = padded(n_classes);
    int64_t hits = 0;
    double total = 0.0;
    for (int64_t r = 0; r < n_rows; r++) {
        double *z = act[n_layers] + Pc * r;
        double top = z[0], sum = 0.0;
        for (int64_t j = 1; j < n_classes; j++)
            top = z[j] > top ? z[j] : top;
        for (int64_t j = 0; j < n_classes; j++) {
            z[j] = exp_fixed(z[j] - top);
            sum += z[j];
        }
        int64_t best = 0;
        for (int64_t j = 0; j < n_classes; j++) {
            z[j] /= sum;
            best = z[j] > z[best] ? j : best;
        }
        hits += best == y[r] ? counts[r] : 0;
        total = fma((double)counts[r], log_fixed(z[y[r]] + 1e-300), total);
        if (grad) {
            z[y[r]] -= 1.0;
            const double share = (double)counts[r] / n;
            for (int64_t j = 0; j < n_classes; j++)
                z[j] *= share;
        }
    }
    result[0] = 0.0 - total / n;  /* never -0.0 */
    result[1] = (double)hits / n;
    if (!grad)
        return 0;

    /* back through the layers: dz is the gradient at layer l's output
       before its tanh, `up` at its input */
    double *g = grad + (table ? n_in * d0 : 0);
    if (table)
        memset(grad, 0, sizeof(double) * n_in * d0);
    double *gW[n_layers];
    for (int64_t l = 0; l < n_layers; l++) {
        gW[l] = g;
        g += width[l] * width[l + 1] + width[l + 1];
    }
    const double *dz = act[n_layers];
    for (int64_t l = n_layers - 1; l >= 0; l--) {
        const int64_t d_in = width[l], d_out = width[l + 1];
        const int64_t Pa = padded(d_in), Pz = padded(d_out);
        product(d_in, d_out, n_rows, act[l], 1, Pa, dz, Pz, NULL, gW[l], d_out);
        for (int64_t k = 0; k < d_out; k += LANES) {
            lanes sum = {0.0};
            for (int64_t r = 0; r < n_rows; r++)
                sum += load(dz + Pz * r + k);
            store_part(gW[l] + d_in * d_out + k, sum, part_of(d_out - k));
        }
        if (l == 0 && !(table && fine_tune))
            break;
        for (int64_t t = 0; t < d_out; t++)
            for (int64_t k = 0; k < d_in; k++)
                wt[Pa * t + k] = W[l][d_out * k + t];
        double *u = up[l % 2];
        product(n_rows, d_in, d_out, dz, Pz, 1, wt, Pa, NULL, u, Pa);
        if (l > 0)
            for (int64_t i = 0; i < n_rows * Pa; i += LANES) {
                const lanes a = load(act[l] + i);
                store(u + i, load(u + i) * (1.0 - a * a));
            }
        else {
            for (int64_t r = 0; r < n_rows; r++)
                for (int64_t k = 0; k < Pa; k += LANES)
                    store(u + Pa * r + k, load(u + Pa * r + k) / load(sigma_p + k));
            product(n_in, d0, n_rows, hist, 1, n_in, u, Pa, NULL, grad, d0);
        }
        dz = u;
    }
    return 0;
}
