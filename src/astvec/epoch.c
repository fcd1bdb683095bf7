/* The coder in C, compiled on first use and loaded with ctypes. Two entries
   share one forward pass, `forward` below: `train_epoch` runs one epoch of
   momentum SGD on the coding criterion (for `trainer`), and `code_rows` codes
   packed rows (for `coder.objective`). The function of the same name in
   kernel.py is each entry's only caller and holds its whole ABI.

   Every step of `train_epoch` does what the pair gradient g and the momentum
   update v = eps v + g, theta -= alpha v do to the whole parameter set, in
   the order of the pairs. Its oracle is that step in numpy,
   `reference_gradient_and_hinge` in tests/conftest.py. Parameters and
   velocity share the flat layout of `coder.ModelParams`: embeddings
   (V, n_f), w = [W_l W_r] (n_f, 2 n_f), b (n_f).

   Lazy row decay. An embedding row that a step's pair does not read gets
   gradient 0, so the step maps each of its entries (theta, v) to
   (theta - alpha eps v, eps v). k such steps are the map M^k:
   (theta + p_k v, q_k v), with p_0 = 0, q_0 = 1, p_{k+1} = p_k - alpha eps q_k
   and q_{k+1} = eps q_k. So a row is touched only when a pair reads it: M^k
   first brings it from the step it was last brought to (its stamp) to the
   current one, and an active pair then steps it literally. W and b, which
   every pair reads, take every step literally. The end of the epoch brings
   every row up to date, so an epoch computes the same floats however the
   epochs are split across calls.

   Built without -ffast-math and with -ffp-contract=off, so every sum is done
   in the order written and the floats do not depend on the instruction set
   or the vector width. Sums over a vector use LANES independent partial sums,
   which vectorise without reordering any addition. tanh is `tanh_fixed`
   below, not libm's: it is made of additions, multiplications, one division
   and bit moves in a fixed order, so its floats do not depend on them
   either, and with no call and no branch its loop vectorises. It is at most
   3 ulp from libm's tanh, measured on [-20, 20] in steps of 1e-5 and on a
   grid dense near 0 (tests/test_trainer.py holds it to that).
*/

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LANES 8
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

/* tanh x = -m / (m + 2) with the sign of x, where m = expm1(-2 |x|).
   expm1 y = 2^k expm1(r) + (2^k - 1) with y = k ln2 + r, |r| <= ln2 / 2:
   k is rounded by adding and subtracting 1.5 2^52 (floor would stop the
   loop vectorising), whose sum holds k in its low bits, from which 2^k is
   put together; ln2 is split so that k ln2_hi is exact; expm1 r is its
   Taylor series to r^13, whose remainder is below 0.1 ulp. |x| is clamped
   at TANH_LIMIT, beyond which tanh rounds to 1 and below which 2^k is
   normal; the clamp keeps a NaN, which then runs through as a NaN. +-0 and
   +-inf give +-0 and +-1. */
#define TANH_LIMIT 20.0
#define ROUND 0x1.8p52
#define INV_LN2 0x1.71547652b82fep0
#define LN2_HI 0x1.62e42fee00000p-1
#define LN2_LO 0x1.a39ef35793c76p-33

static inline double tanh_fixed(double x)
{
    const uint64_t sign = to_bits(x) & SIGN;
    double ax = from_bits(to_bits(x) & ~SIGN);
    ax = ax > TANH_LIMIT ? TANH_LIMIT : ax;
    const double y = -2.0 * ax;
    const double shifted = y * INV_LN2 + ROUND;
    const double k = shifted - ROUND;
    const double scale = from_bits((to_bits(shifted) + 1023) << 52);
    const double r = (y - k * LN2_HI) - k * LN2_LO;
    /* expm1 r = r + r^2 q */
    const double q = 1.0 / 2 + r * (1.0 / 6 + r * (1.0 / 24 + r * (1.0 / 120
        + r * (1.0 / 720 + r * (1.0 / 5040 + r * (1.0 / 40320 + r * (1.0 / 362880
        + r * (1.0 / 3628800 + r * (1.0 / 39916800 + r * (1.0 / 479001600
        + r * (1.0 / 6227020800)))))))))));
    const double m = (scale - 1.0) + scale * (r + r * r * q);
    return from_bits((to_bits(-m / (m + 2.0)) & ~SIGN) | sign);
}

/* tanh_fixed of x[0..n), into y; for the tests. */
void tanh_array(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = tanh_fixed(x[i]);
}

static double dot(const double *x, const double *y, int64_t n)
{
    double acc[LANES] = {0.0};
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int j = 0; j < LANES; j++)
            acc[j] += x[i + j] * y[i + j];
    for (int j = 0; i < n; i++, j++)
        acc[j] += x[i] * y[i];
    double total = 0.0;
    for (int j = 0; j < LANES; j++)
        total += acc[j];
    return total;
}

typedef struct {
    const double *theta, *w, *b;  /* embeddings (V, n_f), w (n_f, 2 n_f), b (n_f) */
    int64_t n_f;
} Coder;

/* The coder on one id row, the parent id then m - 1 child ids, with child
   weights cl and cr: s (2 n_f), the children's left- and right-weighted
   vector sums; h = tanh(w s + b); e = parent - h. Returns d = e . e. With
   `coded` set, s and h already hold the coding of these children (a
   corrupted parent leaves them as they are), and only e and d are computed. */
static double forward(const Coder *C, const uint8_t *ids, const double *cl,
                      const double *cr, int64_t m, int coded,
                      double *s, double *h, double *e)
{
    const int64_t n_f = C->n_f, n_s = 2 * n_f;
    if (!coded) {
        memset(s, 0, sizeof(double) * n_s);
        for (int64_t j = 1; j < m; j++) {
            const double *x = C->theta + ids[j] * n_f;
            for (int64_t i = 0; i < n_f; i++) {
                s[i] += cl[j] * x[i];
                s[n_f + i] += cr[j] * x[i];
            }
        }
        for (int64_t i = 0; i < n_f; i++)
            h[i] = dot(C->w + i * n_s, s, n_s) + C->b[i];
        for (int64_t i = 0; i < n_f; i++)  /* apart, so the sums overlap */
            h[i] = tanh_fixed(h[i]);
    }
    const double *parent = C->theta + ids[0] * n_f;
    for (int64_t i = 0; i < n_f; i++)
        e[i] = parent[i] - h[i];
    return dot(e, e, n_f);
}

/* d[r] = e . e of the coder on each of n_rows packed rows: row r holds the
   ids ids[r] (width = 1 + K: parent, children, padding), the child weights
   coef[r] (2, width) and n_children[r] children; theta is the flat parameter
   set. Returns 0, or -2 if memory runs out. */
int64_t code_rows(const double *theta, int64_t n_symbols, int64_t n_f,
                  int64_t n_rows, int64_t width, const uint8_t *ids,
                  const double *coef, const int64_t *n_children, double *d)
{
    double *scratch = malloc(sizeof(double) * 4 * n_f);  /* s, h and e */
    if (!scratch)
        return -2;
    const double *w = theta + n_symbols * n_f;
    const Coder C = {theta, w, w + 2 * n_f * n_f, n_f};
    for (int64_t r = 0; r < n_rows; r++) {
        const double *cl = coef + 2 * width * r;
        d[r] = forward(&C, ids + width * r, cl, cl + width, 1 + n_children[r], 0,
                       scratch, scratch + 2 * n_f, scratch + 3 * n_f);
    }
    free(scratch);
    return 0;
}

typedef struct {
    double *theta, *vel;  /* the embedding rows, (V, n_f) */
    int64_t n_f, n_symbols;
    const double *p, *q;  /* M^k for k = 0..steps */
    int64_t *stamp;       /* per row, the step it was last brought to */
    double *row;          /* (n_f) */
} Rows;

/* Bring row r from its stamp to step t; 0, with the row left as it was, if
   that makes an entry non-finite. */
static int bring_up(const Rows *R, int64_t r, int64_t t)
{
    const int64_t k = t - R->stamp[r];
    if (k == 0)
        return 1;
    double *theta = R->theta + r * R->n_f, *vel = R->vel + r * R->n_f;
    const double p = R->p[k], q = R->q[k];
    int bad = 0;
    for (int64_t i = 0; i < R->n_f; i++) {
        R->row[i] = theta[i] + p * vel[i];
        bad |= nonfinite(R->row[i]);
    }
    if (bad)
        return 0;
    for (int64_t i = 0; i < R->n_f; i++) {
        theta[i] = R->row[i];
        vel[i] = q * vel[i];
    }
    R->stamp[r] = t;
    return 1;
}

/* The first step before `limit` after which some row, brought up lazily,
   holds a non-finite entry; `limit` if there is none. */
static int64_t first_failure(const Rows *R, int64_t limit)
{
    for (int64_t r = 0; r < R->n_symbols; r++) {
        const double *theta = R->theta + r * R->n_f, *vel = R->vel + r * R->n_f;
        for (int64_t step = R->stamp[r]; step < limit; step++) {
            const double p = R->p[step - R->stamp[r] + 1];
            int bad = 0;
            for (int64_t i = 0; i < R->n_f; i++)
                bad |= nonfinite(theta[i] + p * vel[i]);
            if (bad) {
                limit = step;
                break;
            }
        }
    }
    return limit;
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
    const int64_t n_s = 2 * n_f, n_w = n_f * n_s;
    double *w = theta + n_symbols * n_f, *vw = vel + n_symbols * n_f;
    double *b = w + n_w, *vb = vw + n_w;

    /* p, q (n_steps + 1 each), s and u (2 n_s each), h, e and dz (2 n_f
       each), grad (2 width n_f), row (n_f) */
    double *scratch = malloc(sizeof(double) *
                             (2 * (n_steps + 1) + 7 * n_s + 2 * width * n_f + n_f));
    /* stamp and slot (n_symbols each), touched (2 width) */
    int64_t *index = malloc(sizeof(int64_t) * (2 * n_symbols + 2 * width));
    if (!scratch || !index) {
        free(scratch);
        free(index);
        return -2;
    }
    double *p = scratch, *q = p + n_steps + 1, *s = q + n_steps + 1, *u = s + 2 * n_s;
    double *h = u + 2 * n_s, *e = h + 2 * n_f, *dz = e + 2 * n_f;
    double *grad = dz + 2 * n_f, *row = grad + 2 * width * n_f;
    int64_t *stamp = index, *slot = stamp + n_symbols, *touched = slot + n_symbols;

    p[0] = 0.0;
    q[0] = 1.0;
    for (int64_t k = 0; k < n_steps; k++) {
        p[k + 1] = p[k] + (-alpha * eps) * q[k];
        q[k + 1] = eps * q[k];
    }
    for (int64_t r = 0; r < n_symbols; r++) {
        stamp[r] = 0;
        slot[r] = -1;
    }
    const Rows R = {theta, vel, n_f, n_symbols, p, q, stamp, row};
    const Coder C = {theta, w, b, n_f};

    double total = 0.0;
    int64_t active = 0;
    int64_t failed = -1;
    for (int64_t t = 0; t < n_steps; t++) {
        const uint8_t *ids[2] = {pairs + 2 * width * t, pairs + 2 * width * t + width};
        const double *cl = coef + 2 * width * rows[t], *cr = cl + width;
        const int64_t m = 1 + n_children[rows[t]];
        for (int64_t j = 0; j < m; j++)
            if (!bring_up(&R, ids[0][j], t) || !bring_up(&R, ids[1][j], t)) {
                failed = first_failure(&R, t);
                goto done;
            }

        /* the real row, then its corrupted copy, which reuses s and h when
           only its parent differs */
        double d[2];
        for (int pi = 0; pi < 2; pi++) {
            const int coded = pi == 1 && ids[1][0] != ids[0][0];
            if (coded) {
                memcpy(s + n_s, s, sizeof(double) * n_s);
                memcpy(h + n_f, h, sizeof(double) * n_f);
            }
            d[pi] = forward(&C, ids[pi], cl, cr, m, coded,
                            s + pi * n_s, h + pi * n_f, e + pi * n_f);
        }
        const double margin = delta + d[0] - d[1];
        const double hinge = margin > 0.0 ? margin : 0.0;
        total += hinge;
        active += hinge > 0.0;
        int bad = nonfinite(hinge);

        if (hinge > 0.0) {
            /* de = +-2 e (kept in e), dz = de (h^2 - 1), u = w^T dz, all at
               the parameters before this step */
            memset(u, 0, sizeof(double) * 2 * n_s);
            for (int pi = 0; pi < 2; pi++) {
                double *ep = e + pi * n_f, *hp = h + pi * n_f, *dp = dz + pi * n_f;
                double *up = u + pi * n_s;
                for (int64_t i = 0; i < n_f; i++) {
                    ep[i] = (pi ? -2.0 : 2.0) * ep[i];
                    dp[i] = ep[i] * (hp[i] * hp[i] - 1.0);
                }
                for (int64_t i = 0; i < n_f; i++)
                    for (int64_t k = 0; k < n_s; k++)
                        up[k] += dp[i] * w[i * n_s + k];
            }
            /* one gradient row per distinct symbol of the pair, summed slot
               by slot: de on the parent, cl w_l^T dz + cr w_r^T dz on a child */
            int64_t n_touched = 0;
            for (int pi = 0; pi < 2; pi++)
                for (int64_t j = 0; j < m; j++) {
                    const int64_t sym = ids[pi][j];
                    if (slot[sym] < 0) {
                        slot[sym] = n_touched;
                        touched[n_touched++] = sym;
                        memset(grad + slot[sym] * n_f, 0, sizeof(double) * n_f);
                    }
                    double *g = grad + slot[sym] * n_f;
                    const double *ep = e + pi * n_f, *up = u + pi * n_s;
                    if (j == 0)
                        for (int64_t i = 0; i < n_f; i++)
                            g[i] += ep[i];
                    else
                        for (int64_t i = 0; i < n_f; i++)
                            g[i] += cl[j] * up[i] + cr[j] * up[n_f + i];
                }
            for (int64_t i = 0; i < n_f; i++) {
                const double *s0 = s, *s1 = s + n_s;
                double *wi = w + i * n_s, *vi = vw + i * n_s;
                const double dz0 = dz[i], dz1 = dz[n_f + i];
                for (int64_t k = 0; k < n_s; k++) {
                    vi[k] = eps * vi[k] + (l2 * wi[k] + (dz0 * s0[k] + dz1 * s1[k]));
                    wi[k] -= alpha * vi[k];
                    bad |= nonfinite(wi[k]);
                }
            }
            for (int64_t i = 0; i < n_f; i++) {
                vb[i] = eps * vb[i] + (dz[i] + dz[n_f + i]);
                b[i] -= alpha * vb[i];
                bad |= nonfinite(b[i]);
            }
            for (int64_t k = 0; k < n_touched; k++) {
                const int64_t sym = touched[k];
                double *th = theta + sym * n_f, *v = vel + sym * n_f;
                const double *g = grad + k * n_f;
                for (int64_t i = 0; i < n_f; i++) {
                    v[i] = eps * v[i] + g[i];
                    th[i] -= alpha * v[i];
                    bad |= nonfinite(th[i]);
                }
                stamp[sym] = t + 1;
                slot[sym] = -1;
            }
        } else {
            for (int64_t k = 0; k < n_w; k++) {
                vw[k] = eps * vw[k] + l2 * w[k];
                w[k] -= alpha * vw[k];
                bad |= nonfinite(w[k]);
            }
            for (int64_t i = 0; i < n_f; i++) {
                vb[i] = eps * vb[i] + 0.0;  /* the zero gradient, as numpy adds it */
                b[i] -= alpha * vb[i];
                bad |= nonfinite(b[i]);
            }
        }
        if (bad) {
            failed = first_failure(&R, t);
            goto done;
        }
    }
    for (int64_t r = 0; r < n_symbols; r++)
        if (!bring_up(&R, r, n_steps)) {
            failed = first_failure(&R, n_steps);
            goto done;
        }

done:
    *hinge_total = total;
    *active_steps = active;
    free(scratch);
    free(index);
    return failed;
}
