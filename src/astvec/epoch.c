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
   in the order written and the floats do not depend on the instruction set
   or the vector width. The loops over vectors run on `lanes`, LANES doubles
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
   forward pass reads in place of w. */
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

/* The coder of the flat parameters theta with velocity vel (zero if NULL),
   at the first of n_steps steps with the given hyperparameters. 0 if memory
   runs out. */
static int open_coder(Coder *C, const double *theta, const double *vel,
                      int64_t n_symbols, int64_t n_f, int64_t n_steps,
                      double l2, double alpha, double eps)
{
    const int64_t P = (n_f + LANES - 1) / LANES * LANES;
    const int64_t VP = (n_symbols + LANES - 1) / LANES * LANES;
    const int64_t n_w = 2 * P * n_f, n_maps = 4 * (n_steps + 1);
    C->block = calloc(2 * n_symbols * P + 2 * n_f * VP + 4 * (n_w + P)
                      + 8 * P * n_symbols + 2 * n_maps, sizeof(double));
    C->stamp = calloc(n_symbols, sizeof(int64_t));
    if (!C->block || !C->stamp) {
        free(C->block);
        free(C->stamp);
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

static void close_coder(Coder *C)
{
    free(C->block);
    free(C->stamp);
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
    double *scratch = malloc(sizeof(double) * 2 * C.P);  /* h and e */
    if (!scratch) {
        close_coder(&C);
        return -2;
    }
    for (int64_t r = 0; r < n_rows; r++) {
        const double *cl = coef + 2 * width * r;
        d[r] = forward(&C, 0, ids + width * r, cl, cl + width, 1 + n_children[r], 0,
                       scratch, scratch + C.P);
    }
    close_coder(&C);
    free(scratch);
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
    const int64_t P = C.P, n_s = 2 * P, VP = C.VP, n_slots = 2 * width;
    /* h, e and dz (2 P each), s and u (2 n_s each), sx (8 VP), per slot
       the row and velocity at the step and the gradient (P each), the
       gradients side by side (n_f, LANES), and their products with w and
       with vw (LANES, n_s each) */
    double *scratch = calloc(6 * P + 4 * n_s + 8 * VP + 3 * n_slots * P
                             + LANES * (n_f + 2 * n_s), sizeof(double));
    /* slot (n_symbols), touched (n_slots) */
    int64_t *index = malloc(sizeof(int64_t) * (n_symbols + n_slots));
    if (!scratch || !index) {
        free(scratch);
        free(index);
        close_coder(&C);
        return -2;
    }
    double *h = scratch, *e = h + 2 * P, *dz = e + 2 * P, *s = dz + 2 * P;
    double *u = s + 2 * n_s, *sx = u + 2 * n_s, *xs = sx + 8 * VP;
    double *vs = xs + n_slots * P, *grad = vs + n_slots * P, *gt = grad + n_slots * P;
    double *wg = gt + LANES * n_f, *vg = wg + LANES * n_s;
    int64_t *slot = index, *touched = slot + n_symbols;
    for (int64_t r = 0; r < n_symbols; r++)
        slot[r] = -1;

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
        rebase(&C, m_w, alpha, dz, s, sx);

        const int ok = step_rows(&C, t, n_touched, touched, xs, vs, grad, alpha, eps,
                                 gt, wg, vg);
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
    free(scratch);
    free(index);
    return t;
}
