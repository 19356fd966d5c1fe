/* The compiled passes of entspread: the Chebyshev recurrence step and the
   flush of its orders into the samples, the per-block trim, phase and
   moment sums, the closed form's Bessel rows (miller_rows) and their sums
   over the orders (order_sums), and the write and read of a series CSV's
   rows (format_rows, parse_rows).  The bessel module builds and loads this
   one library; the propagator and seriesio bind their passes from there.
   format_rows is integer arithmetic save a rare call of snprintf, so it
   has no clones and does not depend on the flags below.

   Each pass computes one arithmetic, written here, whatever the CPU, its
   clone (x86-64-v4, v3 or the baseline) or what numpy dispatches; none
   calls a BLAS.  ring_flush is one fma per term (see there); phase_rows
   and the magnitude of moment_sums are written with fma() too, as numpy's
   complex product and absolute are on FMA hardware; the moment and order
   sums share one pairwise rule, numpy's, as the module's own
   (`pairwise`).  edge_counts and miller_rows keep the bytes numpy gave,
   numpy's own arithmetic in numpy's order.  Built with -ffp-contract=off,
   so no product is fused into an addition unless written as fma(), save
   that GCC's vectorizer fuses what it takes for a complex product; the one
   such form, ring_steps' halving of order 1, changes no bit so, as both
   products are exact (a halving and a zero).  -fno-math-errno lets sqrt
   vectorize and changes no result.

   Rows are complex values stored as interleaved (re, im) doubles; row s of
   a (count, width) stack starts `stride` complex values after row s - 1.

   ring_steps computes the orders first..last of

       U_k = -2i Hs U_{k-1} + U_{k-2}

   in place: order k goes into slot k % slots of `ring`, `slots` rows of
   `width` values `spacing` complex values apart, and reads its two
   predecessors from the slots before it.  -2i Hs is purely imaginary: `d`
   (width doubles) and `o` (width - 1 doubles) are the imaginary parts of
   its diagonal and off-diagonal on the window.  With c = U_{k-1}, each
   part of

       s[i] = (d[i] c[i] + o[i] c[i+1]) + o[i-1] c[i-1]

   is summed in that order (an end site has no term past the end), and
   U_k[i] = U_{k-2}[i] + i s[i] = (U_{k-2}.re - s.im, s.re + U_{k-2}.im).
   Order 1 is then multiplied by the complex 0.5 + 0i, (re 0.5 - im 0.0,
   re 0.0 + im 0.5), which turns some -0.0 into +0.0 where a real halving
   would not.  That is 64 bytes of memory traffic a site, and one product
   and one addition a term and part. */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "format_rows needs a compiler with unsigned __int128 (GCC or Clang on a 64-bit target)"
#endif

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

/* Four doubles, two complex values, loaded from any 8-byte boundary. */
typedef double quad __attribute__((vector_size(4 * sizeof(double)), aligned(8)));
typedef int64_t quad_bits __attribute__((vector_size(4 * sizeof(double))));

CLONES void ring_steps(double *ring, long spacing, const double *d, const double *o,
                       long width, long slots, long first, long last)
{
    /* the sign bit of each real part: prev + i s is (prev_re - s_im, prev_im + s_re) */
    const quad_bits real_signs = {INT64_MIN, 0, INT64_MIN, 0};
    for (long k = first; k <= last; ++k) {
        double *restrict next = ring + 2 * spacing * (k % slots);
        const double *restrict cur = ring + 2 * spacing * ((k - 1) % slots);
        const double *restrict prev = ring + 2 * spacing * ((k - 2 + slots) % slots);
        if (width == 1) {
            next[0] = prev[0] - d[0] * cur[1];
            next[1] = d[0] * cur[0] + prev[1];
        } else {
            next[0] = prev[0] - (d[0] * cur[1] + o[0] * cur[3]);
            next[1] = (d[0] * cur[0] + o[0] * cur[2]) + prev[1];
            long i = 1;
            /* two sites a pass: s per part for the (re, im) pairs, its
               parts swapped and the real ones negated by their sign bit,
               as prev + (-x) is prev - x bit for bit */
            for (; i + 2 < width; i += 2) {
                const double *c = cur + 2 * i;
                quad dd = {d[i], d[i], d[i + 1], d[i + 1]}, oo = {o[i], o[i], o[i + 1], o[i + 1]},
                     ll = {o[i - 1], o[i - 1], o[i], o[i]};
                quad s = (dd * *(const quad *)c + oo * *(const quad *)(c + 2)) + ll * *(const quad *)(c - 2);
                quad swapped = __builtin_shufflevector(s, s, 1, 0, 3, 2);
                *(quad *)(next + 2 * i) =
                    *(const quad *)(prev + 2 * i) + (quad)((quad_bits)swapped ^ real_signs);
            }
            for (; i < width - 1; ++i) {
                const double *c = cur + 2 * i;
                next[2 * i] = prev[2 * i] - ((d[i] * c[1] + o[i] * c[3]) + o[i - 1] * c[-1]);
                next[2 * i + 1] = ((d[i] * c[0] + o[i] * c[2]) + o[i - 1] * c[-2]) + prev[2 * i + 1];
            }
            const double *c = cur + 2 * i;
            next[2 * i] = prev[2 * i] - (d[i] * c[1] + o[i - 1] * c[-1]);
            next[2 * i + 1] = (d[i] * c[0] + o[i - 1] * c[-2]) + prev[2 * i + 1];
        }
        if (k == 1) {
            for (long i = 0; i < width; ++i) {
                double xr = next[2 * i], xi = next[2 * i + 1];
                next[2 * i] = xr * 0.5 - xi * 0.0;
                next[2 * i + 1] = xr * 0.0 + xi * 0.5;
            }
        }
    }
}

/* edge_counts: for each row, the number of outer sites from the left end
   (out[s]) and from the right end (out[count + s]) whose running sum of
   re re + im im stays <= budget.  The sum runs site by site, as np.cumsum
   does, and stops at the first site past the budget. */
CLONES void edge_counts(const double *rows, long stride, long count, long width, double budget,
                        int64_t *out)
{
    for (long s = 0; s < count; ++s) {
        const double *row = rows + 2 * stride * s;
        double sum = 0.0;
        long n = 0;
        for (; n < width; ++n) {
            double re = row[2 * n] * row[2 * n], im = row[2 * n + 1] * row[2 * n + 1];
            sum += re + im;
            if (!(sum <= budget))
                break;
        }
        out[s] = n;
        sum = 0.0;
        for (n = 0; n < width; ++n) {
            const double *x = row + 2 * (width - 1 - n);
            double re = x[0] * x[0], im = x[1] * x[1];
            sum += re + im;
            if (!(sum <= budget))
                break;
        }
        out[count + s] = n;
    }
}

/* phase_rows: row s *= phases[s] in place, each product a b as
   (fma(ar, br, -(ai bi)), fma(ar, bi, ai br)), numpy's where its loops fuse. */
static inline void phase_row(double *row, long width, double br, double bi)
{
    for (long i = 0; i < width; ++i) {
        double ar = row[2 * i], ai = row[2 * i + 1];
        row[2 * i] = fma(ar, br, -(ai * bi));
        row[2 * i + 1] = fma(ar, bi, ai * br);
    }
}

CLONES void phase_rows(double *rows, long stride, long count, long width, const double *phases)
{
    for (long s = 0; s < count; ++s)
        phase_row(rows + 2 * stride * s, width, phases[2 * s], phases[2 * s + 1]);
}

/* |a| as larger * sqrt(fma(ratio, ratio, 1.0)) with ratio = smaller /
   larger, numpy's complex absolute where its loops fuse; a NaN part makes
   it NaN, and an infinite part inf. */
static inline double magnitude(double re, double im)
{
    re = fabs(re), im = fabs(im);
    double larger = re > im ? re : im, smaller = im < re ? im : re;
    double ratio = larger == 0.0 ? 0.0 : smaller / larger;
    double size = larger * sqrt(fma(ratio, ratio, 1.0));
    size = isunordered(re, im) ? re + im : size;
    return (re == INFINITY || im == INFINITY) ? INFINITY : size;
}

/* numpy's pairwise sum of v[0..n-1] for n <= 128, its base case: from
   -0.0 below 8 terms, else in 8 accumulators and then the rest in turn. */
static inline double block_sum(const double *v, long n)
{
    if (n < 8) {
        double sum = -0.0;
        for (long i = 0; i < n; ++i)
            sum += v[i];
        return sum;
    }
    double r[8];
    for (int j = 0; j < 8; ++j)
        r[j] = v[j];
    long i = 8;
    for (; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; ++j)
            r[j] += v[i + j];
    double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; ++i)
        sum += v[i];
    return sum;
}

/* What a pairwise sum adds up.  SITES: three sums over the sites of a row
   of amplitudes, of the weights x^2 |a| (x = first + site), of those
   weights with the core sites [core_lo, core_hi) as 0.0, and of |a|^2.
   WEIGHTS and SQUARES: one sum over the orders k of a real Bessel row, of
   k^2 |J_k| or of J_k^2. */
enum terms { SITES, WEIGHTS, SQUARES };

struct summand {
    enum terms kind;
    const double *row;
    long first, core_lo, core_hi;
};

/* The terms lo..lo+n-1 (n <= 128) of `of` into t[0..]; returns how many sums they feed. */
static inline int terms(const struct summand *of, long lo, long n, double t[3][128])
{
    const double *row = of->row;
    if (of->kind == WEIGHTS) {
        for (long i = 0; i < n; ++i) {
            double k = (double)(lo + i);
            t[0][i] = fabs(row[lo + i]) * (k * k);
        }
        return 1;
    }
    if (of->kind == SQUARES) {
        for (long i = 0; i < n; ++i)
            t[0][i] = row[lo + i] * row[lo + i];
        return 1;
    }
    /* The fields are read once: for all GCC knows, stores into t could
       change them, and reading them per term kept the loops from being
       vectorized (moment_sums took 1.5 times as long). */
    double *a = t[2], *w = t[0], *o = t[1];
    long first = of->first, core_lo = of->core_lo, core_hi = of->core_hi;
    const double *at = row + 2 * lo;
    for (long i = 0; i < n; ++i)
        a[i] = magnitude(at[2 * i], at[2 * i + 1]);
    for (long i = 0; i < n; ++i) {
        long site = lo + i;
        double x = (double)(first + site);
        w[i] = a[i] * (x * x);
        o[i] = (site >= core_lo && site < core_hi) ? 0.0 : w[i];
        a[i] = a[i] * a[i];
    }
    return 3;
}

/* The sums of `of` over the terms lo..lo+n-1, into sums[0..]; returns how
   many.  Each is the module's pairwise sum, numpy's rule for np.add.reduce:
   `block_sum` up to 128 terms, a longer run split in two at n / 2 rounded
   down to a multiple of 8.  It recurses, so it is not inlined into its
   callers, and a helper a clone calls is built for the baseline ISA unless
   it carries CLONES itself. */
CLONES static int pairwise(const struct summand *of, long lo, long n, double sums[3])
{
    if (n > 128) {
        long half = n / 2;
        half -= half % 8;
        double right[3];
        int count = pairwise(of, lo, half, sums);
        pairwise(of, lo + half, n - half, right);
        for (int j = 0; j < count; ++j)
            sums[j] += right[j];
        return count;
    }
    double t[3][128];
    int count = terms(of, lo, n, t);
    for (int j = 0; j < count; ++j)
        sums[j] = block_sum(t[j], n);
    return count;
}

/* moment_sums: for each row s of `count`, out[s], out[count + s],
   out[2 count + s] and out[3 count + s] are the sums over all its sites of
   the weights, of the weights outside the core, of the weights on the core
   [core_lo, core_hi), and of |a|^2, each added to 0.0 as np.add.reduce adds
   to its identity.  The core sum is its own pairwise sum over the core's
   sites, as numpy sums a slice. */
CLONES void moment_sums(const double *rows, long stride, long count, long width, long first,
                        long core_lo, long core_hi, double *out)
{
    for (long s = 0; s < count; ++s) {
        struct summand all = {SITES, rows + 2 * stride * s, first, core_lo, core_hi};
        struct summand core = {SITES, all.row, first, 0, 0};
        double sums[3], on_core[3];
        pairwise(&all, 0, width, sums);
        pairwise(&core, core_lo, core_hi - core_lo, on_core);
        out[s] = 0.0 + sums[0];
        out[count + s] = 0.0 + sums[1];
        out[2 * count + s] = 0.0 + on_core[0];
        out[3 * count + s] = 0.0 + sums[2];
    }
}

/* order_sums: for each Bessel row s of `count`, J_0..J_{length-1} at
   `length` doubles per row, out[s] and out[count + s] are the sums of
   k^2 |J_k| over the orders 1..core and core+1..length-1, and
   out[2 count + s] the sum of J_k^2 over 1..length-1, each added to 0.0
   as np.add.reduce of the slice adds it. */
CLONES void order_sums(const double *rows, long count, long length, long core, double *out)
{
    long inner = core < length - 1 ? core : length - 1;
    for (long s = 0; s < count; ++s) {
        struct summand weights = {WEIGHTS, rows + length * s, 0, 0, 0};
        struct summand squares = {SQUARES, weights.row, 0, 0, 0};
        double on_core[3], off_core[3], sum_squares[3];
        pairwise(&weights, 1, inner, on_core);
        pairwise(&weights, 1 + inner, length - 1 - inner, off_core);
        pairwise(&squares, 1, length - 1, sum_squares);
        out[s] = 0.0 + on_core[0];
        out[count + s] = 0.0 + off_core[0];
        out[2 * count + s] = 0.0 + sum_squares[0];
    }
}

/* miller_rows: the rows J_0(x)..J_{order_max}(x) of `count` arguments
   x > 0, one row of order_max + 1 doubles per argument, by Miller's
   backward recurrence from order `start` (Gautschi, SIAM Rev. 9, 24
   (1967)).  From v_{start+1} = 0 and v_start = 1 it runs, for n = start
   down to 1,

       v_{n-1} = ((double)n * (2 / x)) v_n - v_{n+1},

   adding each even v_n (n >= 2) into `half` before its step.  A v_{n-1}
   past RESCALE_LIMIT scales v_{n-1}, v_n, the stored orders n..order_max
   and half by RESCALE_FACTOR, for that argument alone.  Each row is then
   divided by its norm 2 half + v_0 (as J_0 + 2 sum_k J_2k = 1), and a
   value below FLUSH_THRESHOLD in magnitude becomes +0.0.  These are the
   numpy recurrence's operations in its order, so the rows keep its bytes
   (the test suite's bessel_rows_numpy).  MILLER_LANES arguments run side
   by side as one vector; spare lanes of the last group repeat its last
   argument and store nothing. */
#define MILLER_LANES 8
#define RESCALE_LIMIT 1e250
#define RESCALE_FACTOR 1e-250
#define FLUSH_THRESHOLD 1e-300

typedef double miller_lanes __attribute__((vector_size(MILLER_LANES * sizeof(double))));
typedef int64_t lane_mask __attribute__((vector_size(MILLER_LANES * sizeof(double))));

/* Whether any lane of `*set` is set: its lanes or-ed together in halves. */
static inline int any_lane(const lane_mask *set)
{
    lane_mask mask = *set;
    for (int width = MILLER_LANES / 2; width > 0; width /= 2) {
        lane_mask turned;
        for (int i = 0; i < MILLER_LANES; ++i)
            turned[i] = mask[(i + width) % MILLER_LANES];
        mask |= turned;
    }
    return mask[0] != 0;
}

CLONES void miller_rows(const double *args, long count, long order_max, long start, double *rows)
{
    /* |v| > RESCALE_LIMIT is compared on the bits of |v|, which order as
       the magnitudes do. */
    double limit = RESCALE_LIMIT;
    int64_t limit_bits;
    memcpy(&limit_bits, &limit, sizeof limit_bits);
    long length = order_max + 1;
    for (long g = 0; g < count; g += MILLER_LANES) {
        long lanes = count - g < MILLER_LANES ? count - g : MILLER_LANES;
        double *out = rows + length * g;
        miller_lanes t, vp = {0.0}, vc, half = {0.0};
        for (int i = 0; i < MILLER_LANES; ++i)
            t[i] = 2.0 / args[g + (i < lanes ? i : lanes - 1)], vc[i] = 1.0;
        for (long n = start; n > 0; --n) {
            if (n <= order_max)
                for (long i = 0; i < lanes; ++i)
                    out[length * i + n] = vc[i];
            if ((n & 1) == 0)
                half += vc;
            miller_lanes vm = ((double)n * t) * vc - vp;
            lane_mask big = ((lane_mask)vm & INT64_MAX) > limit_bits;
            if (any_lane(&big))
                for (long i = 0; i < MILLER_LANES; ++i)
                    if (big[i]) {
                        vm[i] *= RESCALE_FACTOR, vc[i] *= RESCALE_FACTOR;
                        half[i] *= RESCALE_FACTOR;
                        if (i < lanes)
                            for (long k = n; k <= order_max; ++k)
                                out[length * i + k] *= RESCALE_FACTOR;
                    }
            vp = vc, vc = vm;
        }
        for (long i = 0; i < lanes; ++i) {
            double *row = out + length * i, norm = 2.0 * half[i] + vc[i];
            row[0] = vc[i];
            for (long k = 0; k < length; ++k) {
                double y = row[k] / norm;
                row[k] = fabs(y) < FLUSH_THRESHOLD ? 0.0 : y;
            }
        }
    }
}

/* ring_flush: the orders done..last of a ring added into the sample rows.
   For each sample s whose need[s] > done,

       rows[s] = fma(coeffs[s, j], U_j, rows[s])   for j = done .. min(last, need[s] - 1)

   in ascending j, one real fma per double of the (re, im) rows, U_j being
   slot j % slots of `ring` (as in ring_steps) and coeffs[s, j] at
   `coeff_stride` doubles per row.  The first flush (done == 0) starts
   every row from 0.0.  So each double of sample s is one fixed sequence of
   roundings over its first need[s] orders, whatever the ring size or the
   tiling below.  fma() is written out, not left to -ffp-contract: a build
   without an FMA unit calls libm's, which rounds alike.

   The rows are cut into tiles of TILE_ROWS samples by TILE_VECS vectors,
   each tile's sums held in registers while the ring's orders pass over it;
   a tile column's ring orders stay in L1 while its tiles run down the
   samples.  The samples go in groups of TILE_ROWS from the last one, as a
   block's later samples need more orders, so the first count % TILE_ROWS
   go alone.  A group's tile runs up to the least stop of its rows, and each
   row then finishes alone, as do the doubles past the last whole tile
   column.  The tile is sized per instruction set so that its sums, three
   ring vectors and a coefficient fit the vector registers (Goto & van de
   Geijn, ACM TOMS 34, 12 (2008)): 4 x 3 zmm sums of 32 registers for
   x86-64-v4, 4 x 3 ymm of 16 for x86-64-v3 (and the baseline), each
   function built for its ISA and picked at the call.  The kernel starts every ring slot on a
   64-byte line, so that no vector load of the ring splits a cache line. */
#define TILE_ROWS 4
#define TILE_VECS 3
#define FLUSH_BATCH 256 /* most samples one sweep of the tile columns plans for */

struct flush {
    double *rows;
    long stride, count, width;
    const double *ring;
    long spacing, slots;
    const double *coeffs;
    long coeff_stride;
    const int64_t *need;
    long done, last;
};

/* flush_tile_N: the orders from..stop-1 into `count` rows (TILE_ROWS or 1)
   of one tile TILE_VECS vectors of N doubles wide, order `from` being in
   slot `at` of the ring; strides in doubles.
   The sums are taken lane by lane, which each build vectorizes as its ISA
   allows; a vector wider than the ISA's registers would live on the stack. */
#define FLUSH_TILE(N, vector)                                                                      \
    static inline __attribute__((always_inline)) void flush_tile_##N(                              \
        double *rows, long stride, int count, const double *ring, long spacing, long slots,         \
        long at, const double *coeffs, long coeff_stride, long from, long stop)                    \
    {                                                                                              \
        vector sums[TILE_ROWS][TILE_VECS];                                                         \
        _Pragma("GCC unroll 16") for (int r = 0; r < count; ++r)                                   \
            _Pragma("GCC unroll 16") for (int v = 0; v < TILE_VECS; ++v)                           \
        {                                                                                          \
            /* these rows' next tile column, due once this column's tiles are done */              \
            __builtin_prefetch(rows + stride * r + N * (v + TILE_VECS), 1);                        \
            sums[r][v] = from == 0 ? (vector){0.0} : *(const vector *)(rows + stride * r + N * v); \
        }                                                                                          \
        const double *u = ring + spacing * at;                                                     \
        for (long j = from; j < stop; ++j, u += spacing) {                                         \
            if (u == ring + spacing * slots)                                                       \
                u = ring;                                                                          \
            _Pragma("GCC unroll 16") for (int r = 0; r < count; ++r)                               \
            {                                                                                      \
                double c = coeffs[coeff_stride * r + j];                                           \
                _Pragma("GCC unroll 16") for (int v = 0; v < TILE_VECS; ++v)                       \
                {                                                                                  \
                    vector sum = sums[r][v], x = *(const vector *)(u + N * v);                     \
                    for (int i = 0; i < N; ++i)                                                    \
                        sum[i] = fma(c, x[i], sum[i]);                                             \
                    sums[r][v] = sum;                                                              \
                }                                                                                  \
            }                                                                                      \
        }                                                                                          \
        _Pragma("GCC unroll 16") for (int r = 0; r < count; ++r)                                   \
            _Pragma("GCC unroll 16") for (int v = 0; v < TILE_VECS; ++v)                           \
                *(vector *)(rows + stride * r + N * v) = sums[r][v];                               \
    }

typedef double octet __attribute__((vector_size(8 * sizeof(double)), aligned(8)));
FLUSH_TILE(8, octet)
FLUSH_TILE(4, quad)

/* The orders from..stop-1 into the doubles [first, length) of one row,
   order `from` being in slot `at` of the ring: order by order, so that the
   doubles' fmas are independent. */
static inline __attribute__((always_inline)) void
flush_rest(double *row, long first, long length, const double *ring, long spacing, long slots,
           long at, const double *coeffs, long from, long stop)
{
    if (from == 0)
        for (long q = first; q < length; ++q)
            row[q] = 0.0;
    const double *u = ring + spacing * at;
    for (long j = from; j < stop; ++j, u += spacing) {
        if (u == ring + spacing * slots)
            u = ring;
        double c = coeffs[j];
        for (long q = first; q < length; ++q)
            row[q] = fma(c, u[q], row[q]);
    }
}

/* A tile's rows and orders: `rows` samples from sample s, TILE_ROWS or 1,
   take the orders from..stop-1, order `from` being in slot `at`. */
struct piece {
    long s, rows, from, stop, at;
};

/* The piece of `rows` samples from s over the orders from..stop-1. */
static inline struct piece piece(const struct flush *f, long s, long rows, long from, long stop)
{
    return (struct piece){s, rows, from, stop, from % f->slots};
}

/* The pieces of a flush of at most FLUSH_BATCH samples, in the order they
   run down a tile column, into `pieces` (room for 2 count); returns how many. */
static long flush_pieces(const struct flush *f, struct piece *pieces)
{
    long count = f->count, done = f->done, head = count % TILE_ROWS, n = 0;
    long stops[FLUSH_BATCH];
    for (long s = 0; s < count; ++s)
        stops[s] = f->need[s] > f->last ? f->last + 1 : f->need[s];
    for (long s = 0; s < head; ++s)
        if (done == 0 || stops[s] > done)
            pieces[n++] = piece(f, s, 1, done, stops[s]);
    for (long s = head; s < count; s += TILE_ROWS) {
        long least = stops[s];
        for (long r = s + 1; r < s + TILE_ROWS; ++r)
            least = stops[r] < least ? stops[r] : least;
        /* the group's tile, where it has an order to add or rows to start */
        long from = least > done ? least : done;
        if (done == 0 || least > done)
            pieces[n++] = piece(f, s, TILE_ROWS, done, from);
        for (long r = s; r < s + TILE_ROWS; ++r)
            if (stops[r] > from)
                pieces[n++] = piece(f, r, 1, from, stops[r]);
    }
    return n;
}

/* ring_flush in tiles of N = `lanes` doubles a vector. */
static inline __attribute__((always_inline)) void flush_rows(const struct flush *f, int lanes)
{
    long stride = 2 * f->stride, spacing = 2 * f->spacing, coeff_stride = f->coeff_stride;
    long slots = f->slots, length = 2 * f->width;
    long cols = TILE_VECS * lanes, tiled = length - length % cols;
    double *rows = f->rows;
    const double *ring = f->ring, *coeffs = f->coeffs;
    struct piece pieces[2 * FLUSH_BATCH];
    long n = flush_pieces(f, pieces);
    for (long q = 0; q < tiled; q += cols)
        for (const struct piece *p = pieces; p < pieces + n; ++p) {
            double *at_rows = rows + stride * p->s + q;
            const double *at_coeffs = coeffs + coeff_stride * p->s;
            if (p->rows == TILE_ROWS)
                (lanes == 8 ? flush_tile_8 : flush_tile_4)(at_rows, stride, TILE_ROWS, ring + q,
                                                           spacing, slots, p->at, at_coeffs,
                                                           coeff_stride, p->from, p->stop);
            else
                (lanes == 8 ? flush_tile_8 : flush_tile_4)(at_rows, stride, 1, ring + q, spacing,
                                                           slots, p->at, at_coeffs, coeff_stride,
                                                           p->from, p->stop);
        }
    /* the doubles past the last tile column, row by row over each sample's orders */
    for (long s = 0; s < f->count; ++s) {
        long stop = f->need[s] > f->last ? f->last + 1 : f->need[s];
        if (f->done == 0 || stop > f->done)
            flush_rest(rows + stride * s, tiled, length, ring, spacing, slots, f->done % slots,
                       coeffs + coeff_stride * s, f->done, stop);
    }
}

/* One flush per instruction set, each with its own tile. */
#if defined(__x86_64__)
__attribute__((target("arch=x86-64-v4"))) static void flush_v4(const struct flush *f)
{
    flush_rows(f, 8);
}

__attribute__((target("arch=x86-64-v3"))) static void flush_v3(const struct flush *f)
{
    flush_rows(f, 4);
}
#endif

static void flush_baseline(const struct flush *f)
{
    flush_rows(f, 4);
}

void ring_flush(double *rows, long stride, long count, long width, const double *ring,
                long spacing, long slots, const double *coeffs, long coeff_stride,
                const int64_t *need, long done, long last)
{
    /* Batches of FLUSH_BATCH samples from the last one, the first batch the rest. */
    for (long s = 0, n = count % FLUSH_BATCH ? count % FLUSH_BATCH : FLUSH_BATCH; s < count;
         s += n, n = FLUSH_BATCH) {
        struct flush f = {rows + 2 * stride * s, stride, n, width, ring, spacing, slots,
                          coeffs + coeff_stride * s, coeff_stride, need + s, done, last};
#if defined(__x86_64__)
        if (__builtin_cpu_supports("x86-64-v4"))
            flush_v4(&f);
        else if (__builtin_cpu_supports("x86-64-v3"))
            flush_v3(&f);
        else
#endif
            flush_baseline(&f);
    }
}

/* parse_rows: the `rows` lines of a series CSV's body (the bytes after its
   header line), read in one pass.  A line ends in LF or CRLF, the last one
   possibly in neither; a blank line has no fields, any other one more than
   it has commas.  Field f of a line goes to column columns[f] of its row
   of `table` (`width` doubles a row) where columns[f] >= 0, and is skipped
   unread otherwise.  A field is read as float() reads it, in the C
   locale's decimal spelling: ASCII white space around a decimal number,
   inf, infinity or nan, with a sign or without.  strtod must consume all
   of it, and the hex and nan(...) spellings it would also take are
   refused.  glibc's strtod rounds correctly (Clinger, PLDI 1990), as
   float() does, so a field gives float()'s bits.

   The pass stops at the first line with another count than `fields` or a
   field it cannot read.  status[0] is that line's index, or `rows` when
   every line is read; status[1] the line's field count, or -1 when the
   count is right; status[2] and status[3] the offsets in `text` that bound
   its bad field, the one in the lowest column where there are several.
   Every byte read lies before text + length save the one past it, which
   must be a NUL and stops strtod: the caller passes the body where it lies
   in the file's bytes, and Python's bytes end in one. */
static int blank(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

/* Whether text[start, end) reads as a number, stored in *value. */
static int read_field(const char *start, const char *end, double *value)
{
    while (start < end && blank(*start))
        ++start;
    while (end > start && blank(end[-1]))
        --end;
    const char *digits = start + (start < end && (*start == '+' || *start == '-'));
    if (digits == end || memchr(digits, '(', end - digits))
        return 0;
    if (end - digits > 1 && digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X'))
        return 0;
    char *stop;
    *value = strtod(start, &stop);
    return stop == end;
}

void parse_rows(const char *text, long length, long rows, long fields, const int64_t *columns,
                long width, double *table, int64_t *status)
{
    const char *line = text, *last = text + length;
    status[1] = -1;
    for (long row = 0; row < rows; ++row) {
        const char *newline = memchr(line, '\n', last - line);
        const char *end = newline ? newline : last;
        if (end > line && end[-1] == '\r')
            --end;
        double *out = table + width * row;
        long count = 0, bad = width;
        for (const char *field = line; end > line; ++count) {
            const char *comma = memchr(field, ',', end - field), *stop = comma ? comma : end;
            long column = count < fields ? columns[count] : -1;
            if (column >= 0 && !read_field(field, stop, out + column) && column < bad) {
                bad = column;
                status[2] = field - text, status[3] = stop - text;
            }
            if (!comma) {
                ++count;
                break;
            }
            field = comma + 1;
        }
        if (count != fields || bad < width) {
            status[0] = row;
            if (count != fields)
                status[1] = count;
            return;
        }
        line = newline ? newline + 1 : last;
    }
    status[0] = rows;
}

/* format_rows: the `rows` x `cols` doubles of `table` (C order) as CSV
   rows, each cell spelled as Python's format(x, ".17g") spells it, cells
   joined by commas and every row ended by CRLF, into `out`; *length is
   the count of bytes written, at most rows (25 cols + 1).

   A finite nonzero |x| = m 2^e, its significand m shifted up to [2^63,
   2^64), is scaled by 10^k so that v = |x| 10^k lies in [10^16, 10^17):
   k = 16 - X, X the decimal exponent, first guessed from the top bit as
   floor((e + 64) log10 2), which is X or X + 1; a v below 10^16 is scaled
   again by 10^(k+1).  The powers are cached as Loitsch's are (PLDI 2010),
   at 128 bits: `powers` holds, for k = POWER_MIN..POWER_MAX, the four
   words {P >> 64, P mod 2^64, s, bound}, P = floor(10^k 2^s) in [2^127,
   2^128).  The 192-bit product m P is v 2^(s - e), exact or short of it by
   less than m units; from its top come v's integer part I < 2^57 and the
   64-bit fraction f.  The 17 digits are I rounded half to even.

   For k = 0..55, 10^k = 5^k 2^k with 5^k < 2^128, P is exact and bound
   is 0: every bit under I is known, and a tie (f = 2^63, nothing below)
   goes to the even I.  For any other k, P's relative error is under
   2^-127 and v under 2^57, so m P falls short of v by less than 2^-70 of
   a unit, and v's fraction lies in [f, f + 1 + 2^-6) units of 2^-64.
   Such an entry's bound is 1: a cell whose f is more than bound units
   from 2^63 rounds as f does, and one within it, which may round either
   way, is formatted by glibc's correctly rounded snprintf("%.16e")
   instead, its 17 digits and exponent taking the same spelling.  That is
   the pass's only fallback and its only floating point.  A table with
   wider bounds sends more cells to snprintf and gives the same bytes.

   The spelling is fixed for X = -4..16, else d.ddde±XX with two exponent
   digits at least, trailing zeros and a bare point stripped; zeros are 0
   and -0, infinities inf and -inf, and a NaN of either sign is nan. */
#define POWER_MIN (-293)
#define POWER_MAX 341
#define TEN_16 10000000000000000ULL
#define HALF (1ULL << 63)

typedef unsigned __int128 u128;

static const char digit_pairs[201] =
    "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849"
    "5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/* The 8 decimal digits of v < 10^8 into d[0..7]. */
static inline void eight_digits(uint32_t v, char *d)
{
    uint32_t parts[4] = {v / 1000000, v / 10000 % 100, v / 100 % 100, v % 100};
    for (int i = 0; i < 4; ++i)
        memcpy(d + 2 * i, digit_pairs + 2 * parts[i], 2);
}

/* The 17 significant digits of finite nonzero |x| into d, as snprintf rounds them; returns X. */
static int snprintf_digits(double x, char *d)
{
    char text[40];
    snprintf(text, sizeof text, "%.16e", fabs(x));
    const char *c = text;
    /* the digits, past a decimal point of whatever locale */
    for (int i = 0; i < 17; ++i, ++c) {
        while (*c < '0' || *c > '9')
            ++c;
        d[i] = *c;
    }
    return atoi(strchr(c, 'e') + 1);
}

/* The 17 significant digits of finite nonzero |x| rounded half to even into d; returns X. */
static int cell_digits(double x, const uint64_t *powers, char *d)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((1ULL << 52) - 1);
    int e = biased ? biased - 1075 : -1074;
    m |= biased ? 1ULL << 52 : 0;
    int lead = __builtin_clzll(m);
    m <<= lead, e -= lead;
    /* floor(n log10 2) is n 78913 >> 18 for |n| <= 1650 */
    int k = 16 - ((e + 64) * 78913 >> 18);
    for (;; ++k) {
        const uint64_t *p = powers + 4 * (k - POWER_MIN);
        u128 low = (u128)m * p[1];
        u128 high = (u128)m * p[0] + (low >> 64);
        int under = (int)((int64_t)p[2] - e - 64); /* the bits of `high` under I: 70..78 */
        uint64_t whole = (uint64_t)(high >> under);
        if (whole < TEN_16)
            continue;
        uint64_t fraction = (uint64_t)(high << (128 - under) >> 64), bound = p[3];
        int up;
        if (bound == 0) {
            int below = ((uint64_t)low | (uint64_t)(high << (192 - under) >> 64)) != 0;
            up = fraction > HALF || (fraction == HALF && (below || (whole & 1)));
        } else if ((fraction > HALF ? fraction - HALF : HALF - fraction) <= bound) {
            return snprintf_digits(x, d);
        } else {
            up = fraction > HALF;
        }
        whole += up;
        int exponent = 16 - k;
        if (whole == 10 * TEN_16)
            whole = TEN_16, ++exponent;
        d[0] = (char)('0' + whole / TEN_16);
        whole %= TEN_16;
        eight_digits((uint32_t)(whole / 100000000), d + 1);
        eight_digits((uint32_t)(whole % 100000000), d + 9);
        return exponent;
    }
}

/* format(x, ".17g") of one cell at out; returns the byte past it. */
static char *spell_cell(double x, const uint64_t *powers, char *out)
{
    if (isnan(x)) {
        memcpy(out, "nan", 3);
        return out + 3;
    }
    if (signbit(x))
        *out++ = '-';
    if (isinf(x)) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    if (x == 0.0) {
        *out = '0';
        return out + 1;
    }
    char d[17];
    int exponent = cell_digits(x, powers, d), n = 17;
    while (d[n - 1] == '0')
        --n;
    if (exponent < -4 || exponent > 16) {
        *out++ = d[0];
        if (n > 1) {
            *out++ = '.';
            memcpy(out, d + 1, n - 1);
            out += n - 1;
        }
        *out++ = 'e';
        *out++ = exponent < 0 ? '-' : '+';
        int size = abs(exponent);
        if (size >= 100)
            *out++ = (char)('0' + size / 100);
        memcpy(out, digit_pairs + 2 * (size % 100), 2);
        return out + 2;
    }
    if (exponent < 0) {
        memcpy(out, "0.", 2);
        memset(out + 2, '0', -exponent - 1);
        out += 1 - exponent;
        memcpy(out, d, n);
        return out + n;
    }
    int whole = exponent + 1;
    if (n <= whole) {
        memcpy(out, d, n);
        memset(out + n, '0', whole - n);
        return out + whole;
    }
    memcpy(out, d, whole);
    out[whole] = '.';
    memcpy(out + whole + 1, d + whole, n - whole);
    return out + n + 1;
}

void format_rows(const double *table, long rows, long cols, const uint64_t *powers, char *out,
                 int64_t *length)
{
    char *at = out;
    for (long r = 0; r < rows; ++r) {
        for (long c = 0; c < cols; ++c) {
            at = spell_cell(table[cols * r + c], powers, at);
            *at++ = ',';
        }
        memcpy(at - 1, "\r\n", 2);
        ++at;
    }
    *length = at - out;
}
