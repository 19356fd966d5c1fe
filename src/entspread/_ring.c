/* The compiled passes of entspread: the Chebyshev recurrence step, and the
   per-block trim, phase and moment sums.

   Every CSV keeps the bytes numpy gave, so each pass does numpy's own
   arithmetic in numpy's order.  Built with -ffp-contract=off, so no product
   is fused into an addition unless written as fma(), save that GCC's
   vectorizer fuses what it takes for a complex product (see phase_rows);
   in ring_steps that changes no bit, as one product of each part is exact
   (a zero real part, or a halving).  -fno-math-errno lets sqrt vectorize
   and changes no result.  Where numpy's loops fuse (its complex product
   and absolute on FMA hardware), a pass takes `fused` from the caller,
   which probes what numpy does in the running process.

   Rows are complex values stored as interleaved (re, im) doubles; row s of
   a (count, width) stack starts `stride` complex values after row s - 1.

   ring_steps computes the orders first..last of

       U_k = -2i Hs U_{k-1} + U_{k-2}

   in place: order k goes into slot k % slots of `ring`, `slots` rows of
   `width` values, and reads its two predecessors from the slots before it.
   `d` (width values) and `o` (width - 1 values) are the diagonal and
   off-diagonal of -2i Hs on the window.  The arithmetic is grouped as the
   numpy step's ufuncs group it,

       ((d[i] U[i] + o[i] U[i+1]) + o[i-1] U[i-1]) + U_{k-2}[i],

   each product is (ar br - ai bi, ar bi + ai br), and order 1 is multiplied
   by the complex 0.5 last, which turns some -0.0 into +0.0 where a real
   halving would not. */

#include <math.h>
#include <stdint.h>

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

/* re + i im = a b for complex a, b at two interleaved doubles each. */
#define MUL(a, b, re, im)                    \
    re = a[0] * b[0] - a[1] * b[1];          \
    im = a[0] * b[1] + a[1] * b[0]

CLONES void ring_steps(double *ring, const double *d, const double *o, long width, long slots,
                       long first, long last)
{
    for (long k = first; k <= last; ++k) {
        double *restrict next = ring + 2 * width * (k % slots);
        const double *restrict cur = ring + 2 * width * ((k - 1) % slots);
        const double *restrict prev = ring + 2 * width * ((k - 2 + slots) % slots);
        double re, im, pr, pi;
        if (width == 1) {
            MUL(d, cur, re, im);
            next[0] = re + prev[0];
            next[1] = im + prev[1];
        } else {
            MUL(d, cur, re, im);
            MUL(o, (cur + 2), pr, pi);
            next[0] = (re + pr) + prev[0];
            next[1] = (im + pi) + prev[1];
            for (long i = 1; i < width - 1; ++i) {
                const double *di = d + 2 * i, *oi = o + 2 * i, *ci = cur + 2 * i;
                double ur, ui, lr, li;
                MUL(di, ci, re, im);
                MUL(oi, (ci + 2), ur, ui);
                MUL((oi - 2), (ci - 2), lr, li);
                next[2 * i] = ((re + ur) + lr) + prev[2 * i];
                next[2 * i + 1] = ((im + ui) + li) + prev[2 * i + 1];
            }
            long i = width - 1;
            MUL((d + 2 * i), (cur + 2 * i), re, im);
            MUL((o + 2 * i - 2), (cur + 2 * i - 2), pr, pi);
            next[2 * i] = (re + pr) + prev[2 * i];
            next[2 * i + 1] = (im + pi) + prev[2 * i + 1];
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

/* phase_rows: row s *= phases[s] in place, as numpy's complex product,
   (fma(ar, br, -ai bi), fma(ar, bi, ai br)) when fused.  The plain real
   part is written ar br + ai (-bi), the same bits as ar br - ai bi: GCC 12
   vectorizes that form as its complex-multiply pattern, fused whatever
   -ffp-contract says. */
static inline void phase_row(double *row, long width, double br, double bi, int fused)
{
    double minus_bi = -bi;
    for (long i = 0; i < width; ++i) {
        double ar = row[2 * i], ai = row[2 * i + 1];
        if (fused) {
            row[2 * i] = fma(ar, br, -(ai * bi));
            row[2 * i + 1] = fma(ar, bi, ai * br);
        } else {
            row[2 * i] = ar * br + ai * minus_bi;
            row[2 * i + 1] = ar * bi + ai * br;
        }
    }
}

CLONES void phase_rows(double *rows, long stride, long count, long width, const double *phases,
                       long fused)
{
    for (long s = 0; s < count; ++s)
        phase_row(rows + 2 * stride * s, width, phases[2 * s], phases[2 * s + 1], fused);
}

/* numpy's complex absolute, larger * sqrt(1 + ratio ratio) with ratio =
   smaller / larger; a NaN part makes it NaN, and an infinite part inf. */
static inline double magnitude(double re, double im, int fused)
{
    re = fabs(re), im = fabs(im);
    double larger = re > im ? re : im, smaller = im < re ? im : re;
    double ratio = larger == 0.0 ? 0.0 : smaller / larger;
    double size = sqrt(fused ? fma(ratio, ratio, 1.0) : ratio * ratio + 1.0) * larger;
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

/* Three sums over the sites lo..lo+n-1 of one row, into sums[0..2]: of the
   weights x^2 |a| (x = first + site), of those weights with the core sites
   [core_lo, core_hi) as 0.0, and of |a|^2.  Each is numpy's pairwise sum
   (np.add.reduce): `block_sum` up to 128 terms, a longer run split in two
   at n / 2 rounded down to a multiple of 8.  It recurses, so it is not
   inlined into moment_sums, and a helper a clone calls is built for the
   baseline ISA unless it carries CLONES itself. */
CLONES static void pairwise(const double *row, long lo, long n, long first, long core_lo,
                            long core_hi, int fused, double sums[3])
{
    if (n > 128) {
        long half = n / 2;
        half -= half % 8;
        double right[3];
        pairwise(row, lo, half, first, core_lo, core_hi, fused, sums);
        pairwise(row, lo + half, n - half, first, core_lo, core_hi, fused, right);
        sums[0] += right[0], sums[1] += right[1], sums[2] += right[2];
        return;
    }
    double a[128], w[128], o[128];
    const double *at = row + 2 * lo;
    for (long i = 0; i < n; ++i)
        a[i] = magnitude(at[2 * i], at[2 * i + 1], fused);
    for (long i = 0; i < n; ++i) {
        long site = lo + i;
        double x = (double)(first + site);
        w[i] = a[i] * (x * x);
        o[i] = (site >= core_lo && site < core_hi) ? 0.0 : w[i];
        a[i] = a[i] * a[i];
    }
    sums[0] = block_sum(w, n), sums[1] = block_sum(o, n), sums[2] = block_sum(a, n);
}

/* moment_sums: for each row s of `count`, out[s], out[count + s],
   out[2 count + s] and out[3 count + s] are the sums over all its sites of
   the weights, of the weights outside the core, of the weights on the core
   [core_lo, core_hi), and of |a|^2, each added to 0.0 as np.add.reduce adds
   to its identity.  The core sum is its own pairwise sum over the core's
   sites, as numpy sums a slice. */
CLONES void moment_sums(const double *rows, long stride, long count, long width, long first,
                        long core_lo, long core_hi, long fused, double *out)
{
    for (long s = 0; s < count; ++s) {
        const double *row = rows + 2 * stride * s;
        double all[3], core[3];
        pairwise(row, 0, width, first, core_lo, core_hi, fused, all);
        pairwise(row, core_lo, core_hi - core_lo, first, 0, 0, fused, core);
        out[s] = 0.0 + all[0];
        out[count + s] = 0.0 + all[1];
        out[2 * count + s] = 0.0 + core[0];
        out[3 * count + s] = 0.0 + all[2];
    }
}
