/* The Chebyshev recurrence step of entspread.propagator, one pass per ring.

   ring_steps computes the orders first..last of

       U_k = -2i Hs U_{k-1} + U_{k-2}

   in place: order k goes into slot k % slots of `ring`, `slots` rows of
   `width` complex values stored as interleaved (re, im) doubles, and reads
   its two predecessors from the slots before it.  `d` (width values) and
   `o` (width - 1 values) are the diagonal and off-diagonal of -2i Hs on the
   window, complex as well.

   The bytes equal those of the numpy step this replaces, so the arithmetic
   is grouped as its ufuncs group it,

       ((d[i] U[i] + o[i] U[i+1]) + o[i-1] U[i-1]) + U_{k-2}[i],

   each product is numpy's (ar br - ai bi, ar bi + ai br), and order 1 is
   multiplied by the complex 0.5 last, which turns some -0.0 into +0.0 where
   a real halving would not.  Built with -ffp-contract=off, so no product is
   fused into an addition. */

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
