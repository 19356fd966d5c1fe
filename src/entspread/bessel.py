"""Integer-order Bessel functions of the first kind.

Everything downstream (closed-form chain amplitudes, Chebyshev propagator
coefficients, moment sums) consumes whole rows J_0(x)..J_K(x) at a fixed
argument, so the workhorse here is a row evaluator based on Miller's
backward recurrence: start the three-term recurrence

    J_{n-1}(x) = (2n/x) J_n(x) - J_{n+1}(x)

well above the highest requested order with arbitrary seed values, recurse
down to order zero, then rescale the whole row with the normalization
identity J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1.  Downward recursion is stable
precisely where upward recursion is not (order > argument), which is the
regime the superexponentially decaying wavefront tail lives in.

The batch evaluator `bessel_rows` runs the same recurrence across many
arguments at once and stores it order-major: one contiguous row per order,
holding that order for every argument, so each step writes the next lower
order in place from the two rows above it.  The unnormalized values grow
fast below the start, so they are rescaled whenever one would pass 1e250;
a cheap running bound tells the loop at which steps that test must run.
Only when normalizing does it turn the orders into one row per argument.

The independent cross-check, an ascending-series evaluator in extended
precision that shares no code with the recurrence, is in the test suite's
`oracles` module.
"""

from __future__ import annotations

import math

import numpy as np

# Magnitudes below this are flushed to exactly zero after normalization;
# keeps long moment sums out of subnormal arithmetic.
FLUSH_THRESHOLD = 1e-300

# Unnormalized recurrence values are rescaled once they exceed this, to keep
# the downward pass clear of float64 overflow.
_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250

# Orders per slab when bessel_rows turns its order-major values into rows.
_TRANSPOSE_SLAB = 128

# Orders per slab of recurrence factors n (2 / x) that bessel_rows makes at once.
_FACTOR_SLAB = 64


def miller_start_order(order_max: int, argument: float) -> int:
    """Starting order for the downward recurrence.

    The seed must sit far enough past the turning point (order ~ argument)
    that the contaminating dominant solution has decayed away, so the start
    is measured from max(order_max, argument); the margin of 20 plus ten
    square roots of the larger scale keeps the relative error of the
    returned orders below ~1e-13.
    """
    scale = max(order_max, argument)
    return max(order_max, math.ceil(argument)) + 20 + math.ceil(10.0 * math.sqrt(scale))


def _check_argument(argument: float) -> float:
    argument = float(argument)
    if not math.isfinite(argument):
        raise ValueError(f"Bessel argument must be finite, got {argument!r}")
    if argument < 0.0:
        raise ValueError(f"Bessel argument must be >= 0, got {argument!r}")
    return argument


def bessel_row(order_max: int, argument: float) -> np.ndarray:
    """Values J_0(x)..J_{order_max}(x) at one argument x, via normalized Miller recurrence."""
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    argument = _check_argument(argument)

    if argument == 0.0:
        values = np.zeros(order_max + 1)
        values[0] = 1.0
        return values

    start = miller_start_order(order_max, argument)
    out = [0.0] * (order_max + 1)
    vp = 0.0  # unnormalized J_{n+1}
    vc = 1.0  # unnormalized J_n, n == start
    norm = 0.0  # accumulates J_0 + 2 sum J_{2k} on the same scale
    two_over_x = 2.0 / argument
    n = start
    while n > 0:
        if n <= order_max:
            out[n] = vc
        if (n & 1) == 0:
            norm += 2.0 * vc
        vm = n * two_over_x * vc - vp
        if abs(vm) > _RESCALE_LIMIT:
            vm *= _RESCALE_FACTOR
            vc *= _RESCALE_FACTOR
            norm *= _RESCALE_FACTOR
            for k in range(n, order_max + 1):
                out[k] *= _RESCALE_FACTOR
        vp = vc
        vc = vm
        n -= 1
    out[0] = vc
    norm += vc

    values = np.asarray(out) / norm
    values[np.abs(values) < FLUSH_THRESHOLD] = 0.0
    return values


def bessel_rows(order_max: int, arguments: np.ndarray) -> np.ndarray:
    """Rows J_0..J_{order_max} for a batch of arguments, shape (len(arguments), order_max+1).

    Same arithmetic as :func:`bessel_row` run elementwise across the batch,
    with one shared starting order sized for the largest argument; a larger
    start only adds decay margin, so per-element accuracy matches the scalar
    path, and a batch of one argument gives the scalar row bit for bit.

    The recurrence is order-major: ``v[n]`` holds the unnormalized order n
    of every argument, and each step writes ``v[n-1]`` straight into its row
    from ``v[n]`` and ``v[n+1]``, with no per-step copy or temporary.  Its
    factors ``n (2/x)`` come from one outer product per _FACTOR_SLAB orders,
    and the even orders are summed undoubled, the sum doubled once at the
    end: doubling is exact, so a step takes two or three ufunc calls and
    keeps the scalar path's bits.  The rescale test runs only at steps where
    a running bound on the batch's largest magnitude, grown each step by the
    largest factor ``2n/x_min + 1`` (plus a 1e-12 margin for rounding),
    passes the rescale limit; each test resets the bound to the true
    maximum.  So every rescale hits the same elements at the same order as a
    test at every step would, which matters because the rescale factor is
    not a power of two.  Batches with widely mixed magnitudes test and
    rescale often; callers with long time grids should chunk them into
    stretches of comparable argument.

    The result is a C-contiguous float64 array, one row per argument.
    """
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    args = np.asarray(arguments, dtype=float)
    if args.ndim != 1:
        raise ValueError("arguments must be a 1-d array")
    if args.size == 0:
        return np.zeros((0, order_max + 1))
    if not np.all(np.isfinite(args)) or np.any(args < 0.0):
        raise ValueError("all arguments must be finite and >= 0")

    positive = args > 0.0
    if not positive.all():
        out = np.zeros((args.size, order_max + 1))
        out[~positive, 0] = 1.0
        if positive.any():
            out[positive] = bessel_rows(order_max, args[positive])
        return out

    start = miller_start_order(order_max, float(args.max()))
    two_over_x = 2.0 / args
    growth = float(two_over_x.max())
    v = np.zeros((start + 2, args.size))  # v[start + 1] = 0 seeds the recurrence
    v[start] = 1.0
    orders = list(v)  # one view per order, made once
    # Sum of the even orders above 0: the norm is 2 * half + v[0], and doubling
    # is exact, so it has the bits of summing 2 v[n].
    half = np.zeros(args.size)
    step = np.empty(args.size)
    bound = 1.0  # >= every |v[n]|, |v[n+1]| of the batch
    for top in range(start, 0, -_FACTOR_SLAB):
        # Row i is n (2 / x) for n = top - i, the product the scalar path forms.
        factors = np.multiply.outer(np.arange(top, max(top - _FACTOR_SLAB, 0), -1.0), two_over_x)
        for n, factor in zip(range(top, 0, -1), factors):
            vn = orders[n]
            if (n & 1) == 0:
                np.add(half, vn, out=half)
            np.multiply(factor, vn, out=step)
            np.subtract(step, orders[n + 1], out=orders[n - 1])
            bound *= (n * growth + 1.0) * (1.0 + 1e-12)
            if bound > _RESCALE_LIMIT:
                big = np.abs(orders[n - 1]) > _RESCALE_LIMIT
                if np.any(big):
                    # v[n-1], v[n] and the kept orders n+1..order_max; v[n+1]
                    # above order_max is never read again
                    v[n - 1 : max(n, order_max) + 1, big] *= _RESCALE_FACTOR
                    half[big] *= _RESCALE_FACTOR
                bound = float(np.abs(v[n - 1 : n + 1]).max())
    norm = 2.0 * half + v[0]

    # Normalize into rows a slab of orders at a time: a whole-array
    # transposing copy strides through memory and is several times slower.
    rows = np.empty((args.size, order_max + 1))
    for lo in range(0, order_max + 1, _TRANSPOSE_SLAB):
        slab = rows[:, lo : lo + _TRANSPOSE_SLAB]
        np.divide(v[lo : lo + slab.shape[1]].T, norm[:, None], out=slab)
        slab[np.abs(slab) < FLUSH_THRESHOLD] = 0.0
    return rows


def bessel_j(order: int, argument: float) -> float:
    """J_order(argument); negative orders via J_{-n}(x) = (-1)^n J_n(x)."""
    order = int(order)
    argument = _check_argument(argument)
    n = abs(order)
    value = float(bessel_row(n, argument)[n])
    if order < 0 and (n & 1):
        value = -value
    return value
