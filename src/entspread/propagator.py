"""Time evolution of single-excitation wavefunctions under tridiagonal Hamiltonians.

The production path is a Chebyshev expansion of the evolution operator,

    exp(-i H t) = exp(-i a t) * sum_k (2 - delta_k0) J_k(b t) (-i)^k T_k(Hs),

with Hs = (H - a) / b rescaled into [-1, 1] by the Gershgorin bounds
(a = center, b = half-width) and T_k applied through the three-term
recurrence, so the only operator work is tridiagonal matrix-vector products.
The coefficients are exactly the Bessel rows the bessel module provides.

* Blocks.  T_k(Hs) psi does not depend on t, so one recurrence from a
  block's start state serves its S samples within b tau <= BLOCK_Z_SPAN:
  each is a coefficient row times the stored vectors, all S one matrix
  product (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984); Weisse et
  al., Rev. Mod. Phys. 78, 275 (2006)).  The last sample starts the next.
  A grid from t = 0 puts offset 0, where J_0(0) = 1, into its first block.
  At the desk step that is 24 samples for K = 59 matvecs, and the product
  skips the orders a sample does not need (see Order).
* Complex ring.  Even orders carry real coefficients and odd orders
  imaginary ones, so the recurrence runs on U_k = (-i)^k T_k(Hs) psi =
  -2i Hs U_{k-1} + U_{k-2}, one complex row per order, with -2i Hs set up
  once.  Its coefficients are purely imaginary, so each complex product is
  the one real product per part that two real rows would make, bit for bit.
  The GEMM's coefficients (2 - delta_k0) J_k(b tau) are real: it reads the
  ring as floats, (re, im) interleaved, and writes the samples into rows
  that are read back as complex.
* Order.  As |T_k(Hs)| <= 1 on the spectrum, cutting after order K changes
  a sample by at most 2 sum_{k>K} |J_k(b tau)| in the 2-norm.  A block is
  cut where that tail first is <= TAIL_TOLERANCE for its longest offset.
  Each ring of orders is then added only into the samples whose own tail
  from its first order on is still above TAIL_TOLERANCE, so every sample
  keeps that bound while its shorter offset is spared the orders past it.
  K is read off one Bessel row evaluated to `bessel.tail_order(z)`, an
  Airy-law order at least two past it.
* Window.  A tridiagonal matvec widens the support of a vector by one site
  per side, so U_k lives on [lo - k, hi + k] when psi lives on [lo, hi].  A
  block runs on [lo - K, hi + K] only, which is exact: it is the discrete
  light cone (Lieb & Robinson, Commun. Math. Phys. 28, 251 (1972)).  Its
  samples are trimmed to one support: the outer sites whose weight sum
  |a_x|^2 is within (TAIL_TOLERANCE / 2)^2 ||psi||^2 per side in every
  sample are dropped, psi the block's start state.  So a sample's error is
  the Chebyshev tail plus the trimmed edges, each at most TAIL_TOLERANCE
  in the 2-norm relative to psi; the next block starts from the last sample.
  Halving the 2-norm budget per side, rather than its square, leaves room
  for the error earlier trims left near the front: the exact state's weight
  outside the support stays below TAIL_TOLERANCE^2 on a chained ordered run.
  The trim is the block's one cut: a block stores its samples on the
  support only, a view of the window-wide rows, and they are zero outside it.
* Byte cap.  Up to 8 orders sit in a ring, added into the S sample rows
  whenever it fills; S is cut so that ring, sample and coefficient rows and
  scratch fit WORKSPACE_BYTES, and so that after the ring is freed the
  sample rows fit with the two real rows per sample, |a| and its weights,
  that `observables.moment_rows` makes.  Wider windows shrink the ring to as
  few as 3 orders; only one over WORKSPACE_BYTES / 112 sites (75 000) passes
  the cap.  The ring, the sample rows, |a| and the weights each head a
  buffer whose byte size is rounded up to a power of 2 ** (1 / _SIZE_CLASSES)
  (`block_empty`), so the next block gets back memory a block before it
  freed instead of faulting in fresh pages.  Those capacities, up to 12%
  over the arrays, are what count against WORKSPACE_BYTES.  The plan's
  margins (its order guess, the coefficient and scratch rows it reserves)
  leave room for them: the byte-cap test, which measures what is
  allocated, peaks at 0.93 of a 1 MiB cap.

`evolve_blocks`, the kernel's one entry point, evolves the unit excitation at
the origin forward and yields the blocks of its series; the simulate path
reduces each to moment rows.  `evolve_series` hands out one state per
sample from the same blocks.  The accuracy oracle for small chains, a dense
eigendecomposition evolver, is in the test suite's `oracles` module.
Everything here is pure; distinct trajectories can be evolved concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .bessel import bessel_row, bessel_rows, tail_order
from .chain import Hamiltonian, spectral_bounds

# Bound on the discarded Chebyshev tail 2 * sum_{k>K} |J_k(b tau)| of one
# sample, which bounds its truncation error in the 2-norm.
TAIL_TOLERANCE = 1e-16

# Rescaled time z = b tau a block spans: at the desk step (z = 1.08) 24
# samples for K = 59 matvecs, against 24 x 15 one sample at a time.
BLOCK_Z_SPAN = 25.9

# Cap on a block's workspace.  A desk block at t = 1000 needs 2.5 MB with its
# moments; a fig1_full block at t = 10000 is cut to 4 samples by it.
WORKSPACE_BYTES = 8 << 20
_RING_ORDERS = 8  # most orders stored between two accumulating products

# Byte sizes of the large per-block arrays are rounded up to a power of
# 2 ** (1 / _SIZE_CLASSES), so blocks whose windows differ by a few sites ask
# for the same capacity.  On the desk run, 4 classes per doubling cost 3% of
# peak RSS, and with 8 the fresh-process page faults ranged 6 500 - 11 700
# with the memory layout.
_SIZE_CLASSES = 6


class ReflectionBudgetWarning(UserWarning):
    """A requested evolution window lets the wavefront reach the open boundary."""


@dataclass
class WaveState:
    """Complex site amplitudes at one instant, tagged with the excitation origin.

    Every amplitude outside `support` (lo, hi) is zero; None: not known.
    """

    amplitudes: np.ndarray
    time: float
    origin: int
    support: tuple[int, int] | None = None

    def __post_init__(self):
        if self.support is not None and not 0 <= self.support[0] <= self.support[1] < self.num_sites:
            raise ValueError(f"support {self.support} outside chain of {self.num_sites} sites")

    @property
    def num_sites(self) -> int:
        return len(self.amplitudes)

    def norm_error(self) -> float:
        return abs(1.0 - float(np.sum(np.abs(self.amplitudes) ** 2)))


def basis_state(num_sites: int, origin: int, time: float = 0.0) -> WaveState:
    """Unit excitation at one site."""
    if not 0 <= origin < num_sites:
        raise ValueError(f"origin {origin} outside chain of {num_sites} sites")
    amplitudes = np.zeros(num_sites, dtype=complex)
    amplitudes[origin] = 1.0
    return WaveState(amplitudes=amplitudes, time=time, origin=origin, support=(origin, origin))


def block_empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialized C-contiguous array of `shape`, the head of a buffer of its size class.

    The buffer's byte size is the array's rounded up to the next power of
    2 ** (1 / _SIZE_CLASSES).  As the front widens, each block's arrays would
    be the largest yet, which the allocator serves from freshly mapped pages
    that must be faulted in and zeroed; rounded up, consecutive blocks ask for
    the same capacity and get back the memory a block before them freed.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    size = max(count * dtype.itemsize, 1)
    capacity = 2.0 ** (math.ceil(_SIZE_CLASSES * math.log2(size)) / _SIZE_CLASSES)
    buffer = np.empty(max(count, math.ceil(capacity / dtype.itemsize)), dtype)
    return buffer[:count].reshape(shape)


def _truncated_row(z: float) -> tuple[np.ndarray, float]:
    """J_0(z)..J_K(z) for the first K with 2 * sum_{k>K} |J_k(z)| <= TAIL_TOLERANCE, and that tail.

    One row is evaluated, to `tail_order(z)`, which lies at least two orders past K.
    """
    values = bessel_row(tail_order(z), z)
    # tail[k] = 2 * sum_{j>=k} |J_j(z)| over the evaluated row
    tail = 2.0 * np.cumsum(np.abs(values[::-1]))[::-1]
    cut = int(np.flatnonzero(tail[1:] <= TAIL_TOLERANCE)[0])
    return values[: cut + 1], float(tail[cut + 1])


def chebyshev_order(b: float, delta_t: float) -> int:
    """Order K for one offset: the first K whose tail 2 * sum_{k>K} |J_k(b|dt|)| is <= TAIL_TOLERANCE.

    At the desk step (z = b|dt| ~ 1.08) that is K = 15, and over a desk block
    (z ~ 25.9) K = 59.
    """
    return len(_truncated_row(b * abs(delta_t))[0]) - 1


@dataclass
class Block:
    """The samples one Chebyshev block yields, on their support [start, start + width) of the chain.

    Row s of `amplitudes` (S, width) is the state at `times[s]` on the
    support; every sample is zero outside it.  `order` is the block's
    Chebyshev order K, and `window` the number of sites its K matvecs ran
    over.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    start: int
    window: int
    order: int

    @property
    def width(self) -> int:
        return self.amplitudes.shape[1]


class _Kernel:
    """The windowed block Chebyshev expansion for one Hamiltonian.

    The rescaled operator is set up once, and the coefficient rows of the
    last two distinct blocks are kept: a linear grid evaluates them at most twice.
    """

    def __init__(self, h: Hamiltonian):
        emin, emax = spectral_bounds(h)
        self.num_sites = h.num_sites
        self.center = 0.5 * (emax + emin)
        self.half_width = 0.5 * (emax - emin)
        if self.half_width > 0.0:
            # -2i Hs, so each recurrence order is one matvec and one addition.
            self.diag2 = -1j * (2.0 * (h.diag - self.center) / self.half_width)
            self.off2 = -1j * (2.0 * h.offdiag / self.half_width)
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def _coefficients(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real rows c_k(tau_s), k = 0..K, the orders each sample needs, and phases exp(-i a tau_s).

        Sample s needs its first need[s] orders: those whose tail
        sum_{j>=k} |c_j(tau_s)|, with the longest offset's tail past K added
        as a bound on its own, is still above TAIL_TOLERANCE.  `need` is made
        non-decreasing in s, so the samples that need an order are a suffix.
        """
        for kept, coeffs, need, phases in self._blocks:
            if np.array_equal(kept, offsets):
                return coeffs, need, phases
        z = self.half_width * offsets
        row, past = _truncated_row(float(z.max()))
        coeffs = bessel_rows(len(row) - 1, z)
        coeffs[:, 1:] *= 2.0
        tail = np.cumsum(np.abs(coeffs[:, ::-1]), axis=1)[:, ::-1]
        need = np.maximum.accumulate(np.count_nonzero(tail + past > TAIL_TOLERANCE, axis=1))
        phases = np.exp(-1j * self.center * offsets)
        self._blocks = [*self._blocks[-1:], (offsets.copy(), coeffs, need, phases)]
        return coeffs, need, phases

    def block(self, seed: np.ndarray, lo: int, grid: np.ndarray, now: float) -> Block:
        """The next block from the state `seed` on [lo, lo + len(seed)) at time `now`.

        It holds the first S times of the remaining `grid`; only a grid from
        t = 0 has a zero offset, whose row J_0(0) = 1 yields the seed.  S
        counts the offsets within BLOCK_Z_SPAN, cut so that the workspace fits
        WORKSPACE_BYTES on a window sized by the plan's order guess: while the ring
        runs, S sample and coefficient rows beside it and three scratch rows;
        after it, S sample rows with the two real rows per sample of
        `observables.moment_rows`.  The positive offsets are then evened over
        the grid, so blocks of a linear grid repeat them.  K is cut for the last offset; each sample sums only
        the orders its own tail needs.

        The samples are trimmed to one support: on each side, every sample
        loses the outer sites whose weight sum |a_x|^2 stays within
        (TAIL_TOLERANCE / 2)^2 ||seed||^2 in all samples; one search covers
        both sides.  The support is never empty for the unit-norm seeds of
        `evolve_blocks`: no sample loses more than 2 (TAIL_TOLERANCE / 2)^2 of
        the seed's weight, and the step keeps a sample's within about 1e-13
        of it.  The block's amplitudes are the sample rows' support columns,
        a view, and only they get the phases.
        """
        offsets = grid - now
        zero = int(offsets[0] == 0.0)
        least = min(zero + 1, len(offsets))  # at least one positive offset, if any is left
        z = self.half_width * offsets
        count = max(int(np.searchsorted(z, BLOCK_Z_SPAN, side="right")), least)
        # The plan's guess at K + 1, which its byte margins were tuned with;
        # the Bessel row cuts K itself.
        last = float(z[count - 1])
        orders = math.ceil(last) + 41 + math.ceil(10.0 * math.log1p(last))
        window = min(len(seed) + 2 * orders, self.num_sites)
        slots = min(_RING_ORDERS, max(3, WORKSPACE_BYTES // (32 * window)))
        free = WORKSPACE_BYTES - 16 * window * (slots + 3)
        after = WORKSPACE_BYTES // (32 * window + 32 * orders)
        count = max(least, min(count, free // (16 * window + 32 * orders), after))
        positive = len(offsets) - zero
        if positive:
            count = zero + -(-positive // -(-positive // (count - zero)))
        coeffs, need, phases = self._coefficients(offsets[:count])
        order = coeffs.shape[1] - 1
        start = max(lo - order, 0)
        stop = min(lo + len(seed) + order, self.num_sites)
        samples = self._expand(seed, lo - start, start, stop, coeffs, need, slots)
        budget = (0.5 * TAIL_TOLERANCE) ** 2 * float(np.vdot(seed, seed).real)
        # The cut almost always falls in the outer order + 1 sites, the ones the
        # light cone added; each side drops what every sample can spare.
        left, right = _edge_count(samples, budget, order + 1).min(axis=1).tolist()
        samples = samples[:, left : stop - start - right]
        samples *= phases[:, None]
        # Label with the exact grid values; the evolved duration is the sum of
        # the block offsets, which telescopes to t exactly.
        return Block(grid[:count], samples, start + left, stop - start, order)

    def _expand(self, seed: np.ndarray, at: int, start: int, stop: int, coeffs: np.ndarray,
                need: np.ndarray, slots: int) -> np.ndarray:
        """Rows sum_k coeffs[s, k] U_k on the window [start, stop), as (S, stop - start) complex.

        U_0 is `seed` placed at column `at` of the window.  Sample s sums the
        orders through the ring flush that holds its order need[s] - 1, not
        the later ones; `need` is non-decreasing, so each flush updates a
        suffix of the rows.  The views each recurrence step reads and writes
        are made once per ring slot.  The ring and its scratch are freed on
        return, before the caller's per-block temporaries are made.
        """
        order, width = coeffs.shape[1] - 1, stop - start
        # Slot k % slots holds U_k; the zero last slot stands in for U_{-1}.
        # The recurrence overwrites every other slot before reading it.
        ring = block_empty((slots, width), complex)
        ring[0] = 0.0
        ring[0, at : at + len(seed)] = seed
        ring[-1] = 0.0
        # Row s holds sample s as interleaved (re, im) pairs: a complex view.
        rows = block_empty((len(coeffs), 2 * width))
        if order >= 1:
            diag2 = self.diag2[start:stop]
            off2 = self.off2[start : stop - 1]
            tmp = np.empty(width - 1, dtype=complex)
            # Per slot j, the views the step that writes U_k into it uses:
            # U_k, U_k[:-1], U_k[1:], U_{k-1}, U_{k-1}[1:], U_{k-1}[:-1], U_{k-2}.
            steps = []
            for j in range(slots):
                nxt, cur = ring[j], ring[j - 1]
                steps.append((nxt, nxt[:-1], nxt[1:], cur, cur[1:], cur[:-1], ring[j - 2]))
        done = 0
        for k in range(order + 1):
            slot = k % slots
            if k >= 1:
                # U_k = -2i Hs U_{k-1} + U_{k-2}
                nxt, nxt_lo, nxt_hi, cur, cur_hi, cur_lo, prev = steps[slot]
                np.multiply(diag2, cur, out=nxt)
                np.multiply(off2, cur_hi, out=tmp)
                np.add(nxt_lo, tmp, out=nxt_lo)
                np.multiply(off2, cur_lo, out=tmp)
                np.add(nxt_hi, tmp, out=nxt_hi)
                np.add(nxt, prev, out=nxt)
                if k == 1:
                    nxt *= 0.5
            if slot == slots - 1 or k == order:
                # rows[first:] (+)= coeffs[first:, done:k+1] @ ring[:slot+1], in
                # place, for the samples that need an order past `done`; dgemm
                # rejects an empty product, so none is made.
                first = int(np.searchsorted(need, done, side="right"))
                if first < len(rows):
                    stored = ring[: slot + 1].view(float).T
                    dgemm(1.0, stored, coeffs[first:, done : k + 1], beta=float(done > 0),
                          c=rows[first:].T, trans_b=1, overwrite_c=1)
                done = k + 1
        return rows.view(complex)


def _edge_count(samples: np.ndarray, budget: float, rim: int) -> np.ndarray:
    """Outer sites of each row of `samples` (S, width) whose summed weight is <= budget, as (2, S).

    Row 0 counts from the left end, row 1 from the right.  Both ends are
    searched as one stack of 2S rows over their outer `rim` sites, doubled
    while any sample's budget outlasts them.
    """
    width = samples.shape[1]
    while True:
        rim = min(rim, width)
        edge = np.concatenate((samples[:, :rim], samples[:, ::-1][:, :rim]))
        weight = np.square(edge.real)
        weight += np.square(edge.imag)
        count = np.count_nonzero(np.cumsum(weight, axis=1) <= budget, axis=1)
        if rim == width or np.all(count < rim):
            return count.reshape(2, -1)
        rim *= 2


def reflection_budget_violation(
    num_sites: int, t_max: float, disorder_half_width: int = 0, gamma: float = 1.0
) -> str | None:
    """Why the wavefront (speed 2 gamma) plus the disordered core can touch the boundary, or None.

    Condition: 2 gamma t_max + (2L + 1) > (N - 1) / 2 - 10.  The message
    gives both sides of it.
    """
    reach = 2.0 * abs(gamma) * t_max + (2 * disorder_half_width + 1)
    room = (num_sites - 1) / 2 - 10
    if not reach > room:
        return None
    return f"boundary budget exceeded: 2*gamma*t_max + (2L+1) = {reach:g} > (N-1)/2 - 10 = {room:g}"


def evolve_blocks(
    h: Hamiltonian,
    origin: int,
    times: np.ndarray,
    disorder_half_width: int = 0,
):
    """Yield the Chebyshev blocks of the series at `times`, t = 0 included, in order.

    Starts from the unit excitation at `origin` at t = 0 and never restarts
    from scratch, so total work scales with the final time rather than the
    sum of sample times: each block starts from the last sample before it,
    on that sample's support.  Yields lazily: a long scan over a big chain
    holds one block's workspace.  The front speed 2 gamma of the reflection
    check reads gamma as the largest |hopping| of the chain.
    """
    if not 0 <= origin < h.num_sites:
        raise ValueError(f"origin {origin} outside chain of {h.num_sites} sites")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, got {times[~np.isfinite(times)][0]}")
    if times[0] < 0.0:
        raise ValueError(f"times must start at >= 0, got {times[0]}")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise ValueError("times must be strictly ascending")
    gamma = float(np.max(np.abs(h.offdiag))) if h.num_sites > 1 else 0.0
    t_max = float(times[-1])
    violation = reflection_budget_violation(h.num_sites, t_max, disorder_half_width, gamma)
    if violation:
        warnings.warn(
            f"{violation}; amplitudes near the edges will contain reflections",
            ReflectionBudgetWarning,
            stacklevel=3,
        )

    kernel = _Kernel(h)
    seed, lo, now, done = np.ones(1, dtype=complex), origin, 0.0, 0
    while done < times.size:
        block = kernel.block(seed, lo, times[done:], now)
        # The next block starts from a private copy of the last sample.
        seed, lo = block.amplitudes[-1].copy(), block.start
        yield block
        done, now = done + len(block.times), float(block.times[-1])


def evolve_series(
    h: Hamiltonian,
    origin: int,
    times: np.ndarray,
    disorder_half_width: int = 0,
):
    """Yield the state at each sample time, from the blocks of `evolve_blocks`.

    Each state has an amplitude array of its own, and its block's support.
    """
    for block in evolve_blocks(h, origin, times, disorder_half_width):
        support = (block.start, block.start + block.width - 1)
        for time, row in zip(block.times.tolist(), block.amplitudes):
            amplitudes = np.zeros(h.num_sites, dtype=complex)
            amplitudes[block.start : block.start + block.width] = row
            yield WaveState(amplitudes, time, origin, support)
