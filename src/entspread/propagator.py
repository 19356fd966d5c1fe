"""Time evolution of single-excitation wavefunctions under tridiagonal Hamiltonians.

The production path is a Chebyshev expansion of the evolution operator,

    exp(-i H t) = exp(-i a t) * sum_k (2 - delta_k0) J_k(b t) (-i)^k T_k(Hs),

with Hs = (H - a) / b rescaled into [-1, 1] by the Gershgorin bounds
(a = center, b = half-width) and T_k applied through the three-term
recurrence, so the only operator work is tridiagonal matrix-vector products.
The coefficients are exactly the Bessel rows the bessel module provides.

* Blocks.  T_k(Hs) psi does not depend on t, so one recurrence from a
  block's start state serves its S samples within b tau <= BLOCK_Z_SPAN:
  each is its coefficient row times the stored vectors (Tal-Ezer & Kosloff,
  J. Chem. Phys. 81, 3967 (1984); Weisse et al., Rev. Mod. Phys. 78, 275
  (2006)).  The last sample starts the next.  A grid from t = 0 puts offset
  0, where J_0(0) = 1, into its first block.  At the desk step that is 24
  samples for K = 59 matvecs, and each sample skips the orders it does not
  need (see Order).
* Complex ring.  Even orders carry real coefficients and odd orders
  imaginary ones, so the recurrence runs on U_k = (-i)^k T_k(Hs) psi =
  -2i Hs U_{k-1} + U_{k-2}, one complex row per order, with -2i Hs set up
  once.  -2i Hs is purely imaginary, so it is kept as the imaginary parts
  of its diagonal and off-diagonal, and each order is one real product per
  part, as two real rows would make it: U_k = U_{k-2} + i s, s = (d U + o U')
  + o- U- summed per part in that order.  The orders of a ring are one pass
  of the C function `ring_steps` (`_ring.c`, whose library the bessel
  module builds with `cc` on first import and caches; an import that
  cannot build it fails).
  The coefficients (2 - delta_k0) J_k(b tau) are real, so when the ring
  fills, `ring_flush` adds its orders into the sample rows as one fma per
  double of the (re, im) rows, order by order: each double of a sample is
  one fixed sequence of roundings, whatever the ring size or tiling.
* Order.  As |T_k(Hs)| <= 1 on the spectrum, cutting after order K changes
  a sample by at most 2 sum_{k>K} |J_k(b tau)| in the 2-norm.  A block is
  cut where that tail first is <= TAIL_TOLERANCE for its longest offset.
  Each sample then sums only the orders whose own tail from them on is
  still above TAIL_TOLERANCE, so every sample keeps that bound while its
  shorter offset is spared the orders past it.
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
  The trim's search and the phase exp(-i a tau) are C passes over the rows
  too (`edge_counts`, `phase_rows`): a running sum as np.cumsum makes it,
  and a complex product with one fma a part, as numpy's FMA loops make it.
  The budget's ||psi||^2 is numpy's pairwise sum of psi's squared parts,
  which no BLAS kernel or CPU dispatch changes.
* Byte cap.  Up to 16 orders sit in a ring, added into the S sample rows
  whenever it fills.  S is cut so that a ring of 8 orders, sample and
  coefficient rows and a margin fit WORKSPACE_BYTES; the ring then grows
  into the bytes the samples leave, each slot past 8 with an eighth more
  for its size class.  Wider windows shrink the ring to as few as 3
  orders; only one over WORKSPACE_BYTES / 112 sites (75 000) passes the
  cap.  The ring and the sample rows each head a buffer whose byte size is
  rounded up to a power of 2 ** (1 / _SIZE_CLASSES) (`block_empty`), so
  the next block gets back memory a block before it freed instead of
  faulting in fresh pages.  Those capacities, up to 12% over the arrays,
  are what count against WORKSPACE_BYTES.  The plan's margins (its order
  guess, the coefficient rows and three spare rows) leave room for them:
  the byte-cap test, which measures what is allocated, peaks at 0.92 of a
  1 MiB cap, and at 1.02 without the spare rows.

`evolve_blocks`, the kernel's one entry point, evolves the unit excitation at
the origin forward and yields the blocks of its series; the simulate path
reduces each to moment rows.  `evolve_series` hands out one state per
sample from the same blocks.  The accuracy oracle for small chains, a dense
eigendecomposition evolver, is in the test suite's `oracles` module.
Everything here is pure; distinct trajectories can be evolved concurrently.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import _N, _P, _bind, bessel_row, bessel_rows, tail_order
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
# Most orders a ring holds.  Each flush loads and stores a tile's sums once,
# so a longer ring spreads that over more fmas, until the ring outgrows L2
# and slows the step: on the desk run 16 and 20 were fastest, 12, 24 and 30
# slower.  A block's plan reserves _RING_RESERVED of them before it counts
# its samples, and the ring grows past those only into the bytes the
# samples leave: where the cap binds, it cuts the ring rather than the
# samples, whose count sets the bytes.
_RING_ORDERS = 16
_RING_RESERVED = 8

# Byte sizes of the large per-block arrays are rounded up to a power of
# 2 ** (1 / _SIZE_CLASSES), so blocks whose windows differ by a few sites ask
# for the same capacity.  On the desk run, 4 classes per doubling cost 3% of
# peak RSS, and with 8 the fresh-process page faults ranged 6 500 - 11 700
# with the memory layout.
_SIZE_CLASSES = 6


_ring_steps = _bind("ring_steps", _P, _N, _P, _P, _N, _N, _N, _N)
_edge_counts_c = _bind("edge_counts", _P, _N, _N, _N, ctypes.c_double, _P)
_phase_rows_c = _bind("phase_rows", _P, _N, _N, _N, _P)
_moment_sums_c = _bind("moment_sums", _P, _N, _N, _N, _N, _N, _N, _P)
_ring_flush = _bind("ring_flush", _P, _N, _N, _N, _P, _N, _N, _P, _N, _P, _N, _N)


def _c_rows(rows: np.ndarray, dtype=np.complex128) -> bool:
    """Whether the C passes read `rows` in place: aligned 2-d of `dtype`, each row's items contiguous."""
    item = np.dtype(dtype).itemsize
    return (rows.ndim == 2 and rows.dtype == dtype and rows.flags.aligned
            and (rows.shape[1] <= 1 or rows.strides[1] == item)
            and (rows.shape[0] <= 1 or rows.strides[0] % item == 0))


def _row_args(rows: np.ndarray) -> tuple[int, int, int, int]:
    """(address, row stride in complex items, rows, sites) of `rows` for a C pass.

    Raises ValueError for rows the pass would read or write outside of.
    """
    if not _c_rows(rows):
        raise ValueError(f"C passes take aligned complex128 rows with contiguous sites, got "
                         f"{rows.dtype} of shape {rows.shape} and strides {rows.strides}")
    count, width = rows.shape
    return rows.ctypes.data, rows.strides[0] // 16 if count > 1 else 0, count, width


def _edge_counts(rows: np.ndarray, budget: float) -> np.ndarray:
    """Outer sites of each row of `rows` (S, width) whose running weight sum |a_x|^2 is <= budget, as (2, S).

    Row 0 counts from the left end, row 1 from the right; the sum runs site
    by site, as np.cumsum does.
    """
    address, stride, count, width = _row_args(rows)
    counts = np.empty((2, count), dtype=np.int64)
    _edge_counts_c(address, stride, count, width, budget, counts.ctypes.data)
    return counts


def _phase_rows(rows: np.ndarray, phases: np.ndarray) -> None:
    """rows[s] *= phases[s] in place, each product a b as (fma(ar, br, -ai bi), fma(ar, bi, ai br)).

    That is numpy's `rows *= phases[:, None]` where numpy's loops fuse, as
    on FMA hardware, but it does not follow what numpy dispatches.
    """
    address, stride, count, width = _row_args(rows)
    phases = np.ascontiguousarray(phases, dtype=complex)
    if not rows.flags.writeable or phases.shape != (count,):
        raise ValueError(f"{count} writeable rows need as many phases, got {phases.shape}")
    _phase_rows_c(address, stride, count, width, phases.ctypes.data)


def _moment_sums(rows: np.ndarray, first: int, core: tuple[int, int]) -> np.ndarray:
    """Sums over each row of `rows` (S, width), as (4, S): of x^2 |a_x|, of it off the core, on the core, and of |a_x|^2.

    x = first + column; the core is the columns [core[0], core[1]).  |a| is
    L sqrt(fma(q, q, 1)), L = max(|re|, |im|) and q = min / L, numpy's
    np.abs where its loops fuse, and each sum is the pairwise sum
    np.add.reduce makes of the terms.
    """
    address, stride, count, width = _row_args(rows)
    if not 0 <= core[0] <= core[1] <= width:
        raise ValueError(f"core columns {core} outside {width} sites")
    sums = np.empty((4, count))
    _moment_sums_c(address, stride, count, width, first, *core, sums.ctypes.data)
    return sums


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
            # -2i Hs, so each recurrence order is one matvec and one addition;
            # it is purely imaginary, and these are its diagonal's and
            # off-diagonal's imaginary parts.
            self.diag2 = -(2.0 * (h.diag - self.center) / self.half_width)
            self.off2 = -(2.0 * h.offdiag / self.half_width)
            self.at_diag2, self.at_off2 = self.diag2.ctypes.data, self.off2.ctypes.data
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
        WORKSPACE_BYTES on a window sized by the plan's order guess: the
        reserved ring, S sample and coefficient rows beside it, and three
        spare rows, which hold the size classes' rounding (see "Byte cap").
        The positive offsets are then evened over the grid, so blocks of a
        linear grid repeat them, and the ring grows into what is left.
        K is cut for the last offset; each sample sums only the orders its
        own tail needs.

        The samples are trimmed to one support: on each side, every sample
        loses the outer sites whose weight sum |a_x|^2 stays within
        (TAIL_TOLERANCE / 2)^2 ||seed||^2 in all samples; one search covers
        both sides.  The support is never empty for the unit-norm seeds of
        `evolve_blocks`: no sample loses more than 2 (TAIL_TOLERANCE / 2)^2 of
        the seed's weight, and the step keeps a sample's within about 1e-13
        of it.  The block's amplitudes are the sample rows' support columns,
        a view, and only they get the phases, in place.
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
        slots = min(_RING_RESERVED, max(3, WORKSPACE_BYTES // (32 * window)))
        free = WORKSPACE_BYTES - 16 * window * (slots + 3)
        count = max(least, min(count, free // (16 * window + 32 * orders)))
        positive = len(offsets) - zero
        if positive:
            count = zero + -(-positive // -(-positive // (count - zero)))
        # Each slot past the reserved ones takes an eighth more for its size class.
        spare = free - count * (16 * window + 32 * orders)
        slots = min(_RING_ORDERS, slots + max(0, spare // (18 * window)))
        coeffs, need, phases = self._coefficients(offsets[:count])
        order = coeffs.shape[1] - 1
        start = max(lo - order, 0)
        stop = min(lo + len(seed) + order, self.num_sites)
        samples = self._expand(seed, lo - start, start, stop, coeffs, need, slots)
        budget = (0.5 * TAIL_TOLERANCE) ** 2 * float(np.add.reduce(np.square(seed.view(float))))
        # Each side drops what every sample can spare; each row's search stops
        # at its first site past the budget, almost always among the outer
        # order + 1 sites the light cone added.
        left, right = _edge_counts(samples, budget).min(axis=1).tolist()
        samples = samples[:, left : stop - start - right]
        _phase_rows(samples, phases)
        # Label with the exact grid values; the evolved duration is the sum of
        # the block offsets, which telescopes to t exactly.
        return Block(grid[:count], samples, start + left, stop - start, order)

    def _expand(self, seed: np.ndarray, at: int, start: int, stop: int, coeffs: np.ndarray,
                need: np.ndarray, slots: int) -> np.ndarray:
        """Rows sum_k coeffs[s, k] U_k on the window [start, stop), as (S, stop - start) complex.

        U_0 is `seed` placed at column `at` of the window.  Each ring of
        orders is one call of the compiled `ring_steps`, then one of
        `ring_flush`, which adds the orders k < need[s] of the ring into row s
        with one fma per double, in ascending k, from 0.0 at the first ring.
        So a row is the same bytes whatever the ring size.  `coeffs` is read
        in place at its own row stride; rows it cannot be read as raise
        ValueError before any compiled call.  The ring is allocated after the
        rows that outlive it, so that, freed on return, before the caller's
        per-block temporaries are made, it rejoins the free memory past them:
        in 24 fresh processes each, the desk run to t = 1900 faulted
        19 000 - 23 700 pages so, and 23 000 - 41 000 with the ring first.
        """
        if not (0 <= start < stop <= self.num_sites and slots >= 3):
            # ring_steps would read or write past the arrays it is handed
            raise ValueError(f"window [{start}, {stop}) of {self.num_sites} sites, {slots} ring slots")
        need = np.ascontiguousarray(need, dtype=np.int64)
        if not _c_rows(coeffs, np.float64) or need.shape != coeffs.shape[:1]:
            # ring_flush reads coeffs[s, k] at the rows' own stride, and need[s]
            raise ValueError(f"the flush takes aligned float64 coefficient rows with contiguous orders "
                             f"and a need for each, got {coeffs.dtype} of shape {coeffs.shape} and "
                             f"strides {coeffs.strides}, and {need.shape[0]} needs")
        order, width = coeffs.shape[1] - 1, stop - start
        rows = block_empty((len(coeffs), width), complex)
        # Slot k % slots holds U_k; the zero last slot stands in for U_{-1}.
        # The recurrence overwrites every other slot before reading it.  Each
        # slot starts on a 64-byte line, padded to whole lines, so that
        # ring_flush's vector loads of it split none: at desk widths the flush
        # then takes 0.88 of the time it takes on slots 16 bytes off a line.
        padded = width + -width % 4
        ring = block_empty((slots * padded + 3,), complex)
        skip = -ring.ctypes.data % 64 // 16
        ring = ring[skip : skip + slots * padded].reshape(slots, padded)[:, :width]
        ring[0] = 0.0
        ring[0, at : at + len(seed)] = seed
        ring[-1] = 0.0
        at_ring, spacing = ring.ctypes.data, ring.strides[0] // 16
        flush = (rows.ctypes.data, rows.strides[0] // 16, len(rows), width, at_ring, spacing, slots,
                 coeffs.ctypes.data, coeffs.strides[0] // 8 if len(coeffs) > 1 else 0, need.ctypes.data)
        for done in range(0, order + 1, slots):
            k = min(done + slots - 1, order)
            if k >= 1:
                # U_j = -2i Hs U_{j-1} + U_{j-2} for the ring's orders j >= 1;
                # the operator's window starts 8 bytes (one double) per site in.
                _ring_steps(at_ring, spacing, self.at_diag2 + 8 * start, self.at_off2 + 8 * start,
                            width, slots, max(done, 1), k)
            # rows[s] (+)= sum_j coeffs[s, j] U_j over the ring's orders j < need[s]
            _ring_flush(*flush, done, k)
        return rows


# Sites at either chain end that the boundary budget keeps the front from.
EDGE_SITES = 10


def reflection_budget_violation(
    num_sites: int, t_max: float, disorder_half_width: int = 0, gamma: float = 1.0
) -> str | None:
    """Why the wavefront (speed 2 gamma) plus the disordered core can touch the boundary, or None.

    Condition: 2 gamma t_max + (2L + 1) > (N - 1) / 2 - EDGE_SITES.  The
    message gives both sides of it.
    """
    reach = 2.0 * abs(gamma) * t_max + (2 * disorder_half_width + 1)
    room = (num_sites - 1) / 2 - EDGE_SITES
    if not reach > room:
        return None
    return f"boundary budget exceeded: 2*gamma*t_max + (2L+1) = {reach:g} > (N-1)/2 - {EDGE_SITES} = {room:g}"


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
