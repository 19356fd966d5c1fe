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
  The orders of a ring are one pass of the C function `ring_steps`
  (`_ring.c`, built with `cc` on first import and cached; an import that
  cannot build it fails), which groups each order's arithmetic as the six
  numpy ufuncs it replaced did, so their bytes are kept.
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
  The trim's search and the phase exp(-i a tau) are C passes over the rows
  too (`edge_counts`, `phase_rows`), in numpy's arithmetic: a running sum
  as np.cumsum makes it, and numpy's complex product, fused where numpy's
  loops fuse it in this process (`_numpy_fuses`).
* Byte cap.  Up to 8 orders sit in a ring, added into the S sample rows
  whenever it fills; S is cut so that ring, sample and coefficient rows and
  a margin fit WORKSPACE_BYTES, and so that after the ring is freed the
  sample rows fit with two real rows per sample.  Those held |a| and its
  weights when `observables.moment_rows` made them; its compiled pass makes
  neither, so they are margin now, kept because dropping them moves S on
  wide windows and so the bytes of long runs.  Wider windows shrink the
  ring to as few as 3 orders; only one over WORKSPACE_BYTES / 112 sites
  (75 000) passes the cap.  The ring and the sample rows each head a
  buffer whose byte size is rounded up to a power of 2 ** (1 / _SIZE_CLASSES)
  (`block_empty`), so the next block gets back memory a block before it
  freed instead of faulting in fresh pages.  Those capacities, up to 12%
  over the arrays, are what count against WORKSPACE_BYTES.  The plan's
  margins (its order guess, the coefficient rows, three spare rows and the
  two rows per sample) leave room for them: the byte-cap test, which
  measures what is allocated, peaks at 0.88 of a 1 MiB cap.

`evolve_blocks`, the kernel's one entry point, evolves the unit excitation at
the origin forward and yields the blocks of its series; the simulate path
reduces each to moment rows.  `evolve_series` hands out one state per
sample from the same blocks.  The accuracy oracle for small chains, a dense
eigendecomposition evolver, is in the test suite's `oracles` module.
Everything here is pure; distinct trajectories can be evolved concurrently.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import warnings
from dataclasses import dataclass
from pathlib import Path

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


# How `_ring.c` is built; its header says how the flags keep numpy's bytes.
_RING_SOURCE = Path(__file__).with_name("_ring.c")
_RING_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
_RING_LIBS = ("-lm",)


def _own_file(path: Path) -> bool:
    """Whether `path` is a file this user owns; one in a shared temp directory may be another's."""
    return path.is_file() and path.stat().st_uid == os.getuid()


def _ring_library() -> Path:
    """The shared library built from `_ring.c`, compiled with `cc` on a cache miss.

    It is cached in $XDG_CACHE_HOME/entspread (default ~/.cache/entspread),
    or in the temp directory where that cannot be written, under a name
    keyed by the source, the flags and the machine.  A build goes to a
    temp file that is then renamed over the name, so processes that build
    at once each leave a whole library.
    """
    source = _RING_SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, *map(str.encode, _RING_FLAGS + _RING_LIBS),
                                      platform.machine().encode()])).hexdigest()
    name = f"entspread-ring-{key[:16]}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "entspread"
    if _own_file(cache / name):
        return cache / name
    import subprocess
    import tempfile

    for directory in (cache, Path(tempfile.gettempdir())):
        if _own_file(directory / name):
            return directory / name
        try:
            directory.mkdir(parents=True, exist_ok=True)
            handle, partial = tempfile.mkstemp(prefix=name, suffix=".partial", dir=directory)
        except OSError:
            continue
        os.close(handle)
        command = ["cc", *_RING_FLAGS, "-o", partial, str(_RING_SOURCE), *_RING_LIBS]
        try:
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode == 0:
                os.replace(partial, directory / name)
                return directory / name
            error = done.stderr.strip()
        except OSError as exc:
            error = str(exc)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
        raise ImportError(f"cannot build the Chebyshev ring step: `{' '.join(command)}` failed: {error}")
    raise ImportError(f"cannot write {name} to {cache} or {tempfile.gettempdir()}")


@functools.cache
def _numpy_fuses() -> tuple[bool, bool, bool]:
    """Whether numpy fuses a product into a sum here: in a complex product of rows, of one element in place, and in |a|.

    numpy picks its loops by the CPU (and NPY_DISABLE_CPU_FEATURES): with
    FMA they compute a b as (fma(ar, br, -ai bi), fma(ar, bi, ai br)) and
    |a| as L sqrt(fma(q, q, 1)), L = max(|ar|, |ai|), q = min / L; without,
    as the plain products and sums.  It multiplies a lone element in place
    with a plain scalar loop.  Each is probed on values where the two forms
    round apart, and compared with the plain form.  The probe runs on first
    use: it maps in numpy's complex loops, about 0.26 MB, which a process
    that runs no block never needs.
    """
    x = 1.0 + 2.0**-27  # x x - 1 is exact only when fused
    products = []
    for sites in (8, 1):
        rows = np.full((1, sites), complex(x, 1.0))
        rows *= rows[:, :1].copy()  # as `_Kernel.block` applies its phases
        products.append(bool(np.any(rows.real != x * x - 1.0)))
    ratio = np.arange(1, 257) * 0.6180339887498949 % 1.0  # some give |1 + i ratio| two roundings
    magnitudes = np.abs(1.0 + 1j * ratio)
    return *products, bool(np.any(magnitudes != np.sqrt(ratio * ratio + 1.0)))


_RING_PATH = _ring_library()
_LIBRARY = ctypes.CDLL(str(_RING_PATH))


def _bind(name: str, *argtypes):
    function = getattr(_LIBRARY, name)
    function.argtypes, function.restype = argtypes, None
    return function


_P, _N = ctypes.c_void_p, ctypes.c_long
_ring_steps = _bind("ring_steps", _P, _P, _P, _N, _N, _N, _N)
_edge_counts_c = _bind("edge_counts", _P, _N, _N, _N, ctypes.c_double, _P)
_phase_rows_c = _bind("phase_rows", _P, _N, _N, _N, _P, _N)
_moment_sums_c = _bind("moment_sums", _P, _N, _N, _N, _N, _N, _N, _N, _P)


def _c_rows(rows: np.ndarray) -> bool:
    """Whether the C passes read `rows` in place: aligned 2-d complex128, each row's sites contiguous."""
    return (rows.ndim == 2 and rows.dtype == np.complex128 and rows.flags.aligned
            and (rows.shape[1] <= 1 or rows.strides[1] == 16)
            and (rows.shape[0] <= 1 or rows.strides[0] % 16 == 0))


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
    """rows[s] *= phases[s] in place, bit for bit as numpy's `rows *= phases[:, None]`."""
    address, stride, count, width = _row_args(rows)
    phases = np.ascontiguousarray(phases, dtype=complex)
    if not rows.flags.writeable or phases.shape != (count,):
        raise ValueError(f"{count} writeable rows need as many phases, got {phases.shape}")
    rows_fused, lone_fused, _ = _numpy_fuses()
    fused = lone_fused if count * width == 1 else rows_fused
    _phase_rows_c(address, stride, count, width, phases.ctypes.data, fused)


def _moment_sums(rows: np.ndarray, first: int, core: tuple[int, int]) -> np.ndarray:
    """Sums over each row of `rows` (S, width), as (4, S): of x^2 |a_x|, of it off the core, on the core, and of |a_x|^2.

    x = first + column; the core is the columns [core[0], core[1]).  Each
    is the pairwise sum np.add.reduce makes of numpy's own |a| and
    products, so they equal the numpy reductions bit for bit.
    """
    address, stride, count, width = _row_args(rows)
    if not 0 <= core[0] <= core[1] <= width:
        raise ValueError(f"core columns {core} outside {width} sites")
    sums = np.empty((4, count))
    _moment_sums_c(address, stride, count, width, first, *core, _numpy_fuses()[2], sums.ctypes.data)
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
            # -2i Hs, so each recurrence order is one matvec and one addition.
            self.diag2 = -1j * (2.0 * (h.diag - self.center) / self.half_width)
            self.off2 = -1j * (2.0 * h.offdiag / self.half_width)
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
        WORKSPACE_BYTES on a window sized by the plan's order guess: while the ring
        runs, S sample and coefficient rows beside it and three spare rows;
        after it, S sample rows with two real rows per sample, which the moment
        rows' |a| and weights once took.  The positive offsets are then evened over
        the grid, so blocks of a linear grid repeat them.  K is cut for the last offset; each sample sums only
        the orders its own tail needs.

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
        orders is one call of the compiled `ring_steps`, then one dgemm.
        Sample s sums the orders through the ring flush that holds its order
        need[s] - 1, not the later ones; `need` is non-decreasing, so each
        flush updates a suffix of the rows.  The ring is allocated after the
        rows that outlive it, so that, freed on return, before the caller's
        per-block temporaries are made, it rejoins the free memory past them:
        in 24 fresh processes each, the desk run to t = 1900 faulted
        19 000 - 23 700 pages so, and 23 000 - 41 000 with the ring first.
        """
        order, width = coeffs.shape[1] - 1, stop - start
        if not (0 <= start < stop <= self.num_sites and slots >= 3):
            # ring_steps would read or write past the arrays it is handed
            raise ValueError(f"window [{start}, {stop}) of {self.num_sites} sites, {slots} ring slots")
        # Row s holds sample s as interleaved (re, im) pairs: a complex view.
        rows = block_empty((len(coeffs), 2 * width))
        # Slot k % slots holds U_k; the zero last slot stands in for U_{-1}.
        # The recurrence overwrites every other slot before reading it.
        ring = block_empty((slots, width), complex)
        ring[0] = 0.0
        ring[0, at : at + len(seed)] = seed
        ring[-1] = 0.0
        at_ring = ring.ctypes.data
        for done in range(0, order + 1, slots):
            k = min(done + slots - 1, order)
            if k >= 1:
                # U_j = -2i Hs U_{j-1} + U_{j-2} for the ring's orders j >= 1;
                # the operator's window starts 16 bytes (one complex) per site in.
                _ring_steps(at_ring, self.at_diag2 + 16 * start, self.at_off2 + 16 * start,
                            width, slots, max(done, 1), k)
            # rows[first:] (+)= coeffs[first:, done:k+1] @ ring[:k+1-done], in
            # place, for the samples that need an order past `done`; dgemm
            # rejects an empty product, so none is made.
            first = int(np.searchsorted(need, done, side="right"))
            if first < len(rows):
                stored = ring[: k + 1 - done].view(float).T
                dgemm(1.0, stored, coeffs[first:, done : k + 1], beta=float(done > 0),
                      c=rows[first:].T, trans_b=1, overwrite_c=1)
        return rows.view(complex)


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
