"""Independent references the tests check the pipeline against.

None of these is on the pipeline's path, so they live beside their tests:

* `bessel_j_series_oracle`: J_n(x) from the ascending power series in
  extended precision (mpmath), sharing no code with the Miller recurrence;
* `bessel_rows_numpy`: the Miller recurrence as numpy calls over a batch,
  whose bytes the compiled `miller_rows` must reproduce;
* `evolve_diagonalization`: exact evolution through a full
  symmetric-tridiagonal eigendecomposition, for small chains;
* `reduced_density_pair`, `wootters_concurrence`, `concurrence_pair`: the
  two-site concurrence by the spin-flip route, against which the product
  form C_ij = 2 |a_i| |a_j| the moments rest on is checked;
* `ring_steps_parts` and `edge_count_numpy`: the Chebyshev recurrence
  step and the block trim's edge search as numpy calls, whose bytes the
  compiled passes of `_ring.c` must reproduce;
* `phase_rows_exact` and `moment_rows_exact`: a block's phase and moment
  rows in the rule of `_ring.c`, each fma rounded once from its exact
  value in rationals (`magnitudes_exact`), as the compiled `phase_rows` and
  `moment_sums` must round it; `moment_rows_numpy`, the numpy reductions,
  agrees with them to rounding, and bit for bit where numpy's loops fuse;
* `ring_steps_numpy`: the step as complex ufuncs on the complex -2i Hs,
  equal in value to `ring_steps_parts`, a cross-check that shares none of
  its grouping;
* `ring_flush_exact`: a ring's orders added into the sample rows, each fma
  rounded once from its exact value in rationals, as the compiled
  `ring_flush` must round it;
* `read_series_csv_csvmodule`: a series CSV read by the csv module and one
  float() per field, whose tables and errors the compiled `parse_rows`
  must reproduce;
* `write_series_csv_python`: a series CSV written row by row with Python's
  %.17g, whose bytes the compiled `format_rows` must reproduce.

Tests import them as they import `conftest`: `from oracles import ...`.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import scipy.linalg

from entspread.analysis import MomentSeries
from entspread.bessel import FLUSH_THRESHOLD, miller_start_order
from entspread.chain import Hamiltonian
from entspread.observables import MOMENT_COLUMNS
from entspread.propagator import Block, WaveState

# Validity box of the ascending-series oracle in these units; beyond it the
# alternating series loses too many digits even at extended precision budgets
# sized for this box.
ORACLE_MAX_ORDER = 40
ORACLE_MAX_ARGUMENT = 30.0

# Dense-oracle capacity; beyond this the eigensolve is no longer "cheap test
# machinery" and the Chebyshev path is the only supported route.
DIAGONALIZATION_MAX_SITES = 2048

# sigma_y (x) sigma_y in the basis (both ground, i excited, j excited, both excited).
_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)

# Eigenvalues of the flipped product below this fraction of the largest one
# are indistinguishable from the rank-deficiency noise of the eigensolver.
_EIGENVALUE_NOISE_FLOOR = 100.0 * np.finfo(float).eps


def bessel_j_series_oracle(order: int, argument: float, terms: int) -> float:
    """Reference value of J_order(argument) from the ascending power series.

    Computes the partial sum

        sum_{m=0}^{terms-1} (-1)^m (x/2)^(2m+order) / (m! (m+order)!)

    in 50-digit working precision so that the large intermediate terms at the
    upper end of the validity box cannot contaminate the float64 result
    through cancellation.  Truncation error is bounded by the first omitted
    term divided by (1 - r), with term ratio r = (x/2)^2 / ((terms+1)(terms+
    order+1)); inside the validity box and with terms >= 40 this is far below
    1e-30, so the returned double is correctly rounded for practical
    purposes.

    This function is deliberately independent of the recurrence path: use it
    to check :func:`bessel_j` / :func:`bessel_row`, never to implement them.
    """
    order = int(order)
    if order < 0 or order > ORACLE_MAX_ORDER:
        raise ValueError(
            f"series oracle valid for 0 <= order <= {ORACLE_MAX_ORDER}, got {order}"
        )
    argument = float(argument)
    if not math.isfinite(argument) or not 0.0 <= argument <= ORACLE_MAX_ARGUMENT:
        raise ValueError(
            f"series oracle valid for 0 <= argument <= {ORACLE_MAX_ARGUMENT}, got {argument!r}"
        )
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")

    with mpmath.workdps(50):
        half = mpmath.mpf(argument) / 2
        step = -half * half
        term = half**order / mpmath.factorial(order)
        total = term
        for m in range(1, terms):
            # term m from term m-1: one factor of -(x/2)^2 / (m (m + order))
            term *= step / (m * (m + order))
            total += term
        return float(total)


def bessel_rows_numpy(order_max: int, args: np.ndarray) -> np.ndarray:
    """`bessel.bessel_rows` as numpy calls: rows J_0..J_{order_max}, one per argument.

    The recurrence is order-major: ``v[n]`` holds the unnormalized order n
    of every argument, and each step writes ``v[n-1]`` from ``v[n]`` and
    ``v[n+1]`` as ``n (2/x) v[n] - v[n+1]``, its factors made one outer
    product per 64 orders.  The even orders are summed undoubled, the norm
    being ``2 half + v[0]``.  Where an element of ``v[n-1]`` passes 1e250,
    that element's ``v[n-1]``, ``v[n]``, kept orders up to order_max and
    ``half`` are scaled by 1e-250; a running bound on the batch's largest
    magnitude tells at which steps that test must run.  The rows are then
    divided by their norms, and magnitudes below FLUSH_THRESHOLD set to 0.0.
    """
    args = np.asarray(args, dtype=float)
    positive = args > 0.0
    if not positive.all():
        out = np.zeros((args.size, order_max + 1))
        out[~positive, 0] = 1.0
        if positive.any():
            out[positive] = bessel_rows_numpy(order_max, args[positive])
        return out

    start = miller_start_order(order_max, float(args.max()))
    two_over_x = 2.0 / args
    growth = float(two_over_x.max())
    v = np.zeros((start + 2, args.size))  # v[start + 1] = 0 seeds the recurrence
    v[start] = 1.0
    orders = list(v)
    half = np.zeros(args.size)
    step = np.empty(args.size)
    bound = 1.0  # >= every |v[n]|, |v[n+1]| of the batch
    for top in range(start, 0, -64):
        factors = np.multiply.outer(np.arange(top, max(top - 64, 0), -1.0), two_over_x)
        for n, factor in zip(range(top, 0, -1), factors):
            vn = orders[n]
            if (n & 1) == 0:
                np.add(half, vn, out=half)
            np.multiply(factor, vn, out=step)
            np.subtract(step, orders[n + 1], out=orders[n - 1])
            bound *= (n * growth + 1.0) * (1.0 + 1e-12)
            if bound > 1e250:
                big = np.abs(orders[n - 1]) > 1e250
                if np.any(big):
                    v[n - 1 : max(n, order_max) + 1, big] *= 1e-250
                    half[big] *= 1e-250
                bound = float(np.abs(v[n - 1 : n + 1]).max())
    norm = 2.0 * half + v[0]
    rows = v[: order_max + 1].T / norm[:, None]
    rows[np.abs(rows) < FLUSH_THRESHOLD] = 0.0
    return np.ascontiguousarray(rows)


def evolve_diagonalization(h: Hamiltonian, initial: WaveState, delta_t: float) -> WaveState:
    """Exact evolution through a full symmetric-tridiagonal eigendecomposition.

    Test oracle: capacity-limited to small chains.
    """
    n = h.num_sites
    if n > DIAGONALIZATION_MAX_SITES:
        raise ValueError(
            f"diagonalization oracle limited to {DIAGONALIZATION_MAX_SITES} sites, got {n}"
        )
    if n != initial.num_sites:
        raise ValueError("Hamiltonian and state dimensions differ")
    delta_t = float(delta_t)
    if not math.isfinite(delta_t):
        raise ValueError(f"delta_t must be finite, got {delta_t!r}")
    if n == 1:
        amps = np.exp(-1j * h.diag[0] * delta_t) * initial.amplitudes
        return WaveState(amps, initial.time + delta_t, initial.origin)
    evals, evecs = scipy.linalg.eigh_tridiagonal(h.diag, h.offdiag)
    modal = evecs.T @ initial.amplitudes
    amps = evecs @ (np.exp(-1j * evals * delta_t) * modal)
    return WaveState(amps, initial.time + delta_t, initial.origin)


def ring_steps_parts(ring: np.ndarray, diag2: np.ndarray, off2: np.ndarray, first: int, last: int) -> None:
    """Orders first..last of U_k = -2i Hs U_{k-1} + U_{k-2}, in place in slot k % len(ring), as `ring_steps`.

    `ring` is (slots, width) complex; `diag2` and `off2` are real, the
    imaginary parts of -2i Hs's diagonal and off-diagonal on its window.
    With c = U_{k-1}, each part of s = ((d c + o c') + o- c-) is summed in
    that order by real ufuncs (c' and c- the next and previous sites, a term
    without its site left out), and U_k = (U_{k-2}.re - s.im, s.re + U_{k-2}.im).
    Order 1 is halved last as the complex product with 0.5 + 0i:
    (re 0.5 - im 0.0, re 0.0 + im 0.5).
    """
    slots, width = ring.shape

    def summed(c: np.ndarray) -> np.ndarray:
        s = np.multiply(diag2, c)
        np.add(s[:-1], np.multiply(off2, c[1:]), out=s[:-1])
        np.add(s[1:], np.multiply(off2, c[:-1]), out=s[1:])
        return s

    for k in range(first, last + 1):
        nxt, cur, prev = ring[k % slots], ring[(k - 1) % slots], ring[(k - 2) % slots]
        s_re, s_im = summed(cur.real), summed(cur.imag)
        nxt.real = np.subtract(prev.real, s_im)
        nxt.imag = np.add(s_re, prev.imag)
        if k == 1:
            re, im = nxt.real.copy(), nxt.imag.copy()
            nxt.real = np.subtract(np.multiply(re, 0.5), np.multiply(im, 0.0))
            nxt.imag = np.add(np.multiply(re, 0.0), np.multiply(im, 0.5))


def ring_steps_numpy(ring: np.ndarray, diag2: np.ndarray, off2: np.ndarray, first: int, last: int) -> None:
    """Orders first..last of U_k = -2i Hs U_{k-1} + U_{k-2}, in place in slot k % len(ring).

    `ring` is (slots, width) complex; `diag2` and `off2` are -2i Hs on its
    window, complex.  Each order is six ufunc calls, and order 1 is halved
    last.  Its values are `ring_steps_parts`'s, but not always its zero
    signs: a complex product adds 0.0 re to each real part.
    """
    slots, width = ring.shape
    tmp = np.empty(width - 1, dtype=complex)
    for k in range(first, last + 1):
        nxt, cur, prev = ring[k % slots], ring[(k - 1) % slots], ring[(k - 2) % slots]
        np.multiply(diag2, cur, out=nxt)
        np.multiply(off2, cur[1:], out=tmp)
        np.add(nxt[:-1], tmp, out=nxt[:-1])
        np.multiply(off2, cur[:-1], out=tmp)
        np.add(nxt[1:], tmp, out=nxt[1:])
        np.add(nxt, prev, out=nxt)
        if k == 1:
            nxt *= 0.5


def fma_exact(a: float, b: float, c: float) -> float:
    """a b + c rounded once to the nearest double, for finite a, b, c.

    An exact zero is +0.0, save -0.0 when both addends are zeros of that
    sign, as IEEE 754 rounds to nearest.
    """
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        return -0.0 if (a == 0.0 or b == 0.0) and math.copysign(1.0, a * b) + math.copysign(1.0, c) == -2.0 else 0.0
    return float(exact)


def ring_flush_exact(rows: np.ndarray, ring: np.ndarray, coeffs: np.ndarray, need: np.ndarray, done: int,
                     last: int) -> np.ndarray:
    """`rows` after the ring's orders done..last are added into them, each term one exact fma.

    rows (S, width) and ring (slots, width) are complex, U_j in slot
    j % slots.  Each double x of sample s, real and imaginary parts alike,
    becomes fma(coeffs[s, j], U_j, x) for j = done .. min(last, need[s] - 1)
    in turn, from 0.0 when done == 0; a sample with need[s] <= done keeps its
    row, save that the first flush makes it 0.0.
    """
    out = np.array(rows, dtype=complex).view(float)
    parts = np.ascontiguousarray(ring).view(float)
    for s in range(len(out)):
        stop = min(int(need[s]), last + 1)
        if done > 0 and stop <= done:
            continue
        for q in range(out.shape[1]):
            x = 0.0 if done == 0 else float(out[s, q])
            for j in range(done, stop):
                x = fma_exact(float(coeffs[s, j]), float(parts[j % len(parts), q]), x)
            out[s, q] = x
    return out.view(complex)


def edge_count_numpy(samples: np.ndarray, budget: float, rim: int) -> np.ndarray:
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


def phase_rows_exact(rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """rows[s] * phases[s], each product a b as (fma(ar, br, -(ai bi)), fma(ar, bi, ai br)), each fma exact."""
    out = np.array(rows, dtype=complex)
    for s, phase in enumerate(np.asarray(phases, dtype=complex).tolist()):
        br, bi = phase.real, phase.imag
        out[s] = [complex(fma_exact(a.real, br, -(a.imag * bi)), fma_exact(a.real, bi, a.imag * br))
                  for a in out[s].tolist()]
    return out


def magnitudes_exact(amplitudes: np.ndarray) -> np.ndarray:
    """|a| of each amplitude as larger * sqrt(fma(ratio, ratio, 1.0)), ratio = smaller / larger, each fma exact.

    A NaN part makes it NaN, and an infinite part inf.
    """
    def magnitude(a: complex) -> float:
        re, im = abs(a.real), abs(a.imag)
        if math.isinf(re) or math.isinf(im):
            return math.inf
        if math.isnan(re) or math.isnan(im):
            return math.nan
        larger, smaller = max(re, im), min(re, im)
        ratio = 0.0 if larger == 0.0 else smaller / larger
        return larger * math.sqrt(fma_exact(ratio, ratio, 1.0))

    amplitudes = np.asarray(amplitudes, dtype=complex)
    return np.array([magnitude(a) for a in amplitudes.ravel().tolist()], dtype=float).reshape(amplitudes.shape)


def moment_rows_exact(block: Block, origin: int, half_width: int = 0) -> np.ndarray:
    """`observables.moment_rows` in its own rule: `magnitudes_exact`, then numpy's pairwise sums."""
    return moment_rows_numpy(block, origin, half_width, magnitudes_exact(block.amplitudes))


def moment_rows_numpy(block: Block, origin: int, half_width: int = 0,
                      magnitudes: np.ndarray | None = None) -> np.ndarray:
    """`observables.moment_rows` as numpy reductions: np.abs, or `magnitudes`, then one np.add.reduce per row and column."""
    first, size = block.start - origin, block.width
    magnitudes = np.abs(block.amplitudes) if magnitudes is None else magnitudes
    offsets = np.arange(first, first + size, dtype=float)
    weights = np.multiply(magnitudes, offsets * offsets)
    core = slice(min(max(-half_width - first, 0), size), min(max(half_width + 1 - first, 0), size))
    w_total = np.add.reduce(weights, axis=1)
    w_inner = np.add.reduce(weights[:, core], axis=1)
    weights[:, core] = 0.0
    w_outer = np.add.reduce(weights, axis=1)
    norm_error = np.abs(1.0 - np.add.reduce(np.square(magnitudes), axis=1))
    alpha0 = np.zeros(len(weights))
    column = origin - block.start
    if 0 <= column < block.width:
        alpha0[:] = [abs(a) for a in block.amplitudes[:, column]]
    return np.column_stack((block.times, 2.0 * alpha0 * w_total, w_total, alpha0,
                            2.0 * alpha0 * w_outer, 2.0 * alpha0 * w_inner, norm_error))


def _check_pair(state: WaveState, i: int, j: int) -> None:
    n = state.num_sites
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"sites ({i}, {j}) outside chain of {n} sites")
    if i == j:
        raise ValueError("two-site observables need two distinct sites")


def reduced_density_pair(state: WaveState, i: int, j: int) -> np.ndarray:
    """Two-site reduced density matrix of a pure single-excitation state.

    Basis order: (both ground, i excited, j excited, both excited).  The
    both-ground weight is mu = 1 - |a_i|^2 - |a_j|^2 and the doubly excited
    level is never populated.
    """
    _check_pair(state, i, j)
    if state.norm_error() > 1e-9:
        raise ValueError("reduced density matrix requires a normalized state")
    ai = state.amplitudes[i]
    aj = state.amplitudes[j]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - abs(ai) ** 2 - abs(aj) ** 2
    rho[1, 1] = abs(ai) ** 2
    rho[2, 2] = abs(aj) ** 2
    rho[1, 2] = ai * np.conj(aj)
    rho[2, 1] = aj * np.conj(ai)
    return rho


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix from the spin-flip spectrum.

    lambda_n are the descending square roots of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y); the result is
    max(lambda_1 - lambda_2 - lambda_3 - lambda_4, 0).  Eigenvalues within
    the solver's rank-deficiency noise of zero (relative floor, and tiny
    negatives) are clamped to zero before the square root.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix must have unit trace")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise ValueError("density matrix must be positive semidefinite")

    flipped = rho @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    eigs = np.linalg.eigvals(flipped).real
    floor = _EIGENVALUE_NOISE_FLOOR * max(float(np.max(np.abs(eigs))), np.finfo(float).tiny)
    eigs[np.abs(eigs) < floor] = 0.0
    if np.min(eigs) < -1e-12:
        raise ValueError("spin-flipped spectrum is significantly negative")
    lam = np.sort(np.sqrt(np.clip(eigs, 0.0, None)))[::-1]
    return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0))


def concurrence_pair(state: WaveState, i: int, j: int) -> float:
    """Shortcut concurrence 2 |a_i| |a_j| between two sites."""
    _check_pair(state, i, j)
    return 2.0 * abs(state.amplitudes[i]) * abs(state.amplitudes[j])


def read_series_csv_csvmodule(path: str | Path) -> MomentSeries:
    """`seriesio.read_series_csv` as csv.reader rows and one float() per base field.

    Missing base columns raise ValueError naming the path; a row with another
    field count than the header or a non-numeric base field, naming the path
    and the line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        missing = [c for c in MOMENT_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        index = [header.index(name) for name in MOMENT_COLUMNS]
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: {len(row)} fields, header has {len(header)}"
                )
            try:
                rows.append([float(row[k]) for k in index])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    table = np.array(rows, dtype=float).reshape(len(rows), len(MOMENT_COLUMNS))
    return MomentSeries.from_table(table)


def write_series_csv_python(
    path: str | Path,
    series: MomentSeries,
    extras: dict[str, np.ndarray] | None = None,
) -> None:
    """`seriesio.write_series_csv` as one Python "%.17g" row format per row, written as text."""
    extras = extras or {}
    path = Path(path)
    table = np.column_stack((series.table, *extras.values()))
    header = ",".join((*MOMENT_COLUMNS, *extras))
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(row % cells for cells in map(tuple, table.tolist()))
