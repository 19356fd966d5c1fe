"""Independent references the tests check the pipeline against.

None of these is on the pipeline's path, so they live beside their tests:

* `bessel_j_series_oracle`: J_n(x) from the ascending power series in
  extended precision (mpmath), sharing no code with the Miller recurrence;
* `evolve_diagonalization`: exact evolution through a full
  symmetric-tridiagonal eigendecomposition, for small chains;
* `reduced_density_pair`, `wootters_concurrence`, `concurrence_pair`: the
  two-site concurrence by the spin-flip route, against which the product
  form C_ij = 2 |a_i| |a_j| the moments rest on is checked;
* `ring_steps_numpy`, `edge_count_numpy` and `moment_rows_numpy`: the
  Chebyshev recurrence step, the block trim's edge search and a block's
  moment rows as numpy calls, whose bytes the compiled passes of `_ring.c`
  must reproduce.

Tests import them as they import `conftest`: `from oracles import ...`.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg

from entspread.chain import Hamiltonian
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


def ring_steps_numpy(ring: np.ndarray, diag2: np.ndarray, off2: np.ndarray, first: int, last: int) -> None:
    """Orders first..last of U_k = -2i Hs U_{k-1} + U_{k-2}, in place in slot k % len(ring).

    `ring` is (slots, width) complex; `diag2` and `off2` are -2i Hs on its
    window.  Each order is six ufunc calls, and order 1 is halved last.
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


def moment_rows_numpy(block: Block, origin: int, half_width: int = 0) -> np.ndarray:
    """`observables.moment_rows` as numpy reductions: np.abs, then one np.add.reduce per row and column."""
    first, size = block.start - origin, block.width
    magnitudes = np.abs(block.amplitudes)
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
