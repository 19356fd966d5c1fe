"""Entanglement observables on single-excitation states.

For one excitation shared across the chain, the two-site concurrence
collapses to the product form C_ij = 2 |a_i| |a_j|.  The full route (two-site
reduced density matrix, then the spin-flipped eigenvalue construction) is
kept as an independent oracle, and the spatial moments below are what the
simulation drivers actually record.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .propagator import Block, WaveState

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


@dataclass(frozen=True)
class MomentSample:
    """One row of a moment time series.

    m is the second spatial moment of concurrence about the origin, w the
    amplitude-weighted moment with m = 2 * alpha0_abs * w, and m_o / m_d its
    outside/inside split at the disordered-region boundary.
    """

    time: float
    m: float
    w: float
    alpha0_abs: float
    m_o: float
    m_d: float
    norm_error: float


# The one column schema of a moment series: its table, its CSV and its averaging.
MOMENT_COLUMNS = tuple(f.name for f in fields(MomentSample))


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


def moment_rows(times: np.ndarray, block: Block, origin: int, half_width: int = 0) -> np.ndarray:
    """Moment rows (columns MOMENT_COLUMNS) of the block's samples at `times`.

    Each sum runs over its sample's own support, so numpy's pairwise
    summation groups the terms as for that state alone: a sum over the block
    window would regroup them and move the last bits.  Offsets with
    |x| <= half_width count as the disordered-region share m_d, the rest as
    m_o; by construction m = 2 * alpha0_abs * w and m = m_o + m_d hold to
    rounding.
    """
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    offsets = np.arange(block.start - origin, block.start + block.width - origin, dtype=float)
    weights = block.magnitudes * (offsets * offsets)
    spans = [(lo - block.start, hi + 1 - block.start) for lo, hi in block.supports]
    # The core |x| <= half_width is one stretch of columns, cut to each support.
    core_lo, core_hi = origin - half_width - block.start, origin + half_width + 1 - block.start
    cores = [(min(max(core_lo, lo), hi), min(max(core_hi, lo), hi)) for lo, hi in spans]

    def sums(values, spans):
        # np.add.reduce is np.sum without its wrapper.
        return np.array([np.add.reduce(row[lo:hi]) for row, (lo, hi) in zip(values, spans)])

    w_total = sums(weights, spans)
    w_inner = sums(weights, cores)
    # m_o is summed, not taken as m - m_d: while the front crosses the core
    # edge the difference is rounding noise.  Zeroing the core keeps the sum
    # over every site, so a weightless core gives m_o == m exactly.
    weights[:, max(core_lo, 0) : max(core_hi, 0)] = 0.0
    w_outer = sums(weights, spans)
    norm_error = np.abs(1.0 - sums(np.square(block.magnitudes, out=weights), spans))
    alpha0 = np.zeros(len(spans))
    column = origin - block.start
    if 0 <= column < block.width:
        # The scalar abs(): the array np.abs may differ from it in the last bit.
        alpha0[:] = [abs(a) for a in block.amplitudes[:, column]]
    return np.column_stack((times, 2.0 * alpha0 * w_total, w_total, alpha0,
                            2.0 * alpha0 * w_outer, 2.0 * alpha0 * w_inner, norm_error))


def moment_m(state: WaveState, half_width: int = 0) -> MomentSample:
    """Full moment row at the state's time, split at the region half-width.

    Sums run over the state's support when it is set, else over all sites;
    the rows are those of `moment_rows` for the state as a one-sample block.
    """
    lo, hi = state.support if state.support is not None else (0, state.num_sites - 1)
    amps = state.amplitudes[None, lo : hi + 1]
    block = Block(amps, np.abs(amps), lo, [(lo, hi)], None)
    row = moment_rows(np.array([state.time]), block, state.origin, half_width)
    return MomentSample(*row[0].tolist())
