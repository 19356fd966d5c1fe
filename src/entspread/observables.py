"""Entanglement observables on single-excitation states.

For one excitation shared across the chain, the two-site concurrence
collapses to the product form C_ij = 2 |a_i| |a_j|, and the spatial moments
below, built on it, are what `simulate` records.  A block's sums over x^2
|a_x| and |a_x|^2 are one compiled pass over its rows (`moment_sums` in
`_ring.c`), which computes |a| and numpy's pairwise sums as numpy does, so
the moments have the bytes the numpy reductions gave; those reductions are
the test suite's oracle `moment_rows_numpy`.  The full concurrence route
(two-site reduced density matrix, then the spin-flipped eigenvalue
construction) is an independent oracle in the `oracles` module as well.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .propagator import Block, WaveState, _c_rows, _moment_sums


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


def moment_rows(block: Block, origin: int, half_width: int = 0) -> np.ndarray:
    """Moment rows (columns MOMENT_COLUMNS) of the block's samples; the time column is `block.times`.

    Each sum is one pairwise sum per row over the block's columns, its
    support, grouped as numpy's np.add.reduce groups it: a row's sums do not
    depend on the other rows, so `moment_m` on one state of the block gives
    the same bits.  Offsets with |x| <= half_width count as the
    disordered-region share m_d, the rest as m_o; by construction m = 2 *
    alpha0_abs * w and m = m_o + m_d hold to rounding.  Amplitudes the
    compiled pass cannot read in place (not complex128, or sites not
    contiguous) are copied first.
    """
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    first, size = block.start - origin, block.width  # the support's first offset x, its sites
    amplitudes = block.amplitudes
    if not _c_rows(amplitudes):
        amplitudes = np.ascontiguousarray(amplitudes, dtype=complex)
    # The core |x| <= half_width is one stretch of the support's columns.
    core = (min(max(-half_width - first, 0), size), min(max(half_width + 1 - first, 0), size))
    # m_o is summed, not taken as m - m_d: while the front crosses the core
    # edge the difference is rounding noise.  Its sum runs over every site
    # with the core's weights as 0.0, so a weightless core gives m_o == m exactly.
    w_total, w_outer, w_inner, squares = _moment_sums(amplitudes, first, core)
    norm_error = np.abs(1.0 - squares)
    alpha0 = np.zeros(len(squares))
    column = origin - block.start
    if 0 <= column < block.width:
        # The scalar abs(): the array np.abs may differ from it in the last bit.
        alpha0[:] = [abs(a) for a in block.amplitudes[:, column]]
    return np.column_stack((block.times, 2.0 * alpha0 * w_total, w_total, alpha0,
                            2.0 * alpha0 * w_outer, 2.0 * alpha0 * w_inner, norm_error))


def moment_m(state: WaveState, half_width: int = 0) -> MomentSample:
    """Full moment row at the state's time, split at the region half-width.

    Sums run over the state's support when it is set, else over all sites;
    the rows are those of `moment_rows` for the state as a one-sample block.
    """
    lo, hi = state.support if state.support is not None else (0, state.num_sites - 1)
    block = Block(np.array([state.time]), state.amplitudes[None, lo : hi + 1], lo, hi + 1 - lo, 0)
    row = moment_rows(block, state.origin, half_width)
    return MomentSample(*row[0].tolist())
