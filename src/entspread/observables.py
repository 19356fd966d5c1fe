"""Entanglement observables on single-excitation states.

For one excitation shared across the chain, the two-site concurrence
collapses to the product form C_ij = 2 |a_i| |a_j|, and the spatial moments
below, built on it, are what `simulate` records.  The full route
(two-site reduced density matrix, then the spin-flipped eigenvalue
construction) is an independent oracle in the test suite's `oracles` module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .propagator import Block, WaveState, block_empty


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

    Each column is one reduction per row over the block's columns, its
    support, so numpy's pairwise summation groups the terms as for one state
    of the block alone: `moment_m` on it gives the same bits.  Offsets
    with |x| <= half_width count as the disordered-region share m_d, the rest
    as m_o; by construction m = 2 * alpha0_abs * w and m = m_o + m_d hold to
    rounding.
    """
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    first, size = block.start - origin, block.width  # the support's first offset x, its sites
    # Size-classed like the block's rows, so blocks reuse the memory.
    magnitudes = np.abs(block.amplitudes, out=block_empty((len(block.times), size)))
    offsets = np.arange(first, first + size, dtype=float)
    weights = np.multiply(magnitudes, offsets * offsets, out=block_empty(magnitudes.shape))
    # The core |x| <= half_width is one stretch of the support's columns.
    core = slice(min(max(-half_width - first, 0), size), min(max(half_width + 1 - first, 0), size))
    # np.add.reduce is np.sum without its wrapper.
    w_total = np.add.reduce(weights, axis=1)
    w_inner = np.add.reduce(weights[:, core], axis=1)
    # m_o is summed, not taken as m - m_d: while the front crosses the core
    # edge the difference is rounding noise.  Zeroing the core keeps the sum
    # over every site, so a weightless core gives m_o == m exactly.
    weights[:, core] = 0.0
    w_outer = np.add.reduce(weights, axis=1)
    norm_error = np.abs(1.0 - np.add.reduce(np.square(magnitudes, out=magnitudes), axis=1))
    alpha0 = np.zeros(len(weights))
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
