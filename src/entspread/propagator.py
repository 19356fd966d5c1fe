"""Time evolution of single-excitation wavefunctions under tridiagonal Hamiltonians.

The production path is a Chebyshev expansion of the evolution operator,

    exp(-i H t) = exp(-i a t) * sum_k (2 - delta_k0) (-i)^k J_k(b t) T_k(Hs),

with Hs = (H - a) / b rescaled into [-1, 1] by the Gershgorin bounds
(a = center, b = half-width) and T_k applied through the three-term
recurrence, so one long step costs only tridiagonal matrix-vector products.
The coefficients are exactly the Bessel rows the bessel module provides.

Two facts keep a step small:

* Order.  Since |T_k(Hs)| <= 1 on the spectrum, cutting the series after
  order K changes the result by at most 2 sum_{k>K} |J_k(b|t|)| in the
  2-norm.  The series is cut at the first K where that tail is at or below
  TAIL_TOLERANCE (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)); the
  tail decays superexponentially once k passes b|t|.
* Window.  A tridiagonal matvec widens the support of a vector by one site
  per side, so T_k psi lives on [lo - k, hi + k] when psi lives on [lo, hi].
  Every matvec and every accumulate of a step runs on the window
  [lo - K, hi + K] only, which is exact, not an approximation: it is the
  discrete light cone of the step (Lieb & Robinson, Commun. Math. Phys. 28,
  251 (1972)).  After each step amplitudes below the bessel module's
  FLUSH_THRESHOLD are set to zero, which keeps the support tight and the
  arithmetic out of subnormal numbers, and lo and hi are recomputed.

`evolve_chebyshev` and `evolve_series` share that one kernel.  A dense
eigendecomposition evolver is kept alongside as the accuracy oracle for small
chains.  Everything here is pure; distinct trajectories can be evolved
concurrently.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bessel import FLUSH_THRESHOLD, bessel_row
from .chain import Hamiltonian, spectral_bounds

# Dense-oracle capacity; beyond this the eigensolve is no longer "cheap test
# machinery" and the Chebyshev path is the only supported route.
DIAGONALIZATION_MAX_SITES = 2048

# Bound on the discarded Chebyshev tail 2 * sum_{k>K} |J_k(b|dt|)| of one
# step, which bounds that step's truncation error in the 2-norm.
TAIL_TOLERANCE = 1e-16

# The Bessel row is first evaluated to order ceil(z) + _ORDER_PAD +
# ceil(10 ln(1 + z)), z = b|dt|, and doubled in length while its tail is still
# above TAIL_TOLERANCE (only past z ~ 1000).
_ORDER_PAD = 40


class ReflectionBudgetWarning(UserWarning):
    """A requested evolution window lets the wavefront reach the open boundary."""


@dataclass
class WaveState:
    """Complex site amplitudes at one instant, tagged with the excitation origin."""

    amplitudes: np.ndarray
    time: float
    origin: int

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
    return WaveState(amplitudes=amplitudes, time=time, origin=origin)


def _truncated_row(z: float) -> np.ndarray:
    """J_0(z)..J_K(z) for the first K with 2 * sum_{k>K} |J_k(z)| <= TAIL_TOLERANCE."""
    order = math.ceil(z) + _ORDER_PAD + math.ceil(10.0 * math.log1p(z))
    while True:
        values = bessel_row(order, z).values
        # tail[k] = 2 * sum_{j>=k} |J_j(z)| over the evaluated row
        tail = 2.0 * np.cumsum(np.abs(values[::-1]))[::-1]
        # Demand one evaluated term past the cut, so the tail is not just the
        # row running out.
        below = np.flatnonzero(tail[1:-1] <= TAIL_TOLERANCE)
        if below.size:
            return values[: below[0] + 1]
        order *= 2


def chebyshev_order(b: float, delta_t: float) -> int:
    """Order K of the step: the first K whose tail 2 * sum_{k>K} |J_k(b|dt|)| is <= TAIL_TOLERANCE.

    At the desk step (z = b|dt| ~ 1.08) that is K = 15.  Up to z ~ 1000, K
    never exceeds the padded order ceil(z) + 40 + ceil(10 ln(1 + z)) the row
    is first evaluated at; past that the padding falls short of the
    tolerance and the row is lengthened.
    """
    return len(_truncated_row(b * abs(delta_t))) - 1


class _Kernel:
    """The windowed Chebyshev step for one Hamiltonian.

    The rescaled operator is set up once, and each distinct step size gets
    its coefficients once, so a linear time grid evaluates one Bessel row.
    States are full-chain complex arrays paired with their support (lo, hi),
    the first and last nonzero site, or None for the zero vector.
    """

    def __init__(self, h: Hamiltonian):
        emin, emax = spectral_bounds(h)
        self.num_sites = h.num_sites
        self.center = 0.5 * (emax + emin)
        self.half_width = 0.5 * (emax - emin)
        if self.half_width > 0.0:
            # 2 Hs, so each recurrence order is one matvec and one subtraction.
            self.diag2 = 2.0 * (h.diag - self.center) / self.half_width
            self.off2 = 2.0 * h.offdiag / self.half_width
        self._steps: dict[float, tuple[list[float], complex]] = {}

    def _weights(self, delta_t: float) -> tuple[list[float], complex]:
        """Real per-order weights and the global phase of one step.

        The term of order k is (2 - delta_k0) J_k(z) s^k T_k psi with
        s = -i sign(dt).  For even k, s^k = (-1)^(k/2) is real; for odd k,
        s^k = -i * sign(dt) (-1)^((k-1)/2), and the common factor -i is applied
        once to the summed odd orders.
        """
        cached = self._steps.get(delta_t)
        if cached is None:
            row = _truncated_row(self.half_width * abs(delta_t))
            sign = 1.0 if delta_t > 0 else -1.0
            weights = [float(row[0])]
            for k in range(1, len(row)):
                flip = -1.0 if (k // 2) & 1 else 1.0
                weights.append(2.0 * float(row[k]) * flip * (sign if k & 1 else 1.0))
            cached = (weights, cmath.exp(-1j * self.center * delta_t))
            self._steps[delta_t] = cached
        return cached

    def step(self, amps: np.ndarray, support, delta_t: float):
        """Advance `amps` in place by delta_t; returns the new support."""
        if support is None:
            return None
        if self.half_width == 0.0:
            # H is a multiple of the identity: pure phase.
            amps *= cmath.exp(-1j * self.center * delta_t)
            return support
        weights, phase = self._weights(delta_t)
        order = len(weights) - 1
        lo = max(support[0] - order, 0)
        hi = min(support[1] + order, self.num_sites - 1) + 1
        diag2 = self.diag2[lo:hi]
        off2 = self.off2[lo : hi - 1]

        def apply_2hs(vec, out, tmp):
            np.multiply(diag2, vec, out=out)
            np.multiply(off2, vec[:, 1:], out=tmp)
            out[:, :-1] += tmp
            np.multiply(off2, vec[:, :-1], out=tmp)
            out[:, 1:] += tmp

        # Real and imaginary parts as rows: Hs is real, so they recur apart.
        window = amps[lo:hi]
        prev = np.stack((window.real, window.imag))
        even = weights[0] * prev
        odd = np.zeros_like(prev)
        tmp = np.empty((2, hi - lo - 1))
        scaled = np.empty_like(prev)
        if order >= 1:
            cur = np.empty_like(prev)
            apply_2hs(prev, cur, tmp)
            cur *= 0.5
            np.multiply(cur, weights[1], out=scaled)
            odd += scaled
            nxt = np.empty_like(prev)
            for k in range(2, order + 1):
                apply_2hs(cur, nxt, tmp)
                nxt -= prev
                np.multiply(nxt, weights[k], out=scaled)
                if k & 1:
                    odd += scaled
                else:
                    even += scaled
                prev, cur, nxt = cur, nxt, prev

        # sum = even - i * odd, then the global phase.
        window.real = even[0] + odd[1]
        window.imag = even[1] - odd[0]
        window *= phase
        small = np.abs(window) < FLUSH_THRESHOLD
        window[small] = 0.0
        alive = np.flatnonzero(~small)
        if alive.size == 0:
            return None
        return lo + int(alive[0]), lo + int(alive[-1])


def _support(amps: np.ndarray):
    nonzero = np.flatnonzero(amps)
    return (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else None


def evolve_chebyshev(h: Hamiltonian, initial: WaveState, delta_t: float) -> WaveState:
    """exp(-i H delta_t) applied to the state; delta_t of either sign."""
    delta_t = float(delta_t)
    if not math.isfinite(delta_t):
        raise ValueError(f"delta_t must be finite, got {delta_t!r}")
    if h.num_sites != initial.num_sites:
        raise ValueError("Hamiltonian and state dimensions differ")
    if not np.all(np.isfinite(initial.amplitudes)):
        raise ValueError("state amplitudes must be finite")

    amps = initial.amplitudes.astype(complex, copy=True)
    if delta_t != 0.0:
        _Kernel(h).step(amps, _support(amps), delta_t)
    return WaveState(amps, initial.time + delta_t, initial.origin)


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


def reflection_budget_exceeded(
    num_sites: int, t_max: float, disorder_half_width: int = 0, gamma: float = 1.0
) -> bool:
    """True when `reflection_budget_violation` finds the condition met."""
    return reflection_budget_violation(num_sites, t_max, disorder_half_width, gamma) is not None


def evolve_series(
    h: Hamiltonian,
    origin: int,
    times: np.ndarray,
    disorder_half_width: int = 0,
):
    """Yield the state at each sample time, chaining Chebyshev steps between samples.

    Starts from the unit excitation at `origin` at t = 0 and never restarts
    from scratch, so total work scales with the final time rather than the
    sum of sample times.  Yields lazily: a long scan over a big chain never
    holds more than one state in memory.  The front speed 2 gamma of the
    reflection check reads gamma as the largest |hopping| of the chain.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
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
            stacklevel=2,
        )

    kernel = _Kernel(h)
    amps = basis_state(h.num_sites, origin).amplitudes
    support = (origin, origin)
    now = 0.0
    for t in times:
        gap = float(t) - now
        if gap != 0.0:
            support = kernel.step(amps, support, gap)
        # Label with the exact grid value; the evolved duration is the sum of
        # the gaps, which telescopes to t exactly.
        now = float(t)
        yield WaveState(amps.copy(), now, origin)
