"""Closed-form amplitudes, bounds and asymptotes for ordered chains.

Covers the three exactly solvable situations the simulator is checked
against: the infinite ordered chain launched from the origin, the ordered
semi-infinite chain launched from its end site, and the infinite chain with
a single-site core (one on-site field at the origin) leaking into ordered
leads.  Infinite sums are truncated at |x| <= `bessel.tail_order(2t)`, past
the Airy tail that trails the wavefront at |x| = 2t and into its
superexponential falloff, where 2 sum |J_x(2t)| is below 1e-16.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bessel import bessel_j, bessel_row, tail_order
from .propagator import WaveState

# Powers of (-i) indexed by x mod 4.
_PHASES = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


def _phase(x: int) -> complex:
    return _PHASES[x % 4]


def infinite_amplitude(x: int, t: float) -> complex:
    """Amplitude (-i)^x J_x(2t) at signed offset x on the infinite ordered chain."""
    return _phase(x) * bessel_j(x, 2.0 * t)


def infinite_state(t: float) -> WaveState:
    """The infinite-chain profile at time t as a finite WaveState.

    The chain is truncated at |x| <= tail_order(2t) around the origin,
    where the discarded tail is below double precision.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    radius = tail_order(2.0 * t)
    row = bessel_row(radius, 2.0 * t)
    amplitudes = np.empty(2 * radius + 1, dtype=complex)
    phases = np.array([_phase(x) for x in range(radius + 1)])
    right = phases * row
    amplitudes[radius:] = right
    # (-i)^(-x) J_(-x) = (-i)^x J_x: the profile is exactly mirror symmetric.
    amplitudes[:radius] = right[1:][::-1]
    return WaveState(amplitudes=amplitudes, time=t, origin=radius)


def semi_infinite_amplitude(x: int, t: float) -> complex:
    """Amplitude (-i)^x (x+1)/t J_{x+1}(2t) on a half-chain launched from its end x=0."""
    if x < 0:
        raise ValueError(f"half-chain offsets start at 0, got x = {x}")
    if t == 0.0:
        return 1.0 + 0.0j if x == 0 else 0.0j
    return _phase(x) * (x + 1) / t * bessel_j(x + 1, 2.0 * t)


def impurity_origin_amplitude(epsilon: float, t: float) -> complex:
    """Origin amplitude a_0(t) on the infinite unit-hopping chain with field epsilon at the origin.

    The exact single-impurity solution (e.g. Economou, Green's Functions in
    Quantum Physics, ch. 6): G_00(E) = 1 / (sqrt(E^2 - 4) - epsilon) has a
    bound state at E_b = sign(epsilon) sqrt(epsilon^2 + 4) of weight
    w_b = |epsilon| / sqrt(epsilon^2 + 4), and the band density
    rho(E) = sqrt(4 - E^2) / (pi (epsilon^2 + 4 - E^2)) on [-2, 2], so

        a_0(t) = w_b exp(-i E_b t) + int rho(E) exp(-i E t) dE.

    With E = 2 cos(theta) the band term is the mean over one period of
    4 sin^2 / (epsilon^2 + 4 sin^2) * exp(-2it cos), which the periodic
    trapezoid rule on n points integrates to ~1e-15 once n exceeds both 8t
    (the oscillation) and 80/|epsilon| (the band-edge dip of width
    |epsilon|/2).  The second demand is capped at 2^20 points, so below
    |epsilon| = 1e-4 the error grows (5e-8 at |epsilon| = 1e-5).  At
    epsilon = 0 this is J_0(2t).
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    dip = min(80.0 / abs(epsilon), 2.0**20) if epsilon else 0.0
    n = 2 ** math.ceil(math.log2(max(2.0**13, 8.0 * t, dip)))
    # The integrand is even in theta: the midpoints of [0, pi] carry the period.
    theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
    sin2 = 4.0 * np.sin(theta) ** 2
    weights = sin2 / ((n // 2) * (epsilon * epsilon + sin2))
    phase = 2.0 * t * np.cos(theta)
    band = weights @ np.cos(phase) - 1j * (weights @ np.sin(phase))
    e_bound = math.copysign(math.sqrt(epsilon * epsilon + 4.0), epsilon)
    # w_b = |epsilon| / sqrt(epsilon^2 + 4) = epsilon / E_b
    return epsilon / e_bound * cmath.exp(-1j * e_bound * t) + complex(band)


def w_bounds_ordered(t):
    """(2t^2, 16/sqrt(pi) t^(5/2)): rigorous lower and asymptotic upper bound on W(t).

    `t` is a float or a float array.  t^(5/2) is taken as t * t * sqrt(t),
    whose roundings do not depend on the host's `pow`.  The upper member is
    meaningful for t >= 1 and is checked downstream only for t >= 5.
    """
    return 2.0 * t * t, 16.0 / math.sqrt(math.pi) * (t * t * np.sqrt(t))


# Two-term oscillation-averaged law W ~ W_LEAD t^2.5 + W_CAUSTIC t^2 on the
# infinite ordered chain; see asymptotes_ordered for the derivation.
W_LEAD = 128.0 / (5.0 * math.pi) * math.gamma(0.75) / math.gamma(0.25)
# 8 C with C = int (|Ai(-s)| - 2 pi^-1.5 s^-1/4 theta(s)) ds = 1/3 + 0.0278798539
W_CAUSTIC = 8.0 * 0.3612131872
# Averaged |J_0(2t)| ~ 2 pi^-1.5 t^-1/2, so M = 2 |a_0| W ~ M_PER_W t^-1/2 W.
M_PER_W = 4.0 / math.pi**1.5


def asymptotes_ordered(t):
    """Oscillation-averaged large-t laws (W, M) on the infinite ordered chain, at t > 0.

        W ~ A t^2.5 + B t^2,    M ~ 4/pi^1.5 t^-1/2 W = 1.978463 t^2 + 2.075816 t^1.5

    with A = W_LEAD = 128/(5 pi) Gamma(3/4)/Gamma(1/4) = 2.754183 and
    B = W_CAUSTIC = 8 C = 2.889706.

    Leading term: inside the light cone |x| < z = 2t, J_x(z) oscillates under
    the Debye envelope sqrt(2/pi) (z^2 - x^2)^-1/4, whose |cos| averages to
    2/pi.  Summing 2 x^2 |J_x| gives 3 int_0^1 mu^2 (1 - mu^2)^-1/4 dmu =
    1.43777 times the flat-envelope value 32/(3 pi^1.5) that sqrt(2/(pi z))
    would give.  Second term: near the caustic x ~ z the Debye form breaks
    down and J_x(z) ~ (2/z)^(1/3) Ai(-s) with s = (2/z)^(1/3) (z - x).  Each
    wavefront then adds z^2 C over the averaged envelope, where
    C = int (|Ai(-s)| - 2 pi^-1.5 s^-1/4 theta(s)) ds; the s < 0 tail gives
    exactly 1/3.  Both fronts give 2 z^2 C = 8 C t^2.  The relative error of
    the two-term law falls from ~0.3% at t = 100 to ~1e-4 at t = 1000.

    `t` is a float or a float array.
    """
    if np.any(t <= 0.0):
        raise ValueError(f"t must be > 0, got {np.min(t)}")
    root = np.sqrt(t)
    w_avg = t * t * (W_LEAD * root + W_CAUSTIC)
    return w_avg, M_PER_W / root * w_avg
