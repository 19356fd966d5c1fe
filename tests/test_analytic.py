import math

import numpy as np
import pytest
import scipy.special

from entspread.analytic import (
    asymptotes_ordered,
    impurity_origin_amplitude,
    infinite_amplitude,
    infinite_state,
    semi_infinite_amplitude,
    w_bounds_ordered,
)
from entspread.bessel import bessel_row, bessel_rows
from entspread.chain import Hamiltonian
from entspread.observables import moment_m
from entspread.propagator import basis_state

from oracles import evolve_diagonalization

# Extended-precision series references.
J0_2 = 0.22389077914123567
J1_2 = 0.57672480775687339
J2_2 = 0.35283402861563772


class TestInfiniteChain:
    def test_examples(self):
        assert infinite_amplitude(0, 0.0) == 1.0
        assert infinite_amplitude(0, 1.0) == pytest.approx(J0_2, abs=1e-9)
        assert infinite_amplitude(1, 1.0) == pytest.approx(-1j * J1_2, abs=1e-9)
        # (-i)^(-2) = -1 and J_{-2} = J_2
        assert infinite_amplitude(-2, 1.0) == pytest.approx(-J2_2, abs=1e-9)

    def test_profile_normalized(self):
        for t in (1.0, 5.0, 25.0):
            state = infinite_state(t)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-9

    def test_profile_mirror_symmetric(self):
        state = infinite_state(3.0)
        np.testing.assert_array_equal(
            state.amplitudes[: state.origin], state.amplitudes[state.origin + 1 :][::-1]
        )

    def test_profile_matches_pointwise_form(self):
        state = infinite_state(2.5)
        for x in (-7, -1, 0, 3, 12):
            assert state.amplitudes[state.origin + x] == pytest.approx(
                infinite_amplitude(x, 2.5), abs=1e-14
            )


class TestSemiInfiniteChain:
    def test_examples(self):
        assert semi_infinite_amplitude(0, 0.0) == 1.0
        assert semi_infinite_amplitude(3, 0.0) == 0.0
        assert semi_infinite_amplitude(0, 1.0) == pytest.approx(J1_2, abs=1e-9)
        assert semi_infinite_amplitude(0, 1.0) == pytest.approx(J0_2 + J2_2, abs=1e-9)
        assert semi_infinite_amplitude(1, 1.0) == pytest.approx(-2j * J2_2, abs=1e-9)

    def test_two_forms_equivalent(self):
        # (x+1)/t J_{x+1}(2t) = J_x(2t) + J_{x+2}(2t)
        for t in (1.0, 10.0, 100.0):
            row = bessel_row(210 + int(2 * t), 2 * t)
            for x in range(0, 201):
                lhs = (x + 1) / t * row[x + 1]
                rhs = row[x] + row[x + 2]
                assert abs(lhs - rhs) <= 1e-10

    def test_normalized(self):
        for t in (1.0, 8.0, 40.0):
            x = np.arange(0, int(2 * t) + 60)
            amps = np.array([semi_infinite_amplitude(int(k), t) for k in x])
            assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-9

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            semi_infinite_amplitude(-1, 1.0)


class TestBoundsAndAsymptotes:
    def test_bound_values(self):
        lower, upper = w_bounds_ordered(1.0)
        assert lower == 2.0
        assert upper == pytest.approx(9.0270333367641006, abs=1e-9)
        lower, upper = w_bounds_ordered(100.0)
        assert lower == 20000.0
        assert upper == pytest.approx(16.0 / math.sqrt(math.pi) * 1e5, rel=1e-12)

    def test_bound_ordering(self):
        for t in (1.0, 4.0, 250.0):
            lower, upper = w_bounds_ordered(t)
            assert lower < upper

    def test_lower_bound_against_exact_moment(self):
        # W(t) >= 2 t^2 holds for the exact profile at every t
        for t in (1.0, 5.0, 25.0):
            assert moment_m(infinite_state(t)).w >= 2.0 * t * t - 1e-9

    def test_asymptote_values(self):
        # Leading coefficient: the Debye envelope's 3 int mu^2 (1-mu^2)^-1/4
        # dmu times the flat-envelope 32/(3 pi^1.5), in closed form.
        a_w = 128.0 / (5.0 * math.pi) * math.gamma(0.75) / math.gamma(0.25)
        assert a_w == pytest.approx(
            32.0 / (3.0 * math.pi**1.5) * 1.5 * scipy.special.beta(1.5, 0.75), rel=1e-12
        )
        # Caustic coefficient 8 C, C = int (|Ai(-s)| - 2 pi^-1.5 s^-1/4 theta(s)) ds:
        # the s < 0 tail is int_0^inf Ai = 1/3; for s > 0, |Ai(-s)| is
        # integrated arc by arc between its zeros, where the averaged
        # envelope's integral closes in 8/(3 pi^1.5) s^(3/4).  Stopping after
        # 4000 arcs leaves ~2e-8 of the sum.
        zeros = -scipy.special.ai_zeros(4000)[0]
        edges = np.concatenate([[0.0], zeros])
        nodes, weights = np.polynomial.legendre.leggauss(24)
        half = 0.5 * np.diff(edges)[:, None]
        s = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes
        arcs = np.sum(np.abs(scipy.special.airy(-s)[0]) * weights * half)
        caustic = 1.0 / 3.0 + arcs - 8.0 / (3.0 * math.pi**1.5) * zeros[-1] ** 0.75
        assert caustic == pytest.approx(0.36121319, abs=1e-7)
        b_w = 8.0 * caustic
        m_per_w = 4.0 / math.pi**1.5
        for t in (1.0, 4.0, 100.0, 2500.0):
            w, m = asymptotes_ordered(t)
            assert w == pytest.approx(a_w * t**2.5 + b_w * t**2, rel=1e-7)
            assert m == pytest.approx(m_per_w * (a_w * t**2 + b_w * t**1.5), rel=1e-7)
            assert m == pytest.approx(m_per_w / math.sqrt(t) * w, rel=1e-12)
        w1, m1 = asymptotes_ordered(1.0)
        assert w1 == pytest.approx(2.754183 + 2.889706, abs=1e-6)
        assert m1 == pytest.approx(1.978463 + 2.075816, abs=1e-6)

    def test_asymptote_requires_positive_time(self):
        with pytest.raises(ValueError):
            asymptotes_ordered(0.0)
        for bad in (0.0, -1.0, -0.0):
            with pytest.raises(ValueError, match="t must be > 0"):
                asymptotes_ordered(np.array([1.0, bad, 3.0]))

    def test_array_forms_equal_the_scalar_calls(self):
        positive = np.concatenate((np.linspace(0.25, 1000.0, 4001), np.geomspace(1e-300, 1e12, 500)))
        for law, times in ((w_bounds_ordered, np.append(0.0, positive)), (asymptotes_ordered, positive)):
            scalars = np.array([law(float(t)) for t in times])
            for column, expected in zip(law(times), scalars.T):
                assert column.tobytes() == expected.tobytes()

    def test_exact_moment_exceeds_flat_envelope_asymptote(self):
        # The oscillation-averaged flat-envelope law underestimates the exact
        # moment: the Debye envelope and the x ~ 2t caustic enhance the
        # x^2-weighted sum by a factor drifting toward ~1.44 from above.  Pin
        # the measured band so a regression in either direction trips this
        # test, then check the two-term law that accounts for both.
        t = 100.0
        ts = np.arange(t - math.pi / 2, t + math.pi / 2, 0.05)
        w_avg = float(np.mean([moment_m(infinite_state(float(u))).w for u in ts]))
        ratio = w_avg / (32.0 / (3.0 * math.pi**1.5) * t**2.5)
        assert 1.4 <= ratio <= 1.7
        assert w_avg == pytest.approx(asymptotes_ordered(t)[0], rel=0.01)


class TestImpurityOriginAmplitude:
    def test_zero_field_is_bessel_j0(self):
        times = np.array([0.0, 0.3, 1.0, 17.5, 100.0, 333.3, 999.0, 1000.0])
        j0 = bessel_rows(0, 2.0 * times)[:, 0]
        for t, expected in zip(times, j0):
            assert abs(impurity_origin_amplitude(0.0, float(t)) - expected) <= 1e-13

    @pytest.mark.parametrize("epsilon", [0.5, -0.5])
    def test_matches_dense_diagonalization(self, epsilon):
        # On 1201 sites the front reflected at the ends returns to the origin at t = 600.
        n, origin = 1201, 600
        diag = np.zeros(n)
        diag[origin] = epsilon
        h = Hamiltonian(diag=diag, offdiag=np.ones(n - 1))
        start = basis_state(n, origin)
        for t in (1.0, 17.5, 100.0, 250.0):
            exact = evolve_diagonalization(h, start, t).amplitudes[origin]
            assert abs(impurity_origin_amplitude(epsilon, t) - exact) <= 1e-11

    def test_starts_at_one(self):
        for epsilon in (-2.5, 0.1, 1.0):
            assert impurity_origin_amplitude(epsilon, 0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "epsilon, t", [(math.nan, 1.0), (-math.inf, 1.0), (0.5, math.nan), (0.5, math.inf), (0.5, -1.0)]
    )
    def test_bad_inputs_rejected(self, epsilon, t):
        with pytest.raises(ValueError):
            impurity_origin_amplitude(epsilon, t)
