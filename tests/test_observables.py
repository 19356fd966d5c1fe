import math

import numpy as np
import pytest

from entspread.analytic import infinite_state
from entspread.chain import ChainSpec, DisorderSpec, Hamiltonian, build_hamiltonian
from entspread.observables import MomentSample, moment_m, moment_rows
from entspread.propagator import WaveState, basis_state, evolve_blocks, evolve_series

from conftest import random_unit_state
from oracles import concurrence_pair, reduced_density_pair, wootters_concurrence

J0_2 = 0.22389077914123567
J1_2 = 0.57672480775687339

# sum_{x!=0} x^2 |J_x(2)| truncated at |x| <= 62, extended-precision series
W_AT_1 = 7.8439635000430841
M_AT_1 = 3.5123821991601201
C01_AT_1 = 0.25824673311753148


def state_from_pairs(n, origin, **amps):
    vec = np.zeros(n, dtype=complex)
    for key, value in amps.items():
        vec[int(key[1:])] = value
    return WaveState(amplitudes=vec, time=0.0, origin=origin)


def brute_force_pair_density(amplitudes, i, j):
    """Partial trace of the full 2^N pure state down to sites (i, j).

    Encodes the single-excitation state in the complete spin Hilbert space
    and traces all other sites; completely independent of the closed-form
    construction.
    """
    n = len(amplitudes)
    dim = 2**n
    psi = np.zeros(dim, dtype=complex)
    for k, alpha in enumerate(amplitudes):
        psi[1 << (n - 1 - k)] = alpha
    rho_full = np.outer(psi, psi.conj())
    rho = np.zeros((4, 4), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            if rho_full[a, b] == 0.0:
                continue
            rest_a = a & ~((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
            rest_b = b & ~((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
            if rest_a != rest_b:
                continue
            ai = (a >> (n - 1 - i)) & 1
            aj = (a >> (n - 1 - j)) & 1
            bi = (b >> (n - 1 - i)) & 1
            bj = (b >> (n - 1 - j)) & 1
            # basis order: (ground ground, i excited, j excited, both excited)
            def code(ei, ej):
                return {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}[(ei, ej)]

            rho[code(ai, aj), code(bi, bj)] += rho_full[a, b]
    return rho


class TestReducedDensity:
    def test_excitation_on_first_site(self):
        state = state_from_pairs(3, 0, s0=1.0)
        rho = reduced_density_pair(state, 0, 1)
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_balanced_pair(self):
        state = state_from_pairs(2, 0, s0=1 / np.sqrt(2), s1=1 / np.sqrt(2))
        rho = reduced_density_pair(state, 0, 1)
        assert rho[0, 0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rho[1:3, 1:3], np.full((2, 2), 0.5), atol=1e-12)

    def test_complex_amplitudes(self):
        state = state_from_pairs(4, 0, s1=0.6, s2=0.8j)
        rho = reduced_density_pair(state, 1, 2)
        assert rho[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert rho[1, 2] == pytest.approx(-0.48j, abs=1e-12)

    def test_against_brute_force_partial_trace(self, rng):
        state = random_unit_state(rng, 4)
        for (i, j) in ((0, 1), (1, 3), (2, 0)):
            expected = brute_force_pair_density(state.amplitudes, i, j)
            np.testing.assert_allclose(
                reduced_density_pair(state, i, j), expected, atol=1e-12
            )

    def test_density_matrix_properties(self, rng):
        state = random_unit_state(rng, 6)
        rho = reduced_density_pair(state, 1, 4)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12

    def test_same_site_rejected(self):
        state = basis_state(4, 1)
        with pytest.raises(ValueError):
            reduced_density_pair(state, 2, 2)

    def test_unnormalized_state_rejected(self):
        state = WaveState(np.array([2.0 + 0j, 0, 0]), 0.0, 0)
        with pytest.raises(ValueError):
            reduced_density_pair(state, 0, 1)


class TestWoottersConcurrence:
    def test_maximally_mixed_is_separable(self):
        assert wootters_concurrence(np.eye(4) / 4.0) == 0.0

    def test_bell_state_is_maximal(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        assert wootters_concurrence(np.outer(phi, phi)) == pytest.approx(1.0, abs=1e-12)

    def test_single_excitation_product_form(self):
        state = state_from_pairs(5, 0, s1=0.6, s2=0.8)
        rho = reduced_density_pair(state, 1, 2)
        assert wootters_concurrence(rho) == pytest.approx(0.96, abs=1e-12)

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            wootters_concurrence(np.eye(4))  # trace 4
        bad = np.eye(4) / 4.0
        bad[0, 1] = 0.3  # not Hermitian
        with pytest.raises(ValueError):
            wootters_concurrence(bad)
        neg = np.diag([0.6, 0.6, -0.1, -0.1])
        with pytest.raises(ValueError):
            wootters_concurrence(neg)
        with pytest.raises(ValueError):
            wootters_concurrence(np.eye(3) / 3.0)

    def test_shortcut_agreement_on_random_states(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 12))
            state = random_unit_state(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            full = wootters_concurrence(reduced_density_pair(state, int(i), int(j)))
            assert abs(full - concurrence_pair(state, int(i), int(j))) <= 1e-12


class TestConcurrencePair:
    def test_unpopulated_pair(self):
        state = basis_state(5, 2)
        assert concurrence_pair(state, 0, 1) == 0.0

    def test_balanced_pair_maximal(self):
        state = state_from_pairs(2, 0, s0=1 / np.sqrt(2), s1=1 / np.sqrt(2))
        assert concurrence_pair(state, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_neighbor_concurrence_on_spread_state(self):
        state = infinite_state(1.0)
        value = concurrence_pair(state, state.origin, state.origin + 1)
        assert value == pytest.approx(C01_AT_1, abs=1e-9)

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            concurrence_pair(basis_state(3, 1), 1, 1)


class TestMoments:
    def test_initial_state_has_no_spread(self):
        sample = moment_m(basis_state(9, 4), half_width=0)
        assert sample.m == 0.0
        assert sample.w == 0.0
        assert sample.alpha0_abs == 1.0
        assert sample.norm_error == 0.0

    def test_moment_w_frozen_value(self):
        assert moment_m(infinite_state(1.0)).w == pytest.approx(W_AT_1, abs=1e-9)

    def test_moment_m_frozen_value(self):
        sample = moment_m(infinite_state(1.0))
        assert sample.m == pytest.approx(M_AT_1, abs=1e-9)
        assert sample.alpha0_abs == pytest.approx(J0_2, abs=1e-9)
        assert sample.m == pytest.approx(2.0 * J0_2 * W_AT_1, abs=1e-6)

    def test_split_exhaustive_region(self):
        state = infinite_state(1.0)
        radius = state.origin
        sample = moment_m(state, half_width=radius)
        assert sample.m_o == 0.0
        assert sample.m_d == sample.m

    def test_split_zero_region(self):
        sample = moment_m(infinite_state(1.0), half_width=0)
        assert sample.m_d == 0.0
        assert sample.m_o == sample.m

    def test_outer_share_is_summed_while_the_front_crosses_the_core_edge(self):
        # Desk core (realization 0 of seed 20260810) on 401 sites: at t in
        # [10, 12] m_o is 1e-15 to 1e-12 of m, so m - m_d would leave it at
        # rounding noise.
        disorder = DisorderSpec("jz_coupling", 50, 0.0, 2.5, seed=20260810, diag_sign="plus")
        spec = ChainSpec(401, disorder=disorder)
        times = np.linspace(10.0, 12.0, 9)
        states = evolve_series(build_hamiltonian(spec, 0), spec.origin, times, 50)
        positive = 0
        for state in states:
            sample = moment_m(state, 50)
            x = np.arange(state.num_sites) - state.origin
            outer = np.abs(x) > 50
            amps = np.abs(state.amplitudes[outer])
            expected = 2.0 * sample.alpha0_abs * np.sum(x[outer] ** 2.0 * amps)
            assert sample.m_o == pytest.approx(expected, rel=1e-12, abs=0.0), state.time
            positive += expected > 0.0
        assert positive >= 7

    def test_block_rows_match_the_closed_form_while_the_front_crosses_the_core_edge(self):
        # Ordered chain, a_x = (-i)^x J_x(2t): the core edge |x| = 50 lies in
        # the front's tail, m_o / m growing from 0 to 1e-9 over t in [0, 14].
        # Each moment is 2 |a_0| times a sum over x^2 |a_x|; the sums are
        # checked against the closed form's with the row's own |a_0|, so
        # that a J_0 zero (|a_0| ~ 1e-3 at t = 13.75) does not magnify the
        # origin amplitude's own error, which is checked on its own.
        half_width, num_sites = 50, 801
        h = Hamiltonian(diag=np.zeros(num_sites), offdiag=np.ones(num_sites - 1))
        times = np.linspace(0.0, 14.0, 57)
        rows = np.concatenate([moment_rows(block, 400, half_width)
                               for block in evolve_blocks(h, 400, times, half_width)])
        for time, m, w, alpha0, m_o, m_d, _ in rows:
            state = infinite_state(time)
            x = np.arange(state.num_sites) - state.origin
            weights = x * x * np.abs(state.amplitudes)
            core = np.abs(x) <= half_width
            exact_w = math.fsum(weights)
            assert alpha0 == pytest.approx(abs(state.amplitudes[state.origin]), rel=0.0, abs=1e-15)
            assert w == pytest.approx(exact_w, rel=1e-14, abs=0.0), time
            for value, exact in ((m, exact_w), (m_o, math.fsum(weights[~core])),
                                 (m_d, math.fsum(weights[core]))):
                assert abs(value - 2.0 * alpha0 * exact) <= 1e-14 * m, time
        assert np.count_nonzero(rows[:, 4]) >= 15

    def test_split_partition(self, rng):
        state = random_unit_state(rng, 41)
        sample = moment_m(state, half_width=7)
        assert sample.m == sample.m_o + sample.m_d
        assert sample.m_o >= 0.0 and sample.m_d >= 0.0

    def test_factorization_on_random_states(self, rng):
        # m = 2 |a_origin| w holds by construction, even off the unit sphere
        for _ in range(50):
            n = int(rng.integers(3, 60))
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            state = WaveState(amps, 0.0, int(rng.integers(0, n)))
            sample = moment_m(state, half_width=2)
            assert sample.m == 2.0 * sample.alpha0_abs * sample.w

    def test_padding_with_zero_sites_is_invisible(self, rng):
        state = random_unit_state(rng, 21, origin=10)
        padded = WaveState(
            np.concatenate([np.zeros(5), state.amplitudes, np.zeros(5)]), 0.0, 15
        )
        assert moment_m(padded).w == pytest.approx(moment_m(state).w, rel=1e-14)
        a = moment_m(state, 3)
        b = moment_m(padded, 3)
        assert b.m == pytest.approx(a.m, rel=1e-14)
        assert b.m_d == pytest.approx(a.m_d, rel=1e-14)
        # A state with its support set gives the row of the same state without it.
        supported = WaveState(padded.amplitudes, 0.0, 15, support=(5, 25))
        for half_width in (0, 3, 30):
            full = moment_m(padded, half_width)
            windowed = moment_m(supported, half_width)
            for field in ("m", "w", "alpha0_abs", "m_o", "m_d", "norm_error"):
                assert getattr(windowed, field) == pytest.approx(getattr(full, field), rel=1e-14, abs=1e-300)

    def test_support_outside_the_chain_rejected(self, rng):
        amps = random_unit_state(rng, 11).amplitudes
        for support in ((-1, 5), (2, 11), (6, 5)):
            with pytest.raises(ValueError, match="support"):
                WaveState(amps, 0.0, 5, support=support)
        assert WaveState(amps, 0.0, 5, support=(0, 10)).support == (0, 10)

    def test_reflection_symmetric_split(self):
        state = infinite_state(2.0)
        offsets = np.arange(state.num_sites) - state.origin
        weights = offsets.astype(float) ** 2 * np.abs(state.amplitudes)
        left = weights[offsets < 0].sum()
        right = weights[offsets > 0].sum()
        assert left == pytest.approx(right, rel=1e-12)

    def test_moment_sample_record(self):
        sample = moment_m(infinite_state(0.0), half_width=1)
        assert isinstance(sample, MomentSample)
        assert sample.time == 0.0
