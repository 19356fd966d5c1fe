import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import entspread.propagator
from entspread.analytic import infinite_amplitude
from entspread.chain import ChainSpec, DisorderSpec, Hamiltonian, build_hamiltonian, derive_seed
from entspread.propagator import (
    DIAGONALIZATION_MAX_SITES,
    TAIL_TOLERANCE,
    ReflectionBudgetWarning,
    WaveState,
    basis_state,
    chebyshev_order,
    evolve_chebyshev,
    evolve_diagonalization,
    evolve_series,
    reflection_budget_exceeded,
)


def ordered(n):
    return Hamiltonian(diag=np.zeros(n), offdiag=np.ones(n - 1))


def disordered64(seed=7):
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    return Hamiltonian(diag=rng.uniform(0.0, 2.5, 64), offdiag=np.ones(63))


class TestChebyshev:
    def test_two_site_rabi_flop(self):
        state = evolve_chebyshev(ordered(2), basis_state(2, 0), math.pi / 2)
        np.testing.assert_allclose(state.amplitudes, [0.0, -1.0j], atol=1e-10)

    def test_three_site_closed_form(self):
        # eigenvalues {0, +-sqrt(2)}: center cos(sqrt(2) t), edges -i sin/sqrt(2)
        for t in (0.3, 1.0, 4.7):
            state = evolve_chebyshev(ordered(3), basis_state(3, 1), t)
            root2 = math.sqrt(2.0)
            np.testing.assert_allclose(state.amplitudes[1], math.cos(root2 * t), atol=1e-10)
            np.testing.assert_allclose(
                state.amplitudes[0], -1j * math.sin(root2 * t) / root2, atol=1e-10
            )
            np.testing.assert_allclose(state.amplitudes[0], state.amplitudes[2], atol=1e-12)

    def test_matches_diagonalization_on_disorder(self):
        h = disordered64()
        init = basis_state(64, 31)
        for t in (1.0, 5.0, 20.0):
            a = evolve_chebyshev(h, init, t)
            b = evolve_diagonalization(h, init, t)
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-10

    def test_oracle_equivalence_sampled_sizes(self, rng):
        for n in (16, 97, 256):
            h = Hamiltonian(diag=rng.uniform(-1, 1, n), offdiag=np.ones(n - 1))
            init = basis_state(n, n // 2)
            for t in (0.5, 12.5, 50.0):
                a = evolve_chebyshev(h, init, t)
                b = evolve_diagonalization(h, init, t)
                assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-10

    def test_unitarity(self):
        h = disordered64()
        state = evolve_chebyshev(h, basis_state(64, 20), 35.0)
        assert state.norm_error() <= 1e-9

    def test_time_reversal(self):
        h = disordered64()
        init = basis_state(64, 31)
        forward = evolve_chebyshev(h, init, 17.0)
        back = evolve_chebyshev(h, forward, -17.0)
        assert np.max(np.abs(back.amplitudes - init.amplitudes)) <= 1e-8

    def test_reflection_symmetry(self):
        # symmetric disorder profile keeps |amplitudes| mirror symmetric
        spec = ChainSpec(
            num_sites=65,
            disorder=DisorderSpec(mode="onsite_field", half_width=3, low=0.4, high=0.4),
        )
        h = build_hamiltonian(spec)
        state = evolve_chebyshev(h, basis_state(65, 32), 12.0)
        mags = np.abs(state.amplitudes)
        np.testing.assert_allclose(mags, mags[::-1], atol=1e-10)

    def test_matches_infinite_chain_amplitudes(self):
        # wavefront far from edges: finite ordered chain equals the infinite
        # closed form
        state = evolve_chebyshev(ordered(4001), basis_state(4001, 2000), 50.0)
        for x in (-200, -37, 0, 1, 150, 200):
            assert abs(state.amplitudes[2000 + x] - infinite_amplitude(x, 50.0)) <= 1e-8

    def test_pure_phase_when_spectrum_degenerate(self):
        h = Hamiltonian(diag=np.full(3, 1.5), offdiag=np.zeros(2))
        state = evolve_chebyshev(h, basis_state(3, 1), 2.0)
        np.testing.assert_allclose(
            state.amplitudes[1], np.exp(-1.5j * 2.0), atol=1e-12
        )

    def test_zero_step_returns_copy(self):
        init = basis_state(5, 2)
        state = evolve_chebyshev(ordered(5), init, 0.0)
        np.testing.assert_array_equal(state.amplitudes, init.amplitudes)
        assert state.amplitudes is not init.amplitudes

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            evolve_chebyshev(ordered(4), basis_state(5, 2), 1.0)
        with pytest.raises(ValueError):
            evolve_chebyshev(ordered(4), basis_state(4, 2), float("nan"))
        bad = WaveState(np.array([np.inf, 0j, 0j, 0j]), 0.0, 0)
        with pytest.raises(ValueError):
            evolve_chebyshev(ordered(4), bad, 1.0)


def padded_order(z):
    """The order the propagator used before tolerance truncation."""
    return math.ceil(z) + 40 + math.ceil(10.0 * math.log1p(z))


def full_chain_chebyshev(h, psi, delta_t):
    """Unwindowed reference step: every matvec over the whole chain, padded order, scipy coefficients."""
    radius = np.zeros(h.num_sites)
    radius[:-1] += np.abs(h.offdiag)
    radius[1:] += np.abs(h.offdiag)
    emin, emax = np.min(h.diag - radius), np.max(h.diag + radius)
    a, b = 0.5 * (emax + emin), 0.5 * (emax - emin)
    z = b * abs(delta_t)
    coeff = scipy.special.jv(np.arange(padded_order(z) + 1), z)
    step = -1j if delta_t > 0 else 1j

    def hs(v):
        out = (h.diag - a) * v
        out[:-1] += h.offdiag * v[1:]
        out[1:] += h.offdiag * v[:-1]
        return out / b

    prev, cur = psi.astype(complex), hs(psi.astype(complex))
    acc = coeff[0] * prev + 2.0 * coeff[1] * step * cur
    for k in range(2, len(coeff)):
        prev, cur = cur, 2.0 * hs(cur) - prev
        acc += 2.0 * coeff[k] * step**k * cur
    return np.exp(-1j * a * delta_t) * acc


@st.composite
def chains_and_states(draw):
    """A random disordered chain, a unit state of a drawn support layout, and a step of either sign."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = Hamiltonian(diag=rng.uniform(-2.5, 2.5, n), offdiag=rng.uniform(0.2, 1.5, n - 1))
    layout = draw(st.sampled_from(["left_end", "right_end", "islands"]))
    if layout == "islands":
        width = draw(st.integers(1, max(1, (n - 1) // 4)))
        gap = draw(st.integers(1, n - 2 * width))
        start = draw(st.integers(0, n - 2 * width - gap))
        sites = np.r_[start : start + width, start + width + gap : start + 2 * width + gap]
    else:
        width = draw(st.integers(1, n))
        sites = np.arange(width) if layout == "left_end" else np.arange(n - width, n)
    amps = np.zeros(n, dtype=complex)
    amps[sites] = rng.normal(size=sites.size) + 1j * rng.normal(size=sites.size)
    amps /= np.linalg.norm(amps)
    delta_t = draw(st.floats(0.01, 6.0)) * draw(st.sampled_from([1.0, -1.0]))
    return h, WaveState(amps, 0.0, int(sites[0])), delta_t


class TestWindowedStep:
    @settings(max_examples=60, deadline=None)
    @given(chains_and_states())
    def test_windowed_step_matches_oracle_and_full_chain(self, case):
        h, init, delta_t = case
        windowed = evolve_chebyshev(h, init, delta_t).amplitudes
        exact = evolve_diagonalization(h, init, delta_t).amplitudes
        full = full_chain_chebyshev(h, init.amplitudes, delta_t)
        assert np.max(np.abs(windowed - exact)) <= 1e-12
        assert np.max(np.abs(windowed - full)) <= 1e-13

    def test_order_tail_bound(self):
        # the cut order leaves a tail at or below the tolerance, is the first
        # such order, and never exceeds the old padded order
        b = 4.31
        for k, z in enumerate(np.geomspace(1e-3, 200.0, 80)):
            delta_t = (z / b) * (-1.0) ** k
            order = chebyshev_order(b, delta_t)
            orders = np.arange(order + 1, order + 400)
            tail = 2.0 * np.sum(np.abs(scipy.special.jv(orders, z)))
            assert tail <= TAIL_TOLERANCE, (z, order, tail)
            if order > 0:
                assert tail + 2.0 * abs(scipy.special.jv(order, z)) > TAIL_TOLERANCE, (z, order)
            assert order <= padded_order(z), (z, order)

    def test_desk_step_order(self):
        assert chebyshev_order(4.31, 0.25) == 15

    def test_series_sets_up_once_per_run(self, monkeypatch):
        calls = {"bessel_row": 0, "spectral_bounds": 0}
        for name in calls:
            original = getattr(entspread.propagator, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(entspread.propagator, name, counted)
        times = 0.25 * np.arange(1, 41)
        states = list(evolve_series(disordered64(), 31, times))
        assert len(states) == 40
        assert calls == {"bessel_row": 1, "spectral_bounds": 1}

    def test_flushes_below_threshold(self):
        # far outside the light cone the amplitudes are exact zeros, not subnormals
        state = evolve_chebyshev(ordered(801), basis_state(801, 400), 5.0)
        mags = np.abs(state.amplitudes)
        assert np.all((mags == 0.0) | (mags >= 1e-300))
        assert mags[0] == 0.0 and mags[-1] == 0.0


class TestDiagonalization:
    def test_identity_at_zero_time(self):
        h = disordered64()
        init = basis_state(64, 10)
        state = evolve_diagonalization(h, init, 0.0)
        np.testing.assert_allclose(state.amplitudes, init.amplitudes, atol=1e-14)

    def test_two_site_closed_form(self):
        state = evolve_diagonalization(ordered(2), basis_state(2, 0), math.pi / 2)
        np.testing.assert_allclose(state.amplitudes, [0.0, -1.0j], atol=1e-12)

    def test_single_site_phase(self):
        h = Hamiltonian(diag=np.array([2.0]), offdiag=np.zeros(0))
        state = evolve_diagonalization(h, basis_state(1, 0), 3.0)
        np.testing.assert_allclose(state.amplitudes[0], np.exp(-6.0j), atol=1e-12)

    def test_capacity_limit(self):
        n = DIAGONALIZATION_MAX_SITES + 1
        with pytest.raises(ValueError):
            evolve_diagonalization(ordered(n), basis_state(n, 0), 1.0)


class TestEvolveSeries:
    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    def test_single_zero_time(self):
        # the budget formula is negative for chains shorter than ~23 sites,
        # so tiny chains always warn; irrelevant for a t=0 sample
        states = list(evolve_series(ordered(5), 2, np.array([0.0])))
        assert len(states) == 1
        np.testing.assert_array_equal(states[0].amplitudes, basis_state(5, 2).amplitudes)

    def test_matches_analytic_profile(self):
        times = np.array([10.0, 20.0, 40.0])
        for state in evolve_series(ordered(4001), 2000, times):
            t = state.time
            for x in (-80, -1, 0, 33, 80):
                assert abs(state.amplitudes[2000 + x] - infinite_amplitude(x, t)) <= 1e-8

    def test_chaining_matches_direct_jumps(self):
        h = disordered64()
        chained = list(evolve_series(h, 31, np.array([3.0, 7.0])))
        direct = evolve_chebyshev(h, basis_state(64, 31), 7.0)
        assert np.max(np.abs(chained[1].amplitudes - direct.amplitudes)) <= 1e-12

    def test_cumulative_norm_drift(self):
        times = np.linspace(0.5, 55.0, 110)
        for state in evolve_series(ordered(257), 128, times):
            pass
        assert state.norm_error() <= 1e-8

    def test_boundary_budget_warning(self):
        message = r"boundary budget exceeded: .* = 101 > \(N-1\)/2 - 10 = 40"
        with pytest.warns(ReflectionBudgetWarning, match=message):
            list(evolve_series(ordered(101), 50, np.array([50.0])))

    def test_no_warning_inside_budget(self, recwarn):
        list(evolve_series(ordered(401), 200, np.array([10.0])))
        assert not any(isinstance(w.message, ReflectionBudgetWarning) for w in recwarn)

    def test_disordered_region_tightens_budget(self):
        with pytest.warns(ReflectionBudgetWarning):
            list(evolve_series(ordered(401), 200, np.array([80.0]), disorder_half_width=20))

    def test_budget_scales_with_hopping(self):
        # the front moves at 2 gamma: gamma = 2 on 401 sites to t = 80 reflects
        assert not reflection_budget_exceeded(401, 80.0)
        assert reflection_budget_exceeded(401, 80.0, gamma=2.0)
        strong = Hamiltonian(diag=np.zeros(401), offdiag=np.full(400, 2.0))
        with pytest.warns(ReflectionBudgetWarning):
            list(evolve_series(strong, 200, np.array([80.0])))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            list(evolve_series(ordered(5), 2, np.array([2.0, 1.0])))
        with pytest.raises(ValueError):
            list(evolve_series(ordered(5), 2, np.array([-1.0, 1.0])))
        with pytest.raises(ValueError):
            list(evolve_series(ordered(5), 2, np.array([])))
