import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspread.chain import (
    ChainSpec,
    DisorderSpec,
    Hamiltonian,
    build_hamiltonian,
    derive_seed,
    sample_disorder,
    spectral_bounds,
)


def jz_spec(n=7, half_width=1, low=1.0, high=1.0, seed=0, sign="plus"):
    return ChainSpec(
        num_sites=n,
        disorder=DisorderSpec(
            mode="jz_coupling", half_width=half_width, low=low, high=high,
            seed=seed, diag_sign=sign,
        ),
    )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_indices_decorrelated(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)


class TestSampleDisorder:
    def test_degenerate_distribution(self):
        spec = DisorderSpec(half_width=3, low=0.7, high=0.7, seed=9)
        draws = sample_disorder(spec, 0)
        assert draws.shape == (7,)
        assert np.all(draws == 0.7)

    def test_bitwise_deterministic(self):
        spec = DisorderSpec(half_width=10, low=0.0, high=2.5, seed=42)
        a = sample_disorder(spec, 5)
        b = sample_disorder(spec, 5)
        np.testing.assert_array_equal(a, b)
        c = sample_disorder(spec, 6)
        assert not np.array_equal(a, c)

    def test_range_and_mean(self):
        half_width = 5000
        spec = DisorderSpec(half_width=half_width, low=0.0, high=2.5, seed=42)
        draws = sample_disorder(spec, 0)
        assert draws.shape == (2 * half_width + 1,)
        assert np.all((draws >= 0.0) & (draws < 2.5))
        sigma = 2.5 / np.sqrt(12 * len(draws))
        assert abs(draws.mean() - 1.25) < 3 * sigma


class TestBuildHamiltonian:
    def test_ordered_chain(self):
        h = build_hamiltonian(ChainSpec(num_sites=5))
        np.testing.assert_array_equal(h.diag, np.zeros(5))
        np.testing.assert_array_equal(h.offdiag, np.ones(4))

    def test_onsite_degenerate(self):
        spec = ChainSpec(
            num_sites=7,
            disorder=DisorderSpec(mode="onsite_field", half_width=1, low=0.5, high=0.5),
        )
        h = build_hamiltonian(spec)
        np.testing.assert_allclose(h.diag, [0, 0, 0.5, 0.5, 0.5, 0, 0])

    def test_jz_degenerate(self):
        # two interior bonds at Jz=1 inside sites {2,3,4}; each bond adds its
        # Jz (in rescaled units, weight 1 per adjacent bond) to both endpoint
        # diagonals
        h = build_hamiltonian(jz_spec())
        np.testing.assert_allclose(h.diag, [0, 0, 1, 2, 1, 0, 0])
        np.testing.assert_array_equal(h.offdiag, np.ones(6))

    def test_jz_sign_convention(self):
        h = build_hamiltonian(jz_spec(sign="minus"))
        np.testing.assert_allclose(h.diag, [0, 0, -1, -2, -1, 0, 0])

    @settings(max_examples=80, deadline=None)
    @given(
        half_width=st.integers(1, 40),
        pad=st.integers(0, 5),
        bounds=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).map(sorted),
        sign=st.sampled_from(["plus", "minus"]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_jz_diagonal_equals_the_per_bond_sum(self, half_width, pad, bounds, sign, seed):
        spec = jz_spec(2 * (half_width + pad) + 1, half_width, *bounds, seed, sign)
        draws = sample_disorder(spec.disorder, 2)
        # The diagonal as one bond at a time adds its signed Jz to both ends.
        expected = np.zeros(spec.num_sites)
        lo = spec.origin - half_width
        for i in range(2 * half_width):
            jz = (1.0 if sign == "plus" else -1.0) * draws[i]
            expected[lo + i] += jz
            expected[lo + i + 1] += jz
        assert build_hamiltonian(spec, 2).diag.tobytes() == expected.tobytes()

    def test_reproducible(self):
        spec = jz_spec(n=31, half_width=5, low=0.0, high=2.5, seed=77)
        a = build_hamiltonian(spec, 3)
        b = build_hamiltonian(spec, 3)
        np.testing.assert_array_equal(a.diag, b.diag)

    def test_disorder_locality(self):
        spec = jz_spec(n=41, half_width=4, low=0.1, high=2.0, seed=5)
        h = build_hamiltonian(spec, 0)
        origin = spec.origin
        lo, hi = origin - 5, origin + 5
        assert np.all(h.diag[:lo] == 0.0)
        assert np.all(h.diag[hi + 1 :] == 0.0)

    def test_dense_symmetry(self):
        spec = jz_spec(n=11, half_width=2, low=0.0, high=1.0, seed=3)
        dense = build_hamiltonian(spec, 1).to_dense()
        np.testing.assert_array_equal(dense, dense.T)

    def test_region_exceeding_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(num_sites=5, disorder=DisorderSpec(half_width=3))

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(num_sites=6)

    def test_bad_disorder_params(self):
        with pytest.raises(ValueError):
            DisorderSpec(low=2.0, high=1.0)
        with pytest.raises(ValueError):
            DisorderSpec(mode="bogus")
        with pytest.raises(ValueError):
            DisorderSpec(diag_sign="negative")
        with pytest.raises(ValueError):
            DisorderSpec(half_width=-1)
        # derive_seed works mod 2**64, so seeds outside [0, 2**64) would alias
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"^seed: "):
                DisorderSpec(seed=seed)
        assert DisorderSpec(seed=2**64 - 1).seed == 2**64 - 1


def _pauli_site(op, site, n):
    eye = np.eye(2, dtype=complex)
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else eye)
    return out


class TestSigmaZMapping:
    def test_single_excitation_block_matches_rescaled_build(self):
        # Build the full 2^7 spin Hamiltonian with XY coupling gamma on every
        # bond and sigma_z sigma_z couplings on the two bonds inside the
        # region, then project onto the one-excitation sector.  The projected
        # matrix has hopping 2*gamma and diagonal C - 2*(Jz_left + Jz_right);
        # after dropping the constant C and halving into the unit-hopping
        # convention this must equal the built Hamiltonian with the minus
        # sign.
        n = 7
        gamma = 1.0
        spec = jz_spec(n=n, half_width=1, low=0.3, high=1.9, seed=11, sign="minus")
        draws = sample_disorder(spec.disorder, 0)
        jz = np.zeros(n - 1)
        jz[2] = draws[0]
        jz[3] = draws[1]

        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        dim = 2**n
        full = np.zeros((dim, dim), dtype=complex)
        for b in range(n - 1):
            full += gamma * _pauli_site(sx, b, n) @ _pauli_site(sx, b + 1, n)
            full += gamma * _pauli_site(sy, b, n) @ _pauli_site(sy, b + 1, n)
            full += jz[b] * _pauli_site(sz, b, n) @ _pauli_site(sz, b + 1, n)

        # basis state with the excitation at site k: bit k set, counting from
        # the left factor of the kron product
        idx = [1 << (n - 1 - k) for k in range(n)]
        block = full[np.ix_(idx, idx)].real

        c_total = jz.sum()
        adjacency = np.zeros(n)
        for b in range(n - 1):
            adjacency[b] += jz[b]
            adjacency[b + 1] += jz[b]
        np.testing.assert_allclose(np.diag(block), c_total - 2.0 * adjacency, atol=1e-12)
        np.testing.assert_allclose(np.diag(block, 1), 2.0 * gamma, atol=1e-12)

        rescaled = (block - c_total * np.eye(n)) / 2.0
        built = build_hamiltonian(spec, 0)
        np.testing.assert_allclose(rescaled, built.to_dense(), atol=1e-12)


class TestSpectralBounds:
    def test_ordered_chain(self):
        h = build_hamiltonian(ChainSpec(num_sites=9))
        assert spectral_bounds(h) == (-2.0, 2.0)

    def test_single_site(self):
        h = Hamiltonian(diag=np.array([5.0]), offdiag=np.zeros(0))
        assert spectral_bounds(h) == (5.0, 5.0)

    def test_encloses_dense_spectrum(self, rng):
        h = Hamiltonian(diag=rng.uniform(0, 2.5, 64), offdiag=np.ones(63))
        emin, emax = spectral_bounds(h)
        evals = np.linalg.eigvalsh(h.to_dense())
        assert emin <= evals.min() and evals.max() <= emax

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian(diag=np.zeros(4), offdiag=np.zeros(4))
