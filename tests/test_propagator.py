import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import entspread.cli
import entspread.propagator
from entspread.analytic import infinite_amplitude
from entspread.bessel import tail_order
from entspread.chain import (
    ChainSpec,
    DisorderSpec,
    Hamiltonian,
    build_hamiltonian,
    derive_seed,
)
from entspread.cli import simulate_realization
from entspread.config import config_from_dict
from entspread.observables import moment_m, moment_rows
from entspread.propagator import (
    TAIL_TOLERANCE,
    WORKSPACE_BYTES,
    ReflectionBudgetWarning,
    _edge_counts,
    _truncated_row,
    basis_state,
    block_empty,
    chebyshev_order,
    evolve_blocks,
    evolve_series,
    reflection_budget_violation,
)

from oracles import DIAGONALIZATION_MAX_SITES, evolve_diagonalization

ROOT = Path(__file__).resolve().parents[1]
DESK = ROOT / "configs" / "fig1_desk.json"

# The minor page faults a fresh interpreter takes over realization 0 of a config.
COLD_RUN = """
import resource, sys
sys.path.insert(0, {src!r})
from entspread.cli import simulate_realization
from entspread.config import config_from_dict
config = config_from_dict({config!r})
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
simulate_realization(config, 0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def ordered(n):
    return Hamiltonian(diag=np.zeros(n), offdiag=np.ones(n - 1))


def disordered64(seed=7):
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    return Hamiltonian(diag=rng.uniform(0.0, 2.5, 64), offdiag=np.ones(63))


# The finite chain is the oracle of these tests, so reflections are expected.
@pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
class TestChebyshev:
    def test_two_site_rabi_flop(self):
        (state,) = evolve_series(ordered(2), 0, [math.pi / 2])
        np.testing.assert_allclose(state.amplitudes, [0.0, -1.0j], atol=1e-10)

    def test_three_site_closed_form(self):
        # eigenvalues {0, +-sqrt(2)}: center cos(sqrt(2) t), edges -i sin/sqrt(2)
        for state in evolve_series(ordered(3), 1, [0.3, 1.0, 4.7]):
            t = state.time
            root2 = math.sqrt(2.0)
            np.testing.assert_allclose(state.amplitudes[1], math.cos(root2 * t), atol=1e-10)
            np.testing.assert_allclose(
                state.amplitudes[0], -1j * math.sin(root2 * t) / root2, atol=1e-10
            )
            np.testing.assert_allclose(state.amplitudes[0], state.amplitudes[2], atol=1e-12)

    def test_matches_diagonalization_on_disorder(self):
        h = disordered64()
        init = basis_state(64, 31)
        for a in evolve_series(h, 31, [1.0, 5.0, 20.0]):
            b = evolve_diagonalization(h, init, a.time)
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-10

    def test_oracle_equivalence_sampled_sizes(self, rng):
        for n in (16, 97, 256):
            h = Hamiltonian(diag=rng.uniform(-1, 1, n), offdiag=np.ones(n - 1))
            init = basis_state(n, n // 2)
            for a in evolve_series(h, n // 2, [0.5, 12.5, 50.0]):
                b = evolve_diagonalization(h, init, a.time)
                assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-10

    def test_unitarity(self):
        h = disordered64()
        (state,) = evolve_series(h, 20, [35.0])
        assert state.norm_error() <= 1e-9

    def test_reflection_symmetry(self):
        # symmetric disorder profile keeps |amplitudes| mirror symmetric
        spec = ChainSpec(
            num_sites=65,
            disorder=DisorderSpec(mode="onsite_field", half_width=3, low=0.4, high=0.4),
        )
        h = build_hamiltonian(spec)
        (state,) = evolve_series(h, 32, [12.0])
        mags = np.abs(state.amplitudes)
        np.testing.assert_allclose(mags, mags[::-1], atol=1e-10)

    def test_matches_infinite_chain_amplitudes(self):
        # wavefront far from edges: finite ordered chain equals the infinite
        # closed form
        (state,) = evolve_series(ordered(4001), 2000, [50.0])
        for x in (-200, -37, 0, 1, 150, 200):
            assert abs(state.amplitudes[2000 + x] - infinite_amplitude(x, 50.0)) <= 1e-8

    def test_trim_budget_is_relative_to_the_norm(self):
        # rows scaled by 1e-20 against a budget scaled by 1e-40 lose the same
        # edges: the infinite-chain profiles J_x(2t) on 601 sites
        x = np.arange(-300, 301)
        rows = (-1j) ** np.abs(x) * scipy.special.jv(x, 2.0 * np.array([[5.0], [30.0], [60.0]]))
        budget = (0.5 * TAIL_TOLERANCE) ** 2
        counts = _edge_counts(rows, budget)
        assert counts.shape == (2, 3) and np.array_equal(counts[0], counts[1])
        assert counts[0].tolist() != [0, 0, 0] and np.all(counts < 300)
        np.testing.assert_array_equal(_edge_counts(1e-20 * rows, 1e-40 * budget), counts)

    def test_trim_drops_a_faint_stretch_wider_than_the_light_cone(self):
        # 1e-30 amplitudes on 26 leading sites carry far less than the trim
        # budget, so the edge search runs on to the bulk, however far past
        # the light cone's sites that lies; the right ends stop where theirs starts
        rows = np.zeros((2, 64), dtype=complex)
        rows[:, :26] = 1e-30
        rows[0, 26:33] = 1.0 / math.sqrt(7.0)
        rows[1, 40:47] = 1.0 / math.sqrt(7.0)
        counts = _edge_counts(rows, (0.5 * TAIL_TOLERANCE) ** 2)
        assert counts.tolist() == [[26, 40], [31, 17]]

    def test_pure_phase_when_spectrum_degenerate(self):
        h = Hamiltonian(diag=np.full(3, 1.5), offdiag=np.zeros(2))
        (state,) = evolve_series(h, 1, [2.0])
        np.testing.assert_allclose(
            state.amplitudes[1], np.exp(-1.5j * 2.0), atol=1e-12
        )

    def test_rejects_bad_inputs(self):
        for origin in (-60, -3, -1, 41, 45):
            for evolve in (evolve_blocks, evolve_series):
                with pytest.raises(ValueError, match=f"origin {origin} outside chain of 41 sites"):
                    list(evolve(ordered(41), origin, np.array([1.0])))


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
    z = b * delta_t
    coeff = scipy.special.jv(np.arange(padded_order(z) + 1), z)

    def hs(v):
        out = (h.diag - a) * v
        out[:-1] += h.offdiag * v[1:]
        out[1:] += h.offdiag * v[:-1]
        return out / b

    prev, cur = psi.astype(complex), hs(psi.astype(complex))
    acc = coeff[0] * prev + 2.0 * coeff[1] * -1j * cur
    for k in range(2, len(coeff)):
        prev, cur = cur, 2.0 * hs(cur) - prev
        acc += 2.0 * coeff[k] * (-1j) ** k * cur
    return np.exp(-1j * a * delta_t) * acc


@st.composite
def chains_and_steps(draw):
    """A random disordered chain, an origin that may touch either end, and one positive time."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = Hamiltonian(diag=rng.uniform(-2.5, 2.5, n), offdiag=rng.uniform(0.2, 1.5, n - 1))
    origin = draw(st.sampled_from([0, n - 1, int(rng.integers(0, n))]))
    return h, basis_state(n, origin), draw(st.floats(0.01, 6.0))


class TestWindowedStep:
    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    @settings(max_examples=60, deadline=None)
    @given(chains_and_steps())
    def test_windowed_step_matches_oracle_and_full_chain(self, case):
        h, init, delta_t = case
        (state,) = evolve_series(h, init.origin, [delta_t])
        windowed = state.amplitudes
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

    def test_one_row_at_the_tail_order_holds_the_cut(self, monkeypatch):
        # K is the first order whose tail 2 sum_{k>K} |J_k(z)| over one long
        # scipy row is <= TAIL_TOLERANCE; tail_order(z) lies at least two
        # orders past it, so the cut evaluates one row at any z.
        calls = []
        original_row = entspread.propagator.bessel_row

        def counted_row(order, z):
            calls.append((order, z))
            return original_row(order, z)

        monkeypatch.setattr(entspread.propagator, "bessel_row", counted_row)
        scan = np.concatenate(([0.0, 1.08, 25.9, 1500.0, 2e4], np.geomspace(0.01, 2e4, 95)))
        for z in scan.tolist():
            calls.clear()
            row, _ = _truncated_row(z)
            assert calls == [(tail_order(z), z)], z
            tail = 2.0 * np.cumsum(np.abs(scipy.special.jv(np.arange(tail_order(z) + 400), z))[::-1])[::-1]
            order = int(np.flatnonzero(tail[1:] <= TAIL_TOLERANCE)[0])
            assert tail_order(z) >= order + 2 and len(row) == order + 1, (z, order)

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

    def test_flush_no_sample_needs_makes_no_product(self):
        # A 13-site chain with samples at t = 0 and 1.875, both cut to the
        # first ring of 3 orders: no sample needs a later flush, so the later
        # ones add nothing, and the rows are those of the first 3 orders
        # alone, bit for bit, read from coefficient rows cut to 3 columns.
        rng = np.random.Generator(np.random.PCG64(derive_seed(7, 0)))
        kernel = entspread.propagator._Kernel(
            Hamiltonian(diag=rng.uniform(0.0, 2.5, 13), offdiag=np.ones(12)))
        coeffs, need, _ = kernel._coefficients(np.array([0.0, 1.875]))
        assert need[0] == 1 and coeffs.shape[1] > 6
        seed, cut = np.ones(1, dtype=complex), np.array([1, 3])
        rows = kernel._expand(seed, 6, 0, 13, coeffs, cut, 3)
        np.testing.assert_array_equal(rows, kernel._expand(seed, 6, 0, 13, coeffs[:, :3], cut, 3))

    def test_flushes_below_threshold(self):
        # far outside the light cone the amplitudes are exact zeros, not
        # subnormals: a block stores only the support the trim leaves
        (state,) = evolve_series(ordered(801), 400, [5.0])
        mags = np.abs(state.amplitudes)
        assert np.all((mags == 0.0) | (mags >= 1e-300))
        assert mags[0] == 0.0 and mags[-1] == 0.0


@st.composite
def chains_and_grids(draw):
    """A random chain, an origin that may touch either end, and a time grid of a drawn kind."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = Hamiltonian(diag=rng.uniform(-2.5, 2.5, n), offdiag=rng.uniform(0.2, 1.5, n - 1))
    origin = draw(st.sampled_from([0, n - 1, int(rng.integers(0, n))]))
    t_start = 0.0 if draw(st.booleans()) else draw(st.floats(0.01, 3.0))
    t_end = t_start + draw(st.floats(0.5, 30.0))
    count = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["linear", "log", "irregular", "single"]))
    if kind == "linear":
        times = np.linspace(t_start, t_end, count)
    elif kind == "log":
        times = np.geomspace(max(t_start, 1e-3), t_end, count)
        times = np.r_[0.0, times] if t_start == 0.0 else times
    elif kind == "irregular":
        times = np.unique(np.r_[t_start, t_end, rng.uniform(t_start, t_end, count)])
    else:
        times = np.array([t_end])
    return h, origin, times


def per_state_moment_row(state, half_width):
    """One state's moment row, summed over its support as the per-state path has always summed it."""
    lo, hi = state.support if state.support is not None else (0, state.num_sites - 1)
    first = lo - state.origin
    offsets = np.arange(first, hi + 1 - state.origin, dtype=float)
    absamp = np.abs(state.amplitudes[lo : hi + 1])
    weights = offsets * offsets * absamp
    w_total = float(np.sum(weights))
    core = slice(max(-half_width - first, 0), max(half_width - first + 1, 0))
    w_inner = float(np.sum(weights[core]))
    weights[core] = 0.0
    w_outer = float(np.sum(weights))
    alpha0 = float(abs(state.amplitudes[state.origin]))
    norm_error = abs(1.0 - float(np.sum(absamp**2)))
    return (state.time, 2.0 * alpha0 * w_total, w_total, alpha0, 2.0 * alpha0 * w_outer,
            2.0 * alpha0 * w_inner, norm_error)


class TestBlockSeries:
    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    @settings(max_examples=60, deadline=None)
    @given(chains_and_grids(), st.one_of(st.just(0), st.integers(1, 30), st.integers(300, 400)))
    def test_block_moment_rows_equal_the_per_state_rows(self, case, half_width):
        # Bit for bit: the block path reduces whole blocks, the per-state path
        # one full-chain state at a time.  Half-widths from 300 up make the
        # core wider than any chain drawn.
        h, origin, times = case
        blocks = list(evolve_blocks(h, origin, times, half_width))
        for block in blocks:
            assert len(block.times) == len(block.amplitudes) and type(block.order) is int
        assert np.array_equal(np.concatenate([block.times for block in blocks]), times)
        rows = np.concatenate([moment_rows(block, origin, half_width) for block in blocks])
        states = list(evolve_series(h, origin, times, half_width))
        per_state = np.array([per_state_moment_row(state, half_width) for state in states])
        assert np.array_equal(rows, per_state)
        moment_m_rows = np.array([astuple(moment_m(state, half_width)) for state in states])
        assert np.array_equal(moment_m_rows, per_state)

    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    @settings(max_examples=60, deadline=None)
    @given(chains_and_grids())
    def test_series_matches_oracle_across_blocks(self, case):
        h, origin, times = case
        init = basis_state(h.num_sites, origin)
        blocks = []
        original_block = entspread.propagator._Kernel.block
        original_expand = entspread.propagator._Kernel._expand

        def counted_block(kernel, *args):
            blocks.append(None)
            return original_block(kernel, *args)

        def checked_expand(kernel, seed, at, start, stop, coeffs, need, slots):
            # Each sample's rows, cut to the orders it needs, against the rows
            # of the full coefficient matrix: within its own tail bound, which
            # is TAIL_TOLERANCE ||seed||.  Adding a term e to an entry moves
            # it by at most 2|e| once rounded, hence the factor 2.
            rows = original_expand(kernel, seed, at, start, stop, coeffs, need, slots)
            every = np.full_like(need, coeffs.shape[1])
            full = original_expand(kernel, seed, at, start, stop, coeffs, every, slots)
            gap = np.linalg.norm(rows - full, axis=1)
            assert np.all(gap <= 2.0 * TAIL_TOLERANCE * np.linalg.norm(seed)), (gap, need)
            return rows

        states = []
        with mock.patch.object(entspread.propagator._Kernel, "block", counted_block), \
                mock.patch.object(entspread.propagator._Kernel, "_expand", checked_expand):
            for state in evolve_series(h, origin, times):
                states.append((state, len(blocks)))
        assert [s.time for s, _ in states] == list(times)
        for state, blocks_run in states:
            exact = evolve_diagonalization(h, init, state.time).amplitudes
            assert np.max(np.abs(state.amplitudes - exact)) <= 1e-12
            lo, hi = state.support
            assert not np.any(state.amplitudes[:lo]) and not np.any(state.amplitudes[hi + 1 :])
            # The weight the trims left outside the support.  The dense
            # oracle's rounding alone puts up to 2e-30 there, so the reference
            # is the unwindowed full-chain step, whose tails are exact to rounding.
            reference = full_chain_chebyshev(h, init.amplitudes, state.time)
            outside = np.sum(np.abs(reference[:lo]) ** 2) + np.sum(np.abs(reference[hi + 1 :]) ** 2)
            assert outside <= TAIL_TOLERANCE**2 * blocks_run, (outside, blocks_run)

    def test_chained_support_stays_as_tight_as_one_jump(self):
        # Flushing only below 1e-300 let the tails pile up block after block
        # (1105 sites at t = 100); the trimmed run keeps about the 529 sites
        # of one jump, and the exact state outside them weighs 3e-33.
        for state in evolve_series(ordered(4001), 2000, 0.25 * np.arange(401)):
            pass
        lo, hi = state.support
        assert hi - lo + 1 <= 600
        outside = np.abs(np.r_[0:lo, hi + 1 : 4001] - 2000)
        assert np.sum(scipy.special.jv(outside, 200.0) ** 2) <= TAIL_TOLERANCE**2

    def test_writes_to_a_yielded_state_do_not_reach_later_states(self):
        h, times = disordered64(), 0.25 * np.arange(1, 41)
        clean = [state.amplitudes.copy() for state in evolve_series(h, 31, times)]
        for state, expected in zip(evolve_series(h, 31, times), clean):
            np.testing.assert_array_equal(state.amplitudes, expected)
            state.amplitudes[:] = 0.0

    def test_blocks_hold_arrays_of_their_own(self):
        # A consumer may keep every block, as list() does, so however the
        # kernel reuses memory, no two blocks' amplitudes share any.  Desk
        # core and step, to t = 300.
        core = DisorderSpec(mode="jz_coupling", half_width=50, low=0.0, high=2.5, diag_sign="plus")
        spec = ChainSpec(num_sites=4223, disorder=core)
        times = np.linspace(0.0, 300.0, 1201)
        blocks = list(evolve_blocks(build_hamiltonian(spec, 0), spec.origin, times, 50))
        assert len(blocks) > 10
        arrays, seed = [], (spec.origin, spec.origin)
        for block in blocks:
            # The window is the seed's support widened by K per side, and the
            # block stores the support the trim left inside it.
            start, stop = max(seed[0] - block.order, 0), min(seed[1] + 1 + block.order, spec.num_sites)
            assert block.window == stop - start
            assert start <= block.start and block.start + block.width <= stop
            seed = (block.start, block.start + block.width - 1)
            shape = (len(block.times), block.width)
            assert block.amplitudes.shape == shape and block.amplitudes.dtype == complex
            # The support columns of the C-contiguous (S, window) sample rows.
            assert block.amplitudes.strides == (16 * block.window, 16)
            arrays.append(block.amplitudes)
        for i, first in enumerate(arrays):
            for second in arrays[i + 1 :]:
                assert not np.shares_memory(first, second)

    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    @settings(max_examples=40, deadline=None)
    @given(chains_and_grids())
    def test_blocks_store_only_their_support(self, case):
        # The trim drops every outer column that no sample needs, so the first
        # and the last column a block stores are nonzero in some sample.
        h, origin, times = case
        for block in evolve_blocks(h, origin, times):
            assert np.any(block.amplitudes[:, 0]) and np.any(block.amplitudes[:, -1])

    @pytest.mark.parametrize("shape, dtype", [((24, 8001), complex), ((24, 16002), float),
                                              ((3, 1000), float), ((4097,), float), ((0, 5), complex)])
    def test_block_empty_heads_a_buffer_at_most_one_size_class_larger(self, shape, dtype):
        # The byte plan counts the arrays' sizes; it leaves room for the at
        # most 2 ** (1 / 6), or 12%, that a size class adds (and up to one
        # item more, as the buffer holds whole items).
        first, second = block_empty(shape, dtype), block_empty(shape, dtype)
        for array in (first, second):
            assert array.shape == shape and array.dtype == dtype and array.flags.c_contiguous
            request, capacity = array.nbytes, array.base.nbytes
            assert request <= capacity <= 2 ** (1 / 6) * request + array.itemsize
        assert not np.shares_memory(first.base, second.base)

    def test_zero_hopping_constant_diagonal_is_a_pure_phase(self):
        # b = 0: every block is a phase, however many samples it spans
        h = Hamiltonian(diag=np.full(41, 0.7), offdiag=np.zeros(40))
        times = np.linspace(0.0, 1000.0, 4001)
        for state in evolve_series(h, 20, times):
            assert state.support == (20, 20)
            assert abs(state.amplitudes[20] - np.exp(-0.7j * state.time)) <= 1e-12
            assert np.count_nonzero(state.amplitudes) == 1

    def test_log_grid_keeps_a_bounded_cache(self, monkeypatch):
        calls = {"bessel_row": 0, "blocks": 0}
        kernels = []
        original_row = entspread.propagator.bessel_row
        original_block = entspread.propagator._Kernel.block

        def counted_row(*args):
            calls["bessel_row"] += 1
            return original_row(*args)

        def counted_block(kernel, *args):
            calls["blocks"] += 1
            kernels.append(kernel)
            return original_block(kernel, *args)

        monkeypatch.setattr(entspread.propagator, "bessel_row", counted_row)
        monkeypatch.setattr(entspread.propagator._Kernel, "block", counted_block)
        rng = np.random.Generator(np.random.PCG64(derive_seed(3, 0)))
        h = Hamiltonian(diag=rng.uniform(0.0, 2.5, 601), offdiag=np.ones(600))
        for _ in evolve_series(h, 300, np.geomspace(0.01, 100.0, 2001)):
            assert len(kernels[-1]._blocks) <= 2
        assert 1 < calls["blocks"] < 2001
        assert calls["bessel_row"] <= calls["blocks"]

    def test_long_jump_lengthens_the_bessel_row(self, monkeypatch):
        # At z = b|dt| = 1500, K + 1 = 1627 lies past the block plan's order
        # guess, ceil(z) + 41 + ceil(10 ln(1 + z)) = 1615, and the one row
        # evaluated runs to tail_order(z) = 1657.  K is the first order whose
        # tail 2 sum_{k>K} |J_k(z)| over one long row is <= TAIL_TOLERANCE.
        calls = []
        original_row = entspread.propagator.bessel_row

        def counted_row(order, z):
            calls.append(order)
            return original_row(order, z)

        monkeypatch.setattr(entspread.propagator, "bessel_row", counted_row)
        order = chebyshev_order(1.0, 1500.0)
        assert calls == [tail_order(1500.0)] == [1657] and order == 1626
        tail = 2.0 * np.cumsum(np.abs(original_row(3400, 1500.0)[::-1]))[::-1]
        assert order == np.flatnonzero(tail[1:] <= TAIL_TOLERANCE)[0]

    @pytest.mark.parametrize("cap", [WORKSPACE_BYTES, 1 << 20], ids=["module_cap", "1MiB_cap"])
    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    @pytest.mark.parametrize(
        "num_sites, times",
        [
            (4001, 1e-3 * np.arange(4001)),
            (4223, np.linspace(0.0, 1000.0, 4001)),
            (301, np.linspace(100.0, 104.0, 4001)),
        ],
        ids=["dense_grid", "desk_like", "filled_chain"],
    )
    def test_workspace_within_byte_cap(self, monkeypatch, num_sites, times, cap):
        # Unbounded, these runs stay under the module cap; the 1 MiB cap binds
        # on all three, so it checks that blocks are cut to fit.  Both paths
        # are measured: evolve_series, and simulate_realization, whose moment
        # rows add temporaries to the block's own.  On the filled chain a
        # block's window is the whole chain, as wide as the plan assumes.
        monkeypatch.setattr(entspread.propagator, "WORKSPACE_BYTES", cap)
        growth = {"evolve_series": [], "simulate": []}
        before = []
        original_block = entspread.propagator._Kernel.block
        original_rows = entspread.cli.moment_rows

        def measured_block(kernel, *args):
            tracemalloc.reset_peak()
            before.append(tracemalloc.get_traced_memory()[0])
            return original_block(kernel, *args)

        def measure(path):
            # Every sample, t = 0 too, comes out of the last block made.
            growth[path].append(tracemalloc.get_traced_memory()[1] - before[-1])

        def measured_rows(*args):
            rows = original_rows(*args)
            measure("simulate")
            return rows

        monkeypatch.setattr(entspread.propagator._Kernel, "block", measured_block)
        monkeypatch.setattr(entspread.cli, "moment_rows", measured_rows)
        core = {"mode": "jz_coupling", "half_width": 50, "low": 0.0, "high": 2.5, "diag_sign": "plus"}
        config = config_from_dict({
            "schema_version": 1,
            "chain": {"num_sites": num_sites, "disorder": core},
            "times": {"t_start": float(times[0]), "t_end": float(times[-1]), "num_samples": len(times)},
            "ensemble": {"num_realizations": 1, "base_seed": 0},
            "outputs": {"directory": "unused", "formats": ["csv"]},
        })
        h = build_hamiltonian(config.chain, 0)
        tracemalloc.start()
        try:
            for _ in evolve_series(h, num_sites // 2, times, 50):
                measure("evolve_series")
            blocks = len(before)
            before.clear()
            simulate_realization(config, 0)
        finally:
            tracemalloc.stop()
        assert blocks > 1 and len(before) > 1
        assert len(growth["evolve_series"]) == len(times)
        assert len(growth["simulate"]) == len(before)
        # What a block allocates, less the one full-chain state evolve_series hands out.
        assert max(growth["evolve_series"]) - 16 * num_sites <= cap
        assert max(growth["simulate"]) <= cap

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_cold_realization_reuses_block_memory(self):
        # Each block's arrays are a little larger than the last block's.  Had
        # each come from freshly mapped pages, this run (desk chain and step,
        # to t = 1900, which its 8001 sites hold without reflections) would
        # fault 110 600 - 114 000 pages in a fresh process; size-classed, it
        # faulted 19 000 - 23 700 over 24 fresh processes.
        pytest.importorskip("resource")
        config = json.loads(DESK.read_text())
        config["times"].update(t_end=1900.0, num_samples=7601)
        code = COLD_RUN.format(src=str(ROOT / "src"), config=config)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        faults = int(child.stdout)
        assert 0 < faults <= 40_000, faults


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
        (direct,) = evolve_series(h, 31, [7.0])
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
        assert reflection_budget_violation(401, 80.0) is None
        assert reflection_budget_violation(401, 80.0, gamma=2.0) is not None
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
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="times must be finite"):
                list(evolve_series(ordered(5), 2, np.array([0.5, bad])))
