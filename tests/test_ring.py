"""The compiled passes of `_ring.c`: their bytes against their oracles, and how their library is built.

`ring_steps` must reproduce the real-ufunc step of `oracles.ring_steps_parts`
bit for bit, and equal the complex step of `oracles.ring_steps_numpy`; the
trim's edge search `oracles.edge_count_numpy`.  `ring_flush`, the phase and
the moment sums must round each of their fmas once, as
`oracles.ring_flush_exact`, `phase_rows_exact` and `moment_rows_exact` do in
rationals, and come within rounding of numpy's `rows *= phases[:, None]`
and `oracles.moment_rows_numpy`, which fuse only where numpy's loops do.
The build tests, the run without numpy's FMA loops and the baseline-only
build run fresh interpreters or compilers; the source must compile without
a warning.
"""

import ctypes
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entspread.bessel
import entspread.propagator
from entspread.bessel import _RING_FLAGS, _RING_LIBS, _RING_PATH, _ring_library, miller_start_order
from entspread.chain import Hamiltonian, build_hamiltonian
from entspread.config import load_config
from entspread.observables import moment_m, moment_rows
from entspread.propagator import (
    Block,
    WaveState,
    _edge_counts,
    _Kernel,
    _moment_sums,
    _phase_rows,
    _RING_ORDERS,
    _ring_flush,
    _ring_steps,
    evolve_blocks,
)

from oracles import (
    edge_count_numpy,
    fma_exact,
    magnitudes_exact,
    moment_rows_exact,
    moment_rows_numpy,
    phase_rows_exact,
    ring_flush_exact,
    ring_steps_numpy,
    ring_steps_parts,
)

ROOT = Path(__file__).resolve().parents[1]


def operator(num_sites: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The imaginary parts of -2i Hs of a random chain, as the propagator's kernel sets them up."""
    rng = np.random.default_rng(seed)
    kernel = _Kernel(Hamiltonian(diag=rng.uniform(-2.5, 2.5, num_sites), offdiag=rng.uniform(0.2, 1.5, num_sites - 1)))
    return kernel.diag2, kernel.off2


def random_ring(slots: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(slots, width)) + 1j * rng.normal(size=(slots, width))


def parts(operator: np.ndarray) -> np.ndarray:
    """The imaginary parts of a purely imaginary operator given as complex, or those parts as given."""
    return np.ascontiguousarray(operator.imag) if np.iscomplexobj(operator) else operator


def imaginary(operator: np.ndarray) -> np.ndarray:
    """A purely imaginary operator as complex, its real parts +0.0, from its imaginary parts or as given."""
    if np.iscomplexobj(operator):
        return operator
    full = np.zeros(len(operator), dtype=complex)
    full.imag = operator
    return full


def compiled(ring: np.ndarray, diag2: np.ndarray, off2: np.ndarray, first: int, last: int) -> None:
    """The compiled step on -2i Hs, given as complex or as its imaginary parts."""
    diag2, off2 = parts(diag2), parts(off2)
    _ring_steps(ring.ctypes.data, ring.strides[0] // 16, diag2.ctypes.data, off2.ctypes.data, ring.shape[1], len(ring),
                first, last)


def assert_same_bytes(ring, diag2, off2, first, last, complex_bytes=True):
    """The compiled step against `ring_steps_parts` by bytes, and against the complex numpy step.

    The complex step is compared by bytes too unless `complex_bytes` is
    False, where the two are known to differ in zero signs only.
    """
    expected, got, complex_step = ring.copy(), ring.copy(), ring.copy()
    ring_steps_parts(expected, parts(diag2), parts(off2), first, last)
    compiled(got, diag2, off2, first, last)
    ring_steps_numpy(complex_step, imaginary(diag2), imaginary(off2), first, last)
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(complex_step, expected)
    if complex_bytes:
        assert complex_step.tobytes() == expected.tobytes()


class TestRingStep:
    @pytest.mark.parametrize("slots", [3, 8])
    @pytest.mark.parametrize("width", [1, 2, 3, 2167])
    def test_rings_match_the_numpy_step(self, width, slots):
        # The window sits inside a longer chain, as the kernel's windows do;
        # the rings are called as `_expand` calls them, order 1 first.
        diag2, off2 = operator(width + 7, seed=width)
        diag2, off2 = diag2[3 : 3 + width], off2[3 : 2 + width]
        ring = random_ring(slots, width, seed=slots)
        ring[-1] = 0.0
        for done in range(0, 4 * slots, slots):
            assert_same_bytes(ring, diag2, off2, max(done, 1), done + slots - 1)
            ring_steps_parts(ring, diag2, off2, max(done, 1), done + slots - 1)

    @pytest.mark.parametrize("first, last", [(1, 20), (5, 17), (2, 2)])
    def test_one_call_may_wrap_the_ring(self, first, last):
        diag2, off2 = operator(50, seed=1)
        assert_same_bytes(random_ring(3, 50, seed=2), diag2, off2, first, last)

    def test_order_one_is_halved_as_a_complex_product(self):
        # U_1 before halving is (-0.0, -0.5) here; numpy's product with
        # 0.5 + 0j gives +0.0 in the real part, a real halving -0.0.
        diag2 = -1j * np.array([-0.5])
        ring = np.array([-1.0 + 0.0j, 7.0 + 7.0j, complex(-0.0, -0.0)]).reshape(3, 1)
        assert_same_bytes(ring, diag2, np.empty(0, complex), 1, 1)
        compiled(ring, diag2, np.empty(0, complex), 1, 1)
        assert ring[1, 0] == -0.25j and not np.signbit(ring[1, 0].real)

    def test_zero_signs_may_differ_from_the_complex_step(self):
        # U_1 = (1, +0.0) and U_0 = (-0.0, 1) at one site with d = 0.5: the
        # step's real part is -0.0 - 0.5 * 0.0 = -0.0, the complex product's
        # (0.0 * 1 - 0.5 * 0.0) + -0.0 = +0.0.  The values are equal.
        ring = np.array([complex(-0.0, 1.0), complex(1.0, 0.0), 7.0 + 7.0j]).reshape(3, 1)
        assert_same_bytes(ring, np.array([0.5]), np.empty(0), 2, 2, complex_bytes=False)
        complex_step = ring.copy()
        ring_steps_numpy(complex_step, np.array([0.5j]), np.empty(0, complex), 2, 2)
        compiled(ring, np.array([0.5]), np.empty(0), 2, 2)
        assert ring[2, 0] == complex_step[2, 0] == 1.5j
        assert np.signbit(ring[2, 0].real) and not np.signbit(complex_step[2, 0].real)

    @pytest.mark.parametrize("start, stop, slots", [(0, 14, 3), (-1, 5, 3), (4, 4, 3), (0, 13, 2)])
    def test_expand_rejects_a_window_the_step_would_overrun(self, start, stop, slots):
        kernel = _Kernel(Hamiltonian(diag=np.linspace(0.0, 1.0, 13), offdiag=np.ones(12)))
        coeffs, need, _ = kernel._coefficients(np.array([1.0]))
        with pytest.raises(ValueError, match="ring slots"):
            kernel._expand(np.ones(1, dtype=complex), 0, start, stop, coeffs, need, slots)

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 300), slots=st.integers(3, _RING_ORDERS), first=st.integers(1, 20),
           count=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_numpy_step_on_random_chains(self, width, slots, first, count, seed):
        diag2, off2 = operator(width + 1, seed)
        assert_same_bytes(random_ring(slots, width, seed), diag2[:width], off2[: width - 1], first,
                          first + count - 1)


def flush(rows: np.ndarray, ring: np.ndarray, coeffs: np.ndarray, need: np.ndarray, done: int, last: int) -> None:
    """The compiled `ring_flush` of orders done..last, in place in `rows`, at their own row strides."""
    _ring_flush(rows.ctypes.data, rows.strides[0] // 16, len(rows), rows.shape[1], ring.ctypes.data,
                ring.strides[0] // 16, len(ring), coeffs.ctypes.data, coeffs.strides[0] // 8, need.ctypes.data, done,
                last)


def flush_case(count: int, width: int, slots: int, orders: int, seed: int):
    """Rows, ring and coefficient rows, each strided wider than it is; the ring holds a light cone's zeros.

    Values span 1e-20 .. 1 in size, with both signs, so the sums round.
    """
    rng = np.random.default_rng(seed)
    sized = lambda *shape: rng.normal(size=shape) * 10.0 ** rng.uniform(-20.0, 0.0, size=shape)
    rows = (sized(count, width + 5) + 1j * sized(count, width + 5))[:, 2 : 2 + width]
    ring = (sized(slots, width + 3) + 1j * sized(slots, width + 3))[:, :width]
    ring[:, : width // 3] = 0.0
    coeffs = sized(count, orders + 7)[:, :orders]
    return rows, ring, coeffs


def assert_flush_exact(rows, ring, coeffs, need, done, last):
    expected = ring_flush_exact(rows, ring, coeffs, need, done, last)
    flush(rows, ring, coeffs, need, done, last)
    assert rows.tobytes() == expected.tobytes()


class TestRingFlush:
    """ring_flush against the exact fma, whatever the tiling of samples and doubles makes of a case."""

    @pytest.mark.parametrize("width", [1, 7, 12, 13, 37])
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
    def test_flushes_match_the_exact_fma(self, count, width):
        # Two rings of 8: the first flush starts from 0.0 and a later one adds
        # in.  Samples stop in the first ring, in the second or past both;
        # odd widths leave rows off 64-byte alignment and doubles past the
        # last tile of 24.
        rows, ring, coeffs = flush_case(count, width, 8, 16, seed=count * 100 + width)
        need = np.sort(np.random.default_rng(width).integers(1, 20, count))
        for done in (0, 8):
            assert_flush_exact(rows, ring, coeffs, need, done, done + 7)
            ring = flush_case(count, width, 8, 16, seed=done + 1)[1]

    @pytest.mark.parametrize("orders", range(1, _RING_ORDERS + 1))
    def test_rings_of_any_length_match_the_exact_fma(self, orders):
        # A later ring of 1 .. _RING_ORDERS orders, whose slots wrap as the kernel's do.
        slots = max(orders, 3)
        rows, ring, coeffs = flush_case(6, 13, slots, 3 * slots, seed=orders)
        need = np.full(6, 3 * slots, dtype=np.int64)
        assert_flush_exact(rows, ring, coeffs, need, slots, slots + orders - 1)

    def test_samples_done_before_the_ring_keep_their_rows(self):
        # need[s] <= done: samples 0 and 1 summed all their orders in an
        # earlier ring, and only the suffix from sample 2 on is added to.
        rows, ring, coeffs = flush_case(7, 30, 8, 24, seed=3)
        need = np.array([3, 8, 9, 12, 24, 24, 24])
        kept = rows[:2].tobytes()
        assert_flush_exact(rows, ring, coeffs, need, 8, 15)
        assert rows[:2].tobytes() == kept

    def test_first_flush_of_a_sample_that_needs_no_order_is_zero(self):
        rows, ring, coeffs = flush_case(5, 13, 8, 8, seed=4)
        assert_flush_exact(rows, ring, coeffs, np.array([0, 8, 8, 8, 8]), 0, 7)
        assert not np.any(rows[0]) and not np.any(np.signbit(rows[0].view(float)))

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 12), width=st.integers(1, 40), slots=st.integers(3, 8),
           ring_index=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_exact_fma_on_random_rings(self, count, width, slots, ring_index, seed):
        done = ring_index * slots
        rows, ring, coeffs = flush_case(count, width, slots, done + slots, seed)
        need = np.random.default_rng(seed).integers(0, done + slots + 2, count)
        assert_flush_exact(rows, ring, coeffs, need, done, done + slots - 1)

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 30), width=st.integers(1, 30), slots=st.integers(3, _RING_ORDERS),
           ring_index=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_exact_fma_on_ragged_rings(self, count, width, slots, ring_index, seed):
        # need non-decreasing, as `_Kernel._coefficients` makes it: groups of
        # samples whose rows stop at different orders of one ring.
        done = ring_index * slots
        rows, ring, coeffs = flush_case(count, width, slots, done + slots, seed)
        need = np.sort(np.random.default_rng(seed).integers(0, done + slots + 2, count))
        assert_flush_exact(rows, ring, coeffs, need, done, done + slots - 1)

    def test_flushes_of_more_samples_than_one_batch_match_the_exact_fma(self):
        # 301 samples: the flush plans a first batch of 45, then one of 256,
        # its groups of 4 still counted from the last sample.
        rows, ring, coeffs = flush_case(301, 7, 8, 16, seed=5)
        need = np.sort(np.random.default_rng(5).integers(0, 18, 301))
        assert_flush_exact(rows, ring, coeffs, need, 8, 15)

    def test_expand_rows_do_not_depend_on_the_ring_size(self):
        # Each double of a sample is one fma per order it needs, in order, so
        # a desk block's rows are the same bytes from rings of 3 to
        # _RING_ORDERS orders.
        config = load_config(ROOT / "configs" / "fig1_desk.json")
        h = build_hamiltonian(config.chain, 0)
        blocks = evolve_blocks(h, config.chain.origin, config.times.grid()[:401], 50)
        *_, block = blocks
        kernel = _Kernel(h)
        coeffs, need, _ = kernel._coefficients(0.25 * np.arange(1, 25))
        order = coeffs.shape[1] - 1
        start, stop = block.start - order, block.start + block.width + order
        rows = [kernel._expand(block.amplitudes[-1], order, start, stop, coeffs, need, slots).tobytes()
                for slots in range(3, _RING_ORDERS + 1)]
        assert len(set(rows)) == 1 and stop - start > 500

    @pytest.mark.parametrize("kind", ["float32", "fortran", "every_other_order", "one_row", "short_need"])
    def test_expand_rejects_coefficients_it_cannot_read_in_place(self, kind, monkeypatch):
        kernel = _Kernel(Hamiltonian(diag=np.linspace(0.0, 1.0, 13), offdiag=np.ones(12)))
        coeffs, need, _ = kernel._coefficients(np.array([0.5, 1.0, 1.5]))
        coeffs, need = {
            "float32": (coeffs.astype(np.float32), need),
            "fortran": (np.asfortranarray(coeffs), need),
            "every_other_order": (coeffs[:, ::2], need),
            "one_row": (coeffs[0], need[:1]),
            "short_need": (coeffs, need[:2]),
        }[kind]

        def foreign(*args):
            raise AssertionError("a compiled pass was called")

        monkeypatch.setattr(entspread.propagator, "_ring_steps", foreign)
        monkeypatch.setattr(entspread.propagator, "_ring_flush", foreign)
        with pytest.raises(ValueError, match="coefficient rows"):
            kernel._expand(np.ones(1, dtype=complex), 6, 0, 13, coeffs, need, 3)


WIDTHS = [1, 7, 8, 9, 127, 128, 129, 2167]

# (origin, half_width) for a block whose support starts at site 100: the core
# |x - origin| <= half_width against the support's columns.
CORES = {
    "empty": lambda width: (80, 3),
    "partial": lambda width: (100 + width // 2, width // 4),
    "covering": lambda width: (100 + width // 2, width),
    "left_edge": lambda width: (100, 2),
    "right_edge": lambda width: (99 + width, 2),
    "origin_outside": lambda width: (98, 4),
}


def strided_rows(count: int, width: int, seed: int) -> np.ndarray:
    """Random complex rows (count, width) strided wider than they are, as a block's support is.

    Magnitudes span 1e-20 .. 1, so sums of them round as a front's do.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(count, width + 13)) + 1j * rng.normal(size=(count, width + 13))
    base *= 10.0 ** rng.uniform(-20.0, 0.0, size=base.shape)
    return base[:, 5 : 5 + width]


def block_of(rows: np.ndarray) -> Block:
    return Block(np.arange(len(rows), dtype=float), rows, 100, rows.shape[1] + 13, 0)


def tapered_rows(count: int, width: int, seed: int) -> np.ndarray:
    """Rows that fall from 1 at the middle to about 1e-30 at the ends, with random phases, as a front does."""
    rng = np.random.default_rng(seed)
    distance = np.abs(np.arange(width) - (width - 1) / 2.0) / max(width / 2.0, 1.0)
    profile = 10.0 ** (-30.0 * distance * rng.uniform(0.8, 1.2, size=(count, 1)))
    base = np.zeros((count, width + 4), dtype=complex)
    base[:, 2:-2] = profile * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(count, width)))
    return base[:, 2:-2]


# How far numpy's unfused |a| and complex product may take it from the passes'
# fused rule: the moments within MOMENT_RTOL, their norm sum too (so norm_error
# within MOMENT_RTOL (1 + norm_error)), and each part of a phased value within
# PHASE_ATOL |a|.  Unfused numpy measured 4.9e-16, 7.1e-15 absolute on the
# norm error, and 1.98 2^-53 |a| on the test rows.
MOMENT_RTOL = 2e-15
PHASE_ATOL = 2.0**-51


def assert_near_numpy_moments(got: np.ndarray, numpy_rows: np.ndarray) -> None:
    np.testing.assert_allclose(got[:, :6], numpy_rows[:, :6], rtol=MOMENT_RTOL, atol=0.0)
    norm_error = np.abs(got[:, 6] - numpy_rows[:, 6])
    assert np.all(norm_error <= MOMENT_RTOL * (1.0 + got[:, 6]))


def assert_near_numpy_phases(got: np.ndarray, rows: np.ndarray, phases: np.ndarray) -> None:
    numpy_rows = rows.copy()
    numpy_rows *= phases[:, None]
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(numpy_rows)) <= PHASE_ATOL * np.abs(rows))


def plain_magnitudes(rows: np.ndarray) -> np.ndarray:
    """|a| as larger * sqrt(ratio ratio + 1.0), every operation rounded, as numpy's unfused loop makes it."""
    larger = np.maximum(np.abs(rows.real), np.abs(rows.imag))
    ratio = np.minimum(np.abs(rows.real), np.abs(rows.imag)) / larger
    return larger * np.sqrt(ratio * ratio + 1.0)


class TestBlockPasses:
    @pytest.mark.parametrize("core", list(CORES))
    @pytest.mark.parametrize("width", WIDTHS)
    def test_moment_rows_match_numpy(self, width, core):
        block = block_of(strided_rows(5, width, seed=width))
        origin, half_width = CORES[core](width)
        got = moment_rows(block, origin, half_width)
        assert got.tobytes() == moment_rows_exact(block, origin, half_width).tobytes()
        assert_near_numpy_moments(got, moment_rows_numpy(block, origin, half_width))

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_phase_matches_numpy(self, width, count):
        # One row of one site too, which numpy multiplies with its unfused
        # scalar loop even where its row loops fuse.
        rows = strided_rows(count, width, seed=width)
        phases = np.exp(1j * np.random.default_rng(width).uniform(0.0, 7.0, count))
        got = rows.copy()
        _phase_rows(got, phases)
        assert got.tobytes() == phase_rows_exact(rows, phases).tobytes()
        assert_near_numpy_phases(got, rows, phases)

    @pytest.mark.parametrize("rim", [1, 8])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_edge_counts_match_numpy(self, width, rim):
        rows = tapered_rows(6, width, seed=width)
        rows[0] = 0.0  # a row within the budget everywhere
        for budget in (0.0, 2.5e-33, 1e-20):
            expected = edge_count_numpy(rows, budget, rim)
            assert _edge_counts(rows, budget).tobytes() == expected.tobytes()

    def test_the_rows_tell_numpy_sums_from_near_misses(self):
        # A sequential sum, or |a| or a complex product without its fma,
        # gives other bytes on the rows of the tests above, on any host, so
        # those tests can see it.
        told = set()
        for width in WIDTHS:
            block = block_of(strided_rows(5, width, seed=width))
            fused = magnitudes_exact(block.amplitudes)
            if width == 2167:
                assert not np.array_equal(np.add.reduce(fused, axis=1), np.cumsum(fused, axis=1)[:, -1])
            for place in CORES.values():
                rows = [moment_rows_numpy(block, *place(width), magnitudes).tobytes()
                        for magnitudes in (fused, plain_magnitudes(block.amplitudes))]
                if rows[0] != rows[1]:
                    told.add(width)
        assert len(told) >= len(WIDTHS) // 2, told
        rows = strided_rows(4, 129, seed=129)
        phases = np.exp(1j * np.random.default_rng(129).uniform(0.0, 7.0, 4))
        ar, ai, br, bi = rows.real, rows.imag, phases.real[:, None], phases.imag[:, None]
        plain = (ar * br - ai * bi) + 1j * (ar * bi + ai * br)
        assert plain.tobytes() != phase_rows_exact(rows, phases).tobytes()

    def test_the_exact_oracles_fuse_once(self):
        # fma(x, x, -1) for x = 1 + 2^-27 keeps the 2^-54 a plain product rounds away.
        x = 1.0 + 2.0**-27
        assert fma_exact(x, x, -1.0) == 2.0**-26 + 2.0**-54 != x * x - 1.0
        assert phase_rows_exact(np.array([[complex(x, 1.0)]]), np.array([complex(x, 1.0)]))[0, 0].real == 2.0**-26 + 2.0**-54
        assert magnitudes_exact(np.array([3.0 - 4.0j, complex(np.nan, np.inf)])).tolist() == [5.0, math.inf]

    def test_non_finite_amplitudes_stay_non_finite(self):
        rows = strided_rows(4, 40, seed=3)
        rows[0, 5], rows[1, 7], rows[2, 9], rows[3, 11] = np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf), 0.0
        block = block_of(rows)
        expected = moment_rows_exact(block, 110, 3)
        assert np.array_equal(moment_rows(block, 110, 3), expected, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 5), width=st.integers(1, 300), origin=st.integers(-50, 450),
           half_width=st.integers(0, 320), seed=st.integers(0, 2**32 - 1))
    def test_passes_match_numpy_on_random_rows(self, count, width, origin, half_width, seed):
        block = block_of(strided_rows(count, width, seed))
        assert moment_rows(block, origin, half_width).tobytes() == moment_rows_exact(block, origin, half_width).tobytes()
        phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 7.0, count))
        phased = phase_rows_exact(block.amplitudes, phases)
        _phase_rows(block.amplitudes, phases)
        assert block.amplitudes.tobytes() == phased.tobytes()
        rows = tapered_rows(count, width, seed)
        assert _edge_counts(rows, 2.5e-33).tobytes() == edge_count_numpy(rows, 2.5e-33, 8).tobytes()


class TestOtherAmplitudes:
    """moment_rows and moment_m take any amplitudes the API takes, copying those the C pass cannot read."""

    @pytest.mark.parametrize("kind", ["complex64", "float64", "every_other_site", "fortran", "reversed_rows"])
    def test_copied_or_read_in_place(self, kind):
        rows = strided_rows(3, 50, seed=11)
        amplitudes = {
            "complex64": rows.astype(np.complex64),
            "float64": rows.real.copy(),
            "every_other_site": strided_rows(3, 100, seed=11)[:, ::2],
            "fortran": np.asfortranarray(rows),
            "reversed_rows": rows[::-1],
        }[kind]
        block = Block(np.arange(3.0), amplitudes, 100, 60, 0)
        exact = Block(block.times, np.ascontiguousarray(amplitudes, dtype=complex), 100, 60, 0)
        got = moment_rows(block, 120, 5)
        # w and the norm are those of the complex128 copy; alpha0, and so m,
        # is the scalar abs() of the amplitudes as given.
        w_and_norm = moment_rows_exact(exact, 120, 5)[:, [0, 2, 6]]
        assert got[:, [0, 2, 6]].tobytes() == w_and_norm.tobytes()
        np.testing.assert_allclose(got, moment_rows_numpy(block, 120, 5), rtol=1e-6)

    def test_moment_m_of_a_real_state(self):
        state = WaveState(np.array([0.0, 0.6, 0.0, 0.8]), 0.0, 1)
        sample = moment_m(state)
        assert (sample.w, sample.alpha0_abs) == (0.8 * 4.0, 0.6)
        assert moment_m(WaveState(state.amplitudes.astype(np.complex64), 0.0, 1)).w == pytest.approx(3.2)

    def test_passes_reject_rows_they_would_overrun(self):
        rows = strided_rows(2, 20, seed=1)
        for bad in (rows.real, rows[:, ::2], rows[0]):
            with pytest.raises(ValueError, match="complex128 rows"):
                _moment_sums(bad, 0, (0, 0))
            with pytest.raises(ValueError, match="complex128 rows"):
                _edge_counts(bad, 1.0)
        for core in ((-1, 3), (4, 3), (0, 21)):
            with pytest.raises(ValueError, match="core columns"):
                _moment_sums(rows, 0, core)
        with pytest.raises(ValueError, match="phases"):
            _phase_rows(rows, np.ones(3, dtype=complex))
        rows.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            _phase_rows(rows, np.ones(2, dtype=complex))


# numpy's FMA dispatch targets on x86-64; with all of them off its complex
# product and absolute run unfused.
NO_FMA = "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"

CHECK_UNFUSED = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
import numpy as np
from entspread.observables import moment_rows
from entspread.propagator import _phase_rows
from test_ring import assert_near_numpy_moments, assert_near_numpy_phases, block_of, plain_magnitudes, strided_rows
from oracles import moment_rows_exact, moment_rows_numpy, phase_rows_exact
block = block_of(strided_rows(4, 2167, seed=5))
rows = block.amplitudes.copy()
# numpy's loops do not fuse here, and the passes still give the exact fused rule
assert np.array_equal(np.abs(rows), plain_magnitudes(rows))
got, numpy_rows = moment_rows(block, 1183, 50), moment_rows_numpy(block, 1183, 50)
assert got.tobytes() == moment_rows_exact(block, 1183, 50).tobytes() != numpy_rows.tobytes()
assert_near_numpy_moments(got, numpy_rows)
phases = np.exp(1j * np.random.default_rng(5).uniform(0.0, 7.0, 4))
_phase_rows(block.amplitudes, phases)
numpy_phased = rows.copy()
numpy_phased *= phases[:, None]
assert block.amplitudes.tobytes() == phase_rows_exact(rows, phases).tobytes() != numpy_phased.tobytes()
assert_near_numpy_phases(block.amplitudes, rows, phases)
"""


def numpy_dispatches(features: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return any(__cpu_features__.get(name) for name in features.split())


@pytest.mark.skipif(not numpy_dispatches(NO_FMA), reason=f"numpy dispatches none of {NO_FMA} here")
def test_passes_match_numpy_without_its_fma_loops():
    code = CHECK_UNFUSED.format(src=str(ROOT / "src"), tests=str(ROOT / "tests"))
    child = subprocess.run([sys.executable, "-c", code], env={**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_FMA},
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


IMPORT = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import entspread.propagator, entspread.bessel as b; print(b._RING_PATH)"


def import_propagator(tmp_path: Path, **env: str) -> subprocess.Popen:
    """A fresh interpreter importing the propagator with its cache and temp directory under tmp_path."""
    (tmp_path / "tmp").mkdir(exist_ok=True)
    environ = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "TMPDIR": str(tmp_path / "tmp"), **env}
    return subprocess.Popen([sys.executable, "-c", IMPORT], env=environ, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


class TestRingBuild:
    def test_concurrent_cold_imports_leave_one_library(self, tmp_path):
        children = [import_propagator(tmp_path) for _ in range(2)]
        outputs = [child.communicate() for child in children]
        assert [child.returncode for child in children] == [0, 0], outputs
        cache = tmp_path / "cache" / "entspread"
        (library,) = cache.iterdir()
        assert library.suffix == ".so"
        assert {Path(out.strip()) for out, _ in outputs} == {library}
        assert not any((tmp_path / "tmp").iterdir())

    def test_unwritable_cache_falls_back_to_the_temp_directory(self, tmp_path):
        # A file where the cache directory should be: no directory can be
        # made there, whatever the user's privileges.
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "entspread").write_text("")
        child = import_propagator(tmp_path)
        out, err = child.communicate()
        assert child.returncode == 0, err
        (library,) = (tmp_path / "tmp").iterdir()
        assert Path(out.strip()) == library and library.suffix == ".so"

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch) -> Path:
        """An empty cache directory, and a stand-in `cc` that copies this process's library to its -o path."""
        (tmp_path / "bin").mkdir()
        cc = tmp_path / "bin" / "cc"
        cc.write_text(f'#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\ncp "{_RING_PATH}" "$2"\n')
        cc.chmod(0o755)
        monkeypatch.setenv("PATH", f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        (tmp_path / "cache" / "entspread").mkdir(parents=True)
        return tmp_path / "cache" / "entspread"

    def test_a_build_is_reported_then_the_cached_library_found(self, cache):
        library = cache / _RING_PATH.name
        assert _ring_library() == (library, True)
        assert _ring_library() == (library, False)

    def test_a_relative_cache_home_is_ignored(self, cache, tmp_path, monkeypatch):
        # A relative XDG_CACHE_HOME would put a library under every working directory.
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        library = tmp_path / "home" / ".cache" / "entspread" / _RING_PATH.name
        assert _ring_library() == (library, True)
        assert not any((tmp_path / "work").iterdir())

    # What an older source's build left, a build of it that never finished,
    # and a file of another program.
    STALE = "entspread-ring-0123456789abcdef.so"
    PARTIAL, OTHER = STALE + "x1y2.partial", "other.so"

    def left_in(self, cache: Path, unused_for: float = 2 * 24 * 3600) -> set[str]:
        """What is left after a build or cache hit, beside files last used `unused_for` seconds ago."""
        used = time.time() - unused_for
        for name in (self.STALE, self.PARTIAL, self.OTHER):
            (cache / name).write_bytes(b"")
            os.utime(cache / name, (used, used))
        _ring_library()
        return {path.name for path in cache.iterdir()}

    def test_a_build_removes_this_users_stale_libraries_only(self, cache):
        assert self.left_in(cache) == {_RING_PATH.name, self.PARTIAL, self.OTHER}

    def test_a_library_used_within_the_day_is_kept(self, cache):
        # Another checkout's library, loaded an hour ago, is not built again on its next import.
        assert self.left_in(cache, unused_for=3600) == {_RING_PATH.name, self.STALE, self.PARTIAL, self.OTHER}

    def test_a_cache_hit_marks_the_library_used(self, cache):
        library = cache / _RING_PATH.name
        library.write_bytes(_RING_PATH.read_bytes())
        os.utime(library, (0, 0))
        assert _ring_library() == (library, False)
        assert time.time() - library.stat().st_mtime < 3600

    def test_a_cache_hit_removes_nothing(self, cache):
        (cache / _RING_PATH.name).write_bytes(_RING_PATH.read_bytes())
        assert self.left_in(cache) == {_RING_PATH.name, self.STALE, self.PARTIAL, self.OTHER}

    def test_another_users_library_is_kept(self, cache, monkeypatch):
        monkeypatch.setattr(os, "getuid", lambda: os.stat(cache).st_uid + 1)
        assert self.left_in(cache) == {_RING_PATH.name, self.STALE, self.PARTIAL, self.OTHER}

    def test_a_library_that_will_not_go_is_left(self, cache, monkeypatch):
        def refuse(path, missing_ok=False):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(Path, "unlink", refuse)
        assert self.left_in(cache) == {_RING_PATH.name, self.STALE, self.PARTIAL, self.OTHER}

    def test_a_cached_library_that_will_not_load_is_built_again(self, cache):
        # Garbage under the library's name, as a cut-short file would leave.
        (cache / _RING_PATH.name).write_bytes(b"not a shared library")
        code = IMPORT.replace("print(b._RING_PATH)", "print(b._RING_PATH, b._RING_BUILT)")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == [str(cache / _RING_PATH.name), "True"]
        assert (cache / _RING_PATH.name).read_bytes() == _RING_PATH.read_bytes()

    def test_no_compiler_raises_an_import_error_naming_it(self, tmp_path):
        (tmp_path / "bin").mkdir()
        child = import_propagator(tmp_path, PATH=str(tmp_path / "bin"))
        _, err = child.communicate()
        assert child.returncode != 0
        assert "ImportError: cannot build the Chebyshev ring step: `cc -O3" in err
        assert not any((tmp_path / "cache" / "entspread").iterdir())


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc here")
def test_the_source_compiles_without_a_warning():
    source = str(ROOT / "src" / "entspread" / "_ring.c")
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-Werror", "-ffp-contract=off", "-fno-math-errno"]
    child = subprocess.run(["cc", *flags, source], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    # A compiler without 128-bit integers stops at a message naming them.
    child = subprocess.run(["cc", *flags, "-U__SIZEOF_INT128__", source], capture_output=True, text=True)
    assert child.returncode != 0 and "unsigned __int128" in child.stderr


def pass_bytes(library: ctypes.CDLL) -> dict[str, bytes]:
    """What the arithmetic passes of `library` write on fixed inputs, by pass name.

    Each pass is called with the argument types the package binds it with.
    """
    def bound(name: str):
        function = getattr(library, name)
        function.argtypes, function.restype = getattr(entspread.bessel._LIBRARY, name).argtypes, None
        return function

    out = {}
    diag2, off2 = operator(302, seed=7)
    ring = random_ring(8, 301, seed=7)
    ring[-1] = 0.0
    bound("ring_steps")(ring.ctypes.data, ring.strides[0] // 16, diag2.ctypes.data, off2.ctypes.data, 301, 8, 1, 20)
    out["ring_steps"] = ring.tobytes()
    rows, ring, coeffs = flush_case(9, 37, 8, 16, seed=7)
    need = np.sort(np.random.default_rng(7).integers(1, 18, 9))
    for done in (0, 8):
        bound("ring_flush")(rows.ctypes.data, rows.strides[0] // 16, 9, 37, ring.ctypes.data, ring.strides[0] // 16, 8,
                            coeffs.ctypes.data, coeffs.strides[0] // 8, need.ctypes.data, done, done + 7)
    out["ring_flush"] = rows.tobytes()
    rows = tapered_rows(6, 129, seed=7)
    counts = np.empty((2, 6), dtype=np.int64)
    bound("edge_counts")(rows.ctypes.data, rows.strides[0] // 16, 6, 129, 2.5e-33, counts.ctypes.data)
    out["edge_counts"] = counts.tobytes()
    rows = strided_rows(4, 129, seed=7)
    phases = np.exp(1j * np.random.default_rng(7).uniform(0.0, 7.0, 4))
    bound("phase_rows")(rows.ctypes.data, rows.strides[0] // 16, 4, 129, phases.ctypes.data)
    out["phase_rows"] = rows.tobytes()
    rows = strided_rows(5, 2167, seed=7)
    sums = np.empty((4, 5))
    bound("moment_sums")(rows.ctypes.data, rows.strides[0] // 16, 5, 2167, -1000, 900, 1101, sums.ctypes.data)
    out["moment_sums"] = sums.tobytes()
    args = np.linspace(0.1, 300.0, 37)
    bessel = np.empty((37, 401))
    bound("miller_rows")(args.ctypes.data, 37, 400, miller_start_order(400, 300.0), bessel.ctypes.data)
    out["miller_rows"] = bessel.tobytes()
    return out


@pytest.mark.skipif(shutil.which("cc") is None or platform.machine() != "x86_64", reason="needs cc on x86-64")
def test_a_baseline_only_build_rounds_as_the_loaded_library(tmp_path):
    # Each pass has one arithmetic whatever clone runs it: the source with
    # its x86-64 blocks disabled builds the baseline code alone, clones and
    # flush tiles alike, and must give the bytes of the library this process
    # loaded, which runs the clone for this CPU.
    source = (ROOT / "src" / "entspread" / "_ring.c").read_text()
    assert source.count("#if defined(__x86_64__)") >= 2
    copy = tmp_path / "_ring.c"
    copy.write_text(source.replace("#if defined(__x86_64__)", "#if 0"))
    library = tmp_path / "baseline.so"
    command = ["cc", *_RING_FLAGS, "-o", str(library), str(copy), *_RING_LIBS]
    child = subprocess.run(command, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    baseline = ctypes.CDLL(str(library))
    assert not hasattr(baseline, "flush_v4")
    expected, got = pass_bytes(entspread.bessel._LIBRARY), pass_bytes(baseline)
    assert list(got) == ["ring_steps", "ring_flush", "edge_counts", "phase_rows", "moment_sums", "miller_rows"]
    assert {name: got[name] == expected[name] for name in got} == dict.fromkeys(got, True)
