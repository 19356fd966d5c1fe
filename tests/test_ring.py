"""The compiled passes of `_ring.c`: their bytes against numpy, and how their library is built.

`ring_steps` must reproduce the numpy step of `oracles.ring_steps_numpy` bit
for bit, and the block passes (the trim's edge search, the phase and the
moment sums) `oracles.edge_count_numpy`, numpy's `rows *= phases[:, None]`
and `oracles.moment_rows_numpy`, so that every CSV keeps its bytes.  The
build tests, and the check of numpy's unfused loops, run fresh interpreters.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspread.chain import Hamiltonian
from entspread.observables import moment_m, moment_rows
from entspread.propagator import (
    Block,
    WaveState,
    _edge_counts,
    _Kernel,
    _moment_sums,
    _numpy_fuses,
    _phase_rows,
    _ring_steps,
)

from oracles import edge_count_numpy, moment_rows_numpy, ring_steps_numpy

ROOT = Path(__file__).resolve().parents[1]


def operator(num_sites: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """-2i Hs of a random chain, as the propagator's kernel sets it up."""
    rng = np.random.default_rng(seed)
    kernel = _Kernel(Hamiltonian(diag=rng.uniform(-2.5, 2.5, num_sites), offdiag=rng.uniform(0.2, 1.5, num_sites - 1)))
    return kernel.diag2, kernel.off2


def random_ring(slots: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(slots, width)) + 1j * rng.normal(size=(slots, width))


def compiled(ring: np.ndarray, diag2: np.ndarray, off2: np.ndarray, first: int, last: int) -> None:
    _ring_steps(ring.ctypes.data, diag2.ctypes.data, off2.ctypes.data, ring.shape[1], len(ring), first, last)


def assert_same_bytes(ring, diag2, off2, first, last):
    expected, got = ring.copy(), ring.copy()
    ring_steps_numpy(expected, diag2, off2, first, last)
    compiled(got, diag2, off2, first, last)
    assert got.tobytes() == expected.tobytes()


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
            ring_steps_numpy(ring, diag2, off2, max(done, 1), done + slots - 1)

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

    @pytest.mark.parametrize("start, stop, slots", [(0, 14, 3), (-1, 5, 3), (4, 4, 3), (0, 13, 2)])
    def test_expand_rejects_a_window_the_step_would_overrun(self, start, stop, slots):
        kernel = _Kernel(Hamiltonian(diag=np.linspace(0.0, 1.0, 13), offdiag=np.ones(12)))
        coeffs, need, _ = kernel._coefficients(np.array([1.0]))
        with pytest.raises(ValueError, match="ring slots"):
            kernel._expand(np.ones(1, dtype=complex), 0, start, stop, coeffs, need, slots)

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 300), slots=st.integers(3, 8), first=st.integers(1, 20),
           count=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_numpy_step_on_random_chains(self, width, slots, first, count, seed):
        diag2, off2 = operator(width + 1, seed)
        assert_same_bytes(random_ring(slots, width, seed), diag2[:width], off2[: width - 1], first,
                          first + count - 1)


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


class TestBlockPasses:
    @pytest.mark.parametrize("core", list(CORES))
    @pytest.mark.parametrize("width", WIDTHS)
    def test_moment_rows_match_numpy(self, width, core):
        block = block_of(strided_rows(5, width, seed=width))
        origin, half_width = CORES[core](width)
        expected = moment_rows_numpy(block, origin, half_width)
        assert moment_rows(block, origin, half_width).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_phase_matches_numpy(self, width, count):
        # numpy multiplies one row of one site with its unfused scalar loop.
        rows = strided_rows(count, width, seed=width)
        phases = np.exp(1j * np.random.default_rng(width).uniform(0.0, 7.0, count))
        expected = rows.copy()
        expected *= phases[:, None]
        _phase_rows(rows, phases)
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rim", [1, 8])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_edge_counts_match_numpy(self, width, rim):
        rows = tapered_rows(6, width, seed=width)
        rows[0] = 0.0  # a row within the budget everywhere
        for budget in (0.0, 2.5e-33, 1e-20):
            expected = edge_count_numpy(rows, budget, rim)
            assert _edge_counts(rows, budget).tobytes() == expected.tobytes()

    def test_the_rows_tell_numpy_sums_from_near_misses(self):
        # A sequential sum, or |a| without numpy's FMA where it uses one,
        # gives other bytes on these rows, so the tests above can see them.
        rows = strided_rows(5, 2167, seed=2167)
        magnitudes = np.abs(rows)
        assert not np.array_equal(np.add.reduce(magnitudes, axis=1), np.cumsum(magnitudes, axis=1)[:, -1])
        larger = np.maximum(np.abs(rows.real), np.abs(rows.imag))
        ratio = np.minimum(np.abs(rows.real), np.abs(rows.imag)) / larger
        assert _numpy_fuses()[2] != np.array_equal(magnitudes, np.sqrt(ratio * ratio + 1.0) * larger)

    def test_non_finite_amplitudes_stay_non_finite(self):
        rows = strided_rows(4, 40, seed=3)
        rows[0, 5], rows[1, 7], rows[2, 9], rows[3, 11] = np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf), 0.0
        block = block_of(rows)
        expected = moment_rows_numpy(block, 110, 3)
        assert np.array_equal(moment_rows(block, 110, 3), expected, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 5), width=st.integers(1, 300), origin=st.integers(-50, 450),
           half_width=st.integers(0, 320), seed=st.integers(0, 2**32 - 1))
    def test_passes_match_numpy_on_random_rows(self, count, width, origin, half_width, seed):
        block = block_of(strided_rows(count, width, seed))
        expected = moment_rows_numpy(block, origin, half_width)
        assert moment_rows(block, origin, half_width).tobytes() == expected.tobytes()
        phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 7.0, count))
        phased = block.amplitudes.copy()
        phased *= phases[:, None]
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
        w_and_norm = moment_rows_numpy(exact, 120, 5)[:, [0, 2, 6]]
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
from entspread.propagator import _numpy_fuses, _phase_rows
from test_ring import block_of, strided_rows
from oracles import moment_rows_numpy
assert not any(_numpy_fuses())
block = block_of(strided_rows(4, 2167, seed=5))
assert moment_rows(block, 1183, 50).tobytes() == moment_rows_numpy(block, 1183, 50).tobytes()
phases = np.exp(1j * np.random.default_rng(5).uniform(0.0, 7.0, 4))
expected = block.amplitudes.copy()
expected *= phases[:, None]
_phase_rows(block.amplitudes, phases)
assert block.amplitudes.tobytes() == expected.tobytes()
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


IMPORT = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import entspread.propagator as p; print(p._RING_PATH)"


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

    def test_no_compiler_raises_an_import_error_naming_it(self, tmp_path):
        (tmp_path / "bin").mkdir()
        child = import_propagator(tmp_path, PATH=str(tmp_path / "bin"))
        _, err = child.communicate()
        assert child.returncode != 0
        assert "ImportError: cannot build the Chebyshev ring step: `cc -O3" in err
        assert not any((tmp_path / "cache" / "entspread").iterdir())
