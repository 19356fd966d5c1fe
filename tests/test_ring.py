"""The compiled Chebyshev ring step: its bytes against the numpy step, and how its library is built.

`ring_steps` must reproduce the numpy step of `oracles.ring_steps_numpy` bit
for bit, so that every CSV keeps its bytes.  The build tests import the
propagator in fresh interpreters whose cache is a temp directory.
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
from entspread.propagator import _Kernel, _ring_steps

from oracles import ring_steps_numpy

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
