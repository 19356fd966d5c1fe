from pathlib import Path

import numpy as np
import pytest

from entspread.propagator import _RING_PATH, WaveState, _numpy_fuses


def random_unit_state(rng, n, origin=None):
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    if origin is None:
        origin = n // 2
    return WaveState(amplitudes=amps, time=0.0, origin=origin)


def pytest_report_header(config):
    # The compiled passes copy numpy's complex product and absolute, fused
    # or not as numpy's loops are here; a byte-test failure reads against this.
    product, lone_product, absolute = _numpy_fuses()
    return [f"entspread ring library: {_RING_PATH}",
            f"numpy FMA: complex product {product} (one element in place {lone_product}), "
            f"complex absolute {absolute}"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


REPO_ROOT = Path(__file__).resolve().parent.parent


def _visible_entries(directory: Path) -> set[str]:
    return {p.name for p in directory.iterdir() if not p.name.startswith(".")}


@pytest.fixture(scope="session", autouse=True)
def checkout_left_as_found():
    """Fail the run if a test leaves a new file or directory in the repository root."""
    before = _visible_entries(REPO_ROOT)
    yield
    left = sorted(_visible_entries(REPO_ROOT) - before)
    if left:
        pytest.fail(f"tests left {left} in {REPO_ROOT}; write them under tmp_path")
