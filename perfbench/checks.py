"""Output checks: any message returned here fails the pass and counts toward error_rate.

Every check returns a list of failure messages; an empty list is a pass.
Reference values are compared with a relative tolerance, not byte for byte,
so a propagator that changes the last bits of the series still passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from entspread.cli import fit_series
from entspread.seriesio import read_series_csv
from workloads import DEFAULT_SEED, FIT_WINDOW_DISORDERED, SWEEP_REALIZATIONS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

NORM_ERROR_MAX = 1e-10
# Relative slack for the row identities, which hold to the last few bits.
IDENTITY_RTOL = 1e-12
# Relative slack for the committed reference rows and exponents at the default
# seed; far above the ~1e-13 a reordered Chebyshev sum moves them.
REFERENCE_RTOL = 1e-8
REFERENCE_COLUMNS = ("m", "w", "alpha0_abs", "m_o", "m_d")
CHECKPOINT_TIMES = (100.0, 250.0, 500.0, 1000.0)
# Criterion 08: the ordered chain spreads ballistically.
ORDERED_EXPONENT_BAND = (1.9, 2.1)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def check_series(series, label: str) -> list[str]:
    """Unitarity and the two row identities of a numeric moment series."""
    errors = []
    norm = series.column("norm_error")
    if not np.all(norm <= NORM_ERROR_MAX):
        errors.append(f"{label}: max norm_error {float(np.max(norm)):.3g} > {NORM_ERROR_MAX:g}")
    m, w, a0 = series.column("m"), series.column("w"), series.column("alpha0_abs")
    m_o, m_d = series.column("m_o"), series.column("m_d")
    for name, rhs in (("m_o + m_d", m_o + m_d), ("2*alpha0_abs*w", 2.0 * a0 * w)):
        slack = IDENTITY_RTOL * np.maximum(np.abs(m), np.abs(rhs))
        bad = np.flatnonzero(~(np.abs(m - rhs) <= slack))
        if bad.size:
            k = int(bad[0])
            errors.append(f"{label}: m != {name} in {bad.size} row(s), first at t={series.times()[k]:g}")
    return errors


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_manifest(manifest: dict, out_dir: Path, expected: int) -> list[str]:
    """Every manifest record names a CSV on disk whose sha256 matches."""
    records = manifest["realizations"]
    errors = [] if len(records) == expected else [f"manifest lists {len(records)} realizations, expected {expected}"]
    for record in records:
        path = Path(out_dir) / record["csv"]
        if not path.is_file():
            errors.append(f"{record['csv']}: missing")
        elif sha256(path) != record["sha256"]:
            errors.append(f"{record['csv']}: sha256 differs from the manifest")
    return errors


def check_sweep(aggregate: dict, expected: int) -> list[str]:
    errors = [f"sweep failure {f}" for f in aggregate["failures"]]
    if aggregate["ensemble"]["count"] != expected:
        errors.append(f"sweep fitted {aggregate['ensemble']['count']} realizations, expected {expected}")
    return errors


def check_ordered(verify: dict, exponent: float) -> list[str]:
    """The bound/identity/unitarity report passes and the exponent is ballistic."""
    errors = [] if verify["passed"] else [f"verify report failed: {json.dumps(verify['bounds'])}"]
    lo, hi = ORDERED_EXPONENT_BAND
    if not lo <= exponent <= hi:
        errors.append(f"ordered exponent {exponent:.6f} outside [{lo}, {hi}]")
    return errors


def fitted_exponent(series) -> float:
    return float(fit_series(series, FIT_WINDOW_DISORDERED)["exponent"])


def observed_reference(series_by_index: dict, exponents: dict) -> dict:
    """Checkpoint rows and exponents in the form reference.json stores them."""
    out = {}
    for index, series in sorted(series_by_index.items()):
        times = series.times()
        rows = {}
        for t in CHECKPOINT_TIMES:
            k = int(np.argmin(np.abs(times - t)))
            if times[k] == t:
                rows[repr(t)] = {c: float(series.column(c)[k]) for c in REFERENCE_COLUMNS}
        out[str(index)] = {"checkpoints": rows, "exponent": float(exponents[index])}
    return out


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


def check_reference(observed: dict, reference: dict | None) -> list[str]:
    """Observed checkpoint rows and exponents against the committed ones."""
    if reference is None:
        return ["no reference values committed for this workload"]
    errors = []
    for index, ref in reference.items():
        got = observed.get(index)
        if got is None:
            errors.append(f"realization {index}: not produced")
            continue
        for t, row in ref["checkpoints"].items():
            for col, value in row.items():
                have = got["checkpoints"].get(t, {}).get(col, math.nan)
                if not _close(have, value, REFERENCE_RTOL):
                    errors.append(f"realization {index} t={t} {col}: {have!r} vs reference {value!r}")
        if not _close(got["exponent"], ref["exponent"], REFERENCE_RTOL):
            errors.append(f"realization {index} exponent: {got['exponent']!r} vs reference {ref['exponent']!r}")
    return errors


def check_pass(workload: str, seed: int, output) -> tuple[list[str], int, dict | None]:
    """All checks of one pass: (failures, checked series rows, observed reference values).

    The observed reference values are returned at the default seed only,
    where they are also compared with reference.json.
    """
    expected = SWEEP_REALIZATIONS if workload == "budget_sweep" else 1
    # A traced pass drives the layers itself and has no program manifest.
    errors = [] if output.manifest is None else check_manifest(output.manifest, output.out_dir, expected)
    if workload == "ordered_pipeline":
        errors += check_ordered(output.verify, output.exponents[0])
        return errors, output.verify["bounds"]["samples"], None
    if output.aggregate is not None:
        errors += check_sweep(output.aggregate, expected)
    series_by_index, rows = {}, 0
    for index, path in output.csv_paths.items():
        series = read_series_csv(path)
        errors += check_series(series, path.name)
        series_by_index[index] = series
        rows += len(series)
    if len(series_by_index) != expected:
        errors.append(f"{len(series_by_index)} series produced, expected {expected}")
    if seed != DEFAULT_SEED:
        return errors, rows, None
    exponents = dict(output.exponents)
    for index, series in series_by_index.items():
        exponents.setdefault(index, fitted_exponent(series))
    observed = observed_reference(series_by_index, exponents)
    return errors + check_reference(observed, load_reference(workload)), rows, observed
