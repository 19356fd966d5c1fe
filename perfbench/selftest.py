"""Self-tests of the benchmark: its output checks reject corrupt outputs, and
the traced path writes what the untraced one writes.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own test run.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import check_manifest, check_ordered, check_reference, check_series, check_sweep  # noqa: E402
from entspread.analysis import MomentSeries  # noqa: E402
from entspread.cli import run_analytic, run_simulate, run_verify  # noqa: E402
from entspread.config import config_from_dict, config_to_dict  # noqa: E402
from entspread.seriesio import read_series_csv, write_series_csv  # noqa: E402
from tracing import Tracer, self_times, traced_pass  # noqa: E402
from workloads import DEFAULT_SEED, make_config  # noqa: E402


def short_config(workload: str, t_start: float, t_end: float, num_samples: int):
    raw = make_config(workload, DEFAULT_SEED)
    raw["times"].update(t_start=t_start, t_end=t_end, num_samples=num_samples)
    return config_from_dict(raw)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """A short desk realization through run_simulate: (config, directory, manifest)."""
    config = short_config("desk_serial", 0.0, 5.0, 21)
    out = tmp_path_factory.mktemp("desk")
    return config, out, run_simulate(config, out, jobs=1)


@pytest.fixture(scope="module")
def ordered_csv(tmp_path_factory):
    config = short_config("ordered_pipeline", 0.25, 40.0, 160)
    out = tmp_path_factory.mktemp("ordered")
    return out / run_analytic(config, out)["realizations"][0]["csv"]


def with_row(series: MomentSeries, k: int, **changes) -> MomentSeries:
    samples = list(series.samples)
    samples[k] = dataclasses.replace(samples[k], **changes)
    return MomentSeries(samples=tuple(samples), spec_digest=series.spec_digest)


def test_traced_desk_writes_the_run_simulate_csv(desk, tmp_path):
    config, out, manifest = desk
    tracer = Tracer()
    tracer.pass_id = 0
    traced = traced_pass("desk_serial", config, config_to_dict(config), tmp_path, tracer)
    untraced = out / manifest["realizations"][0]["csv"]
    assert traced.csv_paths[0].read_bytes() == untraced.read_bytes()
    names = {s["name"] for s in tracer.spans}
    assert {"chain.build", "propagator.step", "bessel.row", "observables.moment", "seriesio.write"} <= names


def test_clean_outputs_pass(desk, ordered_csv):
    config, out, manifest = desk
    assert check_series(read_series_csv(out / manifest["realizations"][0]["csv"]), "desk") == []
    assert check_manifest(manifest, out, 1) == []
    assert check_ordered(run_verify(csv_path=ordered_csv), 2.0) == []


def test_perturbed_m_row_is_rejected(desk):
    config, out, manifest = desk
    series = read_series_csv(out / manifest["realizations"][0]["csv"])
    bad = with_row(series, 10, m=series.samples[10].m * (1.0 + 1e-9))
    assert len(check_series(bad, "desk")) == 2  # both identities break


def test_norm_error_is_rejected(desk):
    config, out, manifest = desk
    series = read_series_csv(out / manifest["realizations"][0]["csv"])
    errors = check_series(with_row(series, 5, norm_error=1e-6), "desk")
    assert len(errors) == 1 and "norm_error" in errors[0]


def test_csv_that_differs_from_its_manifest_is_rejected(desk, tmp_path):
    config, out, manifest = desk
    series = read_series_csv(out / manifest["realizations"][0]["csv"])
    write_series_csv(tmp_path / manifest["realizations"][0]["csv"], with_row(series, 3, w=series.samples[3].w * 2))
    assert check_manifest(manifest, tmp_path, 1) != []
    assert check_manifest(manifest, out, 2) != []


def test_failing_verify_report_is_rejected(ordered_csv, tmp_path):
    series = read_series_csv(ordered_csv)
    corrupt = tmp_path / "series_analytic.csv"
    write_series_csv(corrupt, with_row(series, 100, w=0.0))
    report = run_verify(csv_path=corrupt)
    assert not report["passed"]
    assert check_ordered(report, 2.0) != []
    assert check_ordered(run_verify(csv_path=ordered_csv), 2.5) != []


def test_sweep_failure_is_rejected():
    assert check_sweep({"failures": [], "ensemble": {"count": 2}}, 2) == []
    assert check_sweep({"failures": [{"index": 1, "error": "x"}], "ensemble": {"count": 1}}, 2) != []


def test_reference_is_compared_with_a_tolerance():
    ref = {"0": {"checkpoints": {"100.0": {"m": 2714.0, "w": 2833.7}}, "exponent": 2.549}}
    near = {"0": {"checkpoints": {"100.0": {"m": 2714.0 * (1 + 1e-12), "w": 2833.7}}, "exponent": 2.549}}
    far = {"0": {"checkpoints": {"100.0": {"m": 2714.0 * (1 + 1e-6), "w": 2833.7}}, "exponent": 2.549}}
    assert check_reference(near, ref) == []
    assert len(check_reference(far, ref)) == 1
    assert check_reference({}, ref) != []
    assert check_reference(near, None) != []


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 0, "name": "a", "parent": None, "pid": 1, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "pid": 1, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "c", "parent": 1, "pid": 1, "start": 2.0, "end": 3.0},
        {"id": 0, "name": "a", "parent": None, "pid": 2, "start": 0.0, "end": 2.0},
    ]
    assert self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0, 3: 2.0}
