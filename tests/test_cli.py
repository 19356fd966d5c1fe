import concurrent.futures
import csv
import ctypes
import io
import json
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg._fblas
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import entspread.cli
from entspread.analysis import MomentSeries
from entspread.bessel import bessel_row
from entspread.chain import build_hamiltonian
from entspread.cli import (
    BoundaryBudgetError,
    analytic_series,
    fit_series,
    main,
    run_analytic,
    run_fit,
    run_simulate,
    run_sweep,
    run_verify,
    simulate_realization,
)
from entspread.config import SCHEMA_VERSION, config_from_dict, load_config
from entspread.observables import MOMENT_COLUMNS, MomentSample, moment_m
from entspread.propagator import evolve_blocks, evolve_series
from entspread.seriesio import ANALYTIC_EXTRA_COLUMNS, read_series_csv, write_series_csv

GOLDEN_HEADER = "time,m,w,alpha0_abs,m_o,m_d,norm_error"
GOLDEN_ANALYTIC_HEADER = GOLDEN_HEADER + ",w_lower_bound,w_upper_bound,w_asymptote,m_asymptote"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ORDERED_ANALYTIC, DESK = CONFIGS / "ordered_analytic.json", CONFIGS / "fig1_desk.json"


def make_config(**tweaks):
    raw = {
        "schema_version": SCHEMA_VERSION,
        "chain": {"num_sites": 201, "disorder": {"half_width": 3, "low": 0.0, "high": 2.5}},
        "times": {"t_start": 0.0, "t_end": 20.0, "num_samples": 41},
        "ensemble": {"num_realizations": 2, "base_seed": 7},
        "outputs": {"directory": "unused", "formats": ["csv", "json"]},
    }
    for key, value in tweaks.items():
        raw[key] = value
    return raw


def openblas():
    """scipy's bundled OpenBLAS, or None when scipy links another BLAS."""
    lib = ctypes.CDLL(scipy.linalg._fblas.__file__)
    return lib if hasattr(lib, "scipy_openblas_get_num_threads") else None


def report_blas_threads(config, realization_index, out_dir):
    """Stands in for the simulate worker: the manifest record of the BLAS threads it got."""
    return {"index": realization_index, "blas_threads": openblas().scipy_openblas_get_num_threads()}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def synthetic_power_law_csv(path, prefactor=3.0, exponent=2.5):
    times = np.linspace(1.0, 100.0, 2000)
    m = prefactor * times**exponent
    samples = tuple(
        MomentSample(float(t), float(v), float(v), 0.5, float(v), 0.0, 0.0)
        for t, v in zip(times, m)
    )
    write_series_csv(path, MomentSeries(samples=samples))


# Cells that stress a 17-digit rendering: signed zeros, subnormals, the
# extremes of the exponent range and values that need all 17 digits.
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e-300, -1e300, 1.7976931348623157e308,
               0.1, 1.0 / 3.0, 2.0**0.5, 1.0000000000000002, 0.30000000000000004)
CELLS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def csv_tables(draw):
    """A series table of 0-50 rows, and its analytic extras or None."""
    n = draw(st.integers(0, 50))
    time_cells = st.one_of(st.sampled_from(EDGE_FLOATS[:5]), st.floats(-1e300, 1e300))
    times = np.sort(draw(arrays(float, n, elements=time_cells)))
    # Each repeat moves up to the next float above the time before it, so
    # the times ascend with no draw rejected; the moved ones are neighbours
    # that need all 17 digits.
    for i in range(1, n):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    width = len(MOMENT_COLUMNS) - 1 + (len(ANALYTIC_EXTRA_COLUMNS) if draw(st.booleans()) else 0)
    table = np.column_stack((times, draw(arrays(float, (n, width), elements=CELLS))))
    extras = table[:, len(MOMENT_COLUMNS):]
    return table[:, : len(MOMENT_COLUMNS)], dict(zip(ANALYTIC_EXTRA_COLUMNS, extras.T)) or None


def reference_csv_bytes(table, header):
    """The CSV as csv.writer renders format(x, ".17g") of every cell."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([format(x, ".17g") for x in row] for row in table.tolist())
    return text.getvalue().encode()


class TestSeriesIO:
    @settings(max_examples=150, deadline=None)
    @given(csv_tables())
    def test_bytes_match_the_csv_module_rendering(self, tmp_path_factory, table_and_extras):
        table, extras = table_and_extras
        path = tmp_path_factory.mktemp("csv") / "series.csv"
        write_series_csv(path, MomentSeries.from_table(table), extras)
        header = [*MOMENT_COLUMNS, *(extras or ())]
        full = np.column_stack((table, *(extras or {}).values()))
        assert path.read_bytes() == reference_csv_bytes(full, header)
        assert np.array_equal(read_series_csv(path).table, table)

    def test_golden_header(self, tmp_path):
        path = tmp_path / "series.csv"
        samples = (MomentSample(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),)
        write_series_csv(path, MomentSeries(samples=samples))
        assert path.read_text().splitlines()[0] == GOLDEN_HEADER

    def test_round_trip_is_exact(self, tmp_path, rng):
        samples = tuple(
            MomentSample(float(t), rng.random(), rng.random() * 1e8, rng.random(),
                         rng.random(), rng.random(), rng.random() * 1e-9)
            for t in range(20)
        )
        path = tmp_path / "series.csv"
        write_series_csv(path, MomentSeries(samples=samples))
        back = read_series_csv(path)
        for a, b in zip(samples, back.samples):
            assert a == b

    def test_extra_column_of_another_length_rejected(self, tmp_path):
        table = np.zeros((3, len(MOMENT_COLUMNS)))
        table[:, 0] = [0.0, 1.0, 2.0]
        series = MomentSeries.from_table(table)
        path = tmp_path / "series.csv"
        with pytest.raises(ValueError, match="extra column 'w_lower_bound' has 2 rows, series has 3"):
            write_series_csv(path, series, {"w_lower_bound": np.zeros(2)})
        assert not path.exists()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty CSV")):
            read_series_csv(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,m\n0.0,0.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_series_csv(path)

    @pytest.mark.parametrize("bad_row", ["3.0,1.0,1.0", "3.0,1.0,x,0.5,1.0,0.0,0.0",
                                         "3.0,1.0,1.0,0.5,1.0,0.0,0.0,9.0"])
    def test_ragged_or_non_numeric_row_rejected(self, tmp_path, bad_row):
        path = tmp_path / "ragged.csv"
        synthetic_power_law_csv(path)
        lines = path.read_text().splitlines()
        lines[2] = bad_row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3")):
            read_series_csv(path)
        result = CliRunner().invoke(main, ["fit", str(path), "--window", "10:100"])
        assert result.exit_code == 2, result.output
        assert "line 3" in result.output


@st.composite
def small_configs(draw):
    """A short run on a small chain: any core half-width, t_start = 0 or later.

    A grid of one sample ends where it starts.
    """
    num_sites = 2 * draw(st.integers(1, 60)) + 1
    half_width = draw(st.integers(0, (num_sites - 1) // 2))
    t_start = 0.0 if draw(st.booleans()) else draw(st.floats(0.01, 3.0))
    num_samples = draw(st.integers(1, 60))
    span = draw(st.floats(0.5, 20.0)) if num_samples > 1 else 0.0
    return config_from_dict(make_config(
        chain={"num_sites": num_sites, "disorder": {"half_width": half_width, "low": 0.0, "high": 2.5}},
        times={"t_start": t_start, "t_end": t_start + span, "num_samples": num_samples},
        ensemble={"num_realizations": 1, "base_seed": draw(st.integers(0, 2**32))},
    ))


class TestSimulate:
    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    @example(config_from_dict(make_config(
        chain={"num_sites": 13, "disorder": {"half_width": 3, "low": 0.0, "high": 2.5}},
        times={"t_start": 0.0, "t_end": 1.875, "num_samples": 2},
        ensemble={"num_realizations": 1, "base_seed": 7},
    )))
    def test_table_is_the_per_state_table(self, config):
        # Bit for bit, not approximately: the block-level moments of the
        # simulate path against moment_m over evolve_series states.
        half_width = config.chain.disorder.half_width
        h = build_hamiltonian(config.chain, 0)
        states = evolve_series(h, config.chain.origin, config.times.grid(), half_width)
        expected = np.array([astuple(moment_m(state, half_width)) for state in states])
        assert np.array_equal(simulate_realization(config, 0)[0].table, expected)

    def test_manifest_stats_count_the_kernel_work(self, tmp_path):
        # Desk realization 0: the kernel's own counts, not K x num_sites per gap.
        raw = json.loads(DESK.read_text())
        raw["ensemble"]["num_realizations"] = 1
        stats = run_simulate(config_from_dict(raw), tmp_path)["realizations"][0]["stats"]
        assert stats.pop("max_norm_error") <= 1e-12
        assert all(stats.pop(key) >= 0.0 for key in ("propagate_s", "observe_s", "write_s"))
        assert stats == {
            "blocks": 167, "matvecs": 9845, "site_updates": 21568232,
            "min_block_order": 58, "max_block_order": 59, "final_support_width": 4078,
            "max_edge_amplitude": 0.0,
        }

    def test_desk_first_block_holds_t_zero_and_twenty_four_samples(self):
        config = load_config(DESK)
        grid, origin = config.times.grid(), config.chain.origin
        block = next(evolve_blocks(build_hamiltonian(config.chain, 0), origin, grid, 50))
        assert np.array_equal(block.times, grid[:25]) and block.order == 59
        seed = np.zeros(block.width, dtype=complex)
        seed[origin - block.start] = 1.0
        assert np.array_equal(block.amplitudes[0], seed)

    def test_zero_only_grid_is_one_block_of_order_zero(self):
        # The kernel makes the t = 0 sample too, so it is counted as a block.
        config = config_from_dict(make_config(times={"t_start": 0.0, "t_end": 0.0, "num_samples": 1}))
        h, origin = build_hamiltonian(config.chain, 0), config.chain.origin
        (block,) = evolve_blocks(h, origin, config.times.grid(), 3)
        assert block.order == 0 and block.start == origin and block.width == 1
        series, stats = simulate_realization(config, 0)
        assert series.table.tolist() == [[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]
        assert not np.any(np.signbit(series.table))
        assert stats.pop("propagate_s") >= 0.0 and stats.pop("observe_s") >= 0.0
        assert stats == {
            "blocks": 1, "matvecs": 0, "site_updates": 0, "min_block_order": 0,
            "max_block_order": 0, "max_norm_error": 0.0, "final_support_width": 1,
            "max_edge_amplitude": 0.0,
        }

    def test_ordered_matches_analytic(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 4001},
            times={"t_start": 0.0, "t_end": 100.0, "num_samples": 11},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        config = config_from_dict(raw)
        run_simulate(config, tmp_path / "sim")
        run_analytic(config, tmp_path / "ana")
        sim = read_series_csv(tmp_path / "sim" / "series_r0000.csv")
        ana = read_series_csv(tmp_path / "ana" / "series_analytic.csv")
        for s, a in zip(sim.samples, ana.samples):
            if a.m == 0.0:
                assert abs(s.m) <= 1e-9
            else:
                assert abs(s.m - a.m) <= 1e-6 * max(abs(s.m), abs(a.m))

    def test_ordered_log_grid_matches_analytic(self):
        # A log grid puts many short blocks early and few long ones late.
        raw = make_config(
            chain={"num_sites": 401},
            times={"t_start": 0.01, "t_end": 60.0, "num_samples": 30, "spacing": "log"},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        config = config_from_dict(raw)
        numeric, _ = simulate_realization(config, 0)
        closed, _ = analytic_series(config)
        assert np.array_equal(numeric.times(), config.times.grid())
        for name in ("m", "w", "alpha0_abs"):
            np.testing.assert_allclose(numeric.column(name), closed.column(name), rtol=1e-12, atol=0.0)

    def test_single_time_zero_row(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 51},
            times={"t_start": 0.0, "t_end": 0.0, "num_samples": 1},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        run_simulate(config_from_dict(raw), tmp_path)
        series = read_series_csv(tmp_path / "series_r0000.csv")
        row = series.samples[0]
        assert (row.m, row.w, row.alpha0_abs) == (0.0, 0.0, 1.0)

    def test_reruns_byte_identical(self, tmp_path):
        config = config_from_dict(make_config())
        run_simulate(config, tmp_path / "a")
        run_simulate(config, tmp_path / "b")
        for name in ("series_r0000.csv", "series_r0001.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        config = config_from_dict(make_config())
        manifest = run_simulate(config, tmp_path)
        assert manifest["command"] == "simulate"
        assert len(manifest["realizations"]) == 2
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["config_digest"] == manifest["config_digest"]
        assert {r["index"] for r in on_disk["realizations"]} == {0, 1}

    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    def test_boundary_budget_enforced(self, tmp_path):
        raw = make_config(times={"t_start": 0.0, "t_end": 200.0, "num_samples": 11})
        with pytest.raises(BoundaryBudgetError):
            run_simulate(config_from_dict(raw), tmp_path)
        run_simulate(config_from_dict(raw), tmp_path, allow_reflections=True)

    @pytest.mark.filterwarnings("ignore::entspread.propagator.ReflectionBudgetWarning")
    def test_reflecting_run_reports_its_edge_amplitude(self, tmp_path):
        # The front of a 201-site chain reaches its ends by t = 50, and the
        # largest |a| on the 10 sites at either end says so; within the
        # budget (t = 20) the support stops short of them.
        raw = make_config(times={"t_start": 0.0, "t_end": 60.0, "num_samples": 61},
                          ensemble={"num_realizations": 1, "base_seed": 7})
        args = ["simulate", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, [*args, "--allow-reflections"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 1e-3 < manifest["realizations"][0]["stats"]["max_edge_amplitude"] < 1.0
        _, stats = simulate_realization(config_from_dict(make_config()), 0)
        assert stats["max_edge_amplitude"] == 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_failing_realization_keeps_the_others(self, tmp_path, monkeypatch, jobs):
        # Pool workers fork from this process, so they see the patch too.
        original = entspread.cli.build_hamiltonian

        def failing(chain, index):
            if index == 1:
                raise RuntimeError("no chain for realization 1")
            return original(chain, index)

        monkeypatch.setattr(entspread.cli, "build_hamiltonian", failing)
        config = config_from_dict(make_config(ensemble={"num_realizations": 3, "base_seed": 7}))
        manifest = run_simulate(config, tmp_path / "out", jobs=jobs)
        failure = {"index": 1, "error": "RuntimeError: no chain for realization 1"}
        assert manifest["failures"] == [failure]
        assert [record["index"] for record in manifest["realizations"]] == [0, 2]
        assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == ["series_r0000.csv", "series_r0002.csv"]
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["failures"] == [failure]
        run_simulate(config_from_dict(make_config()), tmp_path / "whole", jobs=jobs)
        assert (tmp_path / "out" / "series_r0000.csv").read_bytes() == (
            tmp_path / "whole" / "series_r0000.csv"
        ).read_bytes()
        path = write_config(tmp_path, make_config(ensemble={"num_realizations": 3, "base_seed": 7}))
        args = ["--config", str(path), "--jobs", str(jobs)]
        result = CliRunner().invoke(main, ["simulate", *args, "--out", str(tmp_path / "cli")])
        assert result.exit_code == 1, result.output
        assert "realization 1: RuntimeError: no chain for realization 1" in result.output
        assert json.loads((tmp_path / "cli" / "manifest.json").read_text())["failures"] == [failure]
        result = CliRunner().invoke(main, ["sweep", *args, "--out", str(tmp_path / "sweep"), "--window", "4:20"])
        assert result.exit_code == 0, result.output
        aggregate = json.loads((tmp_path / "sweep" / "aggregate.json").read_text())
        assert aggregate["failures"] == [failure]
        assert [entry["index"] for entry in aggregate["realizations"]] == [0, 2]

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, make_config())
        for out, extra in (("a", []), ("b", ["--seed", "123"])):
            args = ["simulate", "--config", str(path), "--out", str(tmp_path / out), *extra]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
        assert (tmp_path / "a" / "series_r0000.csv").read_bytes() != (
            tmp_path / "b" / "series_r0000.csv"
        ).read_bytes()
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"]["ensemble"]["base_seed"] == 123

    def test_parallel_jobs_match_serial(self, tmp_path, monkeypatch):
        # The pool forks all its workers at the first submit, so it must ask
        # for no more than there are realizations.
        workers = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(entspread.cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = config_from_dict(make_config())
        run_simulate(config, tmp_path / "serial", jobs=1)
        run_simulate(config, tmp_path / "par", jobs=4)
        assert workers == [2]
        for name in ("series_r0000.csv", "series_r0001.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "par" / name
            ).read_bytes()

    @pytest.mark.skipif(openblas() is None, reason="scipy does not bundle OpenBLAS")
    def test_pool_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        # Unset, the variable leaves OpenBLAS one thread per core, which
        # forked workers inherit; two threads stand in for a two-core host.
        lib = openblas()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setattr(entspread.cli, "_simulate_worker", report_blas_threads)
        before = lib.scipy_openblas_get_num_threads()
        lib.scipy_openblas_set_num_threads(2)
        try:
            manifest = run_simulate(config_from_dict(make_config()), tmp_path, jobs=2)
        finally:
            lib.scipy_openblas_set_num_threads(before)
        assert [r["blas_threads"] for r in manifest["realizations"]] == [1, 1]

    @pytest.mark.skipif(openblas() is None, reason="scipy does not bundle OpenBLAS")
    def test_serial_run_uses_one_blas_thread_and_restores_the_caller(self, tmp_path, monkeypatch):
        # The block products are too small for a second thread; a serial run
        # must not keep the caller's count while it works, nor change it after.
        lib = openblas()
        monkeypatch.setattr(entspread.cli, "_simulate_worker", report_blas_threads)
        before = lib.scipy_openblas_get_num_threads()
        lib.scipy_openblas_set_num_threads(2)
        try:
            manifest = run_simulate(config_from_dict(make_config()), tmp_path, jobs=1)
            after = lib.scipy_openblas_get_num_threads()
        finally:
            lib.scipy_openblas_set_num_threads(before)
        assert [r["blas_threads"] for r in manifest["realizations"]] == [1, 1]
        assert after == 2


class TestAnalytic:
    def test_extra_columns_and_lower_bound(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 201},
            times={"t_start": 0.0, "t_end": 5.0, "num_samples": 6},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        run_analytic(config_from_dict(raw), tmp_path)
        lines = (tmp_path / "series_analytic.csv").read_text().splitlines()
        assert lines[0] == GOLDEN_ANALYTIC_HEADER
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, (float(v) for v in line.split(","))))
            assert row["w_lower_bound"] == 2.0 * row["time"] ** 2

    def test_first_rows_match_frozen_values(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 201},
            times={"t_start": 0.0, "t_end": 1.0, "num_samples": 2},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        run_analytic(config_from_dict(raw), tmp_path)
        series = read_series_csv(tmp_path / "series_analytic.csv")
        assert series.samples[0].m == 0.0
        assert series.samples[1].w == pytest.approx(7.8439635000430841, abs=1e-9)
        assert series.samples[1].m == pytest.approx(3.5123821991601201, abs=1e-9)

    def test_bessel_rows_called_through_the_cli_attribute(self, monkeypatch):
        # perfbench's traced bessel.rows_s wraps entspread.cli.bessel_rows
        import entspread.cli

        calls = []
        original = entspread.cli.bessel_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(entspread.cli, "bessel_rows", counted)
        raw = make_config(
            chain={"num_sites": 201},
            times={"t_start": 0.0, "t_end": 5.0, "num_samples": 6},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        series, _ = analytic_series(config_from_dict(raw))
        assert len(calls) == 1 and len(series) == 6

    def test_late_rows_keep_the_airy_tail(self):
        # Past the front |x| = 2t, J_x(2t) trails an Airy tail that widens as
        # t^(1/3): cut 60 sites past the front, W lost 3.4e-9 of itself at
        # t = 450 and 3.3e-7 at t = 1000.  At t = 450 the closed form meets the
        # numeric run on a chain that holds the front; at t = 5, 60 and 1000,
        # W summed over one long row.  At t = 5 and 60 the cut, tail_order(2t),
        # lies only 46 and 79 sites past the front.
        raw = make_config(
            chain={"num_sites": 2001},
            times={"t_start": 0.0, "t_end": 450.0, "num_samples": 11},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        config = config_from_dict(raw)
        closed, _ = analytic_series(config)
        numeric, _ = simulate_realization(config, 0)
        np.testing.assert_allclose(closed.column("w"), numeric.column("w"), rtol=1e-13, atol=0.0)
        x = np.arange(2601, dtype=float)
        for t in (5.0, 60.0, 1000.0):
            raw["times"] = {"t_start": t, "t_end": t, "num_samples": 1}
            (w,) = analytic_series(config_from_dict(raw))[0].column("w")
            long_sum = 2.0 * (np.abs(bessel_row(2600, 2.0 * t)) @ (x * x))
            assert w == pytest.approx(long_sum, rel=1e-13, abs=0.0), t

    def test_rejects_disordered_config(self):
        config = config_from_dict(make_config())
        with pytest.raises(Exception, match="ordered"):
            analytic_series(config)

    def test_gamma_minus_one_matches_numeric(self):
        # flipping the hopping sign maps a_x to (-1)^x a_x, so every moment is unchanged
        raw = make_config(
            chain={"num_sites": 401, "gamma": -1.0},
            times={"t_start": 0.0, "t_end": 20.0, "num_samples": 11},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        config = config_from_dict(raw)
        closed, _ = analytic_series(config)
        numeric, _ = simulate_realization(config, 0)
        for name in ("m", "w", "alpha0_abs"):
            np.testing.assert_allclose(
                closed.column(name), numeric.column(name), rtol=1e-9, atol=1e-12
            )

    def test_core_split_matches_numeric(self):
        # An ordered chain with a core (L = 5, zero disorder): both paths
        # split m at |x| <= L, so m_d is the core's share, not zero.
        raw = make_config(
            chain={"num_sites": 201, "disorder": {"half_width": 5, "low": 0.0, "high": 0.0}},
            times={"t_start": 0.0, "t_end": 10.0, "num_samples": 11},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        config = config_from_dict(raw)
        closed, _ = analytic_series(config)
        numeric, _ = simulate_realization(config, 0)
        assert closed.column("m_d")[-1] > 1.0
        for name in ("m", "w", "alpha0_abs", "m_o", "m_d"):
            np.testing.assert_allclose(
                closed.column(name), numeric.column(name), rtol=1e-9, atol=1e-12
            )


class TestFit:
    def test_exact_power_law_report(self, tmp_path):
        # averaging disabled: a pure power law is already smooth and the
        # window's curvature bias would shift the exponent at small t
        path = tmp_path / "synthetic.csv"
        synthetic_power_law_csv(path)
        report = run_fit([path], window=(2.0, 95.0), average_window=0.0)
        entry = report["realizations"][0]
        assert entry["exponent"] == pytest.approx(2.5, abs=1e-6)
        assert entry["prefactor"] == pytest.approx(3.0, rel=1e-4)
        assert report["ensemble"]["median_exponent"] == pytest.approx(2.5, abs=1e-6)

    def test_ensemble_median(self, tmp_path):
        paths = []
        for k, expo in enumerate((2.0, 2.5, 3.0)):
            path = tmp_path / f"s{k}.csv"
            synthetic_power_law_csv(path, exponent=expo)
            paths.append(path)
        report = run_fit(paths, window=(2.0, 95.0), average_window=0.0)
        assert report["ensemble"]["median_exponent"] == pytest.approx(2.5, abs=1e-6)
        assert report["ensemble"]["count"] == 3

    @pytest.mark.parametrize("times", [[1.0, 2.0], [0.0, 1.0, 2.0]], ids=["two", "t0_and_two"])
    def test_two_positive_samples_fit_without_a_local_exponent(self, tmp_path, times):
        # The fit window takes 2 samples; the local-exponent scan needs 3, so
        # with fewer it reports no early maximum.
        times = np.array(times)
        m = 3.0 * times**2.5
        table = np.column_stack((times, m, m, np.full_like(m, 0.5), m, np.zeros_like(m), np.zeros_like(m)))
        series = MomentSeries.from_table(table)
        entry = fit_series(series, window=(1.0, 2.0), average_window=0.0)
        assert entry["exponent"] == pytest.approx(2.5, abs=1e-12)
        assert entry["early_max_local_exponent"] is None
        path = tmp_path / "short.csv"
        write_series_csv(path, series)
        result = CliRunner().invoke(main, ["fit", str(path), "--window", "1:2", "--avg-window", "0"])
        assert result.exit_code == 0, result.output
        assert "median exponent" in result.output

    def test_unaveraged_series_from_t_zero(self, tmp_path):
        # The t = 0 sample lies outside the fit window, and the local exponent
        # skips it.
        run_simulate(config_from_dict(make_config()), tmp_path)
        args = ["fit", str(tmp_path / "series_r0000.csv"), "--window", "5:20", "--avg-window", "0"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "median exponent" in result.output


class TestVerify:
    def test_analytic_config_passes(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 901},
            times={"t_start": 1.0, "t_end": 200.0, "num_samples": 200},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        report = run_verify(config=config_from_dict(raw))
        assert report["passed"]
        assert report["bounds"]["lower_failures"] == 0
        assert report["bounds"]["upper_failures"] == 0
        sum_checks = [c for c in report["bessel_identities"] if c["name"] == "even_order_sum"]
        assert any(c["a"] == 50.0 and c["error"] <= 1e-6 for c in sum_checks)
        assert all(c["ok"] for c in report["bessel_identities"])

    def test_corrupted_csv_fails(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 901},
            times={"t_start": 1.0, "t_end": 100.0, "num_samples": 100},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        config = config_from_dict(raw)
        series, extras = analytic_series(config)
        halved = MomentSeries(
            samples=tuple(
                MomentSample(s.time, s.m, 0.1 * s.w, s.alpha0_abs, s.m_o, s.m_d, s.norm_error)
                for s in series.samples
            )
        )
        path = tmp_path / "corrupt.csv"
        write_series_csv(path, halved)
        report = run_verify(csv_path=path)
        assert not report["passed"]
        assert report["bounds"]["lower_failures"] > 0

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            run_verify()


class TestSweep:
    def sweep_config(self, tmp_path):
        return config_from_dict(
            make_config(
                chain={"num_sites": 401, "disorder": {"half_width": 5, "low": 0.0, "high": 2.5}},
                times={"t_start": 0.0, "t_end": 60.0, "num_samples": 241},
                ensemble={"num_realizations": 1, "base_seed": 3},
            )
        )

    def test_single_realization_matches_simulate_plus_fit(self, tmp_path):
        config = self.sweep_config(tmp_path)
        window = (10.0, 60.0)
        aggregate = run_sweep(config, tmp_path / "sweep", window=window)
        run_simulate(config, tmp_path / "sim")
        assert (tmp_path / "sweep" / "series_r0000.csv").read_bytes() == (
            tmp_path / "sim" / "series_r0000.csv"
        ).read_bytes()
        fit_report = run_fit([tmp_path / "sim" / "series_r0000.csv"], window=window)
        assert aggregate["realizations"][0]["exponent"] == pytest.approx(
            fit_report["realizations"][0]["exponent"], abs=1e-12
        )
        assert aggregate["ensemble"]["count"] == 1

    def test_rerun_bitwise_identical(self, tmp_path):
        config = self.sweep_config(tmp_path)
        run_sweep(config, tmp_path / "a", window=(10.0, 60.0))
        run_sweep(config, tmp_path / "b", window=(10.0, 60.0))
        assert (tmp_path / "a" / "series_r0000.csv").read_bytes() == (
            tmp_path / "b" / "series_r0000.csv"
        ).read_bytes()

    def test_non_finite_csv_recorded_as_failure(self, tmp_path, monkeypatch):
        def corrupt(path, series, extras=None):
            write_series_csv(path, series, extras)
            lines = path.read_text().splitlines()
            fields = lines[101].split(",")
            fields[1] = "nan"
            lines[101] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")

        monkeypatch.setattr(entspread.cli, "write_series_csv", corrupt)
        aggregate = run_sweep(self.sweep_config(tmp_path), tmp_path, window=(10.0, 60.0))
        assert aggregate["ensemble"]["count"] == 0
        assert [f["index"] for f in aggregate["failures"]] == [0]
        assert "column 'm' must be finite" in aggregate["failures"][0]["error"]

    def test_partial_failures_recorded(self, tmp_path, monkeypatch):
        def failing_fit(*args):
            raise ValueError("no fit")

        monkeypatch.setattr(entspread.cli, "fit_power_law", failing_fit)
        config = self.sweep_config(tmp_path)
        aggregate = run_sweep(config, tmp_path, window=(10.0, 60.0))
        assert aggregate["ensemble"]["median_exponent"] is None
        assert len(aggregate["failures"]) == 1
        assert (tmp_path / "aggregate.json").exists()

    def test_window_off_the_grid_rejected_before_simulating(self, tmp_path):
        raw = make_config(times={"t_start": 0.0, "t_end": 50.0, "num_samples": 101})
        raw["chain"]["num_sites"] = 401
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        args = ["sweep", "--config", str(path), "--out", str(out), "--window", "200:300"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "window (200.0, 300.0) holds fewer than 2 times of the grid [0, 50]" in result.output
        assert not list(tmp_path.rglob("*.csv"))

    def test_unaveraged_window_from_t_zero_rejected_before_simulating(self, tmp_path):
        # Unaveraged, every fit would fail on the t = 0 sample; averaging trims it.
        raw = make_config(times={"t_start": 0.0, "t_end": 50.0, "num_samples": 101})
        raw["chain"]["num_sites"] = 401
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        args = ["sweep", "--config", str(path), "--out", str(out), "--window", "0:40",
                "--avg-window", "0"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "window (0.0, 40.0) holds the grid time 0" in result.output
        assert not list(tmp_path.rglob("*.csv"))

    def test_unaveraged_sweep_from_t_zero(self, tmp_path):
        aggregate = run_sweep(self.sweep_config(tmp_path), tmp_path, window=(10.0, 60.0),
                              average_window=0.0)
        assert aggregate["failures"] == []
        assert aggregate["ensemble"]["count"] == 1


class TestCommandLine:
    def test_config_error_exit_code(self, tmp_path):
        raw = make_config()
        raw["chain"]["bogus_key"] = 1
        path = write_config(tmp_path, raw)
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2
        assert "config.chain" in result.output

    def test_infinite_disorder_width_exit_code(self, tmp_path):
        raw = make_config()
        raw["chain"]["disorder"].update(low=-1e308, high=1e308)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config.chain.disorder.high: need low <= high and a finite width" in result.output
        assert not out.exists()

    def test_one_sample_away_from_t_start_exit_code(self, tmp_path):
        # A one-sample grid is its t_start; a t_end elsewhere is rejected, not
        # dropped or used for the boundary budget.
        raw = make_config(chain={"num_sites": 101}, times={"t_start": 0.0, "t_end": 1000.0, "num_samples": 1})
        path, out = write_config(tmp_path, raw), tmp_path / "out"
        for extra in ([], ["--allow-reflections"]):
            result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(out), *extra])
            assert result.exit_code == 2, result.output
            assert "config.times.t_end: one sample needs t_end == t_start" in result.output
        assert not out.exists()

    def test_analytic_writes_the_run_analytic_csv(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 201},
            times={"t_start": 0.0, "t_end": 20.0, "num_samples": 41},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        path, out = write_config(tmp_path, raw), tmp_path / "cli"
        result = CliRunner().invoke(main, ["analytic", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"analytic: wrote series_analytic.csv in {out}\n"
        run_analytic(config_from_dict(raw), tmp_path / "direct")
        expected = (tmp_path / "direct" / "series_analytic.csv").read_bytes()
        assert (out / "series_analytic.csv").read_bytes() == expected

    def test_analytic_out_under_a_file_exit_code(self, tmp_path):
        path = write_config(tmp_path, make_config(chain={"num_sites": 201}))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        args = ["analytic", "--config", str(path), "--out", str(blocker / "sub")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert str(blocker) in result.output
        assert len(result.output.splitlines()) == 1

    def test_fit_on_a_directory_exit_code(self, tmp_path):
        result = CliRunner().invoke(main, ["fit", str(tmp_path), "--window", "1:5"])
        assert result.exit_code == 2, result.output
        assert str(tmp_path) in result.output
        assert len(result.output.splitlines()) == 1

    def test_boundary_violation_exit_code(self, tmp_path):
        raw = make_config(times={"t_start": 0.0, "t_end": 200.0, "num_samples": 5})
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert "boundary budget" in result.output

    def test_budget_uses_front_speed_two_gamma(self, tmp_path):
        # 2*80 + 7 fits in (401-1)/2 - 10 = 190 at gamma = 1, but not at gamma = 2
        raw = make_config(times={"t_start": 0.0, "t_end": 80.0, "num_samples": 5})
        raw["chain"].update(num_sites=401, gamma=2.0)
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert "boundary budget" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "analytic"])
    def test_negative_seed_exit_code(self, tmp_path, command):
        raw = make_config(chain={"num_sites": 201}, ensemble={"num_realizations": 1, "base_seed": 0})
        path = write_config(tmp_path, raw)
        args = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-1"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "config.ensemble.base_seed" in result.output

    def test_seed_help_is_the_same_on_every_command(self):
        lines = []
        for command in ("simulate", "analytic", "sweep"):
            result = CliRunner().invoke(main, [command, "--help"])
            assert result.exit_code == 0, result.output
            line = next(ln for ln in result.output.splitlines() if ln.strip().startswith("--seed"))
            lines.append(" ".join(line.split()))
        assert lines == ["--seed INTEGER Override ensemble.base_seed."] * 3

    def test_closed_form_rejects_gamma_two(self, tmp_path):
        # the closed form is J_x(2t), the |gamma| = 1 chain; gamma = 2 spreads twice as fast
        raw = make_config(
            chain={"num_sites": 401, "gamma": 2.0},
            times={"t_start": 0.0, "t_end": 20.0, "num_samples": 11},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        path = write_config(tmp_path, raw)
        for args in (["analytic", "--out", str(tmp_path / "out")], ["verify"]):
            result = CliRunner().invoke(main, args + ["--config", str(path)])
            assert result.exit_code == 2, result.output
            assert "config.chain.gamma" in result.output
        assert not (tmp_path / "out").exists()

    def test_analytic_rejects_disorder_exit_code(self, tmp_path, monkeypatch):
        # Run where the config's relative output directory would be made.
        path = write_config(tmp_path, make_config())
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, ["analytic", "--config", str(path)])
        assert result.exit_code == 2
        assert "ordered" in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_simulate_and_fit_end_to_end(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 401, "disorder": {"half_width": 5, "low": 0.0, "high": 2.5}},
            times={"t_start": 0.0, "t_end": 60.0, "num_samples": 241},
            ensemble={"num_realizations": 1, "base_seed": 3},
        )
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report_path = tmp_path / "fit.json"
        result = CliRunner().invoke(
            main,
            [
                "fit",
                str(out / "series_r0000.csv"),
                "--window",
                "10:60",
                "--out",
                str(report_path),
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["ensemble"]["count"] == 1

    def test_fit_missing_columns_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,m\n1.0,1.0\n2.0,4.0\n")
        result = CliRunner().invoke(main, ["fit", str(bad), "--window", "1:2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", [["fit", "--window", "2:95"], ["verify", "--csv"]])
    def test_non_finite_csv_time_exit_code(self, tmp_path, command):
        path = tmp_path / "s.csv"
        synthetic_power_law_csv(path)
        lines = path.read_text().splitlines()
        lines[500] = "nan" + lines[500][lines[500].index(",") :]
        path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, [*command, str(path)])
        assert result.exit_code == 2, result.output
        assert "sample times must be finite" in result.output

    @pytest.mark.parametrize("command", [["fit", "--window", "100:500"], ["verify", "--csv"]])
    def test_non_finite_csv_value_exit_code(self, tmp_path, command):
        # a NaN m in the analytic CSV fitted to a NaN exponent and verified as PASS
        path = tmp_path / run_analytic(load_config(ORDERED_ANALYTIC), tmp_path)["realizations"][0]["csv"]
        lines = path.read_text().splitlines()
        fields = lines[1000].split(",")
        fields[1] = "nan"
        lines[1000] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, [*command, str(path)])
        assert result.exit_code == 2, result.output
        assert f"column 'm' must be finite, got nan at t = {fields[0]}" in result.output

    def test_fit_bad_window_flag(self, tmp_path):
        path = tmp_path / "s.csv"
        synthetic_power_law_csv(path)
        result = CliRunner().invoke(main, ["fit", str(path), "--window", "oops"])
        assert result.exit_code == 2

    def test_fit_rejects_an_infinite_window_end(self, tmp_path):
        # A JSON report cannot hold the window's Infinity.
        path = tmp_path / "s.csv"
        synthetic_power_law_csv(path)
        report = tmp_path / "f.json"
        args = ["fit", str(path), "--window", "-inf:40", "--out", str(report)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "need t_lo < t_hi" in result.output
        assert not report.exists()

    @pytest.mark.parametrize("avg_window", ["-1", "nan", "inf"])
    def test_fit_rejects_bad_average_window(self, tmp_path, avg_window):
        path = tmp_path / "s.csv"
        synthetic_power_law_csv(path)
        args = ["fit", str(path), "--window", "10:100", "--avg-window", avg_window]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "average_window must be finite and >= 0" in result.output

    def test_sweep_rejects_bad_average_window_before_simulating(self, tmp_path):
        path = write_config(tmp_path, make_config())
        out = tmp_path / "out"
        args = ["sweep", "--config", str(path), "--out", str(out), "--avg-window", "-1"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert not out.exists()

    @pytest.mark.parametrize("window", ["15:5", "nan:30", "5:inf", "-inf:30"])
    def test_sweep_rejects_bad_window_before_simulating(self, tmp_path, window):
        path = write_config(tmp_path, make_config())
        out = tmp_path / "out"
        args = ["sweep", "--config", str(path), "--out", str(out), "--window", window]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "need t_lo < t_hi" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, jobs", [("simulate", "0"), ("sweep", "-2")])
    def test_jobs_below_one_exit_code(self, tmp_path, command, jobs):
        path = write_config(tmp_path, make_config())
        out = tmp_path / "out"
        args = [command, "--config", str(path), "--out", str(out), "--jobs", jobs]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "jobs must be >= 1" in result.output
        assert not out.exists()

    def test_run_simulate_rejects_zero_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            run_simulate(config_from_dict(make_config()), tmp_path, jobs=0)

    def test_verify_pass_and_fail_exit_codes(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 901},
            times={"t_start": 1.0, "t_end": 200.0, "num_samples": 200},
            ensemble={"num_realizations": 1, "base_seed": 0},
        )
        path = write_config(tmp_path, raw)
        report = tmp_path / "verify.json"
        result = CliRunner().invoke(main, ["verify", "--config", str(path), "--out", str(report)])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        assert json.loads(report.read_text())["passed"] is True

        config = config_from_dict(raw)
        series, _ = analytic_series(config)
        halved = MomentSeries(
            samples=tuple(
                MomentSample(s.time, s.m, 0.1 * s.w, s.alpha0_abs, s.m_o, s.m_d, s.norm_error)
                for s in series.samples
            )
        )
        corrupt = tmp_path / "corrupt.csv"
        write_series_csv(corrupt, halved)
        result = CliRunner().invoke(main, ["verify", "--csv", str(corrupt)])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_verify_rejects_a_series_without_samples(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(GOLDEN_HEADER + "\n")
        result = CliRunner().invoke(main, ["verify", "--csv", str(path)])
        assert result.exit_code == 2, result.output
        assert f"{path}: the series has no samples" in result.output
        assert "PASS" not in result.output

    def test_verify_requires_one_source(self):
        result = CliRunner().invoke(main, ["verify"])
        assert result.exit_code == 2

    def test_sweep_cli(self, tmp_path):
        raw = make_config(
            chain={"num_sites": 401, "disorder": {"half_width": 5, "low": 0.0, "high": 2.5}},
            times={"t_start": 0.0, "t_end": 60.0, "num_samples": 241},
            ensemble={"num_realizations": 2, "base_seed": 3},
        )
        path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["sweep", "--config", str(path), "--out", str(out), "--window", "10:60", "--jobs", "2"],
        )
        assert result.exit_code == 0, result.output
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["ensemble"]["count"] == 2
        assert (out / "series_r0001.csv").exists()


class TestReportSchemas:
    """Top-level keys of every report the pipeline writes; a change here is a schema change."""

    HEADER = {"schema_version", "command", "package_version"}

    def test_report_key_sets(self, tmp_path):
        config = config_from_dict(make_config())
        ordered = config_from_dict(
            make_config(
                chain={"num_sites": 201},
                times={"t_start": 0.0, "t_end": 5.0, "num_samples": 6},
                ensemble={"num_realizations": 1, "base_seed": 0},
            )
        )
        simulate = run_simulate(config, tmp_path / "sim")
        analytic = run_analytic(ordered, tmp_path / "ana")
        fit = run_fit([tmp_path / "sim" / "series_r0000.csv"], window=(2.0, 20.0))
        verify = run_verify(config=ordered)
        sweep = run_sweep(config, tmp_path / "sweep", window=(2.0, 20.0))

        manifest_keys = self.HEADER | {"config", "config_digest", "realizations", "total_wall_time_s"}
        assert set(simulate) == manifest_keys | {"failures"}
        assert set(analytic) == manifest_keys
        assert set(fit) == self.HEADER | {"realizations", "ensemble"}
        assert set(verify) == self.HEADER | {
            "source", "bounds", "bessel_identities", "unitarity", "passed"
        }
        assert set(sweep) == self.HEADER | {
            "config_digest", "window", "average_window", "field", "realizations", "failures",
            "ensemble",
        }
        record_keys = {"index", "csv", "sha256", "spec_digest", "wall_time_s"}
        assert set(simulate["realizations"][0]) == record_keys | {"stats"}
        assert set(simulate["realizations"][0]["stats"]) == {
            "blocks", "matvecs", "site_updates", "min_block_order", "max_block_order",
            "max_norm_error", "final_support_width", "max_edge_amplitude", "propagate_s", "observe_s",
            "write_s",
        }
        assert set(analytic["realizations"][0]) == record_keys
        ensemble_keys = {"count", "median_exponent", "iqr_exponent"}
        assert set(fit["ensemble"]) == set(sweep["ensemble"]) == ensemble_keys
        assert json.loads((tmp_path / "sim" / "manifest.json").read_text()).keys() == manifest_keys | {"failures"}
