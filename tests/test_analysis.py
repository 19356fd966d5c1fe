import dataclasses
import math

import numpy as np
import pytest

from entspread.analysis import (
    UPPER_BOUND_MIN_TIME,
    MomentSeries,
    fit_power_law,
    local_exponent,
    time_average,
    verify_bounds,
)
from entspread.analytic import infinite_state, w_bounds_ordered
from entspread.observables import MOMENT_COLUMNS, MomentSample, moment_m


def series_from_m(times, m_values, **overrides):
    """Build a series whose every positive field follows the m column."""
    samples = []
    for t, m in zip(times, m_values):
        samples.append(
            MomentSample(
                time=float(t),
                m=float(m),
                w=float(overrides.get("w", m)),
                alpha0_abs=0.5,
                m_o=float(m),
                m_d=0.0,
                norm_error=1e-13,
            )
        )
    return MomentSeries(samples=tuple(samples))


def analytic_series(times, half_width=0):
    return MomentSeries(
        samples=tuple(moment_m(infinite_state(float(t)), half_width) for t in times)
    )


class TestTimeAverage:
    def test_constant_series_unchanged(self):
        times = np.linspace(0, 10, 201)
        series = series_from_m(times, np.full(201, 3.0))
        averaged = time_average(series, 2.0)
        assert len(averaged) < len(series)
        assert all(s.m == pytest.approx(3.0, rel=1e-12) for s in averaged.samples)
        assert averaged.times()[0] >= 1.0
        assert averaged.times()[-1] <= 9.0

    def test_rectified_cosine_average(self):
        # m(t) = t^2 + 0.1 |cos 2t| averaged over a pi window settles on
        # t^2 + 0.2/pi (the |cos| mean) up to the window's quadratic bias
        times = np.arange(14.0, 26.0, 0.01)
        series = series_from_m(times, times**2 + 0.1 * np.abs(np.cos(2 * times)))
        averaged = time_average(series, math.pi)
        for s in averaged.samples:
            if 15.0 <= s.time <= 25.0:
                assert s.m == pytest.approx(s.time**2 + 0.2 / math.pi, rel=0.01)

    def test_scaling_commutes(self):
        times = np.linspace(1, 5, 101)
        m = np.exp(np.sin(times)) + 1.0
        a = time_average(series_from_m(times, 3.0 * m), 1.0)
        b = time_average(series_from_m(times, m), 1.0)
        np.testing.assert_allclose(a.column("m"), 3.0 * b.column("m"), rtol=1e-14)

    def test_window_narrower_than_spacing_rejected(self):
        times = np.linspace(0, 10, 11)
        series = series_from_m(times, np.ones(11))
        with pytest.raises(ValueError):
            time_average(series, 0.5)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            time_average(MomentSeries(samples=()), 1.0)

    def test_window_wider_than_span_rejected(self):
        times = np.linspace(0, 1, 50)
        series = series_from_m(times, np.ones(50))
        with pytest.raises(ValueError):
            time_average(series, 10.0)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_width_rejected_up_front(self, width):
        times = np.linspace(0, 10, 101)
        series = series_from_m(times, np.ones(101))
        with pytest.raises(ValueError, match=f"window_width must be finite and > 0, got {width}"):
            time_average(series, width)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        times = np.linspace(1, 50, 400)
        series = series_from_m(times, 3.0 * times**2.5)
        fit = fit_power_law(series, "m", (1.0, 50.0))
        assert fit.exponent == pytest.approx(2.5, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.0, abs=1e-9)
        assert fit.rms_residual <= 1e-9

    def test_rescaling_invariance(self):
        times = np.linspace(1, 50, 200)
        base = series_from_m(times, 0.7 * times**1.8)
        doubled = series_from_m(2.0 * times, 5.0 * (2.0 * times) ** 1.8)
        a = fit_power_law(base, "m", (1.0, 50.0))
        b = fit_power_law(doubled, "m", (2.0, 100.0))
        assert a.exponent == pytest.approx(b.exponent, abs=1e-12)

    def test_field_selection(self):
        times = np.linspace(1, 20, 100)
        series = series_from_m(times, times**3, w=5.0)
        assert fit_power_law(series, "w", (1.0, 20.0)).exponent == pytest.approx(
            0.0, abs=1e-12
        )
        with pytest.raises(ValueError):
            fit_power_law(series, "alpha0_abs", (1.0, 20.0))

    def test_nonpositive_values_rejected(self):
        times = np.linspace(1, 10, 50)
        m = times**2
        m[10] = 0.0
        series = series_from_m(times, m)
        with pytest.raises(ValueError):
            fit_power_law(series, "m", (1.0, 10.0))

    def test_bad_window_rejected(self):
        times = np.linspace(1, 10, 50)
        series = series_from_m(times, times)
        with pytest.raises(ValueError):
            fit_power_law(series, "m", (5.0, 5.0))
        with pytest.raises(ValueError, match=r"selects fewer than 2 samples of the series on \[1, 10\]$"):
            fit_power_law(series, "m", (100.0, 200.0))
        with pytest.raises(ValueError, match="selects fewer than 2 samples of an empty series$"):
            fit_power_law(MomentSeries(), "m", (1.0, 10.0))


class TestLocalExponent:
    def test_exact_powers(self):
        times = np.geomspace(1, 100, 300)
        for p in (2.5, 2.0):
            series = series_from_m(times, 4.0 * times**p)
            slopes = local_exponent(series, "m")
            assert np.max(np.abs(slopes[:, 1] - p)) <= 1e-6

    def test_needs_positive_values(self):
        series = series_from_m(np.linspace(1, 5, 10), np.zeros(10) + 1.0)
        series2 = series_from_m(np.linspace(0, 5, 10), np.ones(10))
        local_exponent(series, "m")
        with pytest.raises(ValueError):
            local_exponent(series2, "m")


class TestVerifyBounds:
    def test_ordered_series_passes(self):
        times = np.linspace(1.0, 200.0, 120)
        report = verify_bounds(analytic_series(times))
        assert report.lower_failures == 0
        assert report.upper_failures == 0
        assert report.upper_checked == int(np.sum(times >= 5.0))
        assert report.passed

    def test_zero_time_sample_trivially_ok(self):
        report = verify_bounds(analytic_series([0.0]))
        assert report.checks[0].lower_ok
        assert not report.checks[0].upper_checked

    def test_corrupted_series_flagged(self):
        times = np.linspace(1.0, 50.0, 40)
        series = analytic_series(times)
        halved = MomentSeries(
            samples=tuple(
                MomentSample(s.time, s.m, 0.1 * s.w, s.alpha0_abs, s.m_o, s.m_d, s.norm_error)
                for s in series.samples
            )
        )
        report = verify_bounds(halved)
        assert report.lower_failures > 0
        assert not report.passed

    def test_counts_match_a_per_sample_loop(self, rng):
        times = np.concatenate(([0.0], np.linspace(0.5, 300.0, 500)))
        table = analytic_series(times).table.copy()
        w = table[:, MOMENT_COLUMNS.index("w")]
        low, high = rng.choice(len(times), size=(2, 60), replace=False)
        w[low] *= rng.uniform(0.0, 0.99, 60)
        w[high] = 20.0 * times[high] ** 2.5 + 1.0
        series = MomentSeries.from_table(table)
        # The report's counts, taken one sample at a time with scalar bounds.
        lower_failures = upper_checked = upper_failures = 0
        for t, w_t in zip(times.tolist(), w.tolist()):
            lower, upper = w_bounds_ordered(t)
            lower_failures += not w_t >= lower - 1e-9
            if t >= UPPER_BOUND_MIN_TIME:
                upper_checked += 1
                upper_failures += not w_t <= upper
        report = verify_bounds(series)
        assert report.checks.dtype.names == (
            "time", "w", "lower", "upper", "lower_ok", "upper_ok", "upper_checked"
        )
        assert 0 < lower_failures and 0 < upper_failures < upper_checked
        assert report.lower_failures == lower_failures
        assert report.upper_checked == upper_checked
        assert report.upper_failures == upper_failures
        assert not report.passed


class TestMomentSeries:
    def test_requires_increasing_times(self):
        good = series_from_m([1.0, 2.0], [1.0, 1.0])
        assert len(good) == 2
        with pytest.raises(ValueError):
            series_from_m([2.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        # NaN compares False, so the ascending check alone let it through
        table = np.array(series_from_m([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]).table)
        table[1, 0] = bad
        with pytest.raises(ValueError, match="sample times must be finite"):
            MomentSeries.from_table(table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", MOMENT_COLUMNS[1:])
    def test_rejects_non_finite_values_in_any_column(self, column, bad):
        # only the time column was checked: a NaN m fitted to a NaN exponent
        table = np.array(series_from_m([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]).table)
        table[2, MOMENT_COLUMNS.index(column)] = bad
        with pytest.raises(ValueError, match=f"column '{column}' must be finite, got {bad} at t = 3"):
            MomentSeries.from_table(table)

    def test_column_access(self):
        series = series_from_m([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_array_equal(series.column("m"), [3.0, 4.0])
        with pytest.raises(ValueError):
            series.column("bogus")

    def test_rows_changed_by_replace_give_the_expected_table(self):
        # the row constructor and dataclasses.replace on rows are how
        # perfbench corrupts a series on purpose
        series = series_from_m([1.0, 2.0, 3.0], [3.0, 4.0, 5.0])
        rows = list(series.samples)
        rows[1] = dataclasses.replace(rows[1], m=7.0, norm_error=1e-6)
        changed = MomentSeries(samples=tuple(rows), spec_digest="abc")
        expected = np.array(series.table)
        expected[1, MOMENT_COLUMNS.index("m")] = 7.0
        expected[1, MOMENT_COLUMNS.index("norm_error")] = 1e-6
        np.testing.assert_array_equal(changed.table, expected)
        assert changed.table.shape == (3, len(MOMENT_COLUMNS))
        assert changed.samples[1].m == 7.0
        assert changed.spec_digest == "abc"

    def test_from_table_round_trip_and_read_only(self):
        series = MomentSeries(
            samples=tuple(moment_m(infinite_state(float(t)), 2) for t in (0.5, 1.0, 2.0)),
            spec_digest="d1",
        )
        assert MomentSeries.from_table(series.table, series.spec_digest) == series
        assert MomentSeries.from_table(series.table, "other") != series
        with pytest.raises(ValueError):
            series.table[0, 1] = 1.0
        with pytest.raises(ValueError):
            series.column("w")[0] = 1.0
        with pytest.raises(ValueError):
            MomentSeries.from_table(series.table[:, :6])
