import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspread.bessel import (
    FLUSH_THRESHOLD,
    bessel_j,
    bessel_row,
    bessel_rows,
    miller_start_order,
    order_sums,
    tail_order,
)
from entspread.config import config_from_dict

from oracles import bessel_j_series_oracle, bessel_rows_numpy

# Reference values from the extended-precision ascending series.
J0_2 = 0.22389077914123567
J1_2 = 0.57672480775687339
J2_2 = 0.35283402861563772
J4_20 = 0.13067093355486325


class TestSeriesOracle:
    def test_at_origin(self):
        assert bessel_j_series_oracle(0, 0.0, 10) == 1.0
        assert bessel_j_series_oracle(3, 0.0, 10) == 0.0

    def test_known_value(self):
        assert bessel_j_series_oracle(1, 2.0, 40) == pytest.approx(J1_2, abs=1e-12)

    def test_internal_recurrence_consistency(self):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x), checked inside the oracle alone
        j0, j1, j2 = (bessel_j_series_oracle(n, 2.0, 50) for n in range(3))
        assert j0 + j2 == pytest.approx(j1 * (2 * 1 / 2.0), abs=1e-12)
        j1, j2, j3 = (bessel_j_series_oracle(n, 4.0, 50) for n in (1, 2, 3))
        assert j1 + j3 == pytest.approx((2 * 2 / 4.0) * j2, abs=1e-12)

    def test_validity_box_enforced(self):
        with pytest.raises(ValueError):
            bessel_j_series_oracle(41, 1.0, 40)
        with pytest.raises(ValueError):
            bessel_j_series_oracle(0, 31.0, 40)
        with pytest.raises(ValueError):
            bessel_j_series_oracle(0, -1.0, 40)
        with pytest.raises(ValueError):
            bessel_j_series_oracle(0, 1.0, 0)


class TestBesselJ:
    def test_trivial_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    def test_oracle_values(self):
        assert bessel_j(0, 2.0) == pytest.approx(J0_2, abs=1e-9)
        assert bessel_j(-1, 2.0) == pytest.approx(-J1_2, abs=1e-9)
        assert bessel_j(4, 20.0) == pytest.approx(J4_20, abs=1e-9)

    def test_negative_order_parity_exact(self):
        xs = [0.3, 2.0, 17.5, 100.0]
        for x in xs:
            for n in (1, 2, 7, 40, 100):
                expected = (-1.0) ** n * bessel_j(n, x)
                assert bessel_j(-n, x) == expected

    def test_magnitude_bound(self):
        for x in (0.0, 0.5, 3.0, 42.0):
            assert abs(bessel_j(0, x)) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(0, float("nan"))
        with pytest.raises(ValueError):
            bessel_j(0, float("inf"))
        with pytest.raises(ValueError):
            bessel_j(2, -0.5)


class TestBesselRow:
    def test_zero_argument_row(self):
        row = bessel_row(4, 0.0)
        assert row.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_row_matches_oracle(self):
        row = bessel_row(2, 2.0)
        np.testing.assert_allclose(row, [J0_2, J1_2, J2_2], atol=1e-9)

    def test_row_entries_agree_with_bessel_j(self):
        row = bessel_row(30, 7.3)
        for n in (0, 1, 13, 30):
            assert row[n] == pytest.approx(bessel_j(n, 7.3), abs=1e-14)

    def test_superexponential_tail(self):
        row = bessel_row(200, 2.0)
        assert np.all(np.abs(row[15:]) < 1e-12)
        # deep tail (J_n(2) ~ 1/n! below 1e-300 past n ~ 170) is flushed to exact zero
        assert np.all(row[180:] == 0.0)

    def test_miller_vs_oracle_on_validity_box(self):
        for x in (0.5, 4.0, 11.5, 30.0):
            row = bessel_row(40, x)
            for n in (0, 3, 17, 40):
                assert row[n] == pytest.approx(
                    bessel_j_series_oracle(n, x, 80), abs=1e-12
                )

    def test_normalization_identity(self):
        # J_0 + 2 sum_k J_2k = 1; truncation at argument + 40 covers the tail
        # only for small arguments (the cut must clear the wavefront
        # transition zone, whose width grows like x^(1/3))
        for x in (2.0, 50.0):
            row = bessel_row(int(x) + 40, x)
            total = row[0] + 2.0 * row[2::2].sum()
            assert total == pytest.approx(1.0, abs=1e-12)
        for x in (100.0, 300.0, 600.0):
            order_max = int(x) + 40 + math.ceil(10 * math.sqrt(x))
            row = bessel_row(order_max, x)
            total = row[0] + 2.0 * row[2::2].sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_three_term_recurrence(self):
        for x in (2.0, 37.0, 300.0, 600.0):
            row = bessel_row(int(x) + 120, x)
            for n in range(1, len(row) - 1):
                lhs = row[n - 1] + row[n + 1]
                rhs = 2 * n / x * row[n]
                scale = max(abs(row[n - 1]), abs(row[n]), abs(row[n + 1]))
                if scale == 0.0:
                    continue
                assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-30)

    def test_moment_identity(self):
        # x J_x(a) = (a/2)(J_{x-1}(a) + J_{x+1}(a))
        for a in (2.0, 20.0, 100.0):
            row = bessel_row(int(2 * a) + 1, a)
            for x in range(1, int(2 * a)):
                assert x * row[x] == pytest.approx(
                    0.5 * a * (row[x - 1] + row[x + 1]), abs=1e-10
                )

    def test_even_order_square_sum(self):
        # one-sided sum_{k>=1} (2k)^2 J_2k(a) = a^2 / 2 (the symmetric
        # two-sided version doubles it to a^2)
        for a in (2.0, 50.0, 100.0):
            k_max = int(a) + 40
            row = bessel_row(2 * k_max, a)
            total = sum((2 * k) ** 2 * row[2 * k] for k in range(1, k_max + 1))
            assert total == pytest.approx(a * a / 2.0, abs=1e-8)

    def test_unitarity_identity(self):
        # J_0^2 + 2 sum J_k^2 = 1
        for x in (1.0, 10.0, 100.0):
            row = bessel_row(int(x) + 120, x)
            total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_magnitude_bound(self):
        for x in (0.0, 1.0, 25.0, 400.0):
            row = bessel_row(int(x) + 60, x)
            assert np.max(np.abs(row)) <= 1.0

    def test_start_order_margin(self):
        assert miller_start_order(10, 2.0) == 10 + 20 + math.ceil(10 * math.sqrt(10))
        # large-argument seeds clear the turning point, not just order_max
        assert miller_start_order(10, 400.0) == 400 + 20 + 200

    def test_small_order_large_argument_accuracy(self):
        # regression: seeds that barely clear the turning point contaminate
        # low orders at the 1e-5 level
        import mpmath

        for n, x in ((0, 100.0), (1, 250.0), (10, 400.0)):
            exact = float(mpmath.besselj(n, x))
            assert bessel_j(n, x) == pytest.approx(exact, abs=1e-13)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bessel_row(-1, 2.0)
        with pytest.raises(ValueError):
            bessel_row(4, -2.0)


class TestBesselRowsBatch:
    def test_matches_scalar_rows(self):
        # the batch path shares one start order, so agreement is to rounding,
        # not bitwise
        args = np.array([0.0, 0.7, 2.0, 55.5, 300.0])
        batch = bessel_rows(64, args)
        for i, x in enumerate(args):
            np.testing.assert_allclose(
                batch[i], bessel_row(64, float(x)), rtol=0, atol=1e-13
            )

    def test_mixed_magnitudes_with_rescales(self):
        # 1e-3 rescales many times on the way down from the start order sized
        # for 1999.5, and most of its row flushes to zero
        args = np.array([1e-3, 0.7, 1999.5])
        batch = bessel_rows(2100, args)
        for i, x in enumerate(args):
            np.testing.assert_allclose(
                batch[i], bessel_row(2100, float(x)), rtol=0, atol=1e-13
            )
        flushed = np.abs(batch) < FLUSH_THRESHOLD
        assert np.count_nonzero(flushed) > 2000
        assert np.all(batch[flushed] == 0.0)

    @pytest.mark.parametrize("order_max", [0, 1, 47, 300, 2100])
    @pytest.mark.parametrize("x", [1e-3, 0.25, 1.08, 17.3, 300.0, 1999.5])
    def test_single_argument_is_the_scalar_row_bitwise(self, order_max, x):
        # one argument sets its own start order, so the batch recurrence does
        # the scalar one's arithmetic step for step, rescales (small x, large
        # K) included
        np.testing.assert_array_equal(
            bessel_rows(order_max, np.array([x]))[0], bessel_row(order_max, x)
        )

    @pytest.mark.parametrize("args", [[0.5, 0.0, 3.0], [0.5, 1.5, 3.0]])
    def test_layout_is_one_c_contiguous_row_per_argument(self, args):
        # order_sums and the kernel's ring_flush read each row in place
        batch = bessel_rows(47, np.array(args))
        assert batch.shape == (3, 48)
        assert batch.dtype == np.float64
        assert batch.flags.c_contiguous

    def test_zero_arguments_embedded(self):
        batch = bessel_rows(3, np.array([0.0, 0.0]))
        np.testing.assert_array_equal(batch, [[1, 0, 0, 0], [1, 0, 0, 0]])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bessel_rows(3, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            bessel_rows(3, np.array([[1.0]]))


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    mismatched = np.flatnonzero(actual.ravel().view(np.int64) != expected.ravel().view(np.int64))
    assert actual.tobytes() == expected.tobytes(), f"{mismatched.size} values differ, first at {mismatched[:5]}"


class TestMillerPass:
    """The compiled recurrence `miller_rows` against its numpy form, byte for byte."""

    @pytest.mark.parametrize("order_max", [0, 1, 40, 700, 2100])
    def test_batch_spanning_many_magnitudes(self, order_max):
        # Over one start order sized for 3e3, 1e-9 rescales at almost every
        # order and 3e3 at none: each element rescales at its own orders,
        # stored ones included.
        args = np.geomspace(1e-9, 3e3, 37)
        assert_same_bytes(bessel_rows(order_max, args), bessel_rows_numpy(order_max, args))

    @pytest.mark.parametrize("order_max", [0, 3, 25, 400])
    @pytest.mark.parametrize("args", [[0.0, 17.3, 0.0, 1e-6, 88.0], [0.0, 0.0], [250.0, 0.0, 2.5]])
    def test_zeros_and_orders_below_and_above_the_arguments(self, order_max, args):
        args = np.array(args)
        assert_same_bytes(bessel_rows(order_max, args), bessel_rows_numpy(order_max, args))

    @settings(max_examples=60, deadline=None)
    @given(order_max=st.integers(0, 300),
           args=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 500.0)), min_size=1, max_size=20))
    def test_property_matches_numpy(self, order_max, args):
        args = np.array(args)
        assert_same_bytes(bessel_rows(order_max, args), bessel_rows_numpy(order_max, args))

    def test_ordered_pipeline_chunks(self):
        # The benchmark's ordered_pipeline grid at its default seed, in the
        # chunks analytic_series takes: 16 chunks of up to 256 times.
        t_start = 0.25 * (1.0 + float(np.random.default_rng(20260810).uniform()))
        config = config_from_dict({
            "schema_version": 1, "chain": {"num_sites": 8001, "gamma": 1.0},
            "times": {"t_start": t_start, "t_end": t_start + 999.75, "num_samples": 4001},
            "ensemble": {"num_realizations": 1, "base_seed": 0},
        })
        times = config.times.grid()
        chunks = [times[lo : lo + 256] for lo in range(0, len(times), 256)]
        assert len(chunks) == 16
        for chunk in chunks:
            order_max = tail_order(2.0 * float(chunk[-1]))
            assert_same_bytes(bessel_rows(order_max, 2.0 * chunk), bessel_rows_numpy(order_max, 2.0 * chunk))

    @pytest.mark.parametrize("x", [1e-9, 1e-3, 1.08, 17.3, 300.0, 1999.5, 3e3])
    def test_row_is_the_one_argument_batch(self, x):
        for order_max in (0, 1, 47, int(x) // 2, int(x) + 60):
            assert_same_bytes(bessel_row(order_max, x), bessel_rows_numpy(order_max, np.array([x]))[0])

    def test_strided_arguments_are_read_in_order(self):
        args = np.geomspace(1e-3, 900.0, 40)
        assert_same_bytes(bessel_rows(120, args[::3]), bessel_rows_numpy(120, args[::3]))


class TestOrderSums:
    """`order_sums` against the numpy reductions it replaces, bit for bit."""

    @pytest.mark.parametrize("core", [0, 1, 5, 400])
    def test_matches_numpy_reductions(self, core):
        # Lengths 1..300 cross the pairwise sum's 8- and 128-term boundaries;
        # core 400 lies past every row's last order.
        rng = np.random.default_rng(core)
        for length in range(1, 301):
            shape = (1 + length % 4, length)
            rows = rng.normal(size=shape) * np.exp(rng.uniform(-40.0, 3.0, shape))
            k2 = np.arange(length, dtype=float) ** 2
            inner, outer, squares = order_sums(rows, core)
            assert_same_bytes(inner, np.add.reduce(np.abs(rows[:, 1 : core + 1]) * k2[1 : core + 1], axis=1))
            assert_same_bytes(outer, np.add.reduce(np.abs(rows[:, core + 1 :]) * k2[core + 1 :], axis=1))
            assert_same_bytes(squares, np.add.reduce(rows[:, 1:] ** 2, axis=1))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            order_sums(np.zeros((2, 0)), 0)
        with pytest.raises(ValueError):
            order_sums(np.zeros(4), 0)
        with pytest.raises(ValueError):
            order_sums(np.zeros((2, 4)), -1)
