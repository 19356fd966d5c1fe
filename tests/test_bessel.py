import math

import numpy as np
import pytest

from entspread.bessel import (
    bessel_j,
    bessel_j_series_oracle,
    bessel_row,
    bessel_rows,
    miller_start_order,
)

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
        assert row.values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_row_matches_oracle(self):
        row = bessel_row(2, 2.0)
        np.testing.assert_allclose(row.values, [J0_2, J1_2, J2_2], atol=1e-9)

    def test_row_entries_agree_with_bessel_j(self):
        row = bessel_row(30, 7.3)
        for n in (0, 1, 13, 30):
            assert row.values[n] == pytest.approx(bessel_j(n, 7.3), abs=1e-14)

    def test_superexponential_tail(self):
        row = bessel_row(200, 2.0)
        assert np.all(np.abs(row.values[15:]) < 1e-12)
        # deep tail (J_n(2) ~ 1/n! below 1e-300 past n ~ 170) is flushed to exact zero
        assert np.all(row.values[180:] == 0.0)

    def test_miller_vs_oracle_on_validity_box(self):
        for x in (0.5, 4.0, 11.5, 30.0):
            row = bessel_row(40, x)
            for n in (0, 3, 17, 40):
                assert row.values[n] == pytest.approx(
                    bessel_j_series_oracle(n, x, 80), abs=1e-12
                )

    def test_normalization_identity(self):
        # J_0 + 2 sum_k J_2k = 1; truncation at argument + 40 covers the tail
        # only for small arguments (the cut must clear the wavefront
        # transition zone, whose width grows like x^(1/3))
        for x in (2.0, 50.0):
            row = bessel_row(int(x) + 40, x)
            total = row.values[0] + 2.0 * row.values[2::2].sum()
            assert total == pytest.approx(1.0, abs=1e-12)
        for x in (100.0, 300.0, 600.0):
            order_max = int(x) + 40 + math.ceil(10 * math.sqrt(x))
            row = bessel_row(order_max, x)
            total = row.values[0] + 2.0 * row.values[2::2].sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_three_term_recurrence(self):
        for x in (2.0, 37.0, 300.0, 600.0):
            row = bessel_row(int(x) + 120, x).values
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
            row = bessel_row(int(2 * a) + 1, a).values
            for x in range(1, int(2 * a)):
                assert x * row[x] == pytest.approx(
                    0.5 * a * (row[x - 1] + row[x + 1]), abs=1e-10
                )

    def test_even_order_square_sum(self):
        # one-sided sum_{k>=1} (2k)^2 J_2k(a) = a^2 / 2 (the symmetric
        # two-sided version doubles it to a^2)
        for a in (2.0, 50.0, 100.0):
            k_max = int(a) + 40
            row = bessel_row(2 * k_max, a).values
            total = sum((2 * k) ** 2 * row[2 * k] for k in range(1, k_max + 1))
            assert total == pytest.approx(a * a / 2.0, abs=1e-8)

    def test_unitarity_identity(self):
        # J_0^2 + 2 sum J_k^2 = 1
        for x in (1.0, 10.0, 100.0):
            row = bessel_row(int(x) + 120, x).values
            total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_magnitude_bound(self):
        for x in (0.0, 1.0, 25.0, 400.0):
            row = bessel_row(int(x) + 60, x)
            assert np.max(np.abs(row.values)) <= 1.0

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
                batch[i], bessel_row(64, float(x)).values, rtol=0, atol=1e-13
            )

    def test_zero_arguments_embedded(self):
        batch = bessel_rows(3, np.array([0.0, 0.0]))
        np.testing.assert_array_equal(batch, [[1, 0, 0, 0], [1, 0, 0, 0]])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bessel_rows(3, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            bessel_rows(3, np.array([[1.0]]))
