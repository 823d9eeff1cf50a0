"""Special-function tests against independent series/quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e

from mmwcluster.special import (
    bessel_i0,
    bessel_i0_scaled,
    marcum_q1,
    rayleigh_pdf,
    rician_pdf,
)
from mmwcluster.validate import i0_series, marcum_by_quadrature


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    @pytest.mark.parametrize("x,expected", [(1.0, 1.2660658777520084),
                                            (10.0, 2815.716628466254)])
    def test_reference_values(self, x, expected):
        assert bessel_i0(x) == pytest.approx(expected, rel=1e-13)
        assert i0_series(x) == pytest.approx(expected, rel=1e-13)

    def test_against_series_grid(self):
        xs = np.linspace(0.0, 30.0, 100)
        for x in xs:
            assert bessel_i0(float(x)) == pytest.approx(i0_series(float(x)), rel=1e-12)

    def test_large_argument_finite_via_scaled_form(self):
        x = 700.0
        scaled = bessel_i0_scaled(x)
        assert 0.0 < scaled < 1.0
        assert math.isfinite(scaled)
        # unscaled value at 700 is still representable; consistency check
        assert bessel_i0(x) == pytest.approx(scaled * math.exp(x), rel=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)
        with pytest.raises(ValueError):
            bessel_i0(float("nan"))
        with pytest.raises(ValueError):
            bessel_i0(float("inf"))


class TestMarcumQ1:
    def test_b_zero_is_one(self):
        assert marcum_q1(3.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        # the noncentral chi-square survival function returns -0.0 here
        assert marcum_q1(50.0, 0.0) == 1.0

    def test_a_zero_is_rayleigh_tail(self):
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-14)

    def test_reference_point_vs_quadrature(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(marcum_by_quadrature(1.0, 1.0),
                                                    abs=1e-10)

    def test_against_quadrature_grid(self):
        # 100-point grid, absolute tolerance 1e-9
        a_vals = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0]
        b_vals = [0.0, 0.3, 1.0, 2.0, 4.0, 8.0, 15.0, 22.0, 37.0, 52.0]
        for a in a_vals:
            for b in b_vals:
                assert marcum_q1(a, b) == pytest.approx(marcum_by_quadrature(a, b),
                                                        abs=1e-9), (a, b)

    def test_monotonicity(self):
        a_grid = np.linspace(0.0, 6.0, 13)
        b_grid = np.linspace(0.0, 6.0, 13)
        q = marcum_q1(a_grid[:, None], b_grid[None, :])
        assert np.all(np.diff(q, axis=1) <= 1e-14)   # non-increasing in b
        assert np.all(np.diff(q, axis=0) >= -1e-14)  # non-decreasing in a

    def test_matches_rician_tail_integral(self):
        for a in (0.0, 0.7, 2.5, 6.0):
            for b in (0.2, 1.5, 4.0):
                tail, _ = quad(lambda t: rician_pdf(t, a, 1.0), b, b + 45.0, limit=300)
                assert marcum_q1(a, b) == pytest.approx(tail, abs=1e-8)

    def test_stable_for_large_noncentrality(self):
        q = marcum_q1(50.0, 49.0)
        assert 0.0 < q < 1.0
        assert q == pytest.approx(marcum_by_quadrature(50.0, 49.0), abs=1e-9)
        # large noncentrality with a tiny threshold overflows Boost's tgamma
        # inside the noncentral chi-square survival function
        q = marcum_q1(18.46, 4.87e-5)
        assert math.isfinite(q)
        assert q == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a", [0.5, 5.0, 15.0, 25.0])
    @pytest.mark.parametrize("d", [2.0, 6.0, 10.0, 12.0])
    def test_relative_accuracy_in_upper_tail(self, a, d):
        # b > a: the range where the bound divides by Q1 as a normalizer, with
        # values down to ~1e-33, so an absolute tolerance would say nothing
        b = a + d
        ref, err = quad(lambda t: t * math.exp(-0.5 * (t - a) ** 2) * i0e(a * t),
                        b, b + 45.0, epsabs=0.0, epsrel=1e-13)
        assert err < 1e-12 * ref
        assert marcum_q1(a, b) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -0.1)

    def test_array_broadcast(self):
        a = np.array([0.0, 1.0, 2.0])
        out = marcum_q1(a, 1.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(marcum_q1(1.0, 1.0), abs=1e-14)


class TestRayleighPdf:
    def test_zero_at_origin(self):
        assert rayleigh_pdf(0.0, 4.0) == 0.0

    def test_reference_value(self):
        assert rayleigh_pdf(2.0, 4.0) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-14)

    def test_normalization(self):
        mass, _ = quad(lambda x: rayleigh_pdf(x, 25.0), 0.0, 200.0, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_mode_at_sigma(self):
        sigma = 3.0
        xs = np.linspace(0.01, 15.0, 2000)
        pdf = rayleigh_pdf(xs, sigma**2)
        assert xs[np.argmax(pdf)] == pytest.approx(sigma, abs=0.02)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            rayleigh_pdf(-1.0, 4.0)


class TestRicianPdf:
    def test_zero_noncentrality_collapses_to_rayleigh(self):
        xs = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(rician_pdf(xs, 0.0, 4.0), rayleigh_pdf(xs, 4.0),
                                   rtol=1e-14)

    def test_normalization_large_noncentrality(self):
        mass, _ = quad(lambda x: rician_pdf(x, 30.0, 100.0), 0.0, 300.0, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_no_overflow_and_matches_log_space(self):
        x, y, var = 50.0, 50.0, 1.0
        val = rician_pdf(x, y, var)
        assert math.isfinite(val)
        log_ref = math.log(x / var) - (x * x + y * y) / (2 * var) \
            + math.log(bessel_i0_scaled(x * y / var)) + x * y / var
        assert val == pytest.approx(math.exp(log_ref), rel=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rician_pdf(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rician_pdf(1.0, -1.0, 1.0)
