import math

import numpy as np
import pytest

from driftspectra.geometry import (DriftProfile, ModelBall, custom_warping,
                                   drift_divergence, drift_from_rate, euclidean_ball,
                                   extra_condition_lhs, extra_drift_profile,
                                   make_space_form, polynomial_drift,
                                   radial_sectional_curvature, weight_p, zero_drift)

from _oracles import second_derivative


class TestSpaceForms:
    def test_flat_is_identity(self):
        w = make_space_form(0.0)
        rho, d1, d2 = w.eval(0.7)
        assert rho == 0.7 and d1 == 1.0 and d2 == 0.0

    def test_sphere_peak(self):
        w = make_space_form(1.0)
        rho, d1, _ = w.eval(math.pi / 2)
        assert rho == pytest.approx(1.0, abs=1e-14)
        assert d1 == pytest.approx(0.0, abs=1e-14)

    def test_hyperbolic_value(self):
        w = make_space_form(-1.0)
        rho, _, _ = w.eval(1.0)
        assert rho == pytest.approx(math.sinh(1.0), rel=1e-14)

    def test_origin_invariants_enforced(self):
        with pytest.raises(ValueError):
            custom_warping(lambda t: t + 0.1, lambda t: np.ones_like(t),
                           lambda t: np.zeros_like(t), t_max=2.0)

    def test_positivity_enforced(self):
        # sin profile vanishes inside a domain longer than pi
        with pytest.raises(ValueError):
            custom_warping(np.sin, np.cos, lambda t: -np.sin(t), t_max=4.0)


class TestCurvature:
    @pytest.mark.parametrize("kappa", [-2.0, -1.0, 0.0, 0.5, 1.0])
    def test_space_form_constant(self, kappa):
        w = make_space_form(kappa)
        cap = w.t_max if math.isfinite(w.t_max) else 2.0
        ts = np.linspace(0.0, 0.95 * cap, 40)
        vals = radial_sectional_curvature(w, ts)
        assert np.max(np.abs(vals - kappa)) < 1e-10

    def test_custom_profile_matches_fd_oracle(self):
        w = custom_warping(np.sin, np.cos, lambda t: -np.sin(t), t_max=3.0)
        got = radial_sectional_curvature(w, 1.0)
        rho = math.sin(1.0)
        oracle = -second_derivative(math.sin, 1.0) / rho
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_custom_profile_origin_limit(self):
        w = custom_warping(np.sin, np.cos, lambda t: -np.sin(t), t_max=3.0)
        assert radial_sectional_curvature(w, 0.0) == pytest.approx(1.0, rel=1e-6)


class TestWeight:
    def test_flat_polar_weight(self):
        ball = euclidean_ball(2, 1.0)
        assert weight_p(ball, 0.3) == pytest.approx(0.3, rel=1e-14)

    def test_gaussian_weight_value(self):
        ball = ModelBall(m=3, r0=1.2, rho=make_space_form(0.0),
                         drift=polynomial_drift([1.0]))  # h=t, H=t^2/2
        assert weight_p(ball, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_vanishes_at_origin(self):
        ball = euclidean_ball(4, 2.0)
        assert weight_p(ball, 0.0) == 0.0
        assert weight_p(ball, -0.5) == 0.0

    def test_log_derivative_identity(self):
        # p'/p must equal (m-1) rho'/rho - h
        ball = ModelBall(m=3, r0=1.0, rho=make_space_form(-1.0),
                         drift=polynomial_drift([0.7, 0.2]))
        ts = np.linspace(0.15, 0.9, 9)
        delta = 1e-6
        fd = (np.log(weight_p(ball, ts + delta)) - np.log(weight_p(ball, ts - delta))) / (2 * delta)
        rho, rho1, _ = ball.rho.eval(ts)
        expected = (ball.m - 1) * rho1 / rho - ball.drift.h(ts)
        assert np.max(np.abs(fd - expected)) < 1e-6 * np.max(np.abs(expected))


class TestDriftDivergence:
    def test_origin_limit(self):
        ball = euclidean_ball(3, 1.0, polynomial_drift([1.0]))
        assert drift_divergence(ball, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_zero_drift(self):
        ball = euclidean_ball(3, 1.0)
        ts = np.linspace(0.0, 0.9, 11)
        assert np.max(np.abs(drift_divergence(ball, ts))) == 0.0

    def test_quadratic_drift_interior(self):
        # h=t^2, m=2, flat: h' + h/t = 2t + t
        ball = euclidean_ball(2, 1.0, polynomial_drift([0.0, 1.0]))
        assert drift_divergence(ball, 0.5) == pytest.approx(1.5, rel=1e-13)

    def test_continuity_at_origin(self):
        ball = ModelBall(m=4, r0=1.0, rho=make_space_form(1.0),
                         drift=polynomial_drift([0.3, -0.1, 0.05]))
        limit = drift_divergence(ball, 0.0)
        near = drift_divergence(ball, 1e-7)
        assert abs(near - limit) < 1e-6


class TestExtraCondition:
    def test_zero_drift_is_zero(self):
        assert extra_condition_lhs(0.0, 0.0, 5.0) == 0.0

    def test_linear_drift_formula(self):
        # h=c t on the flat m=2 model at t=1: c - c^2/2 + c
        c = 0.8
        assert extra_condition_lhs(c, c, 1.0) == pytest.approx(2 * c - c * c / 2, rel=1e-14)

    def test_profile_origin_limit_matches_divergence(self):
        ball = euclidean_ball(3, 1.0, polynomial_drift([1.0]))
        assert extra_drift_profile(ball, 0.0) == pytest.approx(3.0, abs=1e-13)
        # series oracle near zero: m h'(0) - h(0)^2/2
        assert extra_drift_profile(ball, 1e-6) == pytest.approx(3.0, abs=1e-5)


class TestDriftProfiles:
    def test_polynomial_antiderivative(self):
        d = polynomial_drift([2.0, 0.0, 1.0])  # h = 2t + t^3
        assert d.H(1.0) == pytest.approx(1.0 + 0.25, rel=1e-14)

    def test_numeric_antiderivative_matches_polynomial(self):
        poly = polynomial_drift([1.0, 0.5])
        num = drift_from_rate(poly.h, poly.h_prime, t_max=1.2)
        ts = np.linspace(0.0, 1.1, 23)
        assert np.max(np.abs(num.H(ts) - poly.H(ts))) < 1e-10

    @pytest.mark.parametrize("coeffs", [[1.0], [0.5, 0.1], [0.3, -1.2, 0.7, 2.0]])
    def test_hermite_antiderivative_matches_polynomial(self, coeffs):
        poly = polynomial_drift(coeffs)
        num = drift_from_rate(poly.h, poly.h_prime, t_max=1.05)
        ts = np.linspace(0.0, 1.05, 10007)
        assert np.max(np.abs(num.H(ts) - poly.H(ts))) <= 1e-13
        assert num.H(0.0) == 0.0

    def test_hermite_antiderivative_of_sine(self):
        num = drift_from_rate(lambda t: np.sin(3.0 * np.asarray(t, dtype=float)),
                              lambda t: 3.0 * np.cos(3.0 * np.asarray(t, dtype=float)),
                              t_max=1.05)
        ts = np.linspace(0.0, 1.05, 10007)
        assert np.max(np.abs(num.H(ts) - (1.0 - np.cos(3.0 * ts)) / 3.0)) <= 1e-13

    @pytest.mark.parametrize("degree", range(6))
    def test_polynomial_drift_matches_polyval(self, degree):
        rng = np.random.default_rng(degree)
        c = rng.uniform(-2.0, 2.0, degree)
        d = polynomial_drift(c)
        ts = np.linspace(0.0, 2.5, 1001)
        j = np.arange(1, degree + 1)
        for f, coefs in ((d.h, np.r_[0.0, c]), (d.h_prime, np.r_[c * j, 0.0]),
                         (d.H, np.r_[0.0, 0.0, c / (j + 1.0)])):
            exact = np.polynomial.polynomial.polyval(ts, coefs)
            # a few ulps of the largest term's sum, where the terms cancel
            scale = np.polynomial.polynomial.polyval(ts, np.abs(coefs))
            assert np.all(np.abs(f(ts) - exact) <= 4.0 * np.spacing(scale))
            for t in (0.0, 0.7, 2.5):
                value = f(t)
                assert np.ndim(value) == 0
                assert float(value) == pytest.approx(
                    np.polynomial.polynomial.polyval(t, coefs), rel=1e-14, abs=1e-15)
        assert float(d.h(0.0)) == 0.0 and float(d.H(0.0)) == 0.0

    def test_empty_polynomial_is_zero_drift(self):
        d = polynomial_drift([])
        ts = np.linspace(0.0, 1.0, 5)
        for f in (d.h, d.h_prime, d.H):
            assert np.array_equal(f(ts), np.zeros(5))
            assert float(f(0.3)) == 0.0

    @pytest.mark.parametrize("coeffs", [[math.nan], [1.0, math.inf], [-math.inf]])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="drift coefficients must be finite"):
            polynomial_drift(coeffs)

    @pytest.mark.parametrize("h", [lambda t: np.full_like(np.asarray(t, dtype=float), math.nan),
                                   lambda t: np.where(np.asarray(t) == 0.0, 0.0, math.nan)],
                             ids=["everywhere", "off-origin"])
    def test_ball_rejects_nan_drift(self, h):
        zero = zero_drift().H
        bad = DriftProfile(h=h, h_prime=h, H=zero)
        with pytest.raises(ValueError, match="drift"):
            ModelBall(m=2, r0=1.0, rho=make_space_form(0.0), drift=bad)

    def test_ball_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ModelBall(m=2, r0=4.0, rho=make_space_form(1.0), drift=zero_drift())

    def test_ball_rejects_nonzero_drift_at_origin(self):
        bad = drift_from_rate(lambda t: np.asarray(t) + 1.0,
                              lambda t: np.ones_like(np.asarray(t, dtype=float)),
                              t_max=2.0)
        with pytest.raises(ValueError):
            ModelBall(m=2, r0=1.0, rho=make_space_form(0.0), drift=bad)

    def test_inconsistent_antiderivative_rejected(self):
        bad = DriftProfile(
            h=lambda t: np.asarray(t, dtype=float),
            h_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            H=lambda t: np.asarray(t, dtype=float) ** 2)  # should be t^2/2
        with pytest.raises(ValueError):
            ModelBall(m=2, r0=1.0, rho=make_space_form(0.0), drift=bad)
