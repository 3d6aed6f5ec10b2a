import math

import pytest

from fracrelax.errors import ContourError
from fracrelax.kernels import (
    HNParams,
    hn_relaxation_kernel,
    p_kernel,
    q_kernel,
    rabotnov_relaxation,
)
from fracrelax.laplace import InverseLaplaceSpec, bromwich_euler, inverse_laplace, talbot
from fracrelax.quadrature import (
    QuadratureSpec,
    eh_alpha_integral,
    eh_conv_unity_series,
    i_alpha,
    p_conv_unity,
    p_conv_unity_series,
    q_conv_unity,
    q_conv_unity_series,
)
from fracrelax.specfun import eh_alpha, gamma
from fracrelax.spectra import hn_normalized_image

import oracles


class TestIAlpha:
    def test_unit_at_zero(self):
        for alpha in (0.25, 0.5, 0.75):
            assert i_alpha(alpha, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_debye_limit(self):
        assert i_alpha(0.999, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_frozen_mittag_leffler_oracle(self):
        # I_alpha(theta) = E_alpha(-theta^alpha); direct series at 50 digits
        assert i_alpha(0.5, 2.0) == pytest.approx(0.33620400244634121, rel=1e-9)
        assert rabotnov_relaxation(0.5, 1.0, 2.0) == pytest.approx(
            0.33620400244634121, rel=1e-12
        )

    def test_cross_representation(self):
        for alpha in (0.25, 0.5, 0.75):
            for theta in (0.1, 1.0, 4.0):
                assert i_alpha(alpha, theta) + eh_conv_unity_series(
                    alpha, 1.0, theta
                ) == pytest.approx(1.0, abs=1e-8)
                assert rabotnov_relaxation(alpha, 1.0, theta) == pytest.approx(
                    i_alpha(alpha, theta), abs=1e-8
                )

    def test_monotone_decreasing(self):
        values = [i_alpha(0.5, th) for th in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0


class TestEhIntegralRoute:
    def test_seam_against_series(self):
        # series route at the crossover vs the integral representation
        for alpha in (0.25, 0.5, 0.75):
            series = eh_alpha(alpha, 1.0, 10.0)
            integral = eh_alpha_integral(alpha, 1.0, 10.0)
            assert integral == pytest.approx(series, rel=1e-6)

    def test_large_time_against_oracle(self):
        with_mp = float(oracles.eh_series(0.5, 1.0, 30.0, 3000))
        assert eh_alpha_integral(0.5, 1.0, 30.0) == pytest.approx(with_mp, rel=1e-8)


class TestConvUnity:
    def test_q_plateau(self):
        for alpha, n_eps in ((0.3, 0.5), (0.5, 1.0), (0.75, 2.0)):
            assert q_conv_unity(alpha, n_eps, 200.0) == pytest.approx(
                1.0 / (n_eps + 1.0), abs=1e-6
            )

    def test_q_frozen_oracle(self):
        assert q_conv_unity(0.5, 1.0, 1.0) == pytest.approx(0.47160493813486966, rel=1e-10)

    def test_q_cross_route(self):
        for alpha, n_eps, theta in ((0.5, 1.0, 1.0), (0.5, 0.0, 1.0), (0.75, 0.5, 2.0)):
            a = q_conv_unity(alpha, n_eps, theta)
            b = q_conv_unity_series(alpha, n_eps, 1.0, theta)
            assert a == pytest.approx(b, abs=1e-6)

    def test_q_zero_at_zero_time(self):
        assert q_conv_unity(0.5, 1.0, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_p_cross_route(self):
        for alpha, n_eps, theta in ((0.5, 1.0, 1.0), (0.5, 0.5, 1.0), (0.75, 0.5, 2.0), (0.4, 0.0, 1.0)):
            a = p_conv_unity(alpha, n_eps, theta)
            b = p_conv_unity_series(alpha, n_eps, 1.0, theta)
            assert a == pytest.approx(b, abs=1e-6)

    def test_p_zero_at_zero_time(self):
        # plateau + residue - integral cancel exactly at theta = 0
        for alpha, n_eps in ((0.5, 1.0), (0.7, 0.3)):
            assert p_conv_unity(alpha, n_eps, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_p_algebraic_plateau_approach(self):
        # the P-side convolution reaches 1/(n+1) only like theta^-alpha
        alpha, n_eps = 0.5, 1.0
        plateau = 1.0 / (n_eps + 1.0)
        predicted_gap = 200.0**-alpha / (gamma(1.0 - alpha) * (1.0 + n_eps) ** 2)
        assert plateau - p_conv_unity(alpha, n_eps, 200.0) == pytest.approx(
            predicted_gap, rel=1e-2
        )

    def test_monotone_in_theta(self):
        a = p_conv_unity(0.5, 0.5, 0.1)
        b = p_conv_unity(0.5, 0.5, 1.0)
        assert b > a

    def test_node_doubling_invariance(self):
        coarse = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=200)
        fine = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=400)
        for fn, args in (
            (i_alpha, (0.5, 2.0)),
            (q_conv_unity, (0.5, 0.8, 1.0)),
            (p_conv_unity, (0.5, 0.8, 1.0)),
        ):
            assert fn(*args, coarse) == pytest.approx(fn(*args, fine), abs=1e-10)


class TestInverseLaplace:
    def test_textbook_pair(self):
        assert inverse_laplace(lambda s: 1.0 / (s + 1.0), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-8
        )

    def test_abel_pair(self):
        assert inverse_laplace(lambda s: s**-0.5, 1.0) == pytest.approx(
            0.5641895835477563, rel=1e-8
        )

    def test_hn_image_against_series(self):
        p = HNParams(0.61, 0.8, 1.0)
        value = inverse_laplace(lambda s: hn_normalized_image(p, s), 0.5)
        assert value == pytest.approx(hn_relaxation_kernel(p, 0.5), rel=1e-6)

    def test_two_methods_agree(self):
        euler_spec = InverseLaplaceSpec("bromwich-series-acceleration", node_count=16)
        for transform in (lambda s: 1.0 / (s + 1.0), lambda s: (1.0 + s) ** -0.7):
            for t in (0.4, 1.7):
                a = inverse_laplace(transform, t)
                b = inverse_laplace(transform, t, euler_spec)
                assert a == pytest.approx(b, rel=1e-7)

    def test_roundtrip_families(self):
        # eh, Q, P kernels: series vs contour inversion of their symbols
        for alpha in (0.25, 0.5, 0.75):
            for i in range(10):
                t = 0.05 + (5.0 - 0.05) * i / 9
                series = eh_alpha(alpha, 1.0, t)
                inverted = talbot(lambda s: 1.0 / (1.0 + s**alpha), t, 32)
                assert inverted == pytest.approx(series, rel=1e-6)
        lam = 1.0
        for t in (0.1, 1.0, 5.0):
            series = q_kernel(0.5, lam, 1.0, t)
            inverted = talbot(lambda s: 1.0 / (lam + (1.0 + s) ** 0.5), t, 32)
            assert inverted == pytest.approx(series, rel=1e-6)
        n_eps = 0.5
        lam_p = n_eps

        def p_image(s):
            bracket = 1.0 - (1.0 + 1.0 / s) ** -0.5
            return bracket / (1.0 + lam_p * bracket)

        for t in (0.1, 1.0, 5.0):
            series = p_kernel(0.5, n_eps, 1.0, t)
            assert talbot(p_image, t, 32) == pytest.approx(series, rel=1e-6)

    def test_contour_failure_diagnostics(self):
        # a transform with a right-half-plane pole defeats the contour
        with pytest.raises((ContourError, OverflowError)):
            bromwich_euler(lambda s: 1.0 / (s - 50.0), 40.0, 48)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InverseLaplaceSpec(node_count=8)
        with pytest.raises(ValueError):
            InverseLaplaceSpec(method="bogus")
        with pytest.raises(ValueError):
            inverse_laplace(lambda s: 1.0 / s, 0.0)
