import math

import pytest

from fracrelax.quadrature import QuadratureSpec
from fracrelax.specfun import gamma, gauss_2f1_11
from fracrelax.suvorova import (
    SuvorovaModel,
    eh_weighted_regular,
    suvorova_convolution,
    suvorova_stress_series,
)
from fracrelax.vanin import VaninDistribution, normalizer, vanin_moment, vanin_pdf

import oracles

PARAMETER_BOX = [
    (a, b, sigma) for a in (1.0, 2.0) for b in (0.0, 1.0, 2.0) for sigma in (0.5, 1.0)
]


class TestVanin:
    def test_zero_at_origin(self):
        d = VaninDistribution(1.0, 1.0, 1.0)
        assert vanin_pdf(d, 0.0) == 0.0

    def test_frozen_normalizer_and_point_value(self):
        # A from the closed formula with gamma(1) = 1, 1F1(1, 3/2, 1/2)
        d = VaninDistribution(1.0, 0.0, 1.0)
        assert normalizer(d) == pytest.approx(0.70887490522720679, rel=1e-12)
        assert vanin_pdf(d, 1.0) == pytest.approx(0.50528288169254181, rel=1e-12)

    def test_normalizer_closed_form_vs_quadrature_oracle(self):
        for a, b, sigma in PARAMETER_BOX:
            closed = normalizer(VaninDistribution(a, b, sigma))
            by_quad = float(oracles.vanin_normalizer_quadrature(a, b, sigma))
            assert closed == pytest.approx(by_quad, rel=1e-8)

    def test_normalization_by_own_quadrature(self):
        for a, b, sigma in PARAMETER_BOX:
            d = VaninDistribution(a, b, sigma)
            assert vanin_moment(d, 0) == pytest.approx(1.0, abs=1e-8)

    def test_first_moment_frozen(self):
        d = VaninDistribution(1.0, 0.0, 1.0)
        assert vanin_moment(d, 1) == pytest.approx(1.4647947734915441, rel=1e-9)

    def test_moment_node_doubling(self):
        d = VaninDistribution(1.0, 0.0, 1.0)
        fine = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=400)
        assert vanin_moment(d, 1) == pytest.approx(vanin_moment(d, 1, fine), abs=1e-9)

    def test_variance_nonnegative(self):
        for a, b, sigma in ((1.0, 0.0, 1.0), (2.0, 2.0, 0.5)):
            d = VaninDistribution(a, b, sigma)
            m1 = vanin_moment(d, 1)
            m2 = vanin_moment(d, 2)
            assert m2 >= m1 * m1 - 1e-12

    def test_domain_errors(self):
        d = VaninDistribution(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            vanin_pdf(d, -0.1)
        with pytest.raises(ValueError):
            vanin_moment(d, 9)
        with pytest.raises(ValueError):
            VaninDistribution(1.0, -1.5, 1.0)


class TestWeightedEh:
    def test_bridge_to_standard_eh(self):
        # ehw(-k, t) is the standard eh of order 1-alpha at
        # lambda = k gamma(1-alpha)
        from fracrelax.specfun import eh_alpha

        alpha, k = 0.3, 0.4
        lam = k * gamma(1.0 - alpha)
        tau_eh = lam ** (-1.0 / (1.0 - alpha))
        for t in (0.2, 1.0, 3.0):
            assert eh_weighted_regular(alpha, k, t) * t**-alpha == pytest.approx(
                eh_alpha(1.0 - alpha, tau_eh, t), rel=1e-12
            )

    def test_leading_term(self):
        assert eh_weighted_regular(0.5, 0.3, 1e-30) == pytest.approx(
            1.0 / gamma(0.5), rel=1e-10
        )


class TestSuvorova:
    def test_no_heredity_reduces_to_phi(self):
        mdl = SuvorovaModel(a=1.0, b=1.0, k=0.0, alpha=0.5, strain_rate=1.0)
        t = math.e - 1.0
        assert suvorova_stress_series(mdl, t) == pytest.approx(1.0, rel=1e-14)
        assert suvorova_convolution(mdl, t) == pytest.approx(1.0, rel=1e-14)

    def test_zero_at_zero(self):
        mdl = SuvorovaModel(a=1.0, b=1.0, k=0.1, alpha=0.9, strain_rate=1.0)
        assert suvorova_stress_series(mdl, 0.0) == 0.0
        assert suvorova_convolution(mdl, 0.0) == 0.0

    def test_frozen_series_oracle(self):
        mdl = SuvorovaModel(a=1.0, b=1.0, k=0.1, alpha=0.9, strain_rate=1.0)
        assert suvorova_stress_series(mdl, 1.0) == pytest.approx(
            0.35979879432335181, rel=1e-12
        )
        mdl2 = SuvorovaModel(a=1.0, b=1.0, k=0.05, alpha=0.5, strain_rate=1.0)
        assert suvorova_stress_series(mdl2, 2.0) == pytest.approx(
            0.99381940315741591, rel=1e-12
        )

    def test_series_vs_convolution(self):
        # small k keeps the bridged series inside its crossover
        for alpha, k in ((0.7, 0.1), (0.9, 0.1), (0.7, 0.3)):
            mdl = SuvorovaModel(a=1.0, b=1.0, k=k, alpha=alpha, strain_rate=1.0)
            for t in (0.5, 1.0, 2.0):
                series = suvorova_stress_series(mdl, t)
                conv = suvorova_convolution(mdl, t)
                assert series == pytest.approx(conv, rel=1e-5)

    def test_near_elastic_limit_agreement(self):
        # alpha -> 1 with small k: both routes agree and the hereditary
        # correction over the instantaneous response shrinks with k
        mdl = SuvorovaModel(a=1.0, b=1.0, k=0.005, alpha=0.97, strain_rate=1.0)
        series = suvorova_stress_series(mdl, 1.0)
        conv = suvorova_convolution(mdl, 1.0)
        assert series == pytest.approx(conv, rel=1e-4)
        deviation = abs(series - mdl.phi(1.0))
        assert deviation < 0.1
        smaller = SuvorovaModel(a=1.0, b=1.0, k=0.002, alpha=0.97, strain_rate=1.0)
        assert abs(suvorova_stress_series(smaller, 1.0) - mdl.phi(1.0)) < deviation

    def test_convolution_node_doubling(self):
        mdl = SuvorovaModel(a=1.0, b=1.0, k=0.05, alpha=0.5, strain_rate=1.0)
        fine = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=400)
        assert suvorova_convolution(mdl, 2.0) == pytest.approx(
            suvorova_convolution(mdl, 2.0, fine), abs=1e-10
        )

    def test_log_identity_regression(self):
        # the 2F1(1,1;2;-x) x = ln(1+x) identity the series leans on
        for x in (0.1, 0.5, 0.9):
            assert gauss_2f1_11(2.0, -x) * x == pytest.approx(math.log1p(x), rel=1e-10)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            SuvorovaModel(a=1.0, b=1.0, k=0.1, alpha=1.0, strain_rate=1.0)
        with pytest.raises(ValueError):
            SuvorovaModel(a=1.0, b=-1.0, k=0.1, alpha=0.5, strain_rate=1.0)
