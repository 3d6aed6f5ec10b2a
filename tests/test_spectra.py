import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracrelax.errors import DegenerateSpectrumError
from fracrelax.evaluate import modulus
from fracrelax.kernels import HNParams, KernelModel
from fracrelax.spectra import (
    chgf_kernel_image,
    hn_normalized_image,
    numeric_spectrum,
    rabotnov_spectrum_H,
    rabotnov_spectrum_L,
    rzhanitsyn_image,
)


def compliance(model, j_inf, j_0, omega):
    """The printed compliance forms are J(i omega) = J_inf + dJ K(i omega):
    the modulus formula with its two limits swapped (J_0 > J_inf)."""
    return j_inf + j_0 - modulus(replace(model, m_inf=j_0, m_0=j_inf), omega)


class TestComplianceImages:
    def model(self, family):
        return KernelModel(family, 0.5, 1.0)

    def test_rzhdav_high_frequency(self):
        assert compliance(self.model("RzhanitsynDavidson"), 1.0, 2.0, 1e12) == pytest.approx(
            1.0, rel=1e-5
        )

    def test_rzhdav_low_frequency(self):
        assert compliance(self.model("RzhanitsynDavidson"), 1.0, 2.0, 0.0) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_chgf_low_frequency_limit(self):
        assert compliance(self.model("CHGF"), 1.0, 2.0, 1e-12) == pytest.approx(2.0, rel=1e-5)

    def test_chgf_high_frequency(self):
        assert compliance(self.model("CHGF"), 1.0, 2.0, 1e12) == pytest.approx(1.0, rel=1e-5)

    def test_abel_value(self):
        # the Abel form is coupled by J_inf, which is dJ when J_0 = 2 J_inf
        expected = 1.0 + (1j) ** -0.5
        assert compliance(self.model("Abel"), 1.0, 2.0, 1.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_abel_singular_at_zero(self):
        with pytest.raises(ValueError):
            modulus(KernelModel("Abel", 0.5, 1.0, m_inf=2.0, m_0=1.0), 0.0)


class TestRabotnovModulus:
    def test_endpoints(self):
        model = KernelModel("Rabotnov", 0.61, 1.0, m_inf=2.0, m_0=1.0)
        assert modulus(model, 0.0) == pytest.approx(1.0, rel=1e-14)  # M0 = M_inf - dM
        assert modulus(model, 1e14) == pytest.approx(2.0, rel=1e-5)

    def test_endpoint_reciprocity_with_derived_tau_sigma(self):
        m_inf, m_0, alpha, tau_eps = 2.0, 1.0, 0.61, 1.0
        m_ratio = m_0 / m_inf
        tau_sigma = tau_eps / m_ratio ** (1.0 / alpha)
        for omega in (0.0, 1e14):
            mv = modulus(KernelModel("Rabotnov", alpha, tau_eps, m_inf=m_inf, m_0=m_0), omega)
            jv = compliance(KernelModel("Rabotnov", alpha, tau_sigma), 1.0 / m_inf, 1.0 / m_0, omega)
            assert mv * jv == pytest.approx(1.0, rel=1e-5)

    def test_hn_reduction(self):
        hn = KernelModel("HavriliakNegami", 0.61, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        rabotnov = KernelModel("Rabotnov", 0.61, 1.0, m_inf=2.0, m_0=1.0)
        for omega in (0.1, 1.0, 10.0):
            assert modulus(hn, omega) == pytest.approx(modulus(rabotnov, omega), rel=1e-14)


class TestChgfModulus:
    def test_printed_limits(self):
        # the printed CHGF "modulus" M_0 + (M_inf - M_0)(1 + i omega tau)^(-alpha)
        # is the Rzhanitsyn-Davidson form with its labels swapped: omega -> 0
        # gives m_inf, omega -> inf gives m_0
        rd = KernelModel("RzhanitsynDavidson", 0.61, 1.0)
        assert compliance(rd, 1.0, 2.0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert compliance(rd, 1.0, 2.0, 1e14) == pytest.approx(1.0, rel=1e-5)
        # the modulus of the CHGF kernel itself relaxes from m_inf to m_0
        chgf = KernelModel("CHGF", 0.61, 1.0, m_inf=2.0, m_0=1.0)
        assert modulus(chgf, 0.0) == 1.0
        assert modulus(chgf, 1e14) == pytest.approx(2.0, rel=1e-5)

    def test_alpha_one_value(self):
        rd = KernelModel("RzhanitsynDavidson", 1.0, 1.0)
        assert compliance(rd, 1.0, 2.0, 1.0) == pytest.approx(1.0 + 1.0 / (1.0 + 1j), rel=1e-14)
        chgf = KernelModel("CHGF", 1.0, 1.0, m_inf=2.0, m_0=1.0)
        assert modulus(chgf, 1.0) == pytest.approx(2.0 - 1.0 / (1.0 + 1j), rel=1e-14)


def hn_model(alpha, beta, tau):
    return KernelModel("HavriliakNegami", alpha, tau, beta, m_inf=2.0, m_0=1.0)


class TestHNModulus:
    # with m_inf = 2 and m_0 = 1 the modulus is 2 - m(i omega), m the
    # normalized relaxing part 1 / [1 + (i omega tau0)^alpha]^beta
    def test_debye_point(self):
        assert modulus(hn_model(1.0, 1.0, 1.0), 1.0) == pytest.approx(1.5 + 0.5j, rel=1e-14)

    def test_limits(self):
        model = hn_model(0.61, 0.8, 1.0)
        assert modulus(model, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert abs(modulus(model, 1e15) - 2.0) < 1e-6

    def test_cole_cole_point_against_direct_arithmetic(self):
        assert modulus(hn_model(0.5, 1.0, 1.0), 1.0) == pytest.approx(
            2.0 - 1.0 / (1.0 + (1j) ** 0.5), rel=1e-14
        )

    def test_davidson_cole_reduction(self):
        model = hn_model(1.0, 0.7, 1.3)
        for omega in (0.3, 3.0):
            assert modulus(model, omega) == pytest.approx(
                2.0 - (1.0 + 1j * omega * 1.3) ** -0.7, rel=1e-14
            )

    def test_loss_nonpositive_imag(self):
        # Im m <= 0, so the loss modulus Im M = -dM Im m is >= 0
        for alpha in (0.3, 0.61, 1.0):
            for beta in (0.4, 1.0):
                model = hn_model(alpha, beta, 1.0)
                for k in range(40):
                    omega = 1e-3 * (1e6) ** (k / 39)
                    assert modulus(model, omega).imag >= -1e-15


class TestRabotnovSpectrum:
    def test_peak_value(self):
        assert rabotnov_spectrum_H(0.5, 1.0, 1.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-14
        )

    def test_log_symmetry(self):
        for s in (1.3, 3.7, 40.0):
            assert rabotnov_spectrum_H(0.61, 1.0, s) == pytest.approx(
                rabotnov_spectrum_H(0.61, 1.0, 1.0 / s), rel=1e-15
            )

    @given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=150, deadline=None)
    def test_positive_density(self, alpha, u):
        assert rabotnov_spectrum_H(alpha, 1.0, math.exp(u)) > 0.0

    def test_normalization_closed_form_oracle(self):
        # int du / (cosh(a u) + cos b) = 2 b / (a sin b) makes the density
        # integrate to exactly 1; quadrature must reproduce that
        for alpha in (0.25, 0.5, 0.61, 0.75, 0.9):
            span = 30.0 / alpha
            total, _ = quad(
                lambda u: rabotnov_spectrum_H(alpha, 1.0, math.exp(u)),
                -span,
                span,
                points=[0.0],
                epsabs=1e-12,
                epsrel=1e-12,
                limit=400,
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_shift_property(self):
        tau_eps, tau_sigma = 0.7, 2.9
        for tau in (0.01, 0.5, 7.0):
            assert rabotnov_spectrum_L(0.61, tau_sigma, tau) == pytest.approx(
                rabotnov_spectrum_H(0.61, tau_eps, tau * tau_eps / tau_sigma), rel=1e-14
            )

    def test_degenerate_alpha(self):
        with pytest.raises(DegenerateSpectrumError):
            rabotnov_spectrum_H(1.0, 1.0, 1.0)


class TestNumericSpectrum:
    def test_matches_closed_form_rabotnov(self):
        p = HNParams(0.61, 1.0, 1.0)
        for tau in (0.2, 1.0, 5.0):
            numeric = numeric_spectrum(lambda s: hn_normalized_image(p, s), tau)
            assert numeric == pytest.approx(rabotnov_spectrum_H(0.61, 1.0, tau), rel=1e-13)

    def test_rzhanitsyn_support_and_value(self):
        beta, tau0 = 0.7, 1.0
        image = lambda s: rzhanitsyn_image(beta, tau0, s)
        # closed form (sin b pi / pi) (tau/(tau0-tau))^beta below tau0, 0 above
        for tau in (0.3, 0.9):
            expected = math.sin(beta * math.pi) / math.pi * (tau / (tau0 - tau)) ** beta
            assert numeric_spectrum(image, tau) == pytest.approx(expected, rel=1e-12)
        assert numeric_spectrum(image, 1.5) == pytest.approx(0.0, abs=1e-250)

    def test_chgf_support_and_value(self):
        alpha, tau0 = 0.6, 1.0
        image = lambda s: chgf_kernel_image(alpha, tau0, s)
        for tau in (1.5, 3.0):
            expected = math.sin(alpha * math.pi) / math.pi * (tau / tau0 - 1.0) ** -alpha
            assert numeric_spectrum(image, tau) == pytest.approx(expected, rel=1e-12)
        assert numeric_spectrum(image, 0.5) == pytest.approx(0.0, abs=1e-250)

    def test_opposite_support_sides(self):
        # Rzhanitsyn mass sits below its characteristic time, the
        # confluent-hypergeometric mass above it: mirrored asymmetry
        rzh = lambda s: rzhanitsyn_image(0.7, 1.0, s)
        chg = lambda s: chgf_kernel_image(0.7, 1.0, s)
        assert numeric_spectrum(rzh, 0.5) > 0.0 and numeric_spectrum(rzh, 2.0) < 1e-200
        assert numeric_spectrum(chg, 2.0) > 0.0 and numeric_spectrum(chg, 0.5) < 1e-200
