import math

import pytest

from fracrelax.errors import NoResolventError, NonConvergenceError
from fracrelax.kernels import (
    KERNEL_FAMILIES,
    HNParams,
    KernelModel,
    _p_kernel_series,
    abel_kernel,
    chgf_kernel_R,
    chgf_relaxation_S,
    hn_creep_resolvent,
    hn_creep_resolvent_series,
    hn_relaxation_function,
    hn_relaxation_kernel,
    p_kernel,
    p_nu_response,
    q_kernel,
    rzhanitsyn_kernel,
)
from fracrelax.specfun import SeriesControl, eh_alpha, gamma

import oracles


class TestChgfPair:
    def test_relaxation_alpha_one(self):
        assert chgf_relaxation_S(1.0, 1.0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_relaxation_at_zero(self):
        assert chgf_relaxation_S(0.37, 2.2, 0.0) == 1.0

    def test_relaxation_frozen_oracle(self):
        # polyisobutylene exponent, cross-checked against the Laplace route in
        # test_quadrature
        assert chgf_relaxation_S(0.61, 1.0, 1.0) == pytest.approx(
            0.57783142201659395, rel=1e-13
        )

    def test_kernel_at_zero(self):
        assert chgf_kernel_R(1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_kernel_alpha_one(self):
        assert chgf_kernel_R(1.0, 2.0, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-13)

    def test_kernel_is_minus_dS_dt(self):
        h = 1e-5
        for alpha in (0.3, 0.5, 0.9):
            for t in (0.2, 0.7, 2.5):
                fd = -(
                    chgf_relaxation_S(alpha, 1.0, t + h)
                    - chgf_relaxation_S(alpha, 1.0, t - h)
                ) / (2 * h)
                assert chgf_kernel_R(alpha, 1.0, t) == pytest.approx(fd, abs=1e-6)

    def test_kernel_frozen_oracle(self):
        assert chgf_kernel_R(0.5, 1.0, 0.7) == pytest.approx(0.30060826662478198, rel=1e-13)

    def test_monotone_decay(self):
        previous = 1.0 + 1e-15
        for i in range(60):
            value = chgf_relaxation_S(0.61, 1.0, 0.1 * i)
            assert value <= previous
            previous = value

    def test_argument_checks(self):
        # the Kummer series sums any shape without complaint (S(1.5, 1, 2)
        # would be -0.0499), so shapes outside the family are refused
        for fn in (chgf_relaxation_S, chgf_kernel_R):
            for alpha, tau in ((1.5, 1.0), (0.0, 1.0), (-0.5, 1.0), (0.5, -1.0), (0.5, 0.0)):
                with pytest.raises(ValueError):
                    fn(alpha, tau, 2.0)


class TestQKernel:
    def test_alpha_one(self):
        assert q_kernel(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_frozen_product_oracle(self):
        assert q_kernel(0.5, 1.0, 1.0, 0.5) == pytest.approx(0.1666309411753726, rel=1e-12)

    def test_small_time_prefactor(self):
        t = 1e-40
        for alpha in (0.4, 0.8):
            assert q_kernel(alpha, 1.0, 1.0, t) * t ** (1.0 - alpha) == pytest.approx(
                1.0 / gamma(alpha), rel=1e-6
            )

    def test_zero_shift_is_damped_abel(self):
        t = 0.7
        assert q_kernel(0.5, 0.0, 2.0, t) == pytest.approx(
            math.exp(-t / 2.0) * t**-0.5 / gamma(0.5), rel=1e-13
        )


class TestPKernel:
    def test_zero_shift_reduces_to_chgf_kernel(self):
        # k = 0 term only: alpha 1F1(alpha+1, 2, -theta) / tau^(alpha+1),
        # i.e. the simple-solid kernel scaled by tau^-alpha
        for t in (0.0, 0.5, 2.0):
            assert p_kernel(0.5, 0.0, 1.0, t) == pytest.approx(
                chgf_kernel_R(0.5, 1.0, t), rel=1e-12
            )

    def test_alpha_one_exponential(self):
        # transform route gives exp(-(n+1) t/tau)/tau^2 at alpha = 1
        for n_eps, t in ((0.5, 1.0), (2.0, 0.3)):
            assert p_kernel(1.0, n_eps, 1.0, t) == pytest.approx(
                math.exp(-(n_eps + 1.0) * t), rel=1e-10
            )

    def test_frozen_double_series_oracle(self):
        assert p_kernel(0.5, 0.5, 1.0, 1.0) == pytest.approx(0.19085644641477541, rel=1e-12)

    def test_value_at_zero(self):
        # the k-sum telescopes to alpha/tau^(alpha+1) at t = 0
        assert p_kernel(0.61, 1.5, 2.0, 0.0) == pytest.approx(
            0.61 / 2.0**1.61, rel=1e-10
        )

    def test_non_convergence_for_large_n_eps(self):
        # the time-domain series reference; its outer terms fall like
        # (n/(n+1))^k
        with pytest.raises(NonConvergenceError):
            _p_kernel_series(0.5, 80.0, 1.0, 1.0, SeriesControl(max_terms=100))


class TestHNKernel:
    def test_debye_row(self):
        p = HNParams(1.0, 1.0, 2.0)
        assert hn_relaxation_kernel(p, 2.0) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-13)

    def test_rzhanitsyn_row(self):
        p = HNParams(1.0, 0.5, 1.0)
        assert hn_relaxation_kernel(p, 1.0) == pytest.approx(
            math.exp(-1.0) / math.sqrt(math.pi), rel=1e-13
        )

    def test_rabotnov_row_equals_eh(self):
        p = HNParams(0.5, 1.0, 1.0)
        assert hn_relaxation_kernel(p, 0.2) == pytest.approx(
            eh_alpha(0.5, 1.0, 0.2), rel=1e-12
        )

    def test_reduction_lattice_grids(self):
        p_rab = HNParams(0.5, 1.0, 1.0)
        p_rzh = HNParams(1.0, 0.6, 1.0)
        for i in range(20):
            t = 0.05 + (5.0 - 0.05) * i / 19
            assert hn_relaxation_kernel(p_rab, t) == pytest.approx(
                eh_alpha(0.5, 1.0, t), rel=1e-8
            )
            assert hn_relaxation_kernel(p_rzh, t) == pytest.approx(
                rzhanitsyn_kernel(0.6, 1.0, t), rel=1e-10
            )

    def test_four_parameter_frozen_oracle(self):
        p = HNParams(0.61, 0.8, 1.0)
        assert hn_relaxation_kernel(p, 0.5) == pytest.approx(0.32256959355448192, rel=1e-12)

    def test_singular_origin(self):
        assert hn_relaxation_kernel(HNParams(0.61, 0.8, 1.0), 0.0) == math.inf
        assert hn_relaxation_kernel(HNParams(1.0, 1.0, 2.0), 0.0) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            hn_relaxation_kernel(HNParams(0.5, 0.5, 1.0), -1.0)
        with pytest.raises(ValueError):
            hn_relaxation_kernel(HNParams(0.5, 0.5, 1.0), 6.0)  # beyond crossover


class TestHNResolvent:
    def test_abel_row(self):
        p = HNParams(0.5, 1.0, 1.0)
        assert hn_creep_resolvent(p, 4.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
        )

    def test_koltunov_row_frozen(self):
        # exp(-theta)/t sum_n theta^(n beta)/gamma(n beta); the printed table
        # carries a sign typo in the exponent (see the general-series check)
        p = HNParams(1.0, 0.5, 1.0)
        assert hn_creep_resolvent(p, 1.0) == pytest.approx(2.0502545416600122, rel=1e-12)

    def test_debye_has_no_resolvent(self):
        with pytest.raises(NoResolventError):
            hn_creep_resolvent(HNParams(1.0, 1.0, 1.0), 1.0)

    def test_general_series_matches_reductions(self):
        # the double series against both closed-form branches on [0.05, 2]
        p_abel = HNParams(0.5, 1.0, 1.0)
        p_kolt = HNParams(1.0, 0.5, 1.0)
        for i in range(20):
            t = 0.05 + (2.0 - 0.05) * i / 19
            assert hn_creep_resolvent_series(p_abel, t) == pytest.approx(
                hn_creep_resolvent(p_abel, t), rel=1e-10
            )
            assert hn_creep_resolvent_series(p_kolt, t) == pytest.approx(
                hn_creep_resolvent(p_kolt, t), rel=1e-12
            )

    def test_four_parameter_against_oracle(self):
        p = HNParams(0.61, 0.8, 1.0)
        for t in (0.1, 0.5, 1.5):
            expected = float(oracles.hn_resolvent_series(0.61, 0.8, 1.0, t))
            assert hn_creep_resolvent(p, t) == pytest.approx(expected, rel=1e-10)


class TestHNRelaxationFunction:
    def test_zero(self):
        assert hn_relaxation_function(HNParams(0.61, 0.8, 1.0), 0.0) == 0.0

    def test_debye_integral(self):
        p = HNParams(1.0, 1.0, 1.0)
        assert hn_relaxation_function(p, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_frozen_quadrature_oracle(self):
        p = HNParams(0.61, 0.8, 1.0)
        assert hn_relaxation_function(p, 0.5) == pytest.approx(0.55172552199230569, rel=1e-12)

    def test_quadrature_consistency(self):
        from scipy.integrate import quad

        p = HNParams(0.61, 0.8, 1.0)
        ab = p.alpha * p.beta
        value, _ = quad(
            lambda u: hn_relaxation_kernel(p, u ** (1.0 / ab)) * u ** (1.0 / ab - 1.0),
            0.0,
            1.5**ab,
            epsabs=1e-12,
            epsrel=1e-11,
            limit=200,
        )
        assert hn_relaxation_function(p, 1.5) == pytest.approx(value / ab, rel=1e-9)

    def test_monotone_increase(self):
        p = HNParams(0.61, 0.8, 1.0)
        previous = -1.0
        for i in range(40):
            value = hn_relaxation_function(p, 0.1 * i)
            assert value >= previous
            previous = value
            assert 0.0 <= value <= 1.0


class TestPNuResponse:
    def test_unit_at_zero(self):
        assert p_nu_response(1.0, 0.5, 1.0, 4, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert p_nu_response(0.63, 0.6, 1.0, 3, 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_frozen_series_oracles(self):
        # 80-term brute-force summation (|q| < 1 branch via variant 4 and
        # variant 3 at m = 0.6; the spec's (m=0.5, variant 3) point sits on
        # |q| = 1 and is excluded by its own degeneracy clause)
        assert p_nu_response(0.63, 0.5, 1.0, 4, 1.0) == pytest.approx(
            0.32886139923123495, rel=1e-11
        )
        assert p_nu_response(0.63, 0.6, 1.0, 3, 1.0) == pytest.approx(
            0.70882749357363555, rel=1e-11
        )

    def test_big_q_branch_against_oracle(self):
        # m = 0.3, variant 3: q = 7/3 > 1
        expected = float(oracles.p_nu_series(0.63, 0.3, 3, 1.0, 1.0))
        assert p_nu_response(0.63, 0.3, 1.0, 3, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_alpha_one_closed_form(self):
        # both branches collapse to the standard-linear-solid exponential
        for m, variant in ((0.5, 4), (0.4, 3), (3.0, 4), (0.8, 3)):
            q = 1.0 / m - 1.0 if variant == 3 else m - 1.0
            assert p_nu_response(1.0, m, 1.0, variant, 1.0) == pytest.approx(
                math.exp(-1.0 / (1.0 + q)), rel=1e-10
            )

    def test_branch_degeneracy(self):
        # |q| = 1 degenerates both time-domain series, not the response:
        # the cut rule is smooth there
        assert p_nu_response(1.0, 2.0, 1.0, 4, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert p_nu_response(0.63, 0.5, 1.0, 3, 1.0) == pytest.approx(
            oracles.shermergor_p_nu(0.63, 1.0, 1.0), rel=1e-12
        )

    def test_reciprocal_parameterization_agrees(self):
        for m, t in ((0.4, 0.7), (0.7, 1.3), (2.5, 0.5)):
            a = p_nu_response(0.63, m, 1.0, 3, t)
            b = p_nu_response(0.63, 1.0 / m, 1.0, 4, t)
            assert a == pytest.approx(b, rel=1e-8)


class TestModels:
    def test_kernel_model_validation(self):
        with pytest.raises(ValueError):
            KernelModel(family="Nope", alpha=0.5, tau=1.0)
        with pytest.raises(ValueError):
            KernelModel(family="Rabotnov", alpha=0.5, tau=-1.0)
        with pytest.raises(ValueError):
            KernelModel(family="Rabotnov", alpha=0.5, tau=1.0, beta=0.5)

    def test_kernel_model_moduli_pair(self):
        # HNParams' rule, checked when the model is built, for every family
        for family in KERNEL_FAMILIES:
            with pytest.raises(ValueError, match="given together"):
                KernelModel(family=family, alpha=0.6, tau=1.5, m_inf=2.0)
            with pytest.raises(ValueError, match="m_inf >= m_0 > 0"):
                KernelModel(family=family, alpha=0.6, tau=1.5, m_inf=1.0, m_0=2.0)

    def test_hn_params_validation(self):
        with pytest.raises(ValueError):
            HNParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            HNParams(0.5, 1.0, 1.0, m_inf=1.0, m_0=2.0)
        with pytest.raises(ValueError):
            HNParams(0.5, 1.0, 1.0, m_inf=2.0)
        p = HNParams(0.5, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        assert p.delta_m == 1.0

    def test_hn_params_view(self):
        # Rzhanitsyn-Davidson is HN with alpha = 1: its shape parameter sits
        # in the HN beta slot, not the Cole-Cole alpha slot
        rd = KernelModel(family="RzhanitsynDavidson", alpha=0.4, tau=2.0, m_inf=2.0, m_0=1.0)
        assert rd.hn_params() == HNParams(1.0, 0.4, 2.0, m_inf=2.0, m_0=1.0)
        hn = KernelModel(family="HavriliakNegami", alpha=0.6, tau=2.0, beta=0.8)
        assert hn.hn_params() == HNParams(0.6, 0.8, 2.0)

    def test_abel_kernel_value(self):
        assert abel_kernel(0.5, 1.0, 4.0) == pytest.approx(0.2820947917738781, rel=1e-13)
