import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrelax.errors import BranchDegeneracyError, NonConvergenceError, PoleError
from fracrelax.kernels import HNParams, chgf_kernel_R, chgf_relaxation_S, hn_relaxation_kernel
from fracrelax.specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    _kummer_large_argument,
    eh_alpha,
    gamma,
    gamma_q,
    gauss_2f1_11,
    kummer_1f1,
    ln_gamma,
)
from fracrelax.validation import run_validation

import oracles


class TestGamma:
    def test_integer_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-14)

    def test_against_stdlib(self):
        for x in [0.1, 0.37, 1.9, 7.3, 23.0, 50.0]:
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_negative_non_integer(self):
        assert gamma(-0.5) == pytest.approx(math.gamma(-0.5), rel=1e-13)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma(x)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x):
        assert gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi == pytest.approx(
            1.0, rel=1e-12
        )

    def test_ln_gamma_matches(self):
        for x in (0.2, 1.5, 40.0, 300.0):
            assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


    def test_finite_up_to_171(self):
        # Gamma(171) = 7.3e306; only past 171.62 does it overflow a double
        for x in [143.0, 143.5, 150.25, 160.0, 170.5, 171.0]:
            value = gamma(x)
            assert math.isfinite(value)
            assert value == pytest.approx(float(mp.gamma(mp.mpf(x))), rel=1e-13)


class TestLnGammaMemo:
    """ln_gamma and gamma keep no state: each value is bitwise the C
    library's, poles raise every time, and a grid's values do not depend
    on the order it is evaluated in."""

    def test_bitwise_equal_to_libm(self):
        xs = [0.01, 0.2, 0.49, 0.5, 0.75, 1, 1.0, 2, 2.0, 1.5, 7.3, 40.0, 171.5, 300.0]
        for x in xs:
            assert ln_gamma(x).hex() == math.lgamma(x).hex(), x
            if x < 171.6:
                assert gamma(x).hex() == math.gamma(x).hex(), x
        for x in (-0.5, -2.25, -7.9):
            assert gamma(x).hex() == math.gamma(x).hex(), x

    def test_poles_are_not_cached(self):
        for x in (0.0, -1.0, -2.5, 0.0, -1.0, -2.5):
            with pytest.raises(PoleError):
                ln_gamma(x)

    def test_hn_kernel_independent_of_grid_order(self):
        p = HNParams(alpha=0.61, beta=0.8, tau0=1.0)
        ts = [0.01 * 1.6**k for k in range(14)]
        forward = [hn_relaxation_kernel(p, t) for t in ts]
        backward = [hn_relaxation_kernel(p, t) for t in reversed(ts)][::-1]
        assert [v.hex() for v in backward] == [v.hex() for v in forward]


class TestKummer:
    def test_at_zero(self):
        assert kummer_1f1(0.7, 1.0, 0.0) == 1.0

    def test_exponential_degeneration(self):
        # 1F1(1,1,x) = e^x
        assert kummer_1f1(1.0, 1.0, -2.0) == pytest.approx(0.1353352832366127, rel=1e-13)

    def test_frozen_series_oracle(self):
        # 200-term direct high-precision summation
        assert kummer_1f1(0.5, 1.0, -1.0) == pytest.approx(0.64503527044915007, rel=1e-13)

    def test_degeneration_grid(self):
        # 500 theta points on [0, 50]
        for i in range(500):
            theta = 50.0 * i / 499
            assert kummer_1f1(1.0, 1.0, -theta) == pytest.approx(
                math.exp(-theta), rel=1e-12
            )

    def test_transform_consistency_against_oracle(self):
        # high-precision direct series vs double-precision transformed route
        for a in (0.3, 0.61, 0.9):
            for x in [-1.0, -5.5, -12.0, -21.0, -30.0]:
                expected = float(oracles.kummer_series(a, 1.0, x, 400))
                assert kummer_1f1(a, 1.0, x) == pytest.approx(expected, rel=1e-9)

    def test_accuracy_envelope(self):
        # contract: |x| <= 100, 0 < a <= 5, c in {1, 2, 3/2}
        for a in (0.25, 1.7, 5.0):
            for c in (1.0, 2.0, 1.5):
                for x in (-100.0, -31.4, 3.0, 100.0):
                    expected = float(oracles.kummer_series(a, c, x, 600, dps=150))
                    assert kummer_1f1(a, c, x) == pytest.approx(expected, rel=1e-10)

    def test_bad_c(self):
        with pytest.raises(PoleError):
            kummer_1f1(1.0, 0.0, 1.0)
        with pytest.raises(PoleError):
            kummer_1f1(1.0, -3.0, 1.0)

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError):
            kummer_1f1(2.0, 1.0, 80.0, SeriesControl(max_terms=10))


# Shermergor's CHGF pair: S = 1F1(alpha; 1; -theta), R = (alpha/tau)
# 1F1(1+alpha; 2; -theta).  Below theta ~ 28 the Kummer-transformed series
# sums them; above it mostly the large-argument expansion, also where the
# series alone would need more than its 500-term budget (theta >~ 366).
CHGF_ALPHAS = (0.05, 0.2, 0.5, 0.8, 0.95, 0.999, 1.0 - 1e-9, 1.0)
CHGF_THETAS = np.geomspace(1e-3, 1e6, 28)


@pytest.mark.parametrize("alpha", CHGF_ALPHAS)
def test_chgf_pair_against_mpmath(alpha):
    tau = 2.5
    for theta in CHGF_THETAS:
        theta = float(theta)
        with mp.workdps(30):
            s_ref = float(mp.hyp1f1(alpha, 1, -theta))
            r_ref = float(mp.hyp1f1(1 + mp.mpf(alpha), 2, -theta))
        assert kummer_1f1(alpha, 1.0, -theta) == pytest.approx(s_ref, rel=1e-10), theta
        assert kummer_1f1(1.0 + alpha, 2.0, -theta) == pytest.approx(r_ref, rel=1e-10), theta
        assert chgf_relaxation_S(alpha, tau, theta * tau) == pytest.approx(s_ref, rel=1e-10)
        assert chgf_kernel_R(alpha, tau, theta * tau) == pytest.approx(
            alpha / tau * r_ref, rel=1e-10
        )


# Near the expansion's gate its remainder is about e^-x-sized, and the u = 1
# end alone understates it: (1.99, 2, 39.8) used to be accepted 1.14e-12 off.
@pytest.mark.parametrize(
    "a, c, x",
    [(1.99, 2.0, 39.8), (1.8, 2.0, 37.03), (1.9, 2.0, 37.8), (1.5, 2.0, 33.0),
     (0.9, 1.0, 33.2), (0.5, 1.0, 30.0), (0.05, 1.0, 28.0), (1.0 + 1e-9, 2.0, 45.0)],
)
def test_kummer_large_argument_within_rel_tol(a, c, x):
    with mp.workdps(30):
        expected = float(mp.hyp1f1(a, c, -x))
    expansion = _kummer_large_argument(a, c, x, DEFAULT_CONTROL)
    if expansion is not None:
        assert expansion == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert kummer_1f1(a, c, -x) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95, 1.0 - 1e-9])
def test_kummer_large_argument_taken_past_series_budget(alpha):
    # past x ~ 366 the 500-term series cannot serve the CHGF pair
    for a, c in ((alpha, 1.0), (1.0 + alpha, 2.0)):
        for x in (366.0, 1e3, 1e6):
            assert _kummer_large_argument(a, c, x, DEFAULT_CONTROL) is not None


def test_kummer_large_argument_seam():
    # the expansion against the Kummer-transformed series on x in [30, 300],
    # where both converge: the invariant lives in the validation suite
    (record,) = [c for c in run_validation(only="specfun")["checks"]
                 if c["name"] == "kummer_large_argument"]
    assert record["passed"], record


class TestGammaQ:
    def test_exponential_case(self):
        # Q(1, x) = e^-x
        for x in (0.5, 5.0, 50.0, 500.0):
            assert gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_against_mpmath(self):
        for a in (0.05, 0.3, 0.7, 0.99, 1.0, 2.5):
            for x in np.geomspace(a + 1.0, 700.0, 15):
                x = float(x)
                expected = float(mp.gammainc(a, x, mp.inf, regularized=True))
                assert gamma_q(a, x) == pytest.approx(expected, rel=1e-10), (a, x)

    def test_zero_first_denominator(self):
        # x + 1 - a = 0 opens the fraction with a zero denominator
        assert gamma_q(2.0, 1.0) == pytest.approx(2.0 / math.e, rel=1e-12)

    def test_underflow_is_zero(self):
        assert gamma_q(0.5, 1e4) == 0.0

    def test_domain(self):
        for a, x in ((0.0, 1.0), (-0.5, 1.0), (0.5, 0.0), (0.5, -1.0)):
            with pytest.raises(ValueError):
                gamma_q(a, x)

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError, match="incomplete gamma"):
            gamma_q(0.5, 0.01, SeriesControl(max_terms=3))


class TestGauss2F1:
    def test_log_identity_at_minus_one(self):
        assert gauss_2f1_11(2.0, -1.0) == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_at_zero(self):
        assert gauss_2f1_11(3.7, 0.0) == 1.0

    def test_frozen_series_oracle(self):
        assert gauss_2f1_11(2.5, -0.5) == pytest.approx(0.84311396670851713, rel=1e-13)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_log_identity(self, x):
        assert gauss_2f1_11(2.0, -x) * x == pytest.approx(math.log1p(x), rel=1e-10)

    def test_pfaff_region_against_oracle(self):
        # x <= -1 sits outside the direct series' disk; mpmath's analytic
        # continuation is the independent reference there
        import mpmath as mp

        for c in (2.3, 3.0, 2.05):
            for x in (-1.0, -4.0, -20.0):
                expected = float(mp.hyp2f1(1, 1, c, x))
                assert gauss_2f1_11(c, x) == pytest.approx(expected, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gauss_2f1_11(2.0, 1.0)


class TestEhAlpha:
    def test_alpha_one_is_exponential(self):
        assert eh_alpha(1.0, 1.0, 2.0) == pytest.approx(0.1353352832366127, rel=1e-12)

    def test_frozen_series_oracle(self):
        # 300-term exact-rational-exponent summation
        assert eh_alpha(0.5, 1.0, 0.25) == pytest.approx(0.5126888229025867, rel=1e-12)

    def test_small_time_prefactor(self):
        # eh * t^(1-alpha) -> 1/gamma(alpha) as t -> 0+ (the first correction
        # is O(t^alpha), so t must be deep in the corner)
        for alpha in (0.3, 0.61, 0.9):
            t = 1e-40
            assert eh_alpha(alpha, 1.0, t) * t ** (1.0 - alpha) == pytest.approx(
                1.0 / gamma(alpha), rel=1e-6
            )

    def test_singular_at_zero(self):
        assert eh_alpha(0.5, 1.0, 0.0) == math.inf
        assert eh_alpha(1.0, 1.0, 0.0) == 1.0

    def test_contiguity_in_alpha(self):
        for theta in (0.1, 1.0, 5.0):
            assert abs(eh_alpha(1.0 - 1e-6, 1.0, theta) - eh_alpha(1.0, 1.0, theta)) < 1e-4

    def test_against_oracle_grid(self):
        for alpha in (0.25, 0.5, 0.75):
            for t in (0.05, 0.7, 3.0):
                expected = float(oracles.eh_series(alpha, 1.0, t, 500))
                assert eh_alpha(alpha, 1.0, t) == pytest.approx(expected, rel=1e-10)
            # near the crossover the alternating series keeps ~8 digits in
            # doubles (well inside the 1e-6 cross-representation budget)
            expected = float(oracles.eh_series(alpha, 1.0, 9.5, 500))
            assert eh_alpha(alpha, 1.0, 9.5) == pytest.approx(expected, rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eh_alpha(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            eh_alpha(0.5, 1.0, 11.0)  # beyond series crossover
        with pytest.raises(ValueError):
            eh_alpha(1.5, 1.0, 1.0)
