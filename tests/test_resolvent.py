import cmath
import math

import numpy as np
import pytest

from fracrelax.errors import PoleError, SingularSymbolError
from fracrelax.laplace import talbot
from fracrelax.resolvent import (
    ResolventSpec,
    basic_operator_symbol,
    degree_lowering_residual,
    modulus_compliance_transform,
    resolvent_symbol,
    resolvent_transform,
    volterra_resolvent_transform,
)


def random_specs(count, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        alpha = float(rng.uniform(0.15, 1.0))
        tau = float(rng.uniform(0.3, 3.0))
        m = float(rng.uniform(0.2, 0.95))
        n_eps = float(rng.uniform(0.2, 4.0))
        n_sigma = m * (1.0 + n_eps) - 1.0
        out.append(ResolventSpec.eh(alpha, tau_eps=tau, m=m))
        if n_sigma >= 0.0:
            out.append(ResolventSpec.q(alpha, tau, n_eps=n_eps, n_sigma=n_sigma))
            out.append(ResolventSpec.p(alpha, tau, n_eps=n_eps, n_sigma=n_sigma))
    return out[:count]


class TestConstruction:
    def test_eh_from_times(self):
        spec = ResolventSpec.eh(0.5, tau_eps=1.0, tau_sigma=4.0)
        assert spec.lambda_ == pytest.approx(1.0)
        assert spec.m == pytest.approx(0.5)
        assert spec.mu == pytest.approx(0.5)
        assert spec.kappa == pytest.approx(0.5)

    def test_eh_equivalent_subsets(self):
        a = ResolventSpec.eh(0.61, tau_eps=2.0, m=0.4)
        b = ResolventSpec.eh(0.61, lambda_=2.0**-0.61, kappa=2.0**-0.61 * 0.6)
        assert a.mu == pytest.approx(b.mu, rel=1e-14)

    def test_eh_overdetermined_conflict(self):
        with pytest.raises(ValueError, match="over-determined"):
            ResolventSpec.eh(0.5, tau_eps=1.0, tau_sigma=4.0, m=0.7)

    def test_q_relations(self):
        spec = ResolventSpec.q(0.5, 2.0, n_eps=3.0, n_sigma=1.0)
        scale = 2.0**-0.5
        assert spec.lambda_ == pytest.approx(3.0 * scale)
        assert spec.mu == pytest.approx(1.0 * scale)
        assert spec.m == pytest.approx(0.5)
        assert spec.kappa == pytest.approx((1.0 - 0.5) * 4.0 * scale)
        assert spec.kappa == pytest.approx((1.0 / 0.5 - 1.0) * 2.0 * scale)

    def test_p_scale(self):
        spec = ResolventSpec.p(0.5, 2.0, n_eps=3.0, n_sigma=1.0)
        assert spec.lambda_ == pytest.approx(3.0 * 2.0**0.5)

    def test_q_from_m(self):
        spec = ResolventSpec.q(0.7, 1.0, n_eps=2.0, m=0.5)
        assert spec.n_sigma == pytest.approx(0.5)

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ResolventSpec.q(0.5, 1.0, n_eps=1.0, n_sigma=3.0)

    def test_insufficient(self):
        with pytest.raises(ValueError):
            ResolventSpec.eh(0.5, tau_eps=1.0)


class TestBasicOperators:
    def test_eh_symbol(self):
        spec = ResolventSpec.eh(0.5, tau_eps=1.0, m=0.5)
        value = basic_operator_symbol(spec, 1j)
        assert value == pytest.approx(complex(math.sqrt(0.5), math.sqrt(0.5)), rel=1e-14)

    def test_q_symbol(self):
        spec = ResolventSpec.q(1.0, 1.0, n_eps=1.0, n_sigma=0.5)
        assert basic_operator_symbol(spec, 1j) == pytest.approx(1.0 + 1.0j, rel=1e-14)

    def test_p_symbol_direct_complex(self):
        spec = ResolventSpec.p(0.5, 1.0, n_eps=1.0, n_sigma=0.5)
        expected = 1.0 / (1.0 - (1.0 + 1.0 / 2.0j) ** -0.5)
        assert basic_operator_symbol(spec, 2j) == pytest.approx(expected, rel=1e-14)

    def test_p_rejects_zero_frequency(self):
        spec = ResolventSpec.p(0.5, 1.0, n_eps=1.0, n_sigma=0.5)
        with pytest.raises(ValueError):
            resolvent_transform(spec, spec.lambda_, 0.0)

    def test_conjugate_symmetry(self):
        spec = ResolventSpec.eh(0.61, tau_eps=1.3, m=0.4)
        assert basic_operator_symbol(spec, -2j) == pytest.approx(
            basic_operator_symbol(spec, 2j).conjugate(), rel=1e-15
        )


class TestResolvent:
    def test_standard_linear_solid_symbol(self):
        spec = ResolventSpec.eh(1.0, tau_eps=1.0, m=0.5)
        for omega in (0.1, 1.0, 10.0):
            assert resolvent_transform(spec, 2.0, omega) == pytest.approx(
                1.0 / (2.0 + 1j * omega), rel=1e-14
            )

    def test_zero_shift_gives_abel_symbol(self):
        spec = ResolventSpec.eh(0.5, tau_eps=1.0, m=0.5)
        assert resolvent_transform(spec, 0.0, 1.0) == pytest.approx(
            (1j) ** -0.5, rel=1e-14
        )

    def test_singular_symbol(self):
        spec = ResolventSpec.eh(1.0, tau_eps=1.0, m=0.5)
        with pytest.raises(SingularSymbolError):
            resolvent_symbol(spec, -1.0, complex(1.0, 0.0))

    def test_matches_time_domain_eh_kernel(self):
        # L^-1 of 1/(shift + s^alpha) is the eh kernel with its own timescale
        from fracrelax.specfun import eh_alpha

        spec = ResolventSpec.eh(0.5, tau_eps=1.0, m=0.5)
        shift = 0.8
        tau_eh = shift ** (-1.0 / 0.5)
        for t in (0.3, 1.0, 3.0):
            inverted = talbot(lambda s: resolvent_symbol(spec, shift, s), t, 32)
            assert inverted == pytest.approx(eh_alpha(0.5, tau_eh, t), rel=1e-8)

    def test_matches_time_domain_q_kernel(self):
        # the resolvent of the damped operator at shift lambda inverts to
        # exp(-t/tau) eh(lambda, t)
        from fracrelax.kernels import q_kernel

        spec = ResolventSpec.q(0.5, 1.3, n_eps=1.0, n_sigma=0.5)
        for t in (0.3, 1.0, 3.0):
            inverted = talbot(lambda s: resolvent_symbol(spec, spec.lambda_, s), t, 32)
            assert inverted == pytest.approx(
                q_kernel(0.5, spec.lambda_, 1.3, t), rel=1e-7
            )

    def test_matches_time_domain_p_kernel(self):
        # the resolvent of the third operator at shift lambda = n_eps tau^alpha
        # inverts to the double-series kernel
        from fracrelax.kernels import p_kernel

        spec = ResolventSpec.p(0.5, 1.3, n_eps=0.5, n_sigma=0.2)
        for t in (0.3, 1.0, 3.0):
            inverted = talbot(lambda s: resolvent_symbol(spec, spec.lambda_, s), t, 32)
            assert inverted == pytest.approx(p_kernel(0.5, 0.5, 1.3, t), rel=1e-7)


def hilbert_residual(spec, lambda1, lambda2, omegas):
    """Max over omegas of |R(l1) R(l2) - [R(l1) - R(l2)]/(l2 - l1)|; the
    identity is exact in symbols, so the residual is rounding-level."""
    worst = 0.0
    for omega in omegas:
        r1 = resolvent_transform(spec, lambda1, omega)
        r2 = resolvent_transform(spec, lambda2, omega)
        worst = max(worst, abs(r1 * r2 - (r1 - r2) / (lambda2 - lambda1)))
    return worst


class TestIdentities:
    def test_hilbert_identity_grid(self):
        omegas = [0.1 * 1.4**k for k in range(20)]
        spec = ResolventSpec.eh(1.0, tau_eps=1.0, m=0.5)
        assert hilbert_residual(spec, 1.0, 2.0, omegas) <= 1e-14

    def test_hilbert_identity_random_specs(self):
        omegas = [1e-3 * (1e6) ** (k / 99) for k in range(100)]
        for spec in random_specs(20):
            residual = hilbert_residual(
                spec, 0.5 * spec.lambda_ + 0.1, 1.5 * spec.lambda_ + 0.3, omegas
            )
            assert residual <= 1e-12

    def test_degree_lowering(self):
        spec = ResolventSpec.eh(1.0, tau_eps=1.0, m=0.5)
        assert degree_lowering_residual(spec, 1.0, 1.0) <= 1e-10
        for spec in random_specs(20):
            for omega in (0.5, 2.0):
                assert degree_lowering_residual(spec, 0.7 * spec.lambda_ + 0.2, omega) <= 1e-6


class TestModulusCompliance:
    def test_product_is_unity(self):
        for spec in random_specs(20):
            for omega in (1e-2, 1.0, 1e2):
                m_val, j_val = modulus_compliance_transform(spec, omega, m_inf=2.0)
                assert m_val * j_val == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_high_frequency_limit(self):
        spec = ResolventSpec.eh(0.5, tau_eps=1.0, m=0.5)
        m_val, _ = modulus_compliance_transform(spec, 1e12, m_inf=3.0)
        assert m_val == pytest.approx(3.0, rel=1e-5)

    def test_low_frequency_limit_is_relaxed_modulus(self):
        spec = ResolventSpec.eh(0.5, tau_eps=1.0, m=0.25)
        m_val, _ = modulus_compliance_transform(spec, 1e-12, m_inf=3.0)
        assert m_val == pytest.approx(3.0 * 0.25, rel=1e-5)

    def test_shift_duality(self):
        for spec in random_specs(9):
            for omega in (0.05, 0.8, 12.0):
                m_val, j_val = modulus_compliance_transform(spec, omega, m_inf=2.0)
                assert j_val == pytest.approx(1.0 / m_val, rel=1e-10)


class TestVolterra:
    def test_zero(self):
        assert volterra_resolvent_transform(0.0 + 0.0j) == 0.0

    def test_debye_pair(self):
        p = 0.7 + 0.0j
        tau0 = 1.0
        k_hat = volterra_resolvent_transform(1.0 / (1.0 + p * tau0))
        assert k_hat == pytest.approx(1.0 / (p * tau0), rel=1e-14)

    def test_pole(self):
        with pytest.raises(PoleError):
            volterra_resolvent_transform(1.0 + 0.0j)

    def test_hn_beta1_gives_abel_image(self):
        # K = m/(1-m) for the Rabotnov image equals the Abel image (s tau)^-alpha
        from fracrelax.spectra import abel_image, hn_normalized_image
        from fracrelax.kernels import HNParams

        p_par = HNParams(0.5, 1.0, 1.0)
        for p in (1.0 + 0.0j, 0.3 + 0.4j, 2.0 - 1.0j):
            k_hat = volterra_resolvent_transform(hn_normalized_image(p_par, p))
            assert k_hat == pytest.approx(abel_image(0.5, 1.0, p), rel=1e-12)
