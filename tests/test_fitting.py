import math

import numpy as np
import pytest

from fracrelax.fitting import fit_hn, initial_guess
from fracrelax.evaluate import modulus
from fracrelax.kernels import HNParams, KernelModel


def synthetic(params: HNParams, n=50, noise=0.0, seed=None):
    """Log-spaced samples with per-channel relative Gaussian noise (each of
    Re/Im measured to the stated fraction of its own magnitude)."""
    model = KernelModel(
        "HavriliakNegami", params.alpha, params.tau0, params.beta, params.m_inf, params.m_0
    )
    omega = np.logspace(-3, 3, n)
    data = np.array([modulus(model, float(w)) for w in omega])
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        re = data.real * (1.0 + noise * rng.standard_normal(n))
        im = data.imag * (1.0 + noise * rng.standard_normal(n))
        data = re + 1j * im
    return omega, data


class TestFit:
    def test_noiseless_roundtrip(self):
        truth = HNParams(0.61, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        omega, data = synthetic(truth)
        result = fit_hn(omega, data)
        assert result.converged
        assert result.params.alpha == pytest.approx(0.61, abs=0.005)
        assert result.params.beta == pytest.approx(1.0, abs=0.005)
        assert result.params.tau0 == pytest.approx(1.0, rel=0.005)
        assert result.params.m_inf == pytest.approx(2.0, rel=0.005)
        assert result.params.m_0 == pytest.approx(1.0, rel=0.005)

    def test_noiseless_four_parameter(self):
        truth = HNParams(0.7, 0.55, 0.2, m_inf=3.0, m_0=0.8)
        omega, data = synthetic(truth)
        result = fit_hn(omega, data)
        assert result.params.alpha == pytest.approx(0.7, rel=0.005)
        assert result.params.beta == pytest.approx(0.55, rel=0.005)
        assert result.params.tau0 == pytest.approx(0.2, rel=0.005)

    def test_debye_data_hits_box_corner(self):
        truth = HNParams(1.0, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        omega, data = synthetic(truth)
        result = fit_hn(omega, data)
        assert result.params.alpha == pytest.approx(1.0, abs=1e-3)
        assert result.params.beta == pytest.approx(1.0, abs=1e-3)

    def test_noisy_scatter(self):
        # relative weighting is the matched estimator for the per-channel
        # noise model of the harness
        truth = HNParams(0.61, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        for seed in range(5):
            omega, data = synthetic(truth, noise=0.01, seed=seed)
            result = fit_hn(omega, data, weighting="relative")
            assert result.params.alpha == pytest.approx(0.61, rel=0.05)
            assert result.params.beta == pytest.approx(1.0, rel=0.05)
            assert result.params.tau0 == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        truth = HNParams(0.61, 0.8, 1.0, m_inf=2.0, m_0=1.0)
        omega, data = synthetic(truth, noise=0.01, seed=3)
        a = fit_hn(omega, data)
        b = fit_hn(omega, data)
        assert a.params == b.params
        assert a.residual_norm == b.residual_norm

    def test_reports_errors_and_iterations(self):
        truth = HNParams(0.61, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        omega, data = synthetic(truth, noise=0.01, seed=1)
        result = fit_hn(omega, data)
        assert result.iterations > 0
        assert result.residual_norm >= 0.0
        assert set(result.std_errors) == {"alpha", "beta", "tau0", "m_0", "m_inf"}
        assert all(v >= 0.0 for v in result.std_errors.values())

    def test_input_validation(self):
        omega = np.logspace(-1, 1, 7)  # too few
        data = np.ones_like(omega, dtype=complex)
        with pytest.raises(ValueError):
            fit_hn(omega, data)
        omega = np.linspace(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            fit_hn(omega, np.ones(10, dtype=complex))


class TestInitialGuess:
    def test_tau_from_loss_peak(self):
        truth = HNParams(1.0, 1.0, 0.1, m_inf=2.0, m_0=1.0)
        omega, data = synthetic(truth, n=200)
        x0 = initial_guess(omega, data)
        assert math.exp(x0[2]) == pytest.approx(0.1, rel=0.1)

    def test_plateau_moduli(self):
        truth = HNParams(0.61, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        omega, data = synthetic(truth)
        x0 = initial_guess(omega, data)
        assert x0[3] == pytest.approx(1.0, rel=0.05)  # m_0
        assert x0[3] + x0[4] == pytest.approx(2.0, rel=0.05)  # m_inf

    def test_alpha_from_width(self):
        truth = HNParams(0.5, 1.0, 1.0, m_inf=2.0, m_0=1.0)
        omega, data = synthetic(truth, n=400)
        x0 = initial_guess(omega, data)
        assert 0.3 <= x0[0] <= 0.75
