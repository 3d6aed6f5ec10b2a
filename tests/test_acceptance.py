"""Acceptance suite: the nine exit criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failure is a hard test failure with the measured residual.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fracrelax.cli import main
from fracrelax.fitting import fit_hn
from fracrelax.kernels import (
    HNParams,
    abel_kernel,
    hn_creep_resolvent,
    hn_relaxation_kernel,
    p_kernel,
    q_kernel,
    rzhanitsyn_kernel,
)
from fracrelax.laplace import talbot
from fracrelax.quadrature import (
    eh_conv_unity_series,
    i_alpha,
    p_conv_unity,
    p_conv_unity_series,
    q_conv_unity,
    q_conv_unity_series,
)
from fracrelax.resolvent import (
    ResolventSpec,
    degree_lowering_residual,
    modulus_compliance_transform,
    resolvent_transform,
    volterra_resolvent_transform,
)
from fracrelax.specfun import eh_alpha, gauss_2f1_11, kummer_1f1
from fracrelax.spectra import (
    abel_image,
    chgf_kernel_image,
    hn_normalized_image,
    numeric_spectrum,
    rabotnov_spectrum_H,
    rabotnov_spectrum_L,
    rzhanitsyn_image,
)
from fracrelax.suvorova import SuvorovaModel, suvorova_convolution, suvorova_stress_series
from fracrelax.vanin import VaninDistribution, normalizer, vanin_moment


def report(number: int, label: str, worst: float, tolerance: float) -> None:
    status = "PASS" if worst <= tolerance else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {label} (worst {worst:.3e}, tol {tolerance:.1e})")
    assert worst <= tolerance, f"criterion {number}: {worst:.3e} > {tolerance:.1e}"


def tgrid(n=20, lo=0.05, hi=5.0):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_criterion_1_degeneration_lattice():
    worst = 0.0
    for i in range(500):
        theta = 50.0 * i / 499
        expected = math.exp(-theta)
        worst = max(worst, abs(kummer_1f1(1.0, 1.0, -theta) - expected) / expected)
    scaled = worst / 1e-12

    p_debye = HNParams(1.0, 1.0, 1.0)
    p_rzh = HNParams(1.0, 0.6, 1.0)
    p_rab = HNParams(0.5, 1.0, 1.0)
    worst_red = 0.0
    for t in tgrid(20):
        a = hn_relaxation_kernel(p_debye, t)
        worst_red = max(worst_red, abs(a - math.exp(-t)) / math.exp(-t))
        a = hn_relaxation_kernel(p_rzh, t)
        b = rzhanitsyn_kernel(0.6, 1.0, t)
        worst_red = max(worst_red, abs(a - b) / abs(b))
        a = hn_creep_resolvent(p_rab, t)
        b = abel_kernel(0.5, 1.0, t)
        worst_red = max(worst_red, abs(a - b) / abs(b))
    scaled = max(scaled, worst_red / 1e-8)
    report(1, "degeneration lattice (1F1 exponential + HN table reductions)", scaled, 1.0)


def test_criterion_2_cross_representation():
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        lam_q = 1.0
        n_eps = 0.5

        def p_image(s, a=alpha, n=n_eps):
            bracket = 1.0 - (1.0 + 1.0 / s) ** -a
            return bracket / (1.0 + n * bracket)

        for t in tgrid(10):
            series = eh_alpha(alpha, 1.0, t)
            inverted = talbot(lambda s: 1.0 / (1.0 + s**alpha), t, 32)
            worst = max(worst, abs(series - inverted) / abs(series))
            series = q_kernel(alpha, lam_q, 1.0, t)
            inverted = talbot(lambda s: 1.0 / (lam_q + (1.0 + s) ** alpha), t, 32)
            worst = max(worst, abs(series - inverted) / abs(series))
            series = p_kernel(alpha, n_eps, 1.0, t)
            inverted = talbot(p_image, t, 32)
            worst = max(worst, abs(series - inverted) / abs(series))
    p = HNParams(0.61, 0.8, 1.0)
    for t in tgrid(10):
        series = hn_relaxation_kernel(p, t)
        inverted = talbot(lambda s: hn_normalized_image(p, s), t, 32)
        worst = max(worst, abs(series - inverted) / abs(series))

    for alpha in (0.25, 0.5, 0.75):
        for theta in (0.5, 1.0, 2.0):
            worst = max(
                worst,
                abs(i_alpha(alpha, theta) - (1.0 - eh_conv_unity_series(alpha, 1.0, theta))),
                abs(q_conv_unity(alpha, 0.8, theta) - q_conv_unity_series(alpha, 0.8, 1.0, theta)),
                abs(p_conv_unity(alpha, 0.8, theta) - p_conv_unity_series(alpha, 0.8, 1.0, theta)),
            )
    report(2, "series vs inverse-Laplace and convolution quadratures", worst, 1e-6)


def _specs_for_variant(variant: str, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        alpha = float(rng.uniform(0.15, 1.0))
        tau = float(rng.uniform(0.3, 3.0))
        m = float(rng.uniform(0.2, 0.95))
        if variant == "EH":
            out.append(ResolventSpec.eh(alpha, tau_eps=tau, m=m))
            continue
        n_eps = float(rng.uniform(0.2, 4.0))
        n_sigma = m * (1.0 + n_eps) - 1.0
        if n_sigma < 0.0:
            continue
        maker = ResolventSpec.q if variant == "Q" else ResolventSpec.p
        out.append(maker(alpha, tau, n_eps=n_eps, n_sigma=n_sigma))
    return out


def test_criterion_3_operator_algebra():
    omegas = [1e-3 * 1e6 ** (k / 49) for k in range(50)]
    worst_hilbert = 0.0
    worst_degree = 0.0
    worst_product = 0.0
    for variant, seed in (("EH", 1), ("Q", 2), ("P", 3)):
        for spec in _specs_for_variant(variant, 20, seed):
            l1 = 0.5 * spec.lambda_ + 0.1
            l2 = 1.5 * spec.lambda_ + 0.3
            for omega in omegas:
                r1 = resolvent_transform(spec, l1, omega)
                r2 = resolvent_transform(spec, l2, omega)
                worst_hilbert = max(worst_hilbert, abs(r1 * r2 - (r1 - r2) / (l2 - l1)))
            for omega in (0.3, 3.0):
                worst_degree = max(
                    worst_degree, degree_lowering_residual(spec, l1, omega)
                )
                m_val, j_val = modulus_compliance_transform(spec, omega, m_inf=2.0)
                worst_product = max(worst_product, abs(m_val * j_val - 1.0))
    scaled = max(worst_hilbert / 1e-12, worst_degree / 1e-6, worst_product / 1e-10)
    report(3, "Hilbert identity, degree lowering, M*J = 1", scaled, 1.0)


def test_criterion_4_spectrum():
    from scipy.integrate import quad

    worst_norm = 0.0
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
        worst_norm = max(worst_norm, abs(total - 1.0))
    worst_sym = 0.0
    for s in (1.3, 3.7, 17.0):
        a = rabotnov_spectrum_H(0.61, 1.0, s)
        b = rabotnov_spectrum_H(0.61, 1.0, 1.0 / s)
        worst_sym = max(worst_sym, abs(a - b) / a)
    worst_shift = 0.0
    tau_eps, tau_sigma = 0.7, 2.9
    for tau in (0.05, 1.0, 12.0):
        l_val = rabotnov_spectrum_L(0.61, tau_sigma, tau)
        h_val = rabotnov_spectrum_H(0.61, tau_eps, tau * tau_eps / tau_sigma)
        worst_shift = max(worst_shift, abs(l_val - h_val) / h_val)
    scaled = max(worst_norm / 1e-8, worst_sym / 1e-15, worst_shift / 1e-14)
    report(4, "spectrum normalization, log-symmetry, L = shifted H", scaled, 1.0)


def _skewness_sign(image, u_lo=-12.0, u_hi=12.0, n=4000) -> float:
    # even n keeps the grid off the integrable edge singularity at u = 0
    us = np.linspace(u_lo, u_hi, n)
    dens = np.array([numeric_spectrum(image, math.exp(u)) for u in us])
    dens = np.maximum(dens, 0.0)
    weights = dens / dens.sum()
    cdf = np.cumsum(weights)
    median = us[int(np.searchsorted(cdf, 0.5))]
    third = float(np.sum(weights * (us - median) ** 3))
    return third


def test_criterion_5_asymmetry_sign():
    rzh = lambda s: rzhanitsyn_image(0.7, 1.0, s)
    chg = lambda s: chgf_kernel_image(0.7, 1.0, s)
    skew_rzh = _skewness_sign(rzh)
    skew_chg = _skewness_sign(chg)
    ok = skew_rzh < 0.0 < skew_chg
    print(
        f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: opposite spectrum skewness "
        f"(Rzhanitsyn {skew_rzh:+.2f} toward decreasing tau, CHGF {skew_chg:+.2f})"
    )
    assert ok


def test_criterion_6_volterra_resolvent():
    worst = 0.0
    p_par = HNParams(0.5, 1.0, 1.3)
    for k in range(10):
        p = 10.0 ** (-2.0 + 4.0 * k / 9) * (1.0 + 0.4j)
        k_hat = volterra_resolvent_transform(hn_normalized_image(p_par, p))
        expected = abel_image(0.5, 1.3, p)
        worst = max(worst, abs(k_hat - expected) / abs(expected))
    report(6, "Volterra ratio maps Rabotnov image to Abel image", worst, 1e-8)


def test_criterion_7_extensions():
    import oracles

    worst_vanin = 0.0
    for a in (1.0, 2.0):
        for b in (0.0, 1.0, 2.0):
            for sigma in (0.5, 1.0):
                d = VaninDistribution(a, b, sigma)
                closed = normalizer(d)
                by_quad = float(oracles.vanin_normalizer_quadrature(a, b, sigma))
                worst_vanin = max(worst_vanin, abs(closed - by_quad) / by_quad)
                worst_vanin = max(worst_vanin, abs(vanin_moment(d, 0) - 1.0))
    worst_suv = 0.0
    for alpha, k in ((0.7, 0.1), (0.9, 0.1)):
        mdl = SuvorovaModel(a=1.0, b=1.0, k=k, alpha=alpha, strain_rate=1.0)
        for t in (0.5, 1.0, 2.0):
            s_val = suvorova_stress_series(mdl, t)
            c_val = suvorova_convolution(mdl, t)
            worst_suv = max(worst_suv, abs(s_val - c_val) / abs(c_val))
    worst_log = 0.0
    for i in range(99):
        x = 0.01 + 0.98 * i / 98
        worst_log = max(worst_log, abs(gauss_2f1_11(2.0, -x) * x - math.log1p(x)) / math.log1p(x))
    scaled = max(worst_vanin / 1e-8, worst_suv / 1e-5, worst_log / 1e-10)
    report(7, "Vanin normalization, Suvorova dual route, 2F1 log identity", scaled, 1.0)


def _synthetic(truth: HNParams, noise=0.0, seed=None, n=50):
    omega = np.logspace(-3, 3, n)
    data = np.array([_modulus(truth, w) for w in omega])
    if noise:
        rng = np.random.default_rng(seed)
        re = data.real * (1.0 + noise * rng.standard_normal(n))
        im = data.imag * (1.0 + noise * rng.standard_normal(n))
        data = re + 1j * im
    return omega, data


def _modulus(p: HNParams, omega: float) -> complex:
    return p.m_inf - p.delta_m / (1.0 + (1j * omega * p.tau0) ** p.alpha) ** p.beta


def test_criterion_8_fit_roundtrip():
    truth = HNParams(0.61, 1.0, 1.0, m_inf=2.0, m_0=1.0)
    omega, data = _synthetic(truth)
    result = fit_hn(omega, data)
    worst = max(
        abs(result.params.alpha - 0.61) / 0.61,
        abs(result.params.beta - 1.0),
        abs(result.params.tau0 - 1.0),
    )
    scaled = worst / 0.005

    for seed in range(5):
        omega, data = _synthetic(truth, noise=0.01, seed=seed)
        result = fit_hn(omega, data, weighting="relative")
        noisy_worst = max(
            abs(result.params.alpha - 0.61) / 0.61,
            abs(result.params.beta - 1.0),
            abs(result.params.tau0 - 1.0),
        )
        scaled = max(scaled, noisy_worst / 0.05)
    report(8, "fit round-trip (0.5% noiseless, 5% at 1% noise x 5 seeds)", scaled, 1.0)


def test_criterion_9_determinism(tmp_path):
    model = '{"family":"HavriliakNegami","alpha":0.61,"beta":0.8,"tau":1.0}'
    outputs = []
    for name in ("a", "b", "c"):
        path = tmp_path / f"eval_{name}.csv"
        rc = main(["eval", "--model", model, "--grid", "0.01:20:40:log", "--out", str(path)])
        assert rc == 0
        outputs.append(path.read_bytes())
    eval_ok = outputs[0] == outputs[1] == outputs[2]

    reports = []
    for name in ("a", "b"):
        path = tmp_path / f"val_{name}.json"
        rc = main(["validate", "--out", str(path)])
        assert rc == 0
        reports.append(path.read_bytes())
    validate_ok = reports[0] == reports[1]
    ok = eval_ok and validate_ok
    print(
        f"ACCEPTANCE 9 {'PASS' if ok else 'FAIL'}: byte-identical eval "
        f"(three runs) and validate reports"
    )
    assert ok
