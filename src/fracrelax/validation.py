"""Named invariant checks across all modules, runnable as a machine-readable
validation suite (the CLI ``validate`` command).

Every check returns a measured residual and its tolerance; the report is
deterministic (fixed seeds, fixed grids) so identical configurations yield
byte-identical output.  The ``sabotage`` flag deliberately flips a sign in
the splitting-condition check to prove the suite can fail.
"""

from __future__ import annotations

import math

from . import quadrature as qd
from .kernels import (
    HNParams,
    abel_kernel,
    chgf_kernel_R,
    chgf_relaxation_S,
    hn_creep_resolvent_series,
    hn_relaxation_function,
    hn_relaxation_kernel,
    p_nu_response,
    rabotnov_relaxation,
    rzhanitsyn_kernel,
)
from .laplace import talbot
from .resolvent import ResolventSpec, modulus_compliance_transform, resolvent_transform
from .specfun import eh_alpha, gamma, gauss_2f1_11, kummer_1f1
from .spectra import (
    hn_normalized,
    hn_normalized_image,
    rabotnov_modulus,
    rabotnov_spectrum_H,
    rabotnov_spectrum_L,
)
from .suvorova import SuvorovaModel, suvorova_convolution, suvorova_stress_series
from .vanin import VaninDistribution, vanin_moment

REPORT_SCHEMA = 1


def _grid(start: float, stop: float, n: int) -> list[float]:
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


def _log_grid(start: float, stop: float, n: int) -> list[float]:
    ratio = (stop / start) ** (1.0 / (n - 1))
    return [start * ratio**i for i in range(n)]


def _random_specs(n: int, seed: int = 20240) -> list[ResolventSpec]:
    import numpy as np

    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n):
        alpha = float(rng.uniform(0.15, 1.0))
        tau = float(rng.uniform(0.3, 3.0))
        m = float(rng.uniform(0.2, 0.95))
        n_eps = float(rng.uniform(0.1, 4.0))
        n_sigma = m * (1.0 + n_eps) - 1.0
        specs.append(ResolventSpec.eh(alpha, tau_eps=tau, m=m))
        if n_sigma >= 0.0:
            specs.append(ResolventSpec.q(alpha, tau, n_eps=n_eps, n_sigma=n_sigma))
            specs.append(ResolventSpec.p(alpha, tau, n_eps=n_eps, n_sigma=n_sigma))
    return specs[:n]


# --- specfun ---------------------------------------------------------------


def check_kummer_exponential_degeneration() -> tuple[float, float]:
    worst = 0.0
    for theta in _grid(0.0, 50.0, 500):
        expected = math.exp(-theta)
        worst = max(worst, abs(kummer_1f1(1.0, 1.0, -theta) - expected) / expected)
    return worst, 1e-12


def check_kummer_transform_consistency() -> tuple[float, float]:
    # direct alternating series vs transformed evaluation, restricted to
    # arguments where the direct route keeps 1e-9 in double precision (the
    # full [-30, -1] range is covered by the high-precision test oracle)
    from .specfun import SeriesControl, _kummer_series

    ctl = SeriesControl(max_terms=800)
    worst = 0.0
    for a in (0.3, 0.61, 0.9):
        for x in _grid(-12.0, -1.0, 23):
            direct = _kummer_series(a, 1.0, x, ctl)
            transformed = kummer_1f1(a, 1.0, x)
            worst = max(worst, abs(direct - transformed) / abs(transformed))
    return worst, 1e-9


def check_kummer_large_argument() -> tuple[float, float]:
    # large-argument expansion vs the Kummer-transformed series where both
    # converge, for both CHGF shapes 1F1(alpha; 1; -x) and 1F1(1+alpha; 2; -x);
    # points where the expansion declines are left to the series, but it
    # must be accepted somewhere on the grid
    from .specfun import DEFAULT_CONTROL, SeriesControl, _kummer_large_argument, _kummer_series

    ctl = SeriesControl(max_terms=800)
    worst, accepted = 0.0, 0
    for alpha in (0.05, 0.3, 0.61, 0.9, 0.99, 1.0 - 1e-9):
        for a, c in ((alpha, 1.0), (1.0 + alpha, 2.0)):
            for x in _log_grid(30.0, 300.0, 21):
                expansion = _kummer_large_argument(a, c, x, DEFAULT_CONTROL)
                if expansion is None:
                    continue
                accepted += 1
                series = math.exp(-x) * _kummer_series(c - a, c, x, ctl)
                worst = max(worst, abs(expansion - series) / abs(series))
    return (worst if accepted else math.inf), 1e-11


def check_log_identity_2f1() -> tuple[float, float]:
    worst = 0.0
    for x in _grid(0.01, 0.99, 99):
        expected = math.log1p(x)
        worst = max(worst, abs(gauss_2f1_11(2.0, -x) * x - expected) / expected)
    return worst, 1e-10


def check_gamma_reflection() -> tuple[float, float]:
    worst = 0.0
    for x in _grid(0.02, 0.98, 49):
        value = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        worst = max(worst, abs(value - 1.0))
    return worst, 1e-12


def check_eh_alpha_contiguity() -> tuple[float, float]:
    worst = 0.0
    for theta in _grid(0.1, 5.0, 25):
        worst = max(
            worst,
            abs(eh_alpha(1.0 - 1e-6, 1.0, theta) - eh_alpha(1.0, 1.0, theta)),
        )
    return worst, 1e-4


# --- kernels ---------------------------------------------------------------


def check_reduction_lattice() -> tuple[float, float]:
    worst_scaled = 0.0
    p_rab = HNParams(0.5, 1.0, 1.0)
    p_rzh = HNParams(1.0, 0.6, 1.0)
    p_abel = HNParams(0.5, 1.0, 1.0)
    for t in _grid(0.05, 5.0, 20):
        a = hn_relaxation_kernel(p_rab, t)
        b = eh_alpha(0.5, 1.0, t)
        worst_scaled = max(worst_scaled, abs(a - b) / abs(b) / 1e-8)
        a = hn_relaxation_kernel(p_rzh, t)
        b = rzhanitsyn_kernel(0.6, 1.0, t)
        worst_scaled = max(worst_scaled, abs(a - b) / abs(b) / 1e-10)
        if t <= 2.0:
            a = hn_creep_resolvent_series(p_abel, t)
            b = abel_kernel(0.5, 1.0, t)
            worst_scaled = max(worst_scaled, abs(a - b) / abs(b) / 1e-10)
    return worst_scaled, 1.0


def check_derivative_consistency() -> tuple[float, float]:
    h = 1e-5
    worst = 0.0
    for alpha in (0.4, 0.7, 1.0):
        for t in _grid(0.1, 4.0, 12):
            r = chgf_kernel_R(alpha, 1.0, t)
            fd = -(chgf_relaxation_S(alpha, 1.0, t + h) - chgf_relaxation_S(alpha, 1.0, t - h)) / (2 * h)
            worst = max(worst, abs(r - fd))
    return worst, 1e-6


def check_monotonicity() -> tuple[float, float]:
    worst = 0.0
    p = HNParams(0.61, 0.8, 1.0)
    prev_s = math.inf
    prev_f = -math.inf
    for t in _grid(0.0, 4.5, 40):
        s = chgf_relaxation_S(0.61, 1.0, t)
        f = hn_relaxation_function(p, t)
        worst = max(worst, s - prev_s, prev_f - f)
        prev_s, prev_f = s, f
    return max(worst, 0.0), 1e-14


def check_branch_agreement() -> tuple[float, float]:
    # m <-> 1/m with variant swap 3 <-> 4 describes the same response; both
    # expansions also collapse to the closed exponential at alpha = 1
    worst = 0.0
    for m, t in ((0.4, 0.7), (0.7, 1.3), (2.5, 0.5)):
        a = p_nu_response(0.63, m, 1.0, 3, t)
        b = p_nu_response(0.63, 1.0 / m, 1.0, 4, t)
        worst = max(worst, abs(a - b) / abs(b))
    for m, variant in ((0.5, 4), (0.4, 3), (3.0, 4)):
        q = 1.0 / m - 1.0 if variant == 3 else m - 1.0
        a = p_nu_response(1.0, m, 1.0, variant, 1.0)
        b = math.exp(-1.0 / (1.0 + q))
        worst = max(worst, abs(a - b) / abs(b))
    return worst, 1e-8


# --- resolvent -------------------------------------------------------------


def check_splitting_condition(sabotage: bool = False) -> tuple[float, float]:
    omegas = _log_grid(1e-3, 1e3, 100)
    sign = -1.0 if sabotage else 1.0
    worst = 0.0
    for spec in _random_specs(20):
        l1 = 0.5 * spec.lambda_ + 0.1
        l2 = 1.5 * spec.lambda_ + 0.3
        for omega in omegas:
            r1 = resolvent_transform(spec, l1, omega)
            r2 = resolvent_transform(spec, l2, omega)
            residual = abs(r1 * r2 - sign * (r1 - r2) / (l2 - l1))
            worst = max(worst, residual)
    return worst, 1e-12


def check_degree_lowering() -> tuple[float, float]:
    from .resolvent import degree_lowering_residual

    worst = 0.0
    for spec in _random_specs(20):
        for omega in (0.1, 1.0, 10.0):
            worst = max(
                worst,
                degree_lowering_residual(spec, 0.7 * spec.lambda_ + 0.2, omega),
            )
    return worst, 1e-6


def check_modulus_compliance_inverse() -> tuple[float, float]:
    worst = 0.0
    for spec in _random_specs(20):
        for omega in _log_grid(1e-2, 1e2, 25):
            m_val, j_val = modulus_compliance_transform(spec, omega, m_inf=2.0)
            worst = max(worst, abs(m_val * j_val - 1.0))
    return worst, 1e-10


def check_shift_duality() -> tuple[float, float]:
    worst = 0.0
    for spec in _random_specs(12):
        for omega in (0.05, 0.8, 12.0):
            m_val, j_val = modulus_compliance_transform(spec, omega, m_inf=2.0)
            worst = max(worst, abs(j_val - 1.0 / m_val) / abs(j_val))
    return worst, 1e-10


def check_construction_invariants() -> tuple[float, float]:
    # residuals of the redundant parameter relations on random specs
    worst = 0.0
    for spec in _random_specs(20):
        worst = max(
            worst,
            abs(spec.lambda_ - spec.mu - spec.kappa) / max(abs(spec.lambda_), 1e-300),
        )
        if spec.variant == "EH":
            worst = max(worst, abs(spec.kappa - spec.lambda_ * (1.0 - spec.m)))
        else:
            scale = spec.tau**spec.alpha if spec.variant == "P" else spec.tau**-spec.alpha
            worst = max(
                worst,
                abs(spec.kappa - (1.0 - spec.m) * (spec.n_eps + 1.0) * scale),
                abs(spec.kappa - (1.0 / spec.m - 1.0) * (spec.n_sigma + 1.0) * scale),
            )
    return worst, 1e-12


# --- spectra ---------------------------------------------------------------


def check_spectrum_normalization() -> tuple[float, float]:
    from scipy.integrate import quad

    worst = 0.0
    for alpha in (0.25, 0.5, 0.61, 0.75, 0.9):
        # tails decay like exp(-alpha |u|); the window must widen as alpha
        # shrinks to keep the truncation below the tolerance
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
        worst = max(worst, abs(total - 1.0))
    return worst, 1e-8


def check_spectrum_log_symmetry() -> tuple[float, float]:
    worst = 0.0
    for alpha in (0.3, 0.61, 0.9):
        for s in (1.7, 3.7, 12.0):
            a = rabotnov_spectrum_H(alpha, 1.0, s)
            b = rabotnov_spectrum_H(alpha, 1.0, 1.0 / s)
            worst = max(worst, abs(a - b) / a)
    return worst, 1e-15


def check_spectrum_shift() -> tuple[float, float]:
    tau_eps, tau_sigma = 0.7, 2.9
    worst = 0.0
    for tau in _log_grid(0.01, 100.0, 40):
        l_val = rabotnov_spectrum_L(0.61, tau_sigma, tau)
        h_val = rabotnov_spectrum_H(0.61, tau_eps, tau * tau_eps / tau_sigma)
        worst = max(worst, abs(l_val - h_val) / h_val)
    return worst, 1e-14


def check_hn_reduction() -> tuple[float, float]:
    worst = 0.0
    p = HNParams(0.61, 1.0, 1.3, m_inf=2.0, m_0=1.0)
    for omega in _log_grid(1e-3, 1e3, 50):
        a = p.m_inf - p.delta_m * hn_normalized(p, omega)
        b = rabotnov_modulus(p.m_inf, p.delta_m, p.alpha, p.tau0, omega)
        worst = max(worst, abs(a - b) / abs(b))
        debye = hn_normalized(HNParams(1.0, 1.0, 1.0), omega)
        worst = max(worst, abs(debye - 1.0 / (1.0 + 1j * omega)))
    return worst, 1e-14


def check_loss_nonnegative() -> tuple[float, float]:
    worst = -math.inf
    for alpha in (0.3, 0.61, 1.0):
        for beta in (0.4, 0.8, 1.0):
            p = HNParams(alpha, beta, 1.0)
            for omega in _log_grid(1e-4, 1e4, 60):
                worst = max(worst, hn_normalized(p, omega).imag)
    return max(worst, 0.0), 1e-15


# --- quadrature oracle ------------------------------------------------------


def check_roundtrip_inversion() -> tuple[float, float]:
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for t in _grid(0.05, 5.0, 10):
            series = eh_alpha(alpha, 1.0, t)
            inverted = talbot(lambda s: 1.0 / (1.0 + s**alpha), t, 32)
            worst = max(worst, abs(series - inverted) / abs(series))
    p = HNParams(0.61, 0.8, 1.0)
    for t in _grid(0.05, 5.0, 10):
        series = hn_relaxation_kernel(p, t)
        inverted = talbot(lambda s: hn_normalized_image(p, s), t, 32)
        worst = max(worst, abs(series - inverted) / abs(series))
    return worst, 1e-6


def check_i_alpha_partition() -> tuple[float, float]:
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for theta in (0.1, 1.0, 4.0):
            # three routes to E_alpha(-theta^alpha): spectral integral,
            # quadrature of the eh series, and its own Mittag-Leffler series
            spectral = qd.i_alpha(alpha, theta)
            total = spectral + qd.eh_conv_unity_series(alpha, 1.0, theta)
            series = rabotnov_relaxation(alpha, 1.0, theta)
            worst = max(worst, abs(total - 1.0), abs(series - spectral))
    return worst, 1e-8


def check_creep_relaxation_endpoints() -> tuple[float, float]:
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        phi0 = qd.i_alpha(alpha, 0.0)
        worst = max(worst, abs(phi0 - 1.0))
    return worst, 1e-8


def check_conv_unity_cross_route() -> tuple[float, float]:
    worst = 0.0
    for alpha, n_eps, theta in ((0.5, 1.0, 1.0), (0.5, 0.0, 1.0), (0.75, 0.5, 2.0)):
        a = qd.q_conv_unity(alpha, n_eps, theta)
        b = qd.q_conv_unity_series(alpha, n_eps, 1.0, theta)
        worst = max(worst, abs(a - b))
        a = qd.p_conv_unity(alpha, n_eps, theta)
        b = qd.p_conv_unity_series(alpha, n_eps, 1.0, theta)
        worst = max(worst, abs(a - b))
    return worst, 1e-6


def check_node_doubling() -> tuple[float, float]:
    coarse = qd.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=200)
    fine = qd.QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=400)
    worst = 0.0
    for alpha, theta in ((0.25, 0.5), (0.5, 2.0), (0.75, 8.0)):
        worst = max(worst, abs(qd.i_alpha(alpha, theta, coarse) - qd.i_alpha(alpha, theta, fine)))
        worst = max(
            worst,
            abs(qd.q_conv_unity(alpha, 0.8, theta, coarse) - qd.q_conv_unity(alpha, 0.8, theta, fine)),
        )
    return worst, 1e-10


# --- extensions ------------------------------------------------------------


def check_vanin_normalization() -> tuple[float, float]:
    worst = 0.0
    for a in (1.0, 2.0):
        for b in (0.0, 1.0, 2.0):
            for sigma in (0.5, 1.0):
                d = VaninDistribution(a, b, sigma)
                worst = max(worst, abs(vanin_moment(d, 0) - 1.0))
    return worst, 1e-8


def check_suvorova_series_vs_convolution() -> tuple[float, float]:
    worst = 0.0
    for alpha, k in ((0.7, 0.1), (0.9, 0.1)):
        mdl = SuvorovaModel(a=1.0, b=1.0, k=k, alpha=alpha, strain_rate=1.0)
        for t in (0.5, 1.0, 2.0):
            a_val = suvorova_stress_series(mdl, t)
            b_val = suvorova_convolution(mdl, t)
            worst = max(worst, abs(a_val - b_val) / abs(b_val))
    return worst, 1e-5


_CHECKS = [
    ("specfun", "kummer_exponential_degeneration", check_kummer_exponential_degeneration),
    ("specfun", "kummer_transform_consistency", check_kummer_transform_consistency),
    ("specfun", "kummer_large_argument", check_kummer_large_argument),
    ("specfun", "log_identity_2f1", check_log_identity_2f1),
    ("specfun", "gamma_reflection", check_gamma_reflection),
    ("specfun", "eh_alpha_contiguity", check_eh_alpha_contiguity),
    ("kernels", "reduction_lattice", check_reduction_lattice),
    ("kernels", "derivative_consistency", check_derivative_consistency),
    ("kernels", "monotonicity", check_monotonicity),
    ("kernels", "branch_agreement", check_branch_agreement),
    ("resolvent", "splitting_condition", check_splitting_condition),
    ("resolvent", "degree_lowering", check_degree_lowering),
    ("resolvent", "modulus_compliance_inverse", check_modulus_compliance_inverse),
    ("resolvent", "shift_duality", check_shift_duality),
    ("resolvent", "construction_invariants", check_construction_invariants),
    ("spectra", "spectrum_normalization", check_spectrum_normalization),
    ("spectra", "spectrum_log_symmetry", check_spectrum_log_symmetry),
    ("spectra", "spectrum_shift", check_spectrum_shift),
    ("spectra", "hn_reduction", check_hn_reduction),
    ("spectra", "loss_nonnegative", check_loss_nonnegative),
    ("quadrature", "roundtrip_inversion", check_roundtrip_inversion),
    ("quadrature", "i_alpha_partition", check_i_alpha_partition),
    ("quadrature", "creep_relaxation_endpoints", check_creep_relaxation_endpoints),
    ("quadrature", "conv_unity_cross_route", check_conv_unity_cross_route),
    ("quadrature", "node_doubling", check_node_doubling),
    ("extensions", "vanin_normalization", check_vanin_normalization),
    ("extensions", "suvorova_series_vs_convolution", check_suvorova_series_vs_convolution),
]


def run_validation(only: str | None = None, sabotage: bool = False) -> dict:
    """Run the invariant suite; returns the machine-readable report."""
    checks = []
    all_pass = True
    for module, name, fn in _CHECKS:
        if only is not None and module != only:
            continue
        if name == "splitting_condition":
            residual, tolerance = fn(sabotage=sabotage)
        else:
            residual, tolerance = fn()
        passed = residual <= tolerance
        all_pass = all_pass and passed
        checks.append(
            {
                "module": module,
                "name": name,
                "residual": residual,
                "tolerance": tolerance,
                "passed": passed,
            }
        )
    if only is not None and not checks:
        raise ValueError(f"unknown module {only!r} for --only")
    return {"schema": REPORT_SCHEMA, "all_pass": all_pass, "checks": checks}
