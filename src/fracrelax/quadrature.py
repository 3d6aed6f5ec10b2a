"""Quadrature routes: the Rabotnov spectral integrals on one fixed-node
rule, and adaptive QUADPACK cross-checks for every series in the kernels
module.

The Rabotnov relaxation function and kernel past the series crossover are
Laplace integrals of a closed-form spectral density; ``i_alpha_de`` and
``eh_alpha_de`` take them by one fixed double-exponential rule (tanh-sinh
on [0, 1], exp-sinh on [1, inf), Takahasi & Mori 1974) whose nodes depend
on neither alpha nor t, with the half-step rule as error estimate.  numpy
loads on their first call.

The rest are the cross-check side: the same spectral integrals I_alpha and
eh by QUADPACK, the Q/P convolution integrals, and time-domain quadratures
of the series kernels themselves.  Endpoint singularities of the
x^(alpha-1) type are removed by power substitutions before handing the
smooth integrand to adaptive quadrature; adaptive subdivision is
deterministic.  ``scipy.integrate`` loads on the first QUADPACK call, not
when this module is imported.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .errors import NonConvergenceError
from .specfun import DEFAULT_CONTROL, SeriesControl, eh_alpha_regular, gamma

__all__ = [
    "QuadratureSpec",
    "i_alpha",
    "i_alpha_de",
    "eh_alpha_de",
    "q_conv_unity",
    "p_conv_unity",
    "eh_alpha_integral",
    "eh_conv_unity_series",
    "q_conv_unity_series",
    "p_conv_unity_series",
    "integral_power_singular",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive quadrature; the singularity
    exponent (when set) overrides the kernel's own alpha in the endpoint
    substitutions."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200
    endpoint_singularity_exponent: float | None = None

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")


DEFAULT_QUADRATURE = QuadratureSpec()


def _quad(f, a, b, q: QuadratureSpec, what: str, points=None) -> float:
    # Imported here, not at module level, so that ``import fracrelax`` never
    # loads scipy; outside the filter below, so that a warning raised while
    # scipy imports is not turned into a NonConvergenceError.
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value, err = quad(
                f,
                a,
                b,
                epsabs=q.abs_tol,
                epsrel=q.rel_tol,
                limit=q.max_subdivisions,
                points=points,
            )
        except Exception as exc:  # IntegrationWarning promoted, or hard failure
            raise NonConvergenceError(f"{what}: quadrature failed ({exc})") from exc
    if not math.isfinite(value):
        raise NonConvergenceError(f"{what}: quadrature returned {value}")
    return value


def _check_alpha_open(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def i_alpha(alpha: float, theta: float, q: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Relaxation function of the Rabotnov solid by its spectral integral:

        I(theta) = (sin a pi / pi) int_0^inf x^(a-1)
                   (1 + x^(2a) + 2 x^a cos a pi)^(-1) e^(-theta x) dx

    computed after the substitution u = x^a, which absorbs the x^(a-1)
    weight exactly.  I(0) = 1, monotone to 0.
    """
    _check_alpha_open(alpha)
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    b = alpha * math.pi
    cos_b = math.cos(b)
    pref = math.sin(b) / (alpha * math.pi)
    inv_alpha = 1.0 / alpha

    def integrand(u: float) -> float:
        return pref * math.exp(-theta * u**inv_alpha) / (1.0 + u * (u + 2.0 * cos_b))

    return _quad(integrand, 0.0, math.inf, q, "I_alpha integral")


def eh_alpha_integral(
    alpha: float, tau: float, t: float, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Fractional-exponential kernel by the integral route (valid for any
    t > 0, used beyond the series crossover):

        eh(t) = tau^(a-1) (sin a pi / pi) int_0^inf x^a
                (1 + x^(2a) + 2 x^a cos a pi)^(-1) e^(-(t/tau) x) dx
    """
    _check_alpha_open(alpha)
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    theta = t / tau
    b = alpha * math.pi
    cos_b = math.cos(b)
    pref = math.sin(b) / (alpha * math.pi)
    inv_alpha = 1.0 / alpha

    def integrand(u: float) -> float:
        return (
            pref
            * u**inv_alpha
            * math.exp(-theta * u**inv_alpha)
            / (1.0 + u * (u + 2.0 * cos_b))
        )

    return tau ** (alpha - 1.0) * _quad(integrand, 0.0, math.inf, q, "eh integral")


# Fixed double-exponential rule for the Rabotnov spectral integrals: step
# 1/64, nodes k = -358..358 on each half line (1434 in all).  The even k
# form the step-1/32 rule, and the two sums' difference is the error
# estimate; it must stay within _DE_REL_BOUND of the value.  The step in
# the integrand, exp(-theta u^(1/alpha)), is alpha wide in ln u: the rule
# also needs _DE_MIN_RESOLUTION node spacings across it (below that, at
# small alpha and large theta, the estimate can miss by 1e-4).
_DE_STEP = 1.0 / 64.0
_DE_HALF_WIDTH = 358
_DE_REL_BOUND = 1e-4
_DE_MIN_RESOLUTION = 2.0


@functools.cache
def _de_nodes():
    """(u, (u - 1)^2, ln u, ln w, number of step-1/32 nodes) with the
    step-1/32 nodes first; u - 1 is formed from the map itself, so that it
    keeps its digits next to u = 1.  Built once per process."""
    import numpy as np

    def softplus(x):  # ln(1 + e^x) without overflow
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    k = np.arange(-_DE_HALF_WIDTH, _DE_HALF_WIDTH + 1)
    x = k * _DE_STEP
    y = 0.5 * np.pi * np.sinh(x)
    # tanh-sinh on [0, 1]: u = 1/(1 + e^(-2y)), 1 - u = 1/(1 + e^(2y))
    ln_u_ts = -softplus(-2.0 * y)
    ln_v_ts = -softplus(2.0 * y)
    ln_w_ts = np.log(_DE_STEP * np.pi * np.cosh(x)) + ln_u_ts + ln_v_ts
    # exp-sinh on [1, inf): u = 1 + e^y
    ln_w_es = np.log(_DE_STEP * 0.5 * np.pi * np.cosh(x)) + y
    parts = (
        (np.exp(ln_u_ts), -np.exp(ln_v_ts), ln_u_ts, ln_w_ts),
        (1.0 + np.exp(y), np.exp(y), softplus(y), ln_w_es),
    )
    even = k % 2 == 0
    u, u_minus_1, ln_u, ln_w = (
        np.concatenate([p[i][even] for p in parts] + [p[i][~even] for p in parts])
        for i in range(4)
    )
    nodes = (u, u_minus_1 * u_minus_1, ln_u, ln_w)
    for array in nodes:  # shared by every call
        array.flags.writeable = False
    return (*nodes, 2 * int(even.sum()))


def _de_resolution(alpha: float, theta: float) -> float:
    """Tanh-sinh node spacings across the step of exp(-theta u^(1/alpha)):
    its width alpha in ln u over the spacing of ln u at u0 = theta^-alpha."""
    ln_u0 = -alpha * math.log(theta)
    ln_v0 = math.log(-math.expm1(ln_u0))  # ln(1 - u0)
    sinh_x = (ln_u0 - ln_v0) / math.pi
    spacing = math.pi * _DE_STEP * math.exp(ln_v0) * math.sqrt(1.0 + sinh_x * sinh_x)
    return alpha / spacing


def _rabotnov_de(alpha: float, theta: float, kernel: bool) -> float:
    """(sin a pi / a pi) int_0^inf u^(k/a) e^(-theta u^(1/a)) du / (u^2 + 2u cos a pi + 1)
    with k = 1 for the kernel and 0 for the relaxation function, as one
    vectorized sum over the fixed nodes, every term formed in log space."""
    _check_alpha_open(alpha)
    if not theta > 1.0:
        raise ValueError(f"theta must be > 1, got {theta}")
    import numpy as np  # on first use only: ``import fracrelax`` loads no numpy

    what = "eh rule" if kernel else "I_alpha rule"
    u, u_minus_1_sq, ln_u, ln_w, n_coarse = _de_nodes()
    resolution = _de_resolution(alpha, theta)
    if resolution < _DE_MIN_RESOLUTION:
        raise NonConvergenceError(
            f"{what}: step at alpha = {alpha}, theta = {theta} spans "
            f"{resolution:.2f} node spacings (< {_DE_MIN_RESOLUTION})"
        )
    b = alpha * math.pi
    cos_half = math.cos(0.5 * b)
    power = ln_u * (1.0 / alpha)  # ln u^(1/a)
    exponent = (
        ln_w
        + math.log(math.sin(b) / b)
        - np.log(u_minus_1_sq + (4.0 * cos_half * cos_half) * u)
        # theta u^(1/a), clamped at e^700 so that it stays finite
        - np.exp(np.minimum(power + math.log(theta), 700.0))
    )
    if kernel:
        exponent += power
    terms = np.exp(exponent)
    fine = float(terms.sum())
    estimate = abs(fine - 2.0 * float(terms[:n_coarse].sum()))
    if not (fine > 0.0 and estimate <= _DE_REL_BOUND * fine):
        raise NonConvergenceError(
            f"{what}: half-step rule differs by {estimate:.3g} from {fine:.17g} "
            f"at alpha = {alpha}, theta = {theta}"
        )
    return fine


def i_alpha_de(alpha: float, theta: float) -> float:
    """Rabotnov relaxation function E_alpha(-theta^alpha) for theta > 1 by
    the fixed double-exponential rule on ``i_alpha``'s integral.

    Within 3e-14 of mpmath for alpha in [0.05, 0.999] and theta up to 1e4.
    Raises :class:`NonConvergenceError` where the rule cannot vouch for
    1e-6, which happens only for alpha below 0.05 or theta past 1e4.
    """
    return _rabotnov_de(alpha, theta, False)


def eh_alpha_de(alpha: float, tau: float, t: float) -> float:
    """Fractional-exponential kernel for t/tau > 1 by the fixed
    double-exponential rule on ``eh_alpha_integral``'s integral; same
    accuracy and guard as ``i_alpha_de``."""
    return tau ** (alpha - 1.0) * _rabotnov_de(alpha, t / tau, True)


def q_conv_unity(
    alpha: float,
    n_eps: float,
    theta: float,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Convolution of the damped resolvent operator with unity,
    tau^-alpha Q*(lambda) . 1 at theta = t/tau:

        1/(n+1) - (sin a pi / pi) int_1^inf
            xi / (xi^2 + 2 xi n cos a pi + n^2) e^(-theta x) dx / x,
        xi = (x-1)^a

    evaluated after x = 1 + u^(1/a) (so xi = u and the endpoint is smooth).
    Tends to 1/(n+1) as theta -> inf.
    """
    _check_alpha_open(alpha)
    if n_eps < 0.0:
        raise ValueError(f"n_eps must be >= 0, got {n_eps}")
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    b = alpha * math.pi
    cos_b = math.cos(b)
    pref = math.sin(b) / math.pi

    # endpoint weight at x = 1 is (x-1)^alpha for n_eps > 0 but (x-1)^(-alpha)
    # for n_eps = 0; pick the stretching exponent accordingly
    e = alpha if n_eps > 0.0 else 1.0 - alpha
    inv_e = 1.0 / e

    def integrand(u: float) -> float:
        if u == 0.0:
            return 0.0
        x = 1.0 + u**inv_e
        xi = u ** (alpha * inv_e)
        den = xi * xi + 2.0 * xi * n_eps * cos_b + n_eps * n_eps
        if den == 0.0:
            return 0.0
        return pref * xi * math.exp(-theta * x) / (den * x) * inv_e * u ** (inv_e - 1.0)

    integral = _quad(integrand, 0.0, math.inf, q, "Q convolution integral")
    return 1.0 / (n_eps + 1.0) - integral


def p_conv_unity(
    alpha: float,
    n_eps: float,
    theta: float,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Convolution of the third resolvent operator with unity,
    tau^alpha P*(lambda) . 1 at theta = t/tau:

        1/(n+1) + residue - (sin a pi / pi) int_0^1
            xi / (xi^2 (1+n)^2 - 2 xi (1+n) n cos a pi + n^2) e^(-theta x) dx / x,
        xi = (1/x - 1)^a

    The transform tau^a P.1 has, besides the branch cut x in [0, 1], a real
    pole at x* = 1/(1 - (n/(1+n))^(1/a)) > 1 whose residue contributes the
    exponentially decaying term

        residue = -x* n^(1/a - 1) (1+n)^(-1-1/a) e^(-theta x*) / a

    (absent for n = 0; verified against the time-domain series kernel and
    contour inversion).  Unlike the damped-operator convolution, the plateau
    1/(n+1) is approached only algebraically, like theta^-alpha.

    The finite interval carries integrable singularities at both endpoints;
    it is split at 1/2 with power substitutions on each side.
    """
    _check_alpha_open(alpha)
    if n_eps < 0.0:
        raise ValueError(f"n_eps must be >= 0, got {n_eps}")
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    b = alpha * math.pi
    cos_b = math.cos(b)
    pref = math.sin(b) / math.pi
    n1 = 1.0 + n_eps
    inv_alpha = 1.0 / alpha

    def core(x: float) -> float:
        xi = (1.0 / x - 1.0) ** alpha
        den = xi * xi * n1 * n1 - 2.0 * xi * n1 * n_eps * cos_b + n_eps * n_eps
        if den == 0.0:
            return 0.0
        return pref * xi * math.exp(-theta * x) / (den * x)

    # left piece: x = u^(1/a) removes the x^(a-1) weight at x -> 0
    def left(u: float) -> float:
        if u == 0.0:
            return 0.0
        x = u**inv_alpha
        return core(x) * inv_alpha * u ** (inv_alpha - 1.0)

    # right piece: weight at x -> 1 is (1-x)^alpha for n_eps > 0 but
    # (1-x)^(-alpha) for n_eps = 0; stretch 1 - x = w^(1/e) accordingly
    e = alpha if n_eps > 0.0 else 1.0 - alpha
    inv_e = 1.0 / e

    def right(w: float) -> float:
        if w == 0.0:
            return 0.0
        x = 1.0 - w**inv_e
        if x <= 0.0:
            return 0.0
        return core(x) * inv_e * w ** (inv_e - 1.0)

    integral = _quad(left, 0.0, 0.5**alpha, q, "P convolution integral (left)")
    integral += _quad(right, 0.0, 0.5**e, q, "P convolution integral (right)")

    residue = 0.0
    if n_eps > 0.0:
        x_star = 1.0 / (1.0 - (n_eps / n1) ** inv_alpha)
        residue = (
            -x_star
            * n_eps ** (inv_alpha - 1.0)
            * n1 ** (-1.0 - inv_alpha)
            * math.exp(-theta * x_star)
            / alpha
        )
    return 1.0 / n1 + residue - integral


def integral_power_singular(
    g, exponent: float, t: float, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """int_0^t s^(exponent-1) g(s) ds for smooth g via u = s^exponent."""
    if exponent <= 0.0:
        raise ValueError("exponent must be > 0")
    if t == 0.0:
        return 0.0
    inv = 1.0 / exponent

    def integrand(u: float) -> float:
        return g(u**inv)

    return _quad(integrand, 0.0, t**exponent, q, "weighted integral") / exponent


def eh_conv_unity_series(
    alpha: float,
    tau: float,
    theta: float,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """tau^-alpha int_0^(theta tau) eh(s) ds by time-domain quadrature of the
    series kernel (the cross-representation check of 1 - I_alpha)."""
    t = theta * tau
    value = integral_power_singular(
        lambda s: eh_alpha_regular(alpha, tau, s, ctl), alpha, t, q
    )
    return value / tau**alpha


def q_conv_unity_series(
    alpha: float,
    n_eps: float,
    tau: float,
    theta: float,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """tau^-alpha int_0^(theta tau) Q(lambda, s) ds with lambda = n_eps tau^-alpha,
    by time-domain quadrature of the series kernel."""
    t = theta * tau
    if n_eps == 0.0:
        def g(s: float) -> float:
            return math.exp(-s / tau) / gamma(alpha)
    else:
        tau_eh = tau * n_eps ** (-1.0 / alpha)

        def g(s: float) -> float:
            return math.exp(-s / tau) * eh_alpha_regular(alpha, tau_eh, s, ctl)

    return integral_power_singular(g, alpha, t, q) / tau**alpha


def p_conv_unity_series(
    alpha: float,
    n_eps: float,
    tau: float,
    theta: float,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """tau^alpha int_0^(theta tau) P(s) ds by plain quadrature (the P kernel
    is bounded at s = 0)."""
    from .kernels import p_kernel

    t = theta * tau
    value = _quad(
        lambda s: p_kernel(alpha, n_eps, tau, s, ctl), 0.0, t, q, "P series integral"
    )
    return value * tau**alpha

