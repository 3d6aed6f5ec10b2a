"""Time-domain hereditary kernels and relaxation/creep functions.

Families covered: Abel power law, Rabotnov fractional-exponential,
Rzhanitsyn (Davidson-Cole), the confluent-hypergeometric kernel pair
S(t)/R(t), the resolvent kernels Q_alpha/P_alpha, and the four-parameter
Havriliak-Negami relaxation kernel R(t), creep resolvent K(t) and
relaxation function.

The Rabotnov relaxation and the HN kernel, relaxation function and creep
resolvent terms are calls of ``specfun.prabhakar_series``.  Shermergor's
P_alpha kernel and p_nu step response are branch-cut integrals on the fixed
nodes of ``quadrature.cut_de`` plus a pole residue; their time-domain
series stay as private references.  All series are evaluated in fixed
summation order with compensated accumulation, so results are bitwise
reproducible regardless of how a caller partitions grid evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoResolventError, NonConvergenceError
from .quadrature import cut_de
from .specfun import (
    DEFAULT_CONTROL,
    EH_SERIES_CROSSOVER,
    SeriesControl,
    eh_alpha,
    gamma,
    kummer_1f1,
    prabhakar_series,
    sum_series,
)

__all__ = [
    "HNParams",
    "KernelModel",
    "HN_SERIES_CROSSOVER",
    "chgf_relaxation_S",
    "chgf_kernel_R",
    "q_kernel",
    "p_kernel",
    "hn_relaxation_kernel",
    "hn_creep_resolvent",
    "hn_creep_resolvent_series",
    "hn_relaxation_function",
    "p_nu_response",
    "abel_kernel",
    "rzhanitsyn_kernel",
    "rabotnov_relaxation",
]

# The alternating HN power series carries gamma-growth coefficients; past
# this t/tau0 it is abandoned in favor of the numerical inverse Laplace
# route (see the evaluate module for the dispatch).
HN_SERIES_CROSSOVER = 5.0
# Share of the HN resolvent that the rounding of its inner series may reach
# before the series route gives up (see hn_creep_resolvent_series).
_RESOLVENT_NOISE_LIMIT = 1e-6
_EPS = 2.0**-52
_LN_EPS_INV = -math.log(_EPS)

KERNEL_FAMILIES = ("Abel", "Rabotnov", "RzhanitsynDavidson", "CHGF", "HavriliakNegami")


def _check_moduli(m_inf: float | None, m_0: float | None) -> None:
    """The moduli are optional, but given together and ordered."""
    if (m_inf is None) != (m_0 is None):
        raise ValueError("m_inf and m_0 must be given together")
    if m_inf is not None and (m_0 <= 0.0 or m_inf < m_0):
        raise ValueError("moduli must satisfy m_inf >= m_0 > 0")


@dataclass(frozen=True)
class HNParams:
    """Four-parameter dispersion set: shape (alpha, beta), characteristic
    time tau0, and the instantaneous/equilibrium moduli (optional for pure
    kernel evaluation)."""

    alpha: float
    beta: float
    tau0: float
    m_inf: float | None = None
    m_0: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.tau0 <= 0.0:
            raise ValueError(f"tau0 must be > 0, got {self.tau0}")
        _check_moduli(self.m_inf, self.m_0)

    @property
    def delta_m(self) -> float:
        if self.m_inf is None:
            raise ValueError("moduli not set on this parameter set")
        return self.m_inf - self.m_0


@dataclass(frozen=True)
class KernelModel:
    """Tagged union naming a kernel family with its parameters.

    ``alpha`` is the family's own fractional shape parameter (for the
    Rzhanitsyn-Davidson family it plays the role the Havriliak-Negami
    ``beta`` plays); ``beta`` is meaningful for HavriliakNegami only and is
    1 otherwise.  ``m_inf``/``m_0`` are the instantaneous and relaxed
    moduli that ``evaluate.modulus`` reads, M(i omega) = m_inf -
    (m_inf - m_0) K(i omega); they may be omitted for pure kernel work, and
    given, they come together with m_inf >= m_0 > 0, as on :class:`HNParams`.
    """

    family: str
    alpha: float
    tau: float
    beta: float = 1.0
    m_inf: float | None = None
    m_0: float | None = None

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        _check_shape(self.alpha, self.tau)
        if self.family != "HavriliakNegami" and self.beta != 1.0:
            raise ValueError("beta is a HavriliakNegami parameter; must be 1 here")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        _check_moduli(self.m_inf, self.m_0)

    def hn_params(self) -> HNParams:
        """Havriliak-Negami view of the model.  Rzhanitsyn-Davidson is HN
        with alpha = 1 and its shape parameter in the HN beta slot."""
        if self.family == "RzhanitsynDavidson":
            return HNParams(1.0, self.alpha, self.tau, self.m_inf, self.m_0)
        return HNParams(self.alpha, self.beta, self.tau, self.m_inf, self.m_0)


def _check_shape(alpha: float, tau: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")


def _check_time(t: float) -> None:
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")


def abel_kernel(alpha: float, tau: float, t: float) -> float:
    """Abel power-law kernel (t/tau)^(alpha-1) / (tau gamma(alpha))."""
    _check_time(t)
    if t == 0.0:
        return math.inf if alpha < 1.0 else 1.0 / tau
    return (t / tau) ** (alpha - 1.0) / (tau * gamma(alpha))


def rzhanitsyn_kernel(alpha: float, tau: float, t: float) -> float:
    """Rzhanitsyn (Davidson-Cole) kernel (t/tau)^(alpha-1) e^(-t/tau) / (tau gamma(alpha))."""
    return abel_kernel(alpha, tau, t) * math.exp(-t / tau)


def rabotnov_relaxation(
    alpha: float, tau: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Rabotnov (Cole-Cole) relaxation function, series route:

        E_alpha(-theta^alpha) = sum_n (-1)^n theta^(alpha n) / gamma(alpha n + 1),

    theta = t/tau.  It equals 1 - tau^-alpha int_0^t eh(s) ds and the
    spectral integral I_alpha(theta); 1 at t = 0.  At alpha = 1 it is
    exp(-theta), returned in closed form at every t; otherwise it is valid
    for theta <= EH_SERIES_CROSSOVER, like :func:`eh_alpha`.
    """
    _check_shape(alpha, tau)
    _check_time(t)
    if alpha == 1.0:
        return math.exp(-t / tau)
    if t == 0.0:
        return 1.0
    theta = t / tau
    if theta > EH_SERIES_CROSSOVER:
        raise ValueError(
            f"Rabotnov relaxation series valid for t/tau <= {EH_SERIES_CROSSOVER}; "
            f"got {theta:.3g} (use the spectral integral)"
        )
    return prabhakar_series(
        1.0, alpha, 1.0, -(theta**alpha), ctl, what="Rabotnov relaxation series"
    )[0]


def chgf_relaxation_S(
    alpha: float, tau_eps: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Relaxation function S(t) = 1F1(alpha, 1, -t/tau); S(0) = 1, monotone
    non-increasing, exp(-t/tau) at alpha = 1.  For alpha < 1 it decays as
    (t/tau)^-alpha / gamma(1 - alpha) (see ``specfun.kummer_1f1``)."""
    _check_shape(alpha, tau_eps)
    _check_time(t)
    return kummer_1f1(alpha, 1.0, -t / tau_eps, ctl)


def chgf_kernel_R(
    alpha: float, tau_eps: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Relaxation kernel R(t) = (alpha/tau) 1F1(1+alpha, 2, -t/tau) = -dS/dt."""
    _check_shape(alpha, tau_eps)
    _check_time(t)
    return alpha / tau_eps * kummer_1f1(1.0 + alpha, 2.0, -t / tau_eps, ctl)


def q_kernel(
    alpha: float,
    lambda_: float,
    tau: float,
    t: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Exponentially damped resolvent kernel Q(t) = exp(-t/tau) eh(lambda, t).

    ``lambda_`` (units 1/time^alpha) sets the eh timescale lambda^(-1/alpha);
    lambda_ = 0 degenerates eh to the Abel kernel t^(alpha-1)/gamma(alpha).
    """
    _check_time(t)
    if lambda_ < 0.0:
        raise ValueError(f"lambda_ must be >= 0, got {lambda_}")
    if lambda_ == 0.0:
        if t == 0.0:
            return math.inf if alpha < 1.0 else 1.0
        eh = t ** (alpha - 1.0) / gamma(alpha)
    else:
        eh = eh_alpha(alpha, lambda_ ** (-1.0 / alpha), t, ctl)
    return math.exp(-t / tau) * eh


def _sin_cos_pi(alpha: float) -> tuple[float, float]:
    """sin(pi alpha) and cos(pi alpha), the sine taken at min(alpha, 1 - alpha)
    so that it keeps its digits next to alpha = 1."""
    return math.sin(math.pi * min(alpha, 1.0 - alpha)), math.cos(math.pi * alpha)


def _pole(alpha: float, ln_k: float, theta: float) -> tuple[float, float]:
    """(r/(1 - r)) e^(-theta/(1 - r)) and 1 - r, for r = k^(1/alpha) < 1:
    the exponential of a residue at the real pole s = -1/(1 - r)."""
    ln_r = ln_k / alpha
    one_minus_r = -math.expm1(ln_r)
    return math.exp(ln_r - theta / one_minus_r) / one_minus_r, one_minus_r


def p_kernel(alpha: float, n_eps: float, tau: float, t: float) -> float:
    """Resolvent kernel of the third basic operator: with n = n_eps and
    theta = t/tau, the inverse Laplace transform of its image at tau = 1,

        P^(s) = (1 - x)/(1 + n(1 - x)),    x = (s/(s + 1))^alpha.

    The image has a branch cut on s in [-1, 0] and one real pole, at
    s = -1/(1 - r) with r = (n/(1 + n))^(1/alpha), so that

        tau^(alpha+1) P(t) = (sin a pi/pi) int_0^1 rho e^(-theta sigma) dsigma / D
                             + r e^(-theta/(1 - r)) / ((1 - r)^2 n (1 + n) alpha),

    rho = (sigma/(1 - sigma))^alpha, D = (n rho - (1 + n) cos a pi)^2
    + ((1 + n) sin a pi)^2.  The cut integral is ``quadrature.cut_de`` in
    v = rho: within 1e-13 of mpmath for alpha in [0.05, 0.9999], n_eps in
    [0.1, 100] and theta in [1e-3, 1e4], and :class:`NonConvergenceError`
    where the rule's guards fail.  At n_eps = 0 this is the
    confluent-hypergeometric kernel of the simple hereditary solid,
    alpha 1F1(alpha + 1, 2, -theta)/tau^(alpha+1); at alpha = 1 it is
    exp(-(1 + n) theta)/tau^2.  The time-domain series over Kummer
    functions is kept as the reference ``_p_kernel_series``.
    """
    _check_time(t)
    if n_eps < 0.0:
        raise ValueError(f"n_eps must be >= 0, got {n_eps}")
    theta = t / tau
    if n_eps == 0.0:
        return alpha * kummer_1f1(alpha + 1.0, 2.0, -theta) / tau ** (alpha + 1.0)
    if alpha == 1.0:
        return math.exp(-(1.0 + n_eps) * theta) / tau**2
    n1 = 1.0 + n_eps
    sin_b, cos_b = _sin_cos_pi(alpha)
    # D = n^2 ((rho - v0)^2 + w^2)
    cut = cut_de(alpha, theta, 1.0, n1 * cos_b / n_eps, n1 * sin_b / n_eps, True)
    pole, one_minus_r = _pole(alpha, -math.log1p(1.0 / n_eps), theta)
    value = sin_b / (alpha * math.pi * n_eps * n_eps) * cut
    value += pole / (one_minus_r * n_eps * n1 * alpha)
    return value / tau ** (alpha + 1.0)


def _p_kernel_series(
    alpha: float,
    n_eps: float,
    tau: float,
    t: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Reference for :func:`p_kernel`: the outer series in
    n_eps^k/(n_eps+1)^(k+1) over damped Kummer functions,

        P(t) = tau^-(alpha+1) sum_k n^k/(n+1)^(k+1)
               { alpha(k+1) 1F1[alpha(k+1)+1, 2, -t/tau]
                 - k alpha 1F1(k alpha + 1, 2, -t/tau) }

    The k = 0 term is the confluent-hypergeometric kernel of the simple
    hereditary solid; the outer terms decay geometrically with ratio
    n_eps/(n_eps+1), so large n_eps and t/tau cost many terms and digits.
    """
    _check_time(t)
    if n_eps < 0.0:
        raise ValueError(f"n_eps must be >= 0, got {n_eps}")
    theta = t / tau
    if n_eps == 0.0:
        # only k = 0 survives
        return alpha * kummer_1f1(alpha + 1.0, 2.0, -theta, ctl) / tau ** (alpha + 1.0)
    ratio = n_eps / (n_eps + 1.0)

    def terms():
        weight = 1.0 / (n_eps + 1.0)
        k = 0
        # 1F1(k alpha + 1, 2, -theta) is the first Kummer value of step k - 1
        # (alpha * k == k * alpha exactly), so it is carried, not recomputed.
        previous = 0.0
        while True:
            current = kummer_1f1(alpha * (k + 1) + 1.0, 2.0, -theta, ctl)
            inner = alpha * (k + 1) * current
            if k > 0:
                inner -= k * alpha * previous
            yield weight * inner
            previous = current
            weight *= ratio
            k += 1

    return sum_series(terms(), ctl, what="P_alpha outer series") / tau ** (alpha + 1.0)


def _hn_prabhakar(
    alpha: float, g: float, theta: float, shift: float, ctl: SeriesControl, what: str
) -> tuple[float, float]:
    """theta^(alpha g - 1 + shift) E^g_{alpha, alpha g + shift}(-theta^alpha)
    and its largest term (see ``prabhakar_series``), the power prefactor
    summed inside each term's exponent (for large g it overflows on its own
    where the term does not)."""
    ln_scale = (alpha * g - 1.0 + shift) * math.log(theta)
    return prabhakar_series(g, alpha, alpha * g + shift, -(theta**alpha), ctl, ln_scale, what)


def _check_hn_theta(theta: float) -> None:
    if theta > HN_SERIES_CROSSOVER:
        raise ValueError(
            f"HN series valid for t/tau0 <= {HN_SERIES_CROSSOVER}; got "
            f"{theta:.3g} (use the inverse-Laplace route)"
        )


def hn_relaxation_kernel(
    p: HNParams, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Havriliak-Negami relaxation kernel

        R(t) = 1/(tau0 gamma(beta)) sum_i (-1)^i gamma(beta+i)
               (t/tau0)^(alpha(beta+i)-1) / (gamma(i+1) gamma[alpha(beta+i)])

    that is R(t) = theta^(alpha beta - 1)/tau0 E^beta_{alpha,alpha beta}(-theta^alpha)
    with theta = t/tau0.
    Reductions: beta=1 Rabotnov/Cole-Cole, alpha=1 Rzhanitsyn/Davidson-Cole,
    alpha=beta=1 Debye.  Singular (integrable) at t=0 when alpha*beta < 1;
    the +inf outcome is returned there rather than an error.
    """
    _check_time(t)
    if t == 0.0:
        return 1.0 / p.tau0 if p.alpha * p.beta >= 1.0 else math.inf
    theta = t / p.tau0
    _check_hn_theta(theta)
    return _hn_prabhakar(p.alpha, p.beta, theta, 0.0, ctl, "HN relaxation series")[0] / p.tau0


def hn_creep_resolvent(
    p: HNParams, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Creep kernel K(t), the Volterra resolvent of the HN relaxation kernel:

        K(t) = 1/tau0 sum_{n>=1} 1/gamma(n beta) *
               sum_i (-1)^i gamma(n beta + i) (t/tau0)^(alpha(n beta+i)-1)
                     / (gamma(i+1) gamma[alpha(n beta+i)])

    The inner i-series of outer index n is
    theta^(alpha n beta - 1) E^(n beta)_{alpha,alpha n beta}(-theta^alpha);
    each is summed to tolerance, then the outer n-series (terms decay
    through 1/gamma(alpha n beta)).  beta=1 collapses to the Abel
    kernel; alpha=1 to exp(-t/tau0)/t sum_n (t/tau0)^(n beta)/gamma(n beta);
    alpha=beta=1 has no resolvent (distinguished error).  The exact
    reductions are evaluated in closed form (the double series loses digits
    to cancellation exactly where a reduction applies); the general route is
    exposed as :func:`hn_creep_resolvent_series`.
    """
    if p.alpha == 1.0 and p.beta == 1.0:
        raise NoResolventError("the Debye kernel (alpha = beta = 1) has no creep resolvent")
    _check_time(t)
    if t == 0.0:
        return math.inf
    if p.beta == 1.0:
        return abel_kernel(p.alpha, p.tau0, t)
    if p.alpha == 1.0:
        # exp(-theta)/t sum_{n>=1} theta^(n beta)/gamma(n beta)
        #   = exp(-theta)/t theta^beta E^1_{beta,beta}(theta^beta)
        theta = t / p.tau0
        ln_scale = p.beta * math.log(theta) - theta
        series, _ = prabhakar_series(
            1.0, p.beta, p.beta, theta**p.beta, ctl, ln_scale, "Koltunov series"
        )
        return series / t
    return hn_creep_resolvent_series(p, t, ctl)


def hn_creep_resolvent_series(
    p: HNParams, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """The general double series behind :func:`hn_creep_resolvent`, without
    reduction shortcuts.  The inner alternating series cancel more as
    t/tau0 and n grow.  Where eps times the sum of their largest terms
    passes ``_RESOLVENT_NOISE_LIMIT`` of the result, no digit of it can be
    trusted (at alpha = 0.3, beta = 0.9, t/tau0 = 5 the sum comes out near
    -1e9), and :class:`NonConvergenceError` is raised."""
    _check_time(t)
    if t == 0.0:
        return math.inf
    theta = t / p.tau0
    _check_hn_theta(theta)

    peaks = 0.0

    def outer_terms():
        nonlocal peaks
        n = 1
        while True:
            g = n * p.beta
            term, peak = _hn_prabhakar(p.alpha, g, theta, 0.0, ctl, "HN resolvent inner")
            peaks += peak
            yield term
            n += 1

    total = sum_series(outer_terms(), ctl, what="HN resolvent outer series")
    if _EPS * peaks > _RESOLVENT_NOISE_LIMIT * abs(total):
        raise NonConvergenceError(
            f"HN resolvent series: cancellation leaves the sum {total:.3g} "
            f"uncertain by {_EPS * peaks:.1g}"
        )
    return total / p.tau0


def hn_relaxation_function(
    p: HNParams, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Integral of the HN relaxation kernel from 0 to t,
    theta^(alpha beta) E^beta_{alpha,alpha beta+1}(-theta^alpha) with
    theta = t/tau0; 0 at t=0, tending to 1 as t grows."""
    _check_time(t)
    if t == 0.0:
        return 0.0
    theta = t / p.tau0
    _check_hn_theta(theta)
    return _hn_prabhakar(p.alpha, p.beta, theta, 1.0, ctl, "HN relaxation-function series")[0]


def p_nu_response(alpha: float, m: float, tau_nu: float, variant: int, t: float) -> float:
    """Normalized step response of the simple hereditary solid.

    ``variant`` selects the parameterization: 3 gives q = 1/m - 1 (with
    tau_nu the relaxation-side time), 4 gives q = m - 1 (retardation side).
    With theta = t/tau_nu it is the inverse Laplace transform of

        p^(s) = (1 + q) x / (s (1 + q x)),    x = (s/(s + 1))^alpha,

    the integral over its branch cut on s in [-1, 0],

        p(t) = (1 + q)(sin a pi/pi) int_0^1 rho e^(-theta sigma) dsigma / (sigma E),

    rho = (sigma/(1 - sigma))^alpha, E = (q rho + cos a pi)^2 + sin^2 a pi,
    plus, for -1 < q < 0, the residue (1 + q) r e^(-theta/(1 - r)) /
    (|q| alpha (1 - r)) at the real pole s = -1/(1 - r), r = |q|^(1/alpha).
    The cut integral is ``quadrature.cut_de`` in v = rho or v = q rho (see
    below): within 1e-13 of mpmath for alpha in [0.05, 0.9999], q in
    (-1, 10] (|q| = 1 is not special) and theta in [1e-3, 1e4], and
    :class:`NonConvergenceError` where the rule's guards fail.
    At q = 0 it is the confluent-hypergeometric relaxation function
    1F1(alpha, 1, -theta), at alpha = 1 the standard-linear-solid
    exponential exp(-theta/(1 + q)).  The two time-domain series over
    Kummer functions are kept as the reference ``_p_nu_series``.
    """
    _check_time(t)
    if m <= 0.0:
        raise ValueError(f"m must be > 0, got {m}")
    if variant == 3:
        q = 1.0 / m - 1.0
    elif variant == 4:
        q = m - 1.0
    else:
        raise ValueError(f"variant must be 3 or 4, got {variant}")
    theta = t / tau_nu
    if alpha == 1.0:
        return math.exp(-theta / (1.0 + q))
    if q == 0.0:
        return kummer_1f1(alpha, 1.0, -theta)
    sin_b, cos_b = _sin_cos_pi(alpha)
    # For q > 0 and alpha > 1/2, E peaks at rho = -cos(a pi)/q, about where
    # sigma = sigma_p = 1/(1 + q^(1/alpha)), with width about sin a pi.  In
    # v = q rho the peak sits on the node junction, but the steps move to
    # v = q and v = q theta^-alpha; so v = q rho is taken only while the
    # peak's weight e^(-theta sigma_p) is above double-precision eps.
    scale = 1.0
    if q > 0.0 and alpha > 0.5:
        sigma_p = 0.5 - 0.5 * math.tanh(0.5 * math.log(q) / alpha)
        if theta * sigma_p < _LN_EPS_INV:
            scale = q
    g = q / scale  # E = g^2 ((v + cos(a pi)/g)^2 + (sin(a pi)/g)^2)
    cut = cut_de(alpha, theta, scale, -cos_b / g, sin_b / abs(g), False)
    value = (1.0 + q) * sin_b / (alpha * math.pi * scale * g * g) * cut
    if q < 0.0:
        pole, _ = _pole(alpha, math.log(-q), theta)
        value += (1.0 + q) * pole / (-q * alpha)
    return value


def _p_nu_series(
    alpha: float, q: float, tau_nu: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Reference for :func:`p_nu_response` at its q: the two time-domain
    expansions for |q| < 1 and |q| > 1,

        P(t) = (1 + q)   sum_n (-q)^n    1F1[alpha(n+1), 1, -t/tau]
        P(t) = (1 + 1/q) sum_n (-q)^(-n) 1F1[-alpha n,   1, -t/tau]

    Neither converges at |q| = 1, and both slow down and cancel near it.
    """
    _check_time(t)
    x = -t / tau_nu
    if abs(q) < 1.0:
        def terms():
            n = 0
            while True:
                yield (-q) ** n * kummer_1f1(alpha * (n + 1), 1.0, x, ctl)
                n += 1

        return (1.0 + q) * sum_series(terms(), ctl, what="P_nu series (|q|<1)")

    def terms():
        n = 0
        while True:
            yield (-q) ** (-n) * kummer_1f1(-alpha * n, 1.0, x, ctl)
            n += 1

    return (1.0 + 1.0 / q) * sum_series(terms(), ctl, what="P_nu series (|q|>1)")
