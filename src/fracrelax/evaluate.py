"""Route a kernel-family evaluation to its accurate representation.

Each scalar evaluation returns ``(value, method)`` with method one of
"series", "quadrature" or "asymptotic", following the crossover rules:
the fractional-exponential series is trusted up to t/tau = 10 and the
Havriliak-Negami series up to t/tau0 = 5; beyond those the integral
representation respectively the numerical inverse Laplace transform takes
over; far tails of the relaxation function use the power-law expansion.
The Rabotnov relaxation series route is E_alpha(-theta^alpha) summed
directly (``rabotnov_relaxation``).

The t/tau0 = 5 crossover governs the HN kernel, the HN relaxation function
and the exact creep-resolvent reductions (beta = 1 Abel, alpha = 1
Koltunov).  Debye (alpha = beta = 1, also Rzhanitsyn-Davidson alpha = 1)
raises NoResolventError at every t.  The general HN creep resolvent
(alpha < 1 and beta < 1) is inverted by fixed Talbot at every t > 0: its
double series overflows or cancels to noise inside t/tau0 <= 5 at small
alpha.
"""

from __future__ import annotations

import math

from .kernels import (
    HN_SERIES_CROSSOVER,
    HNParams,
    KernelModel,
    abel_kernel,
    chgf_kernel_R,
    chgf_relaxation_S,
    hn_creep_resolvent,
    hn_relaxation_function,
    hn_relaxation_kernel,
    rabotnov_relaxation,
    rzhanitsyn_kernel,
)
from .laplace import DEFAULT_INVERSION, InverseLaplaceSpec, inverse_laplace
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    eh_alpha_integral,
    i_alpha,
)
from .resolvent import volterra_resolvent_transform
from .spectra import (
    chgf_kernel_image,
    hn_normalized_image,
    numeric_spectrum,
    rabotnov_spectrum_H,
    rzhanitsyn_image,
)
from .specfun import DEFAULT_CONTROL, EH_SERIES_CROSSOVER, SeriesControl, eh_alpha, gamma

__all__ = ["QUANTITIES", "evaluate_model", "spectrum_density"]

QUANTITIES = ("kernel", "resolvent", "relaxation")

# Beyond this theta the Rabotnov relaxation function switches from the
# spectral integral to its power-law tail expansion.
_ASYMPTOTIC_CROSSOVER = 100.0


def _as_hn(model: KernelModel) -> HNParams:
    """HN parameter view: the Rzhanitsyn-Davidson shape parameter sits in
    the HN beta slot (its alpha is 1)."""
    if model.family == "RzhanitsynDavidson":
        return HNParams(alpha=1.0, beta=model.alpha, tau0=model.tau)
    return model.hn_params()


def evaluate_model(
    model: KernelModel,
    quantity: str,
    t: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    inversion: InverseLaplaceSpec = DEFAULT_INVERSION,
) -> tuple[float, str]:
    """Evaluate the requested quantity of a kernel model at time t."""
    if quantity == "kernel":
        return _kernel(model, t, ctl, quad, inversion)
    if quantity == "resolvent":
        return _resolvent(model, t, ctl, quad, inversion)
    if quantity == "relaxation":
        return _relaxation(model, t, ctl, quad, inversion)
    raise ValueError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")


def _kernel(model, t, ctl, quad, inversion):
    theta = t / model.tau
    if model.family == "Abel":
        return abel_kernel(model.alpha, model.tau, t), "series"
    if model.family == "Rabotnov":
        if model.alpha == 1.0:
            return math.exp(-theta), "series"
        if theta <= EH_SERIES_CROSSOVER:
            return eh_alpha(model.alpha, model.tau, t, ctl), "series"
        return eh_alpha_integral(model.alpha, model.tau, t, quad), "quadrature"
    if model.family == "RzhanitsynDavidson":
        return rzhanitsyn_kernel(model.alpha, model.tau, t), "series"
    if model.family == "CHGF":
        return chgf_kernel_R(model.alpha, model.tau, t, ctl), "series"
    # HavriliakNegami
    p = model.hn_params()
    if theta <= HN_SERIES_CROSSOVER:
        return hn_relaxation_kernel(p, t, ctl), "series"
    value = inverse_laplace(lambda s: hn_normalized_image(p, s), t, inversion)
    return value, "quadrature"


def _resolvent(model, t, ctl, quad, inversion):
    theta = t / model.tau
    if model.family == "Rabotnov":
        # table reduction: the resolvent of the eh kernel is the Abel kernel
        return abel_kernel(model.alpha, model.tau, t), "series"
    if model.family in ("RzhanitsynDavidson", "HavriliakNegami"):
        p = _as_hn(model)
        # Only the exact reductions, the t = 0 limit and the Debye error stay
        # on the series route (see the module docstring).  Debye raises at
        # every t: Talbot of its image R/(1 - R) = 1/(s tau0) would return 1/tau0.
        general = p.alpha < 1.0 and p.beta < 1.0
        debye = p.alpha == 1.0 and p.beta == 1.0
        if t <= 0.0 or debye or (not general and theta <= HN_SERIES_CROSSOVER):
            return hn_creep_resolvent(p, t, ctl), "series"
        image = lambda s: volterra_resolvent_transform(hn_normalized_image(p, s))
        return inverse_laplace(image, t, inversion), "quadrature"
    raise ValueError(f"no creep resolvent evaluation for family {model.family!r}")


def _relaxation(model, t, ctl, quad, inversion):
    theta = t / model.tau
    if model.family == "Abel":
        # 1 - convolution with unity of the Abel kernel (unbounded decay)
        return 1.0 - theta**model.alpha / gamma(model.alpha + 1.0), "series"
    if model.family == "Rabotnov":
        if model.alpha == 1.0:
            return math.exp(-theta), "series"
        if theta <= EH_SERIES_CROSSOVER:
            return rabotnov_relaxation(model.alpha, model.tau, t, ctl), "series"
        if theta <= _ASYMPTOTIC_CROSSOVER:
            return i_alpha(model.alpha, theta, quad), "quadrature"
        return _mittag_leffler_tail(model.alpha, theta), "asymptotic"
    if model.family == "CHGF":
        return chgf_relaxation_S(model.alpha, model.tau, t, ctl), "series"
    p = _as_hn(model)
    if theta <= HN_SERIES_CROSSOVER:
        return 1.0 - hn_relaxation_function(p, t, ctl), "series"
    image = lambda s: (1.0 - hn_normalized_image(p, s)) / s
    return inverse_laplace(image, t, inversion), "quadrature"


def _mittag_leffler_tail(alpha: float, theta: float, max_terms: int = 8) -> float:
    """Large-theta expansion of the Rabotnov relaxation function:
    sum_k (-1)^(k+1) theta^(-alpha k) / gamma(1 - alpha k), optimally
    truncated (divergent asymptotic series)."""
    total = 0.0
    previous = math.inf
    for k in range(1, max_terms + 1):
        g = 1.0 - alpha * k
        if g == math.floor(g):  # gamma pole: term vanishes
            continue
        term = (-1.0) ** (k + 1) * theta ** (-alpha * k) / gamma(g)
        if abs(term) >= previous:
            break
        total += term
        previous = abs(term)
    return total


def spectrum_density(model: KernelModel, tau: float) -> tuple[float, str]:
    """Relaxation-time spectrum density (per unit ln tau) of the model.

    Closed form for the Rabotnov family; branch-cut evaluation of the
    transform image otherwise.  The Abel spectrum is non-normalizable and
    reported as the raw branch-cut density.
    """
    if model.family == "Rabotnov":
        return rabotnov_spectrum_H(model.alpha, model.tau, tau), "series"
    if model.family == "Abel":
        b = model.alpha * math.pi
        return math.sin(b) / math.pi * (tau / model.tau) ** model.alpha, "series"
    if model.family == "RzhanitsynDavidson":
        image = lambda s: rzhanitsyn_image(model.alpha, model.tau, s)
    elif model.family == "CHGF":
        image = lambda s: chgf_kernel_image(model.alpha, model.tau, s)
    else:
        p = model.hn_params()
        image = lambda s: hn_normalized_image(p, s)
    return numeric_spectrum(image, tau), "quadrature"
