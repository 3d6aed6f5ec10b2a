"""Route a kernel-family evaluation to its accurate representation.

Each scalar evaluation returns ``(value, method)`` with method "series" or
"quadrature", following the crossover rules: the fractional-exponential
series is trusted up to t/tau = 10 and the Havriliak-Negami series up to
t/tau0 = 5.  Beyond t/tau = 10 the Rabotnov kernel and relaxation function
are their spectral integrals on one fixed double-exponential rule
(``eh_alpha_de``, ``i_alpha_de``, labelled "quadrature"; they raise
NonConvergenceError where the rule cannot vouch for 1e-6, which happens
only at alpha below 0.05 or t/tau past 1e4).  Beyond t/tau0 = 5 the
Havriliak-Negami quantities are inverted from their Laplace images.  The
Rabotnov relaxation series route is E_alpha(-theta^alpha) summed directly
(``rabotnov_relaxation``).  The Rzhanitsyn-Davidson relaxation function is
exactly the regularized upper incomplete gamma function Q(alpha, t/tau);
past t/tau = 5 it is evaluated as that (``gamma_q``, a continued fraction,
labelled "series"), not by inverting its image.  The CHGF pair S and R are
Kummer functions at every t (``kummer_1f1`` switches to its large-argument
expansion by itself).

The t/tau0 = 5 crossover governs the HN kernel, the HN relaxation function
and the exact creep-resolvent reductions (beta = 1 Abel, alpha = 1
Koltunov).  Debye (alpha = beta = 1, also Rzhanitsyn-Davidson alpha = 1)
raises NoResolventError at every t.  The general HN creep resolvent
(alpha < 1 and beta < 1) is inverted by fixed Talbot at every t > 0: its
double series overflows or cancels to noise inside t/tau0 <= 5 at small
alpha.

Each family's Laplace image is written once, in ``laplace_image``: the
inverse-Laplace routes here, the branch-cut spectra of ``spectrum_density``
and the CLI's forced-quadrature ``eval`` and ``invert`` all take it from
there.  The Rzhanitsyn-Davidson relaxation and resolvent series go through
its HN view, ``KernelModel.hn_params()``.
"""

from __future__ import annotations

import math
from functools import partial

from .kernels import (
    HN_SERIES_CROSSOVER,
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
from .quadrature import eh_alpha_de, i_alpha_de
from .resolvent import volterra_resolvent_transform
from .spectra import (
    abel_image,
    chgf_kernel_image,
    hn_normalized_image,
    numeric_spectrum,
    rabotnov_image,
    rabotnov_spectrum_H,
    rzhanitsyn_image,
)
from .specfun import (
    DEFAULT_CONTROL,
    EH_SERIES_CROSSOVER,
    SeriesControl,
    eh_alpha,
    gamma,
    gamma_q,
)

__all__ = ["QUANTITIES", "evaluate_model", "spectrum_density"]

QUANTITIES = ("kernel", "resolvent", "relaxation")


def laplace_image(model: KernelModel, quantity: str):
    """Laplace image of the model's relaxation kernel (``quantity`` "kernel")
    or of its creep resolvent R/(1 - R) ("resolvent"), as a callable
    complex -> complex.  The family is settled here, once per call, not at
    every sample of the image."""
    a, tau = model.alpha, model.tau
    if model.family == "Abel":
        kernel = partial(abel_image, a, tau)
    elif model.family == "Rabotnov":
        # eh kernel: 1/(tau^-alpha + s^alpha)
        scale = tau**a
        kernel = lambda s: scale * rabotnov_image(a, tau, s)
    elif model.family == "RzhanitsynDavidson":
        kernel = partial(rzhanitsyn_image, a, tau)
    elif model.family == "CHGF":
        kernel = partial(chgf_kernel_image, a, tau)
    else:
        kernel = partial(hn_normalized_image, model.hn_params())
    if quantity == "kernel":
        return kernel
    if quantity == "resolvent":
        return lambda s: volterra_resolvent_transform(kernel(s))
    raise ValueError(f"no Laplace image for quantity {quantity!r}")


def evaluate_model(
    model: KernelModel,
    quantity: str,
    t: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
    inversion: InverseLaplaceSpec = DEFAULT_INVERSION,
) -> tuple[float, str]:
    """Evaluate the requested quantity of a kernel model at time t."""
    if quantity == "kernel":
        return _kernel(model, t, ctl, inversion)
    if quantity == "resolvent":
        return _resolvent(model, t, ctl, inversion)
    if quantity == "relaxation":
        return _relaxation(model, t, ctl, inversion)
    raise ValueError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")


def _kernel(model, t, ctl, inversion):
    theta = t / model.tau
    if model.family == "Abel":
        return abel_kernel(model.alpha, model.tau, t), "series"
    if model.family == "Rabotnov":
        if model.alpha == 1.0:
            return math.exp(-theta), "series"
        if theta <= EH_SERIES_CROSSOVER:
            return eh_alpha(model.alpha, model.tau, t, ctl), "series"
        return eh_alpha_de(model.alpha, model.tau, t), "quadrature"
    if model.family == "RzhanitsynDavidson":
        return rzhanitsyn_kernel(model.alpha, model.tau, t), "series"
    if model.family == "CHGF":
        return chgf_kernel_R(model.alpha, model.tau, t, ctl), "series"
    # HavriliakNegami
    if theta <= HN_SERIES_CROSSOVER:
        return hn_relaxation_kernel(model.hn_params(), t, ctl), "series"
    return inverse_laplace(laplace_image(model, "kernel"), t, inversion), "quadrature"


def _resolvent(model, t, ctl, inversion):
    theta = t / model.tau
    if model.family == "Rabotnov":
        # table reduction: the resolvent of the eh kernel is the Abel kernel
        return abel_kernel(model.alpha, model.tau, t), "series"
    if model.family in ("RzhanitsynDavidson", "HavriliakNegami"):
        # Only the exact reductions, the t = 0 limit and the Debye error stay
        # on the series route (see the module docstring).  Debye raises at
        # every t: Talbot of its image R/(1 - R) = 1/(s tau0) would return 1/tau0.
        # Both tests are symmetric in (alpha, beta), so the model's own fields
        # decide them for the Rzhanitsyn-Davidson HN view (1, alpha) too.
        a, b = model.alpha, model.beta
        general = a < 1.0 and b < 1.0
        debye = a == 1.0 and b == 1.0
        if t <= 0.0 or debye or (not general and theta <= HN_SERIES_CROSSOVER):
            return hn_creep_resolvent(model.hn_params(), t, ctl), "series"
        return inverse_laplace(laplace_image(model, "resolvent"), t, inversion), "quadrature"
    raise ValueError(f"no creep resolvent evaluation for family {model.family!r}")


def _relaxation(model, t, ctl, inversion):
    theta = t / model.tau
    if model.family == "Abel":
        # 1 - convolution with unity of the Abel kernel (unbounded decay)
        return 1.0 - theta**model.alpha / gamma(model.alpha + 1.0), "series"
    if model.family == "Rabotnov":
        if model.alpha == 1.0:
            return math.exp(-theta), "series"
        if theta <= EH_SERIES_CROSSOVER:
            return rabotnov_relaxation(model.alpha, model.tau, t, ctl), "series"
        return i_alpha_de(model.alpha, theta), "quadrature"
    if model.family == "CHGF":
        return chgf_relaxation_S(model.alpha, model.tau, t, ctl), "series"
    if theta <= HN_SERIES_CROSSOVER:
        return 1.0 - hn_relaxation_function(model.hn_params(), t, ctl), "series"
    if model.family == "RzhanitsynDavidson":
        # 1 - int_0^theta u^(alpha-1) e^-u du / gamma(alpha)
        return gamma_q(model.alpha, theta, ctl), "series"
    kernel = laplace_image(model, "kernel")
    return inverse_laplace(lambda s: (1.0 - kernel(s)) / s, t, inversion), "quadrature"


def spectrum_density(model: KernelModel, tau: float) -> tuple[float, str]:
    """Relaxation-time spectrum density (per unit ln tau) of the model.

    Closed form for the Rabotnov family; branch-cut evaluation of the
    transform image otherwise.  The Abel spectrum is non-normalizable and
    reported as the raw branch-cut density.  The cut of (1 + s tau)^-beta
    (Rzhanitsyn-Davidson, and Havriliak-Negami at alpha = 1) covers
    tau < model.tau only, and the CHGF cut tau > model.tau only: off it the
    density is exactly 0, and at the branch point tau = model.tau it is
    infinite.
    """
    if model.family == "Rabotnov":
        return rabotnov_spectrum_H(model.alpha, model.tau, tau), "series"
    if model.family == "Abel":
        b = model.alpha * math.pi
        return math.sin(b) / math.pi * (tau / model.tau) ** model.alpha, "series"
    chgf = model.family == "CHGF"
    if (chgf or model.hn_params().alpha == 1.0) and tau > 0.0:
        if tau == model.tau:
            return math.inf, "quadrature"
        if (tau > model.tau) != chgf:
            return 0.0, "quadrature"
    return numeric_spectrum(laplace_image(model, "kernel"), tau), "quadrature"
