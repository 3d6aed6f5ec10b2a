"""Nonlinear hereditary stress under constant strain rate.

The stress response sigma(t) for the logarithmic nonlinearity
phi(eps) = a ln(1 + b eps), eps = strain_rate * t, under a power-law
creep kernel, comes in two cross-validating routes: a hypergeometric
series and the direct convolution integral

    sigma = phi(eps(t)) - int_0^t k G(1-alpha) ehw(t - u) phi(eps(u)) du.

``ehw`` is the gamma-weighted fractional-exponential convention used here:

    ehw(t) = t^-alpha sum_n [-k G(1-alpha)]^n t^(n(1-alpha)) / G[(n+1)(1-alpha)]

which is the standard eh kernel of order (1 - alpha) evaluated at
lambda = k gamma(1-alpha), i.e. timescale (k gamma(1-alpha))^(-1/(1-alpha)).
``eh_weighted_regular`` returns its bounded factor ehw(t) t^alpha through
that bridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, integral_power_singular
from .specfun import (
    DEFAULT_CONTROL,
    EH_SERIES_CROSSOVER,
    SeriesControl,
    eh_alpha_regular,
    gamma,
    gauss_2f1_11,
    ln_gamma,
    sum_series,
)

__all__ = [
    "SuvorovaModel",
    "eh_weighted_regular",
    "suvorova_stress_series",
    "suvorova_convolution",
]


@dataclass(frozen=True)
class SuvorovaModel:
    a: float
    b: float
    k: float
    alpha: float
    strain_rate: float

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("a and b must be > 0")
        if self.k < 0.0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.strain_rate <= 0.0:
            raise ValueError(f"strain_rate must be > 0, got {self.strain_rate}")

    def phi(self, strain: float) -> float:
        return self.a * math.log1p(self.b * strain)


def eh_weighted_regular(
    alpha: float, k: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """ehw(t) * t^alpha: the bounded factor of the weighted kernel.

    ``eh_alpha_regular`` of order 1 - alpha inside the eh crossover of the
    bridged kernel; integral representation beyond it (the bridge timescale
    (k gamma(1-alpha))^(-1/(1-alpha)) collapses rapidly as alpha -> 1, so
    the fallback matters even for moderate times).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    order = 1.0 - alpha
    lam = k * gamma(order)
    if t == 0.0 or lam == 0.0:
        return 1.0 / gamma(order)
    tau_eh = lam ** (-1.0 / order)
    if t / tau_eh > EH_SERIES_CROSSOVER:
        from .quadrature import eh_alpha_integral

        return eh_alpha_integral(order, tau_eh, t) * t**alpha
    return eh_alpha_regular(order, tau_eh, t, ctl)


def suvorova_stress_series(
    mdl: SuvorovaModel, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Stress by the hypergeometric series route:

        sigma = phi(eps) + sum_{n>=1} a [-k G(1-a)]^n b deps t^(n(1-a)+1)
                / G(n(1-a)+2) * 2F1(1, 1; n(1-a)+2; -b eps)

    (term-by-term integration of the convolution; at k = 0 only phi
    survives).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    strain = mdl.strain_rate * t
    base = mdl.phi(strain)
    if mdl.k == 0.0:
        return base
    lam = mdl.k * gamma(1.0 - mdl.alpha)
    w = 1.0 - mdl.alpha
    ln_t = math.log(t)
    prefactor = mdl.a * mdl.b * mdl.strain_rate

    def terms():
        n = 1
        while True:
            c = n * w + 2.0
            magnitude = math.exp(n * math.log(lam) + (n * w + 1.0) * ln_t - ln_gamma(c))
            yield (
                (-1.0) ** n
                * prefactor
                * magnitude
                * gauss_2f1_11(c, -mdl.b * strain, ctl)
            )
            n += 1

    return base + sum_series(terms(), ctl, what="stress series")


def suvorova_convolution(
    mdl: SuvorovaModel,
    t: float,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Stress by direct quadrature of the hereditary convolution; the
    (t-u)^-alpha endpoint weight is absorbed by a power substitution.  This
    is the oracle route for the series."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    base = mdl.phi(mdl.strain_rate * t)
    if mdl.k == 0.0:
        return base
    weight = mdl.k * gamma(1.0 - mdl.alpha)

    # integrate over u = t - s: int_0^t u^(-alpha) * g(u) du with smooth g
    def g(u: float) -> float:
        return (
            weight
            * eh_weighted_regular(mdl.alpha, mdl.k, u, ctl)
            * mdl.phi(mdl.strain_rate * (t - u))
        )

    return base - integral_power_singular(g, 1.0 - mdl.alpha, t, q)
