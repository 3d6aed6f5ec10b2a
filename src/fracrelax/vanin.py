"""Asymmetric distribution density for positive structural parameters
(inclusion diameters, center spacings), normalized through a closed-form
confluent-hypergeometric integral."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, _quad
from .specfun import DEFAULT_CONTROL, SeriesControl, gamma, kummer_1f1

__all__ = ["VaninDistribution", "vanin_pdf", "vanin_moment"]


@dataclass(frozen=True)
class VaninDistribution:
    """p(x) = A x^b exp(-x^2 / 2 sigma^2) sinh(a x / sigma) on x >= 0.

    The normalizing factor is closed-form:

        A = [2^(b/2) a sigma^(1+b) gamma(1 + b/2) 1F1(1 + b/2, 3/2, a^2/2)]^(-1)

    and is computed once per distribution and series control.
    """

    a: float
    b: float
    sigma: float

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError(f"shape parameter a must be > 0, got {self.a}")
        if self.b <= -1.0:
            raise ValueError(f"b must be > -1 for integrability at 0, got {self.b}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    @property
    def normalizer(self) -> float:
        return _cached_normalizer(self, DEFAULT_CONTROL)


def normalizer(d: VaninDistribution, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Closed-form A from the 1F1 integral of the unnormalized density."""
    value = (
        2.0 ** (d.b / 2.0)
        * d.a
        * d.sigma ** (1.0 + d.b)
        * gamma(1.0 + d.b / 2.0)
        * kummer_1f1(1.0 + d.b / 2.0, 1.5, d.a * d.a / 2.0, ctl)
    )
    return 1.0 / value


@functools.lru_cache(maxsize=64)
def _cached_normalizer(d: VaninDistribution, ctl: SeriesControl) -> float:
    return normalizer(d, ctl)


def vanin_pdf(d: VaninDistribution, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Density at x >= 0; zero at the origin for every admissible b."""
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        # x^b sinh(a x / sigma) ~ (a/sigma) x^(b+1) -> 0 for b > -1
        return 0.0
    z = d.a * x / d.sigma
    w = -x * x / (2.0 * d.sigma * d.sigma)
    if z > 30.0:
        # sinh(z) = e^z/2 up to e^(-2z); combine exponents (sinh alone
        # overflows long before the Gaussian factor wins)
        return 0.5 * _cached_normalizer(d, ctl) * math.exp(d.b * math.log(x) + w + z)
    return _cached_normalizer(d, ctl) * x**d.b * math.exp(w) * math.sinh(z)


def vanin_moment(
    d: VaninDistribution,
    order: int,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Initial moment E[x^order] by adaptive quadrature (no closed form is
    used); order 0 recovers the normalization."""
    if order < 0 or order != int(order):
        raise ValueError(f"order must be a non-negative integer, got {order}")
    if order > 8:
        raise ValueError("moments above order 8 are outside the validated range")
    return _quad(
        lambda x: x**order * vanin_pdf(d, x, ctl),
        0.0,
        math.inf,
        q,
        f"Vanin moment {order}",
    )
