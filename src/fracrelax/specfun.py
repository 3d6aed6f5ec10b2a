"""Scalar special functions used by every kernel family.

Everything here is a pure function of its arguments: the gamma function
(Lanczos), the Kummer confluent hypergeometric function 1F1, the Gauss
hypergeometric 2F1(1,1;c;x) specialization, and the fractional-exponential
relaxation kernel eh_alpha built on them.  Series evaluation is governed by
a shared ``SeriesControl`` truncation policy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import NonConvergenceError, PoleError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "gamma",
    "ln_gamma",
    "kummer_1f1",
    "gauss_2f1_11",
    "eh_alpha",
    "eh_alpha_regular",
    "EH_SERIES_CROSSOVER",
]

# Crossover t/tau beyond which the eh series is refused and callers must
# switch to the integral representation (quadrature module).
EH_SERIES_CROSSOVER = 10.0

# Raw 1F1 series cancels catastrophically for large negative argument;
# below this threshold the Kummer transformation is applied instead.
_KUMMER_SWITCH = -5.0


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite series.

    Summation stops at the first pair of consecutive terms whose magnitudes
    both fall below ``rel_tol * |partial sum| + abs_tol`` (two terms guard
    against alternating-series stalls).  ``max_terms`` bounds the budget.
    """

    max_terms: int = 500
    rel_tol: float = 1e-12
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be >= 0")


DEFAULT_CONTROL = SeriesControl()


def sum_series(terms, ctl: SeriesControl = DEFAULT_CONTROL, what: str = "series") -> float:
    """Kahan-sum ``terms`` (an iterable of floats) under the control policy.

    Raises :class:`NonConvergenceError` if the budget runs out before two
    consecutive terms pass the smallness test.
    """
    total = 0.0
    comp = 0.0
    small_run = 0
    n = 0
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        n += 1
        if abs(term) <= ctl.rel_tol * abs(total) + ctl.abs_tol:
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
        if n >= ctl.max_terms:
            raise NonConvergenceError(
                f"{what}: no convergence after {ctl.max_terms} terms"
            )
    return total


# Lanczos g = 7, 9-term coefficient set (double-precision workhorse).
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_2PI = 2.5066282746310002
_LN_SQRT_2PI = 0.9189385332046727


def _lanczos_series(z: float) -> float:
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    return acc


def gamma(x: float) -> float:
    """Gamma function for real x, poles excluded.

    Lanczos rational approximation with reflection for x < 0.5.
    """
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x = {x}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    a = _lanczos_series(z)
    t = z + 7.5
    return _SQRT_2PI * t ** (z + 0.5) * math.exp(-t) * a


@functools.lru_cache(maxsize=4096)
def ln_gamma(x: float) -> float:
    """log(gamma(x)) for x > 0; safe for arguments where gamma overflows.

    Memoized: a grid evaluates one model at many t, so the gamma-growth
    coefficients of its series repeat from point to point.  The cache is
    bounded (sized for one grid's coefficients) and thread-safe, and a
    cached value is bitwise the computed one; poles raise every time, since
    exceptions are not cached.
    """
    if x <= 0.0:
        raise PoleError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    a = _lanczos_series(z)
    t = z + 7.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(a)


def _check_c_pole(c: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise PoleError(f"hypergeometric series undefined for c = {c}")


def _kummer_series(a: float, c: float, x: float, ctl: SeriesControl) -> float:
    def terms():
        term = 1.0
        n = 0
        while True:
            yield term
            term *= (a + n) / (c + n) * x / (n + 1)
            n += 1

    return sum_series(terms(), ctl, what="1F1 series")


def kummer_1f1(a: float, c: float, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Kummer confluent hypergeometric function 1F1(a, c, x).

    For x below the cancellation threshold the Kummer transformation
    1F1(a,c,x) = exp(x) 1F1(c-a, c, -x) is applied, turning the alternating
    sum into one with non-negative terms.
    """
    _check_c_pole(c)
    if x == 0.0:
        return 1.0
    if x < _KUMMER_SWITCH:
        return math.exp(x) * _kummer_series(c - a, c, -x, ctl)
    return _kummer_series(a, c, x, ctl)


def _gauss_series(b: float, c: float, z: float, ctl: SeriesControl) -> float:
    # 2F1(1, b; c; z): term ratio (1+n)(b+n) / ((c+n)(n+1)) * z.
    def terms():
        term = 1.0
        n = 0
        while True:
            yield term
            term *= (b + n) / (c + n) * z
            n += 1

    return sum_series(terms(), ctl, what="2F1 series")


def gauss_2f1_11(c: float, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Gauss hypergeometric 2F1(1, 1; c; x) for real x < 1.

    Direct series on (-1/2, 1); the Pfaff transformation
    2F1(1,1;c;x) = (1-x)^(-1) 2F1(1, c-1; c; x/(x-1)) extends the domain to
    any x <= -1/2 (mapped argument in [1/3, 1)) and speeds up convergence
    where the direct series slows down.
    """
    _check_c_pole(c)
    if x >= 1.0:
        raise ValueError(f"2F1(1,1;c;x) requires x < 1, got {x}")
    if x == 0.0:
        return 1.0
    if x <= -0.5:
        return _gauss_series(c - 1.0, c, x / (x - 1.0), ctl) / (1.0 - x)
    return _gauss_series(1.0, c, x, ctl)


def eh_alpha(alpha: float, tau: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Fractional-exponential relaxation kernel, series route.

    eh(t) = t^(alpha-1) * sum_n (-1)^n (t/tau)^(alpha n) / gamma(alpha (n+1)),
    units 1/time^(1-alpha).  At alpha = 1 this is exp(-t/tau).  Valid for
    t/tau <= EH_SERIES_CROSSOVER; larger arguments must use the integral
    representation in the quadrature module.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 1.0 if alpha == 1.0 else math.inf
    theta = t / tau
    if theta > EH_SERIES_CROSSOVER:
        raise ValueError(
            f"eh_alpha series valid for t/tau <= {EH_SERIES_CROSSOVER}; "
            f"got {theta:.3g} (use the integral route)"
        )
    return t ** (alpha - 1.0) * eh_alpha_regular(alpha, tau, t, ctl)


def eh_alpha_regular(
    alpha: float, tau: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """The bounded factor of eh_alpha: eh(t) * t^(1-alpha).

    Equals sum_n (-1)^n (t/tau)^(alpha n) / gamma(alpha (n+1)); used where
    the t^(alpha-1) singularity is handled analytically (weighted
    quadrature of convolutions).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 1.0 / gamma(alpha)
    theta = t / tau
    if theta > EH_SERIES_CROSSOVER:
        raise ValueError(
            f"eh_alpha series valid for t/tau <= {EH_SERIES_CROSSOVER}; "
            f"got {theta:.3g} (use the integral route)"
        )
    ln_z = alpha * math.log(theta)

    def terms():
        # z^n / gamma(alpha (n+1)) in log space: both factors can overflow
        # separately long before the term itself does.
        n = 0
        while True:
            yield (-1.0) ** n * math.exp(n * ln_z - ln_gamma(alpha * (n + 1)))
            n += 1

    return sum_series(terms(), ctl, what="eh series")
