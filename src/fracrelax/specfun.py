"""Scalar special functions used by every kernel family.

Everything here is a pure function of its arguments: the gamma function
and its logarithm (the C library's, with poles raised as ``PoleError``),
the Kummer confluent hypergeometric function 1F1, the regularized upper
incomplete gamma function Q(a, x), the Gauss hypergeometric 2F1(1,1;c;x)
specialization, the three-parameter Mittag-Leffler (Prabhakar) series
E^g_{alpha,beta}(x), and the fractional-exponential relaxation kernel
eh_alpha built on it.  Series and continued fractions are governed by a
shared ``SeriesControl`` truncation policy.

Every Mittag-Leffler-type time-domain series of the package (eh_alpha, the
Rabotnov relaxation, the Havriliak-Negami kernel, relaxation function and
creep resolvent, the Koltunov resolvent, Suvorova's weighted kernel) is a
call of ``prabhakar_series``.

1F1(a; c; -x) with 0 < a < c (the Euler-integral case, which holds for
every CHGF relaxation function and kernel) takes its large-argument
expansion once that expansion is proven accurate to ``rel_tol``; otherwise
the Kummer-transformed series sums it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonConvergenceError, PoleError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "gamma",
    "ln_gamma",
    "kummer_1f1",
    "gamma_q",
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


def gamma(x: float) -> float:
    """Gamma function for real x, poles excluded (the C library's tgamma)."""
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x = {x}")
    return math.gamma(x)


def ln_gamma(x: float) -> float:
    """log(gamma(x)) for x > 0; safe for arguments where gamma overflows."""
    if x <= 0.0:
        raise PoleError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def prabhakar_series(
    g: float,
    alpha: float,
    beta: float,
    x: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
    ln_scale: float = 0.0,
    what: str = "Prabhakar series",
) -> tuple[float, float]:
    """e^ln_scale * E^g_{alpha,beta}(x), the three-parameter Mittag-Leffler
    (Prabhakar) function

        E^g_{alpha,beta}(x) = sum_n (g)_n x^n / (n! gamma(alpha n + beta)),

    by its power series for g, alpha, beta > 0 and real x != 0, and the
    magnitude of its largest term: rounding leaves the sum uncertain by a
    few eps times that.  Each term is formed in log space, ``ln_scale``
    included: x^n, (g)_n / n!, gamma(alpha n + beta) and a power prefactor
    such as theta^(alpha g) overflow separately long before the term does.
    A term costs one lgamma at g = 1 and three otherwise.
    """
    ln_x = math.log(abs(x))
    flip = -1.0 if x < 0.0 else 1.0
    ln_g = math.lgamma(g)
    ln_peak = -math.inf

    def terms():
        nonlocal ln_peak
        sign = 1.0
        n = 0
        while True:
            ln_term = ln_scale + n * ln_x - math.lgamma(alpha * n + beta)
            if g != 1.0:
                ln_term += math.lgamma(g + n) - ln_g - math.lgamma(n + 1.0)
            if ln_term > ln_peak:
                ln_peak = ln_term
            yield sign * math.exp(ln_term)
            sign *= flip
            n += 1

    total = sum_series(terms(), ctl, what=what)
    return total, math.exp(ln_peak)


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


def _kummer_large_argument(a: float, c: float, x: float, ctl: SeriesControl) -> float | None:
    """1F1(a; c; -x) for 0 < a < c and x > 0 by Watson's lemma applied at
    u = 0 to the Euler integral (DLMF 13.4.1):

        1F1(a; c; -x) ~ gamma(c)/gamma(c-a) x^-a sum_s (a)_s (1+a-c)_s / s! x^-s.

    Terms are added up to the first one that, together with the u = 1 end
    of the integral the expansion leaves out, gamma(c)/gamma(a) e^-x x^(a-c),
    falls within ``rel_tol / 4`` of the sum.  That pair is only the leading
    order of what is left: near the gate the true remainder reaches 1.7
    times it (mpmath, alpha in (0, 1), rel_tol 1e-6 to 1e-12), so the
    margin of 4 keeps the result within ``rel_tol``.  None if the terms stop
    falling first or the budget ends: the expansion cannot reach
    ``rel_tol`` at this x.
    """
    log_x = math.log(x)
    lead = math.exp(ln_gamma(c) - ln_gamma(c - a) - a * log_x)
    far_end = math.exp(ln_gamma(c) - ln_gamma(a) - x + (a - c) * log_x)
    b = 1.0 + a - c
    total = 0.0
    term = 1.0
    for s in range(ctl.max_terms):
        total += term
        omitted = term * (a + s) * (b + s) / ((s + 1) * x)
        if 4.0 * (lead * abs(omitted) + far_end) <= ctl.rel_tol * lead * abs(total):
            return lead * (total + omitted)
        if abs(omitted) >= abs(term):
            return None
        term = omitted
    return None


def kummer_1f1(a: float, c: float, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Kummer confluent hypergeometric function 1F1(a, c, x).

    For 0 < a < c and e^x below ``ctl.rel_tol`` (the best the expansion can
    reach is about e^x) the large-argument expansion of
    ``_kummer_large_argument`` is tried first.  Where it is not accurate
    enough, and for x below the cancellation threshold, the Kummer
    transformation 1F1(a,c,x) = exp(x) 1F1(c-a, c, -x) is applied, turning
    the alternating sum into one with non-negative terms.
    """
    _check_c_pole(c)
    if x == 0.0:
        return 1.0
    if 0.0 < a < c and x < math.log(ctl.rel_tol):
        value = _kummer_large_argument(a, c, -x, ctl)
        if value is not None:
            return value
    if x < _KUMMER_SWITCH:
        return math.exp(x) * _kummer_series(c - a, c, -x, ctl)
    return _kummer_series(a, c, x, ctl)


def gamma_q(a: float, x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = Gamma(a, x)/Gamma(a)
    for a > 0 and x > 0.

    Legendre's continued fraction (DLMF 8.9.2), in its even contraction

        Gamma(a, x) = e^-x x^a / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))),

    evaluated forward by the modified Lentz method.  It stops once a
    convergent moves by at most ``ctl.rel_tol`` and raises
    :class:`NonConvergenceError` if ``ctl.max_terms`` steps do not get
    there.  It is meant for x > a + 1, where a few dozen steps reach
    ``rel_tol``; below that the convergents creep, and the stopping test
    is met while a few more digits are still missing (3e-11 at a = 0.5,
    x = 0.1).
    """
    if a <= 0.0:
        raise ValueError(f"gamma_q requires a > 0, got {a}")
    if x <= 0.0:
        raise ValueError(f"gamma_q requires x > 0, got {x}")
    tiny = 1e-300  # stands in for a zero denominator (Lentz)
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / (b if abs(b) >= tiny else tiny)
    h = d
    for n in range(1, ctl.max_terms + 1):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = c * d
        h *= step
        if abs(step - 1.0) <= ctl.rel_tol:
            # e^-x apart, so that rounding its argument does not cost x * eps
            return math.exp(-x) * math.exp(a * math.log(x) - ln_gamma(a)) * h
    raise NonConvergenceError(
        f"incomplete gamma continued fraction: no convergence after {ctl.max_terms} terms"
    )


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
    units 1/time^(1-alpha).  At alpha = 1 this is exp(-t/tau), returned in
    closed form at every t.  Otherwise valid for t/tau <= EH_SERIES_CROSSOVER;
    larger arguments must use the integral representation in the quadrature
    module.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if alpha == 1.0:
        return math.exp(-t / tau)
    if t == 0.0:
        return math.inf
    return t ** (alpha - 1.0) * eh_alpha_regular(alpha, tau, t, ctl)


def eh_alpha_regular(
    alpha: float, tau: float, t: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """The bounded factor of eh_alpha: eh(t) * t^(1-alpha).

    Equals sum_n (-1)^n (t/tau)^(alpha n) / gamma(alpha (n+1)), which is
    E^1_{alpha,alpha}(-(t/tau)^alpha); used where
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
    return prabhakar_series(1.0, alpha, alpha, -(theta**alpha), ctl, what="eh series")[0]
