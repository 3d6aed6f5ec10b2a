"""The one three-parameter Mittag-Leffler (Prabhakar) series behind every
time-domain kernel series, and each of its callers, against the adaptive
mpmath oracle in ``oracles.prabhakar``.

A value passes within rel 1e-9 of the oracle, or within 100 eps times the
oracle's largest term where the sum cancels more than that allows: no
double-precision sum gets closer than a few eps times its largest term, and
each log-space term carries about eps times the size of the log-gamma
values it subtracts.  The shape grid is alpha, beta in {0.05, 0.3, 0.61,
0.9, 1}, t/tau in {1e-3, 0.1, 1, 5}, plus 10 inside the eh crossover.
"""

import math

import mpmath as mp
import pytest

import oracles
from fracrelax.errors import NonConvergenceError
from fracrelax.kernels import (
    HNParams,
    hn_creep_resolvent,
    hn_creep_resolvent_series,
    hn_relaxation_function,
    hn_relaxation_kernel,
    rabotnov_relaxation,
)
from fracrelax.specfun import eh_alpha_regular, gamma, prabhakar_series
from fracrelax.suvorova import eh_weighted_regular

SHAPES = (0.05, 0.3, 0.61, 0.9, 1.0)
THETAS = (1e-3, 0.1, 1.0, 5.0)
EH_THETAS = THETAS + (10.0,)
EPS = 2.0**-52
DPS = 25  # enough: the worst cancellation in the grid costs the oracle 8 digits


def _check(name, value, reference, peak, failures):
    """Compare one value with the oracle; record a miss in ``failures``."""
    reference, peak = float(reference), float(peak)
    tol = max(1e-9, 100 * EPS * peak / abs(reference))
    err = abs(value - reference) / abs(reference)
    if not err <= tol:
        failures.append(f"{name}: rel err {err:.2e} > {tol:.1e}")


def _evaluate(fn, *args, may_not_converge=False):
    """fn(*args), or None for a NonConvergenceError where the budget may run
    out; any other exception fails the test."""
    try:
        return fn(*args)
    except NonConvergenceError:
        if may_not_converge:
            return None
        raise


def _ml(g, a, b, z, scale=1):
    """scale * E^g_{a,b}(z) and scale times its largest term, by the oracle."""
    with mp.workdps(DPS):
        value, peak = oracles.prabhakar_with_peak(g, a, b, z, DPS)
        return scale * value, scale * peak


def _budget_runs_out(order, theta):
    # at order 0.05 the series needs more than its 500 terms from t/tau = 5 on
    return order == 0.05 and theta >= 5.0


def test_oracle_agrees_with_itself_at_35_and_50_digits():
    for a in SHAPES:
        for g, b in [(1, a), (0.61, a * 0.61 + 1)]:
            for theta in EH_THETAS:
                for z in (-(mp.mpf(theta) ** a), mp.mpf(theta) ** a):
                    lo = oracles.prabhakar(g, a, b, z, 35)
                    hi = oracles.prabhakar(g, a, b, z, 50)
                    assert abs(lo - hi) <= mp.mpf("1e-24") * abs(hi), (g, a, b, theta)


@pytest.mark.parametrize(
    "g, alpha, beta, x, ln_scale",
    [
        (1.0, 0.5, 0.5, -2.0, 0.0),
        (1.0, 0.5, 1.0, 3.0, 0.0),
        (0.61, 0.3, 0.183, -1.5, 0.0),
        (2.5, 0.9, 3.25, 0.8, 0.0),
        (40.0, 0.61, 24.4, -1.2, 20.0 * math.log(5.0)),
    ],
)
def test_prabhakar_series_against_oracle(g, alpha, beta, x, ln_scale):
    value, peak = prabhakar_series(g, alpha, beta, x, ln_scale=ln_scale)
    reference, ref_peak = _ml(g, alpha, beta, x, mp.exp(ln_scale))
    failures = []
    _check("value", value, reference, ref_peak, failures)
    assert not failures, failures
    assert peak == pytest.approx(float(ref_peak), rel=1e-12)


@pytest.mark.parametrize("alpha", SHAPES)
def test_eh_alpha_regular(alpha):
    # E^1_{alpha,alpha}(-theta^alpha)
    failures = []
    for theta in EH_THETAS:
        budget = _budget_runs_out(alpha, theta)
        value = _evaluate(eh_alpha_regular, alpha, 1.0, theta, may_not_converge=budget)
        if value is not None:
            ref = _ml(1, alpha, alpha, -(mp.mpf(theta) ** alpha))
            _check(f"theta={theta}", value, *ref, failures)
    assert not failures, failures


@pytest.mark.parametrize("alpha", SHAPES)
def test_rabotnov_relaxation(alpha):
    # E^1_{alpha,1}(-theta^alpha)
    failures = []
    for theta in EH_THETAS:
        budget = _budget_runs_out(alpha, theta)
        value = _evaluate(rabotnov_relaxation, alpha, 1.0, theta, may_not_converge=budget)
        if value is not None:
            ref = _ml(1, alpha, 1, -(mp.mpf(theta) ** alpha))
            _check(f"theta={theta}", value, *ref, failures)
    assert not failures, failures


@pytest.mark.parametrize("order", SHAPES[:-1])
def test_eh_weighted_regular(order):
    # eh_alpha_regular of order 1 - alpha at timescale (k gamma(order))^(-1/order)
    k = 0.7
    tau = (k * gamma(order)) ** (-1.0 / order)
    failures = []
    for theta in EH_THETAS:
        budget = _budget_runs_out(order, theta)
        t = theta * tau
        value = _evaluate(eh_weighted_regular, 1.0 - order, k, t, may_not_converge=budget)
        if value is not None:
            ref = _ml(1, order, order, -(mp.mpf(t) / mp.mpf(tau)) ** order)
            _check(f"theta={theta}", value, *ref, failures)
    assert not failures, failures


@pytest.mark.parametrize("alpha", SHAPES)
def test_hn_relaxation_kernel(alpha):
    # theta^(alpha beta - 1) / tau0 E^beta_{alpha, alpha beta}(-theta^alpha), tau0 = 2
    failures = []
    for beta in SHAPES:
        for theta in THETAS:
            budget = _budget_runs_out(alpha, theta)
            p = HNParams(alpha, beta, 2.0)
            value = _evaluate(hn_relaxation_kernel, p, 2.0 * theta, may_not_converge=budget)
            if value is not None:
                a, b, th = mp.mpf(alpha), mp.mpf(beta), mp.mpf(theta)
                ref = _ml(b, a, a * b, -(th**a), th ** (a * b - 1) / 2)
                _check(f"beta={beta} theta={theta}", value, *ref, failures)
    assert not failures, failures


@pytest.mark.parametrize("alpha", SHAPES)
def test_hn_relaxation_function(alpha):
    # theta^(alpha beta) E^beta_{alpha, alpha beta + 1}(-theta^alpha)
    failures = []
    for beta in SHAPES:
        for theta in THETAS:
            budget = _budget_runs_out(alpha, theta)
            p = HNParams(alpha, beta, 1.0)
            value = _evaluate(hn_relaxation_function, p, theta, may_not_converge=budget)
            if value is not None:
                a, b, th = mp.mpf(alpha), mp.mpf(beta), mp.mpf(theta)
                ref = _ml(b, a, a * b + 1, -(th**a), th ** (a * b))
                _check(f"beta={beta} theta={theta}", value, *ref, failures)
    assert not failures, failures


def _resolvent_reference(alpha, beta, theta):
    """sum_{n>=1} theta^(alpha n beta - 1) E^(n beta)_{alpha, alpha n beta}(-theta^alpha)
    and the sum of its terms' largest terms, until three outer terms in a
    row are below 10^-DPS of the sum."""
    with mp.workdps(DPS):
        a, b, th = mp.mpf(alpha), mp.mpf(beta), mp.mpf(theta)
        total = peaks = previous = mp.mpf(0)
        small = 0
        n = 1
        while small < 3:
            g = n * b
            term, peak = _ml(g, a, a * g, -(th**a), th ** (a * g - 1))
            total += term
            peaks += peak
            falling = abs(term) <= abs(previous)
            small = small + 1 if falling and abs(term) <= mp.mpf(10) ** -DPS * abs(total) else 0
            previous = term
            n += 1
        return total, peaks


def _resolvent_budget_runs_out(alpha, beta, theta):
    """Where the outer series needs more than its 500 terms, or cancellation
    in its inner series leaves the sum uncertain by more than 1e-6 of itself
    (at alpha = 0.3 and beta >= 0.61, t/tau0 = 5: no digit of the sum
    there is right)."""
    return (
        alpha == 0.05
        or (beta == 0.05 and theta >= (1.0 if alpha == 0.3 else 5.0))
        or (alpha == 0.3 and beta >= 0.3 and theta == 5.0)
    )


@pytest.mark.parametrize("alpha", SHAPES)
def test_hn_creep_resolvent_series(alpha):
    failures = []
    for beta in SHAPES:
        for theta in THETAS:
            budget = _resolvent_budget_runs_out(alpha, beta, theta)
            p = HNParams(alpha, beta, 1.0)
            value = _evaluate(hn_creep_resolvent_series, p, theta, may_not_converge=budget)
            if value is not None:
                ref = _resolvent_reference(alpha, beta, theta)
                _check(f"beta={beta} theta={theta}", value, *ref, failures)
    assert not failures, failures


@pytest.mark.parametrize("beta", SHAPES[:-1])
def test_koltunov_resolvent(beta):
    # alpha = 1: e^-theta / t theta^beta E^1_{beta,beta}(theta^beta)
    failures = []
    for theta in THETAS:
        budget = _budget_runs_out(beta, theta)
        value = _evaluate(hn_creep_resolvent, HNParams(1.0, beta, 1.0), theta,
                          may_not_converge=budget)
        if value is not None:
            b, th = mp.mpf(beta), mp.mpf(theta)
            ref = _ml(1, b, b, th**b, mp.exp(-th) * th ** (b - 1))
            _check(f"theta={theta}", value, *ref, failures)
    assert not failures, failures


def test_resolvent_cancellation_raises():
    # without the guard the sum comes out near -1.2e9; the true value is 0.1207
    with pytest.raises(NonConvergenceError, match="cancellation"):
        hn_creep_resolvent_series(HNParams(0.3, 0.9, 1.0), 5.0)
