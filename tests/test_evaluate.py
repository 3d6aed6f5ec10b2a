"""Route dispatch of evaluate_model: the Havriliak-Negami creep resolvent
and the Rabotnov relaxation series.

The general resolvent (alpha < 1 and beta < 1) is inverted from its
closed-form image at every t > 0; the double series overflows or loses its
digits inside t/tau0 <= 5 at small alpha (alpha = 0.2, beta = 0.9 raised
OverflowError for t/tau0 in 0.89..4.2).  The reference is mpmath's own
Talbot inversion of 1/((1 + s^alpha)^beta - 1), accepted only where two
working precisions agree.

The Rabotnov relaxation function E_alpha(-theta^alpha) is summed as its own
Mittag-Leffler series up to theta = 10; the reference is that series summed
at 30 digits.

The Rzhanitsyn-Davidson relaxation function is Q(alpha, theta), evaluated as
such past theta = 5; the reference is mpmath's ``gammainc``.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from fracrelax import KernelModel, evaluate_model
from fracrelax.errors import NoResolventError, NonConvergenceError

# Two precisions must agree to this before a reference is used.
_AGREE = 1e-12
_REL_TOL = 1e-6


def _reference(alpha, beta, theta):
    values = []
    for dps in (15, 20):
        with mp.workdps(dps):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            image = lambda s: 1 / ((1 + s**a) ** b - 1)
            values.append(mp.invertlaplace(image, mp.mpf(theta), method="talbot"))
    lo, hi = values
    with mp.workdps(20):
        assert abs(lo - hi) <= _AGREE * abs(hi), (alpha, beta, theta)
        return float(mp.re(hi))


def _check(alpha, beta, thetas, tau=1.0):
    model = KernelModel("HavriliakNegami", alpha, tau, beta)
    for theta in thetas:
        value, method = evaluate_model(model, "resolvent", theta * tau)
        expected = _reference(alpha, beta, theta) / tau
        assert value == pytest.approx(expected, rel=_REL_TOL), (alpha, beta, theta)
        assert method == "quadrature"


def test_small_alpha_resolvent_inside_series_region():
    _check(0.2, 0.9, np.geomspace(0.89, 4.2, 9), tau=2.5)


@pytest.mark.parametrize("alpha", [0.05, 0.35, 0.7, 0.99])
def test_general_resolvent_grid(alpha):
    for beta in (0.05, 0.5, 0.99):
        _check(alpha, beta, (1e-3, 0.05, 1.0, 5.0))


def test_resolvent_at_origin_is_infinite():
    model = KernelModel("HavriliakNegami", 0.2, 1.0, 0.9)
    assert evaluate_model(model, "resolvent", 0.0) == (math.inf, "series")


def test_debye_has_no_resolvent():
    # Rzhanitsyn-Davidson alpha = 1 is the same kernel in the HN view
    for model in (
        KernelModel("HavriliakNegami", 1.0, 1.0, 1.0),
        KernelModel("RzhanitsynDavidson", 1.0, 1.0),
    ):
        for t in (0.0, 0.5, 5.0, 10.0, 100.0):
            with pytest.raises(NoResolventError):
                evaluate_model(model, "resolvent", t)


def test_reductions_stay_on_series_route():
    # beta = 1 (Abel closed form), alpha = 1 (Koltunov series) and the
    # Rzhanitsyn-Davidson family (alpha = 1 in the HN view)
    for model in (
        KernelModel("HavriliakNegami", 0.5, 1.0, 1.0),
        KernelModel("HavriliakNegami", 1.0, 1.0, 0.5),
        KernelModel("RzhanitsynDavidson", 0.5, 1.0),
    ):
        assert evaluate_model(model, "resolvent", 2.0)[1] == "series"
        assert evaluate_model(model, "resolvent", 6.0)[1] == "quadrature"


def _mittag_leffler_reference(alpha, theta):
    with mp.workdps(30):
        z = -mp.mpf(theta) ** mp.mpf(alpha)
        total, n = mp.mpf(0), 0
        while True:
            term = z**n * mp.rgamma(mp.mpf(alpha) * n + 1)
            total += term
            if n > 10 and abs(term) < mp.mpf(10) ** -35:
                return float(total)
            n += 1


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_rabotnov_relaxation_series_route(alpha):
    model = KernelModel("Rabotnov", alpha, 1.0)
    for theta in np.geomspace(1e-3, 10.0, 9):
        if (alpha, theta) == (0.05, 10.0):
            # the series needs more than its 500-term budget here
            with pytest.raises(NonConvergenceError):
                evaluate_model(model, "relaxation", theta)
            continue
        value, method = evaluate_model(model, "relaxation", theta)
        expected = _mittag_leffler_reference(alpha, theta)
        assert value == pytest.approx(expected, rel=1e-7), (alpha, theta)
        assert method == "series"


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
def test_rzhanitsyn_relaxation_is_upper_incomplete_gamma(alpha):
    # includes (0.3, 20) and (0.7, 50), where Talbot of (1 - K)/s raises
    # ContourError, and (0.7, 20), where it is silently 4.6e-3 off
    tau = 0.4
    model = KernelModel("RzhanitsynDavidson", alpha, tau)
    for theta in [5.01, 7.0, 20.0, 50.0, *np.geomspace(10.0, 1e4, 10)]:
        value, method = evaluate_model(model, "relaxation", theta * tau)
        with mp.workdps(30):
            expected = float(mp.gammainc(alpha, theta, mp.inf, regularized=True))
        assert value == pytest.approx(expected, rel=1e-10), (alpha, theta)
        assert method == "series"
