"""Shermergor's P_alpha kernel and p_nu step response: a branch-cut integral
on the fixed double-exponential nodes plus a pole residue, against adaptive
mpmath Talbot inversions of their images."""

import pytest

from fracrelax.errors import NonConvergenceError
from fracrelax.kernels import p_kernel, p_nu_response

import oracles

TAU = 0.7
SWEEP_ALPHAS = (0.05, 0.3, 0.6, 0.9, 0.99, 0.999)
SWEEP_THETAS = (1e-3, 1.0, 10.0, 1e3)


def _p(alpha, n_eps, theta):
    """p_kernel at t = theta tau, in tau = 1 units."""
    return p_kernel(alpha, n_eps, TAU, theta * TAU) * TAU ** (alpha + 1.0)


def _p_nu(alpha, q, theta):
    """p_nu_response at t = theta tau_nu, and the q it was given (variant 4
    reads q = m - 1)."""
    m = 1.0 + q
    return p_nu_response(alpha, m, TAU, 4, theta * TAU), m - 1.0


@pytest.mark.parametrize(
    "alpha, n_eps, theta",
    [
        # the Kummer series was off by 1.2e-5 (series-grid), 2.9e-5 and 3.0e-7
        (0.8934622533415343, 3.4290276647852953, 10.0),
        (0.893, 3.43, 10.0),
        (0.9, 3.0, 10.0),
        # and raised NonConvergenceError at these
        (0.5, 10.0, 10.0),
        (0.9, 3.0, 30.0),
        (0.5, 30.0, 1.0),
        (0.3, 100.0, 1.0),
    ],
)
def test_p_kernel_where_the_series_failed(alpha, n_eps, theta):
    assert _p(alpha, n_eps, theta) == pytest.approx(
        oracles.shermergor_p(alpha, n_eps, theta), rel=1e-12
    )


@pytest.mark.parametrize(
    "alpha, q, theta",
    [
        # the series returned -71220 at the first point and was 4.2e-8 off
        # at the second
        (0.9, 3.0, 100.0),
        (0.5, 3.0, 100.0),
        # and raised at |q| = 0.95 and |q| = 1
        (0.6, 0.95, 2.0),
        (0.6, -0.95, 2.0),
        (0.6, 0.95, 10.0),
        (0.6, 1.0, 2.0),
        (0.6, 1.0, 100.0),
    ],
)
def test_p_nu_where_the_series_failed(alpha, q, theta):
    value, q = _p_nu(alpha, q, theta)
    assert value == pytest.approx(oracles.shermergor_p_nu(alpha, q, theta), rel=1e-12)


@pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
def test_p_kernel_sweep(alpha):
    for n_eps in (0.1, 1.0, 10.0, 100.0):
        for theta in SWEEP_THETAS:
            expected = oracles.shermergor_p(alpha, n_eps, theta)
            assert _p(alpha, n_eps, theta) == pytest.approx(expected, rel=1e-12), (n_eps, theta)


@pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
def test_p_nu_sweep(alpha):
    for q in (-0.99, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0):
        for theta in SWEEP_THETAS:
            value, q_given = _p_nu(alpha, q, theta)
            expected = oracles.shermergor_p_nu(alpha, q_given, theta)
            assert value == pytest.approx(expected, rel=1e-12), (q, theta)


@pytest.mark.parametrize("alpha", [0.02, 0.1, 0.9])
def test_beyond_the_box_right_or_raises(alpha):
    # past theta = 1e4 the step exp(-theta sigma) outgrows the fixed nodes at
    # small alpha: every value is within 1e-6 or raises
    for theta in (1e6, 1e10):
        for quantity, parameter in (("p", 1.0), ("p_nu", -0.5), ("p_nu", 3.0)):
            try:
                if quantity == "p":
                    value = p_kernel(alpha, parameter, 1.0, theta)
                else:
                    value = p_nu_response(alpha, 1.0 + parameter, 1.0, 4, theta)
            except NonConvergenceError:
                continue
            oracle = oracles.shermergor_p if quantity == "p" else oracles.shermergor_p_nu
            expected = oracle(alpha, parameter, theta)
            assert value == pytest.approx(expected, rel=1e-6), (quantity, parameter, theta)


def test_resolution_guard():
    # unguarded, p_nu is 7.7e-7 off here
    with pytest.raises(NonConvergenceError, match="node spacings"):
        p_nu_response(0.01, 0.5, 1.0, 4, 1e10)
