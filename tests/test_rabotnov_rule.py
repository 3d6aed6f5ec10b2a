"""The Rabotnov kernel and relaxation function past t/tau = 10: one fixed
double-exponential rule on their spectral integrals, against an adaptive
mpmath Talbot oracle."""

import pytest

from fracrelax import quadrature
from fracrelax.errors import NonConvergenceError
from fracrelax.evaluate import evaluate_model
from fracrelax.kernels import KernelModel
from fracrelax.quadrature import eh_alpha_de, i_alpha_de

import oracles

SWEEP_ALPHAS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
SWEEP_THETAS = (10.01, 31.6, 100.0, 101.0, 316.0, 1e3, 1e4)
TAU = 0.7


def _evaluate(alpha, theta, quantity):
    """evaluate_model at t = theta tau, in tau = 1 units, with its label."""
    value, method = evaluate_model(KernelModel("Rabotnov", alpha, TAU), quantity, theta * TAU)
    if quantity == "kernel":
        value *= TAU ** (1.0 - alpha)  # eh carries units 1/time^(1-alpha)
    return value, method


@pytest.mark.parametrize("alpha, theta", [(0.05, 1e3), (0.05, 1e4), (0.1, 1e3), (0.2, 101.0)])
def test_relaxation_where_the_tail_expansion_was_wrong(alpha, theta):
    # the power-law tail once served theta > 100 and was 4.1e-2, 1.6e-2,
    # 5.9e-4 and 1.5e-4 off at these points
    value, method = _evaluate(alpha, theta, "relaxation")
    assert value == pytest.approx(oracles.rabotnov(alpha, theta), rel=1e-10)
    assert method == "quadrature"


def test_kernel_far_tail():
    # QUADPACK returned 8.79e-14 here
    value, method = _evaluate(0.95, 1e4, "kernel")
    expected = oracles.rabotnov(0.95, 1e4, kernel=True)
    assert expected == pytest.approx(7.74e-10, rel=1e-3)
    assert value == pytest.approx(expected, rel=1e-10)
    assert method == "quadrature"


@pytest.mark.parametrize("quantity", ["kernel", "relaxation"])
@pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
def test_sweep_past_crossover(alpha, quantity):
    for theta in SWEEP_THETAS:
        value, method = _evaluate(alpha, theta, quantity)
        expected = oracles.rabotnov(alpha, theta, kernel=quantity == "kernel")
        assert value == pytest.approx(expected, rel=1e-10), theta
        assert method == "quadrature"


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05, 0.1, 0.5, 0.9, 0.999])
def test_beyond_the_box_right_or_raises(alpha, kernel):
    # the step exp(-theta u^(1/alpha)) grows too sharp for the fixed nodes
    # at small alpha and large theta: every value is within 1e-6 or raises
    for theta in (1e5, 1e6, 1e8, 1e10, 1e12):
        try:
            value = eh_alpha_de(alpha, 1.0, theta) if kernel else i_alpha_de(alpha, theta)
        except NonConvergenceError:
            continue
        expected = oracles.rabotnov(alpha, theta, kernel=kernel)
        assert value == pytest.approx(expected, rel=1e-6), theta


@pytest.mark.parametrize("alpha, theta", [(0.05, 1e10), (0.02, 2.1544346900318778e10)])
def test_guard_raises_on_unresolved_step(alpha, theta):
    # unguarded the kernel is 2.7e-6 and 1.2e-4 off here; at the second
    # point the half-step estimate alone (1.0e-5) would have let it through
    with pytest.raises(NonConvergenceError):
        eh_alpha_de(alpha, 1.0, theta)


def test_half_step_estimate_guard(monkeypatch):
    # at (0.05, 1e4) the two rules differ by 2.9e-7 of the value
    assert eh_alpha_de(0.05, 1.0, 1e4) > 0.0
    monkeypatch.setattr(quadrature, "_DE_REL_BOUND", 1e-12)
    with pytest.raises(NonConvergenceError, match="half-step"):
        eh_alpha_de(0.05, 1.0, 1e4)


def test_domain():
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError):
            i_alpha_de(alpha, 20.0)
    with pytest.raises(ValueError):
        eh_alpha_de(0.5, 1.0, 0.5)
