"""Laplace images of the kernel families and relaxation-time spectra.

The images of the Abel, Rabotnov, Rzhanitsyn (Davidson-Cole),
confluent-hypergeometric and Havriliak-Negami kernels, the closed-form
log-symmetric spectrum H(tau) of the Rabotnov family, and a generic numeric
spectrum extracted from any transform image by evaluation just below the
negative real axis.  Every dispersion relation is one of these images in
``evaluate.modulus``.
"""

from __future__ import annotations

import math

from .errors import DegenerateSpectrumError
from .kernels import HNParams

__all__ = [
    "hn_normalized_image",
    "rabotnov_image",
    "abel_image",
    "rzhanitsyn_image",
    "chgf_kernel_image",
    "rabotnov_spectrum_H",
    "rabotnov_spectrum_L",
    "numeric_spectrum",
]

# Offset used to pin complex powers to the branch approached from below the
# negative real axis (Im -> 0^-); only the sign matters.
_BELOW_CUT = 1e-300


def hn_normalized_image(p: HNParams, s: complex) -> complex:
    """Normalized relaxing part 1 / [1 + (s tau0)^alpha]^beta at Laplace
    variable s (the Laplace image of the HN relaxation kernel)."""
    return (1.0 + (s * p.tau0) ** p.alpha) ** -p.beta


def rabotnov_image(alpha: float, tau: float, s: complex) -> complex:
    """Laplace image of the normalized Rabotnov kernel: 1/(1 + (s tau)^alpha)."""
    return 1.0 / (1.0 + (s * tau) ** alpha)


def abel_image(alpha: float, tau: float, s: complex) -> complex:
    """Laplace image of the Abel kernel (t/tau)^(alpha-1)/(tau gamma(alpha)):
    (s tau)^(-alpha)."""
    return (s * tau) ** -alpha


def rzhanitsyn_image(beta: float, tau: float, s: complex) -> complex:
    """Laplace image of the Rzhanitsyn (Davidson-Cole) kernel: (1 + s tau)^(-beta)."""
    return (1.0 + s * tau) ** -beta


def chgf_kernel_image(alpha: float, tau: float, s: complex) -> complex:
    """Laplace image of the confluent-hypergeometric relaxation kernel
    (alpha/tau) 1F1(1+alpha, 2, -t/tau):  1 - (1 + 1/(s tau))^(-alpha)."""
    return 1.0 - (1.0 + 1.0 / (s * tau)) ** -alpha


def rabotnov_spectrum_H(alpha: float, tau_ref: float, tau: float) -> float:
    """Relaxation-time spectrum of the Rabotnov family, density per unit
    ln(tau):

        H(tau) = (1/2pi) sin(alpha pi) / (cosh[alpha ln(tau/tau_ref)] + cos(alpha pi))

    Symmetric in ln(tau/tau_ref) and normalized to unit integral over
    d ln tau.  alpha = 1 is the degenerate (delta-distribution) limit.
    """
    if not 0.0 < alpha < 1.0:
        raise DegenerateSpectrumError(
            f"spectrum requires 0 < alpha < 1 (alpha = {alpha} is a delta distribution)"
        )
    if tau <= 0.0 or tau_ref <= 0.0:
        raise ValueError("tau and tau_ref must be > 0")
    b = alpha * math.pi
    return (
        math.sin(b)
        / (math.cosh(alpha * math.log(tau / tau_ref)) + math.cos(b))
        / (2.0 * math.pi)
    )


def rabotnov_spectrum_L(alpha: float, tau_sigma: float, tau: float) -> float:
    """Retardation-time spectrum: same bell as H, shifted to tau_sigma."""
    return rabotnov_spectrum_H(alpha, tau_sigma, tau)


def numeric_spectrum(image, tau: float) -> float:
    """Spectrum density per unit ln(tau) extracted from a normalized
    transform image m(s) (callable complex -> complex):

        H(tau) = (1/pi) Im m(s),   s = -1/tau - i0

    i.e. the branch-cut jump of the image along the negative real axis
    approached from below.  For a full modulus M(s) = M_inf - dM m(s) pass
    image = lambda s: (M_inf - M(s))/dM.
    """
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    s = complex(-1.0 / tau, -_BELOW_CUT)
    return image(s).imag / math.pi
