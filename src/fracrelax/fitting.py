"""Damped least-squares fit of the four-parameter dispersion model to
measured complex modulus samples.

The residual is the stacked real/imaginary misfit over all frequencies;
optimization runs under box constraints (0 < alpha <= 1, 0 < beta <= 1,
tau0 > 0 via log parameterization, moduli positive with m_inf >= m_0
enforced through the difference parameter).  Initialization follows the
loss-peak heuristics documented on :func:`initial_guess`, so a fit is fully
reproducible from its inputs.  numpy and ``scipy.optimize.least_squares``
load on the first fit, not when this module is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .kernels import HNParams

if TYPE_CHECKING:
    import numpy as np

__all__ = ["FitResult", "initial_guess", "fit_hn"]

# Full width at half maximum, in ln(omega), of the Debye loss peak; the
# measured width divided into this gives the alpha estimate.
_DEBYE_FWHM = 2.0 * math.log(2.0 + math.sqrt(3.0))


@dataclass(frozen=True)
class FitResult:
    params: HNParams
    residual_norm: float
    std_errors: dict[str, float]
    iterations: int
    converged: bool


def _model(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    alpha, beta, ln_tau0, m_0, d_m = x
    tau0 = math.exp(ln_tau0)
    return (m_0 + d_m) - d_m / (1.0 + (1j * omega * tau0) ** alpha) ** beta


def _residuals(x: np.ndarray, omega, data, w_re, w_im) -> np.ndarray:
    import numpy as np

    misfit = _model(x, omega) - data
    return np.concatenate([misfit.real * w_re, misfit.imag * w_im])


def initial_guess(omega: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Starting point (alpha, beta, ln tau0, m_0, d_m):

    * tau0 = 1/omega at the loss peak (max of Im data);
    * alpha from the loss-peak full width at half maximum relative to the
      Debye width (clipped to (0, 1]); 1 if the peak is clipped by the grid;
    * beta = 1;
    * m_0 and m_inf from the low/high-frequency plateaus of Re data.
    """
    import numpy as np

    order = np.argsort(omega)
    omega = omega[order]
    data = data[order]
    loss = data.imag
    i_peak = int(np.argmax(loss))
    tau0 = 1.0 / omega[i_peak]

    alpha = 1.0
    if 0 < i_peak < len(omega) - 1 and loss[i_peak] > 0.0:
        half = 0.5 * loss[i_peak]
        above = loss >= half
        if not above[0] and not above[-1]:
            lo = np.argmax(above)
            hi = len(above) - 1 - np.argmax(above[::-1])
            width = math.log(omega[hi] / omega[lo])
            if width > 0.0:
                alpha = min(1.0, _DEBYE_FWHM / width)

    m_0 = float(data.real[0])
    m_inf = float(data.real[-1])
    d_m = max(m_inf - m_0, 1e-6 * abs(m_inf) + 1e-12)
    m_0 = max(m_0, 1e-12)
    return np.array([alpha, 1.0, math.log(tau0), m_0, d_m])


def fit_hn(
    omega, values, x0: np.ndarray | None = None, weighting: str = "uniform"
) -> FitResult:
    """Fit (alpha, beta, tau0, m_inf, m_0) to complex modulus samples.

    ``omega`` are positive angular frequencies, ``values`` the measured
    complex moduli.  ``weighting`` is "uniform" (plain least squares) or
    "relative" (each real/imaginary channel scaled by its own magnitude,
    the maximum-likelihood choice for constant per-channel relative error).
    Non-convergence is reported through the ``converged`` flag, not an
    exception; the best found parameters are always returned.
    """
    import numpy as np
    from scipy.optimize import least_squares

    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=complex)
    if omega.ndim != 1 or omega.shape != values.shape:
        raise ValueError("omega and values must be 1-d arrays of equal length")
    if len(omega) < 8:
        raise ValueError(f"need at least 8 samples, got {len(omega)}")
    if np.any(omega <= 0.0) or not np.all(np.isfinite(omega)):
        raise ValueError("frequencies must be positive and finite")
    if not np.all(np.isfinite(values)):
        raise ValueError("modulus samples must be finite")
    if weighting == "uniform":
        w_re = w_im = np.ones(len(omega))
    elif weighting == "relative":
        floor = 1e-6 * float(np.max(np.abs(values)))
        w_re = 1.0 / np.maximum(np.abs(values.real), floor)
        w_im = 1.0 / np.maximum(np.abs(values.imag), floor)
    else:
        raise ValueError(f"weighting must be uniform or relative, got {weighting!r}")

    if x0 is None:
        x0 = initial_guess(omega, values)
    lower = np.array([1e-3, 1e-3, -40.0, 1e-12, 0.0])
    upper = np.array([1.0, 1.0, 40.0, np.inf, np.inf])
    x0 = np.clip(x0, lower, upper)

    result = least_squares(
        _residuals,
        x0,
        bounds=(lower, upper),
        args=(omega, values, w_re, w_im),
        method="trf",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=3000,
    )

    alpha, beta, ln_tau0, m_0, d_m = result.x
    tau0 = math.exp(ln_tau0)
    params = HNParams(alpha=alpha, beta=beta, tau0=tau0, m_inf=m_0 + d_m, m_0=m_0)
    residual_norm = float(np.linalg.norm(result.fun))
    std = _std_errors(result, tau0)
    return FitResult(
        params=params,
        residual_norm=residual_norm,
        std_errors=std,
        iterations=int(result.nfev),
        converged=bool(result.success),
    )


def _std_errors(result, tau0: float) -> dict[str, float]:
    """Per-parameter standard errors from the Gauss-Newton covariance
    (pseudo-inverse handles parameters pinned at their bounds)."""
    import numpy as np

    m, n = result.jac.shape
    dof = max(m - n, 1)
    s2 = 2.0 * result.cost / dof
    cov = s2 * np.linalg.pinv(result.jac.T @ result.jac)
    sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
    var_m_inf = cov[3, 3] + cov[4, 4] + 2.0 * cov[3, 4]
    return {
        "alpha": float(sd[0]),
        "beta": float(sd[1]),
        "tau0": float(tau0 * sd[2]),  # delta method through ln tau0
        "m_0": float(sd[3]),
        "m_inf": float(math.sqrt(max(var_m_inf, 0.0))),
    }
