"""Operator algebra in the Fourier/Laplace domain.

Operators are represented by their transform symbols (functions of
frequency), where every identity of interest is plain complex algebra:
the three basic operators, resolvents 1/(shift + symbol), degree lowering,
the modulus/compliance pair, and the Volterra resolvent ratio.  The
splitting (Hilbert) identity of the resolvents is checked by ``validate``
(``splitting_condition``).

Three parameterization variants are supported ("EH", "Q", "P"), each with
its own redundant parameter relations; construction accepts any sufficient
subset, derives the rest, and rejects over-determined input on conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PoleError, SingularSymbolError

__all__ = [
    "ResolventSpec",
    "resolvent_transform",
    "modulus_compliance_transform",
    "degree_lowering_residual",
    "volterra_resolvent_transform",
]

_VARIANTS = ("EH", "Q", "P")
_CONFLICT_RTOL = 1e-10
_INVARIANT_RTOL = 1e-12


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _check_supplied(name: str, supplied, derived: float) -> None:
    if supplied is not None and not _close(supplied, derived, _CONFLICT_RTOL):
        raise ValueError(
            f"over-determined input: {name}={supplied} conflicts with derived "
            f"value {derived}"
        )


@dataclass(frozen=True)
class ResolventSpec:
    """Immutable parameter set for one basic operator and its resolvents.

    Invariants (checked on construction):
      EH:  lambda = mu + kappa = tau^-alpha, kappa = lambda (1-m) = mu (1/m - 1)
      Q:   lambda = n_eps tau^-alpha, mu = n_sigma tau^-alpha,
           m = (1+n_sigma)/(1+n_eps),
           kappa = (1-m)(n_eps+1) tau^-alpha = (1/m-1)(n_sigma+1) tau^-alpha
      P:   as Q with tau^+alpha in place of tau^-alpha
    """

    variant: str
    alpha: float
    tau: float
    lambda_: float
    mu: float
    kappa: float
    m: float
    n_eps: float | None = None
    n_sigma: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not 0.0 < self.m <= 1.0:
            raise ValueError(f"m must be in (0, 1], got {self.m}")
        self._check_invariants()

    def _scale(self) -> float:
        """tau^-alpha for EH/Q, tau^+alpha for P."""
        return self.tau**self.alpha if self.variant == "P" else self.tau**-self.alpha

    def _check_invariants(self) -> None:
        def require(name: str, a: float, b: float) -> None:
            if not _close(a, b, _INVARIANT_RTOL):
                raise ValueError(
                    f"{self.variant} invariant violated: {name} ({a} vs {b})"
                )

        require("lambda = mu + kappa", self.lambda_, self.mu + self.kappa)
        scale = self._scale()
        if self.variant == "EH":
            require("lambda = tau^-alpha", self.lambda_, scale)
            require("kappa = lambda (1-m)", self.kappa, self.lambda_ * (1.0 - self.m))
            require("kappa = mu (1/m - 1)", self.kappa, self.mu * (1.0 / self.m - 1.0))
        else:
            if self.n_eps is None or self.n_sigma is None:
                raise ValueError(f"{self.variant} variant requires n_eps and n_sigma")
            if self.n_eps < 0.0 or self.n_sigma < 0.0:
                raise ValueError("n_eps and n_sigma must be >= 0")
            require("lambda = n_eps scale", self.lambda_, self.n_eps * scale)
            require("mu = n_sigma scale", self.mu, self.n_sigma * scale)
            require(
                "m = (1+n_sigma)/(1+n_eps)",
                self.m,
                (1.0 + self.n_sigma) / (1.0 + self.n_eps),
            )
            require(
                "kappa = (1-m)(n_eps+1) scale",
                self.kappa,
                (1.0 - self.m) * (self.n_eps + 1.0) * scale,
            )
            require(
                "kappa = (1/m-1)(n_sigma+1) scale",
                self.kappa,
                (1.0 / self.m - 1.0) * (self.n_sigma + 1.0) * scale,
            )

    @classmethod
    def eh(
        cls,
        alpha: float,
        tau_eps: float | None = None,
        tau_sigma: float | None = None,
        lambda_: float | None = None,
        mu: float | None = None,
        kappa: float | None = None,
        m: float | None = None,
    ) -> "ResolventSpec":
        """Fractional-exponential variant from any sufficient subset of
        (tau_eps | lambda_) plus one of (m | mu | kappa | tau_sigma)."""
        if lambda_ is None:
            if tau_eps is None:
                raise ValueError("EH spec needs tau_eps or lambda_")
            lambda_derived = tau_eps**-alpha
        else:
            lambda_derived = lambda_
        if m is not None:
            m_derived = m
        elif mu is not None:
            m_derived = mu / lambda_derived
        elif kappa is not None:
            m_derived = 1.0 - kappa / lambda_derived
        elif tau_sigma is not None:
            if tau_eps is None:
                tau_eps = lambda_derived ** (-1.0 / alpha)
            m_derived = (tau_eps / tau_sigma) ** alpha
        else:
            raise ValueError("EH spec needs one of m, mu, kappa, tau_sigma")
        _check_supplied("lambda_", lambda_, lambda_derived)
        _check_supplied("m", m, m_derived)
        _check_supplied("mu", mu, lambda_derived * m_derived)
        _check_supplied("kappa", kappa, lambda_derived * (1.0 - m_derived))
        if tau_eps is not None:
            _check_supplied("tau_eps", tau_eps**-alpha, lambda_derived)
        if tau_sigma is not None:
            _check_supplied("tau_sigma", tau_sigma**-alpha, lambda_derived * m_derived)
        return cls(
            variant="EH",
            alpha=alpha,
            tau=lambda_derived ** (-1.0 / alpha),
            lambda_=lambda_derived,
            mu=lambda_derived * m_derived,
            kappa=lambda_derived * (1.0 - m_derived),
            m=m_derived,
        )

    @classmethod
    def _from_n(
        cls,
        variant: str,
        alpha: float,
        tau: float,
        n_eps: float | None,
        n_sigma: float | None,
        lambda_: float | None,
        mu: float | None,
        kappa: float | None,
        m: float | None,
    ) -> "ResolventSpec":
        scale = tau**alpha if variant == "P" else tau**-alpha
        if n_eps is None:
            if lambda_ is None:
                raise ValueError(f"{variant} spec needs n_eps or lambda_")
            n_eps_derived = lambda_ / scale
        else:
            n_eps_derived = n_eps
        if n_sigma is not None:
            n_sigma_derived = n_sigma
        elif mu is not None:
            n_sigma_derived = mu / scale
        elif m is not None:
            n_sigma_derived = m * (1.0 + n_eps_derived) - 1.0
        elif kappa is not None:
            n_sigma_derived = n_eps_derived - kappa / scale
        else:
            raise ValueError(f"{variant} spec needs one of n_sigma, mu, m, kappa")
        m_derived = (1.0 + n_sigma_derived) / (1.0 + n_eps_derived)
        _check_supplied("n_eps", n_eps, n_eps_derived)
        _check_supplied("n_sigma", n_sigma, n_sigma_derived)
        _check_supplied("lambda_", lambda_, n_eps_derived * scale)
        _check_supplied("mu", mu, n_sigma_derived * scale)
        _check_supplied("m", m, m_derived)
        _check_supplied("kappa", kappa, (n_eps_derived - n_sigma_derived) * scale)
        return cls(
            variant=variant,
            alpha=alpha,
            tau=tau,
            lambda_=n_eps_derived * scale,
            mu=n_sigma_derived * scale,
            kappa=(n_eps_derived - n_sigma_derived) * scale,
            m=m_derived,
            n_eps=n_eps_derived,
            n_sigma=n_sigma_derived,
        )

    @classmethod
    def q(cls, alpha: float, tau: float, n_eps=None, n_sigma=None, lambda_=None, mu=None, kappa=None, m=None) -> "ResolventSpec":
        """Exponentially damped variant (basic symbol (1/tau + i omega)^alpha)."""
        return cls._from_n("Q", alpha, tau, n_eps, n_sigma, lambda_, mu, kappa, m)

    @classmethod
    def p(cls, alpha: float, tau: float, n_eps=None, n_sigma=None, lambda_=None, mu=None, kappa=None, m=None) -> "ResolventSpec":
        """Third-operator variant (reciprocal bracket symbol, tau^+alpha scale)."""
        return cls._from_n("P", alpha, tau, n_eps, n_sigma, lambda_, mu, kappa, m)


def basic_operator_symbol(spec: ResolventSpec, s: complex) -> complex:
    """Transform symbol of the basic operator at Laplace variable s
    (s = i omega on the Fourier line); principal branch throughout."""
    if spec.variant == "EH":
        return s**spec.alpha
    if spec.variant == "Q":
        return (1.0 / spec.tau + s) ** spec.alpha
    # P: [tau^-alpha - (tau + 1/s)^(-alpha)]^(-1)
    bracket = spec.tau**-spec.alpha - (spec.tau + 1.0 / s) ** -spec.alpha
    return 1.0 / bracket


def resolvent_symbol(spec: ResolventSpec, shift: float, s: complex) -> complex:
    den = shift + basic_operator_symbol(spec, s)
    if abs(den) < 1e-14:
        raise SingularSymbolError(
            f"resolvent symbol singular: |shift + symbol| = {abs(den):.3e}"
        )
    return 1.0 / den


def resolvent_transform(spec: ResolventSpec, shift: float, omega: float) -> complex:
    """Resolvent symbol 1 / (shift + basic symbol) at frequency omega."""
    if omega < 0.0:
        return resolvent_transform(spec, shift, -omega).conjugate()
    if spec.variant == "P" and omega == 0.0:
        raise ValueError("P-variant symbol is undefined at omega = 0")
    return resolvent_symbol(spec, shift, 1j * omega)


def modulus_compliance_transform(
    spec: ResolventSpec, omega: float, m_inf: float = 1.0
) -> tuple[complex, complex]:
    """Modulus/compliance pair M = M_inf [1 - kappa R(lambda)],
    J = J_inf [1 + kappa R(mu)] with J_inf = 1/M_inf.

    The two lines are mutually inverse (M J = 1 pointwise) because
    mu = lambda - kappa and the splitting identity holds exactly.
    """
    r_lambda = resolvent_transform(spec, spec.lambda_, omega)
    r_mu = resolvent_transform(spec, spec.mu, omega)
    modulus = m_inf * (1.0 - spec.kappa * r_lambda)
    compliance = (1.0 + spec.kappa * r_mu) / m_inf
    return modulus, compliance


def degree_lowering_residual(
    spec: ResolventSpec, shift: float, omega: float, h: float | None = None
) -> float:
    """|R(shift)^2 + dR/dshift| with a central finite difference; the exact
    relation is R^2 = -dR/dshift."""
    if h is None:
        h = 1e-6 * abs(shift) + 1e-9
    r = resolvent_transform(spec, shift, omega)
    derivative = (
        resolvent_transform(spec, shift + h, omega)
        - resolvent_transform(spec, shift - h, omega)
    ) / (2.0 * h)
    return abs(r * r + derivative)


def volterra_resolvent_transform(r_hat: complex) -> complex:
    """Creep image from relaxation image: K = R / (1 - R) (the resolvent
    ratio K - R = K R in the transform domain)."""
    den = 1.0 - r_hat
    if abs(den) < 1e-14:
        raise PoleError("Volterra resolvent pole: R = 1")
    return r_hat / den
