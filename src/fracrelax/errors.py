"""Exception types shared across the package."""


class EvaluationError(Exception):
    """Base class for numerical evaluation failures."""


class NonConvergenceError(EvaluationError):
    """A series or quadrature hit its budget before reaching tolerance."""


class PoleError(ValueError):
    """Evaluation requested exactly at a pole of the function."""


class NoResolventError(EvaluationError):
    """The requested parameter combination has no creep resolvent."""


class SingularSymbolError(EvaluationError):
    """Transform symbol is singular at the requested frequency."""


class DegenerateSpectrumError(ValueError):
    """Spectrum collapses to a delta distribution (alpha = 1)."""


class ContourError(EvaluationError):
    """Numerical Laplace inversion failed its oscillation diagnostics."""
