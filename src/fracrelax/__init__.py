"""fracrelax: hereditary relaxation kernels for fractional viscoelasticity.

Series kernels (Rabotnov fractional-exponential, confluent-hypergeometric,
Rzhanitsyn/Davidson-Cole, Havriliak-Negami), the resolvent operator algebra
in the transform domain, relaxation-time spectra, and independent
quadrature / inverse-Laplace routes that cross-verify every series.
"""

from .errors import (
    BranchDegeneracyError,
    ContourError,
    DegenerateSpectrumError,
    EvaluationError,
    NoResolventError,
    NonConvergenceError,
    PoleError,
    SingularSymbolError,
)
from .evaluate import evaluate_model, spectrum_density
from .fitting import FitResult, fit_hn
from .kernels import (
    HNParams,
    KernelModel,
    chgf_kernel_R,
    chgf_relaxation_S,
    hn_creep_resolvent,
    hn_relaxation_function,
    hn_relaxation_kernel,
    p_kernel,
    p_nu_response,
    q_kernel,
    rabotnov_relaxation,
)
from .laplace import InverseLaplaceSpec, inverse_laplace
from .quadrature import (
    QuadratureSpec,
    i_alpha,
    p_conv_unity,
    q_conv_unity,
)
from .resolvent import (
    ResolventSpec,
    basic_operator_transform,
    degree_lowering_residual,
    hilbert_identity_residual,
    modulus_compliance_transform,
    resolvent_transform,
    volterra_resolvent_transform,
)
from .specfun import SeriesControl, eh_alpha, gamma, gauss_2f1_11, kummer_1f1
from .spectra import (
    ComplianceImageForm,
    chgf_modulus,
    compliance_image,
    hn_modulus,
    hn_normalized,
    numeric_spectrum,
    rabotnov_compliance,
    rabotnov_modulus,
    rabotnov_spectrum_H,
    rabotnov_spectrum_L,
)
from .suvorova import SuvorovaModel, suvorova_convolution, suvorova_stress_series
from .vanin import VaninDistribution, vanin_moment, vanin_pdf

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # controls
    "SeriesControl",
    "QuadratureSpec",
    "InverseLaplaceSpec",
    # special functions
    "gamma",
    "kummer_1f1",
    "gauss_2f1_11",
    "eh_alpha",
    # kernels
    "KernelModel",
    "HNParams",
    "chgf_relaxation_S",
    "chgf_kernel_R",
    "q_kernel",
    "p_kernel",
    "hn_relaxation_kernel",
    "hn_creep_resolvent",
    "hn_relaxation_function",
    "p_nu_response",
    "rabotnov_relaxation",
    # resolvent algebra
    "ResolventSpec",
    "basic_operator_transform",
    "resolvent_transform",
    "modulus_compliance_transform",
    "hilbert_identity_residual",
    "degree_lowering_residual",
    "volterra_resolvent_transform",
    # spectra and dispersion
    "ComplianceImageForm",
    "compliance_image",
    "rabotnov_modulus",
    "rabotnov_compliance",
    "chgf_modulus",
    "hn_modulus",
    "hn_normalized",
    "rabotnov_spectrum_H",
    "rabotnov_spectrum_L",
    "numeric_spectrum",
    # oracles
    "i_alpha",
    "q_conv_unity",
    "p_conv_unity",
    "inverse_laplace",
    # extensions
    "VaninDistribution",
    "vanin_pdf",
    "vanin_moment",
    "SuvorovaModel",
    "suvorova_stress_series",
    "suvorova_convolution",
    # fitting and evaluation
    "FitResult",
    "fit_hn",
    "evaluate_model",
    "spectrum_density",
    # errors
    "EvaluationError",
    "NonConvergenceError",
    "PoleError",
    "BranchDegeneracyError",
    "NoResolventError",
    "SingularSymbolError",
    "DegenerateSpectrumError",
    "ContourError",
]
