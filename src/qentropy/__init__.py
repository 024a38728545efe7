"""Basis-averaged information entropy of quantum mechanical states."""

from .entropy import (
    EULER_GAMMA,
    EXCESS_BOUND,
    DensityCurve,
    EntropyReport,
    absolute_entropy,
    conditional_entropy,
    density_curve,
    density_p,
    entropy_by_quadrature,
    excess_entropy,
    identity_residuals,
    kernel_integral,
    s0_asymptotic,
    s0_exact,
    shannon,
    uniform_mixture_excess,
    von_neumann,
)
from .errors import (
    ConvergenceFailureError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    IncompleteProjectorSetError,
    InsufficientSamplesError,
    InvalidDistributionError,
    NegativeEigenvalueError,
    NonFiniteEntryError,
    NonHermitianError,
    QentropyError,
    TraceDeviationError,
)
from .montecarlo import McEstimate, mc_entropy_estimate
from .rng import DEFAULT_SEED, RngStream
from .states import (
    DensityMatrix,
    Spectrum,
    eig_hermitian,
    partial_trace,
    projective_update,
    spectrum_from_values,
    tensor,
    validate_density,
)

__version__ = "0.1.0"
