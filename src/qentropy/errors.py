"""Exception hierarchy for state validation and entropy evaluation."""


class QentropyError(Exception):
    """Base class for all library errors."""


class NonFiniteEntryError(QentropyError):
    """An input probability or matrix entry is NaN or infinite."""


class NonHermitianError(QentropyError):
    """Matrix asymmetry exceeds the Hermiticity tolerance."""


class TraceDeviationError(QentropyError):
    """Trace differs from 1 beyond tolerance."""


class NegativeEigenvalueError(QentropyError):
    """An eigenvalue lies below the PSD clamping window."""


class ConvergenceFailureError(QentropyError):
    """The Hermitian eigensolver did not converge."""


class DimensionMismatchError(QentropyError):
    """Operands have incompatible dimensions."""


class IncompleteProjectorSetError(QentropyError):
    """Projectors are not a complete orthogonal set."""


class InvalidDistributionError(QentropyError):
    """Probabilities are negative or do not sum to 1."""


class DegenerateSpectrumError(QentropyError):
    """All eigenvalues are equal to rounding (the state is I/N), so the
    outcome weight is 1/N in every basis: its distribution is a point mass
    and has no density P(s).  The entropy itself is defined (ln N).  The
    appendix identities, which need distinct eigenvalues, raise it for any
    tie."""


class InsufficientSamplesError(QentropyError):
    """Monte-Carlo sample count below the required minimum."""
