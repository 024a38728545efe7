"""Density matrices, spectra, measurement bases and Haar sampling.

Everything here is a pure function of its inputs; sampling takes an
explicit RngStream so there is no hidden global state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    IncompleteProjectorSetError,
    NegativeEigenvalueError,
    NonFiniteEntryError,
    NonHermitianError,
    TraceDeviationError,
)
from .rng import RngStream

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_CLAMP = 1e-10
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit-trace, positive semi-definite."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis given as the columns of a unitary matrix."""

    dim: int
    columns: np.ndarray

    def __post_init__(self):
        self.columns.setflags(write=False)


@dataclass(frozen=True)
class PureState:
    """Unit vector of complex amplitudes."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, with near-ties grouped into clusters.

    Two adjacent values belong to the same cluster when their gap is below
    cluster_tolerance relative to max(value, 1/N); below that gap the
    downstream pole expansions are numerically meaningless, so the values
    are treated as exactly equal.
    """

    values: np.ndarray
    cluster_tolerance: float = CLUSTER_TOL

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.values)

    def clusters(self) -> list[tuple[int, int]]:
        """Half-open index ranges [start, stop) of equal-value groups."""
        v = self.values
        n = len(v)
        out = []
        start = 0
        for i in range(1, n + 1):
            if i == n or v[start] - v[i] > self.cluster_tolerance * max(v[start], 1.0 / n):
                out.append((start, i))
                start = i
        return out

    def clustered_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct representative values (cluster means) and multiplicities."""
        reps, mults = [], []
        for a, b in self.clusters():
            reps.append(float(np.mean(self.values[a:b])))
            mults.append(b - a)
        return np.asarray(reps), np.asarray(mults, dtype=int)


def spectrum_from_values(values, cluster_tolerance: float = CLUSTER_TOL) -> Spectrum:
    """Build a Spectrum from raw probabilities (sorted here; zeros kept)."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise NonFiniteEntryError("spectrum has a NaN or infinite entry")
    if np.any(v < -PSD_CLAMP):
        raise NegativeEigenvalueError(f"negative probability {v.min():g}")
    if abs(v.sum() - 1.0) > TRACE_TOL:
        raise TraceDeviationError(f"probabilities sum to {v.sum():.15g}, not 1")
    v = np.clip(v, 0.0, None)
    v = np.sort(v)[::-1]
    # the exactly rounded sum makes the result independent of the input
    # order and of zero padding
    v = v / math.fsum(v.tolist())
    return Spectrum(v, cluster_tolerance)


def validate_density(raw) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; symmetrize roundoff.

    Asymmetry up to 1e-12 is removed by (M + M†)/2; anything larger is an
    error.  Eigenvalues in [-1e-10, 0) are accepted (clamped downstream).
    """
    m = np.asarray(raw, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    if not np.isfinite(m).all():
        raise NonFiniteEntryError("matrix has a NaN or infinite entry")
    asym = np.max(np.abs(m - m.conj().T))
    if asym > HERMITICITY_TOL:
        raise NonHermitianError(f"asymmetry {asym:g} exceeds tolerance {HERMITICITY_TOL:g}")
    m = 0.5 * (m + m.conj().T)
    tr = m.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceDeviationError(f"trace {tr:.15g} deviates from 1")
    evals = np.linalg.eigvalsh(m)
    if evals[0] < -PSD_CLAMP:
        raise NegativeEigenvalueError(f"smallest eigenvalue {evals[0]:g} below -{PSD_CLAMP:g}")
    return DensityMatrix(n, m)


def pure_density(psi: PureState) -> DensityMatrix:
    """|psi><psi| as a validated DensityMatrix."""
    v = psi.amplitudes
    return validate_density(np.outer(v, v.conj()))


def eig_hermitian(rho: DensityMatrix, cluster_tolerance: float = CLUSTER_TOL):
    """Spectrum (descending, clamped, renormalized) and eigenbasis of rho."""
    try:
        evals, evecs = np.linalg.eigh(rho.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailureError(str(exc)) from exc
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    evals = np.clip(evals, 0.0, None)
    evals = evals / evals.sum()
    return Spectrum(evals, cluster_tolerance), MeasurementBasis(rho.dim, evecs)


def haar_unitary(dim: int, rng: RngStream) -> MeasurementBasis:
    """Haar-distributed random unitary (Ginibre + QR with phase correction).

    The phase correction of R's diagonal is what makes the distribution
    unitarily invariant; plain QR of a Gaussian matrix is not Haar.
    """
    gen = rng.generator()
    return MeasurementBasis(dim, _haar_from_generator(dim, gen))


def _haar_from_generator(dim: int, gen: np.random.Generator) -> np.ndarray:
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_pure_state(dim: int, rng: RngStream) -> PureState:
    """Uniform sample on the unit sphere of C^dim (2*dim real Gaussians)."""
    gen = rng.generator()
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return PureState(dim, z / np.linalg.norm(z))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product state of two independent subsystems."""
    return DensityMatrix(a.dim * b.dim, np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: int) -> DensityMatrix:
    """Reduce a bipartite state to subsystem `keep` (0 = first factor)."""
    n, m = dims
    if rho.dim != n * m:
        raise DimensionMismatchError(f"state dim {rho.dim} != {n}*{m}")
    if keep not in (0, 1):
        raise DimensionMismatchError("keep must be 0 or 1")
    t = rho.matrix.reshape(n, m, n, m)
    if keep == 0:
        red = np.einsum("imjm->ij", t)
    else:
        red = np.einsum("imin->mn", t)
    return DensityMatrix(red.shape[0], 0.5 * (red + red.conj().T))


def projective_update(rho: DensityMatrix, projectors) -> DensityMatrix:
    """Post-measurement state sum_i P_i rho P_i for a complete orthogonal set."""
    n = rho.dim
    total = np.zeros((n, n), dtype=complex)
    for p in projectors:
        total += p
    if np.max(np.abs(total - np.eye(n))) > TRACE_TOL:
        raise IncompleteProjectorSetError("projectors do not sum to identity")
    for i, p in enumerate(projectors):
        if np.max(np.abs(p @ p - p)) > 1e-10:
            raise IncompleteProjectorSetError(f"projector {i} is not idempotent")
    out = np.zeros((n, n), dtype=complex)
    for p in projectors:
        out += p @ rho.matrix @ p
    return DensityMatrix(n, 0.5 * (out + out.conj().T))


def basis_projectors(basis: MeasurementBasis) -> list[np.ndarray]:
    """Rank-1 projectors onto the basis columns."""
    cols = basis.columns
    return [np.outer(cols[:, j], cols[:, j].conj()) for j in range(basis.dim)]
