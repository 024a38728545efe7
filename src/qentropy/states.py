"""Density matrices, spectra, measurement outcomes and Haar sampling.

Everything here is a pure function of its inputs; sampling takes
explicit random generators so there is no hidden global state.
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

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_CLAMP = 1e-10
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a state (probabilities), sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.values)

    def clusters(self) -> list[tuple[int, int]]:
        """Half-open index ranges [start, stop) of near-equal groups.

        Two adjacent values share a group when their gap is at most
        CLUSTER_TOL relative to max(value, 1/N).  No entropy or density
        route needs the grouping: S_F and P(s) take ties as they are.
        """
        v = self.values
        n = len(v)
        out = []
        start = 0
        for i in range(1, n + 1):
            if i == n or v[start] - v[i] > CLUSTER_TOL * max(v[start], 1.0 / n):
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


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit-trace, positive semi-definite.
    `spectrum` comes from the eigvalsh that validated `matrix`."""

    matrix: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def spectrum_from_values(values) -> Spectrum:
    """Build a Spectrum from raw probabilities (sorted here; zeros kept)."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise NonFiniteEntryError("spectrum has a NaN or infinite entry")
    if np.any(v < -PSD_CLAMP):
        raise NegativeEigenvalueError(f"negative probability {v.min():g}")
    if abs(v.sum() - 1.0) > TRACE_TOL:
        raise TraceDeviationError(f"probabilities sum to {v.sum():.15g}, not 1")
    return Spectrum(_normalised_rows(v[None])[0])


def _normalised_rows(v: np.ndarray) -> np.ndarray:
    """Rows of a (k, n) array clamped at 0, sorted descending and divided by
    their exactly rounded sums, so no row depends on its order or zero padding."""
    v = np.sort(np.clip(v, 0.0, None), axis=1)[:, ::-1]
    return v / np.array([math.fsum(row) for row in v.tolist()])[:, None]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _spectra(evals: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (last axis) as descending, clamped, renormalized spectra."""
    v = np.clip(evals[..., ::-1], 0.0, None)
    return v / v.sum(axis=-1, keepdims=True)


def _validated_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checks of validate_density on a (k, n, n) stack of matrices.

    Returns the symmetrized stack and its spectra (descending, clamped,
    renormalized): the one eigvalsh that checks positivity also gives them.
    """
    if not np.isfinite(m).all():
        raise NonFiniteEntryError("matrix has a NaN or infinite entry")
    asym = np.max(np.abs(m - _dagger(m)))
    if asym > HERMITICITY_TOL:
        raise NonHermitianError(f"asymmetry {asym:g} exceeds tolerance {HERMITICITY_TOL:g}")
    m = 0.5 * (m + _dagger(m))
    tr = np.trace(m, axis1=1, axis2=2).real
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise TraceDeviationError(f"trace {tr[off][0]:.15g} deviates from 1")
    evals = np.linalg.eigvalsh(m)
    low = evals[:, 0].min()
    if low < -PSD_CLAMP:
        raise NegativeEigenvalueError(f"smallest eigenvalue {low:g} below -{PSD_CLAMP:g}")
    return m, _spectra(evals)


def validate_density(raw) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; symmetrize roundoff.

    Asymmetry up to 1e-12 is removed by (M + M†)/2; anything larger is an
    error.  Eigenvalues in [-1e-10, 0) are accepted and clamped to 0 in
    the spectrum.
    """
    m = np.asarray(raw, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    m, p = _validated_stack(m[None])
    return DensityMatrix(m[0], Spectrum(p[0]))


def eig_hermitian(rho: DensityMatrix) -> tuple[Spectrum, np.ndarray]:
    """rho's spectrum and a unitary whose columns are an eigenbasis, in
    descending eigenvalue order."""
    try:
        _, evecs = np.linalg.eigh(rho.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailureError(str(exc)) from exc
    # eigh returns the eigenvalues in ascending order
    return rho.spectrum, evecs[:, ::-1]


def _ginibre(gens, *dims: int) -> list[np.ndarray]:
    """Complex Ginibre matrices, one (k, n, n) stack per n in dims, for the
    k generators of the iterable gens.

    Generator i fills entry i of every stack, and makes all its draws
    before generator i + 1 is taken.  It draws the sizes in the order
    given, each as an n x n block of real parts and then one of imaginary
    parts, so entry i holds the same numbers that separate per-matrix draws
    from that generator would give.
    """
    if min(dims) < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {min(dims)}")
    sizes = [2 * n * n for n in dims]
    raw = np.array([gen.standard_normal(sum(sizes)) for gen in gens])
    out, start = [], 0
    for n, size in zip(dims, sizes):
        block = raw[:, start:start + size].reshape(len(raw), 2, n, n)
        out.append((block[:, 0] + 1j * block[:, 1]) / np.sqrt(2))
        start += size
    return out


def _haar_from_normals(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (k, n, n) Ginibre stack: QR with the phases of
    R's diagonal moved into Q, without which QR is not Haar."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _product_spectra(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Spectra of the product states of a (k, n) and a (k, m) stack of
    spectra: the outer products, sorted descending."""
    outer = (p[:, :, None] * q[:, None, :]).reshape(len(p), -1)
    return np.sort(outer, axis=1)[:, ::-1]


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product state of two independent subsystems."""
    p = _product_spectra(a.spectrum.values[None], b.spectrum.values[None])
    return DensityMatrix(np.kron(a.matrix, b.matrix), Spectrum(p[0]))


def _partial_trace_stack(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """The reduction of partial_trace on a (k, n*m, n*m) stack."""
    n, m = dims
    t = rho.reshape(len(rho), n, m, n, m)
    red = np.einsum("kimjm->kij" if keep == 0 else "kimin->kmn", t)
    return 0.5 * (red + _dagger(red))


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: int) -> DensityMatrix:
    """Reduce a bipartite state to subsystem `keep` (0 = first factor)."""
    n, m = dims
    if rho.dim != n * m:
        raise DimensionMismatchError(f"state dim {rho.dim} != {n}*{m}")
    if keep not in (0, 1):
        raise DimensionMismatchError("keep must be 0 or 1")
    return validate_density(_partial_trace_stack(rho.matrix[None], dims, keep)[0])


def _outcome_stack(rho: np.ndarray, basis) -> np.ndarray:
    """Outcome probabilities q_a = <a|rho|a> of each state of a (k, n, n)
    stack measured in the columns |a> of the matching unitary of `basis`:
    the rows diag(U† rho U).

    The projectors onto each unitary's columns must form a complete
    orthogonal set, so a basis of another shape, or not unitary, is
    rejected.
    """
    u = np.asarray(basis, dtype=complex)
    if u.shape != rho.shape:
        raise DimensionMismatchError(
            f"basis shape {u.shape[1:]} for a state of dim {rho.shape[-1]}")
    if np.max(np.abs(_dagger(u) @ u - np.eye(rho.shape[-1]))) > TRACE_TOL:
        raise IncompleteProjectorSetError("measurement basis is not orthonormal")
    return np.einsum("kia,kij,kja->ka", u.conj(), rho, u).real


def projective_update(rho: DensityMatrix, basis: np.ndarray) -> DensityMatrix:
    """Post-measurement state sum_j P_j rho P_j, P_j the projector onto
    column j of the unitary `basis`: U diag(q) U† for the outcome
    probabilities q = diag(U† rho U)."""
    u = np.asarray(basis, dtype=complex)
    q = _outcome_stack(rho.matrix[None], u[None])[0]
    return validate_density((u * q) @ _dagger(u))
