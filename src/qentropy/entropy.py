"""Entropy computations.

The absolute (basis-averaged) entropy of a state splits into an
N-dependent minimum-uncertainty part s0 plus an excess part F that
depends only on the nonzero eigenvalues.  F is the subentropy of the
spectrum, evaluated as one gap-free integral with a fixed trapezoid rule;
repeated, tiny and zero eigenvalues take the same route as any other.
The pole-expansion density and quadrature below are the independent
second route and the appendix reproduction.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    InvalidDistributionError,
)
from .states import MeasurementBasis, DensityMatrix, Spectrum, eig_hermitian, spectrum_from_values

EULER_GAMMA = 0.5772156649015329
EXCESS_BOUND = 1.0 - EULER_GAMMA

# below this relative gap between distinct eigenvalues the quadrature
# route is evaluated at 50 significant digits
_MP_GAP_THRESHOLD = 1e-3
_MP_DPS = 50

# Trapezoid rule for the subentropy integral in v = ln t.  The integrand
# is analytic in the strip |Im v| < pi and decays like e^{2v} and e^{-v},
# so the sum converges geometrically; 240 nodes on [-40, 36] leave a
# truncation error below 1e-15.
_V = np.linspace(-40.0, 36.0, 240)
_T = np.exp(_V)
# weights carry the Jacobian dt = t dv
_W = _T * (_V[1] - _V[0])
_W[[0, -1]] *= 0.5
_A = -np.log1p(1.0 / _T)  # ln t/(1+t)
_EXP_A = np.exp(_A)


def shannon(probs) -> float:
    """-sum p ln p in nats, with 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=float)
    if np.any(p < -1e-12):
        raise InvalidDistributionError(f"negative probability {p.min():g}")
    if abs(p.sum() - 1.0) > 1e-10:
        raise InvalidDistributionError(f"probabilities sum to {p.sum():.15g}")
    return float(_shannon_rows(p[p > 0.0]))


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, with 0 ln 0 = 0; no checks."""
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def von_neumann(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalue spectrum, -trace(rho ln rho)."""
    spec, _ = eig_hermitian(rho)
    return shannon(spec.values)


def conditional_entropy(rho: DensityMatrix, basis: MeasurementBasis) -> float:
    """Shannon entropy of the outcome probabilities <a|rho|a> in `basis`."""
    if rho.dim != basis.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != basis dim {basis.dim}")
    u = basis.columns
    probs = np.einsum("ia,ij,ja->a", u.conj(), rho.matrix, u).real
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    return shannon(probs)


def s0_exact(dim: int) -> float:
    """Minimum uncertainty entropy: the harmonic sum 1/2 + ... + 1/N."""
    return math.fsum(1.0 / k for k in range(2, dim + 1))


def s0_asymptotic(dim: int) -> float:
    """Large-N approximation ln N - (1-gamma) + 1/(2N)."""
    return math.log(dim) - (1.0 - EULER_GAMMA) + 0.5 / dim


def _min_relative_gap(reps: np.ndarray, dim: int) -> float:
    if len(reps) < 2:
        return np.inf
    gaps = reps[:-1] - reps[1:]
    scale = np.maximum(reps[:-1], 1.0 / dim)
    return float(np.min(gaps / scale))


def uniform_mixture_excess(n: int) -> float:
    """Closed form ln n - (1/2 + ... + 1/n) for n equally likely states."""
    return math.log(n) - s0_exact(n)


def excess_entropy(spectrum: Spectrum) -> float:
    """Excess statistical entropy F of a spectrum, in [0, 1-gamma).

    F is the subentropy of the nonzero eigenvalues x_i (Jozsa & Mitchison,
    J. Math. Phys. 56, 062201, 2015):

        F = int_0^inf [ t/(1+t) - prod_i t/(t + x_i) ] dt,

    whose integrand is >= 0 and has no eigenvalue gaps in it, so ties,
    zeros and tiny eigenvalues need no special case.
    """
    x = spectrum.values[spectrum.values > 0.0]
    return float(_excess_rows(x[None])[0])


def _excess_rows(x: np.ndarray) -> np.ndarray:
    """S_F of each row of a (k, n) array of eigenvalues; no checks.

    A zero entry adds ln(1 + 0) = 0 to the log-sum, so rows may keep the
    zeros of clamped eigenvalues.
    """
    terms = x[:, None, :] / _T[:, None]
    big_l = np.log1p(terms, out=terms).sum(axis=2)
    integrand = _EXP_A * -np.expm1(-(big_l + _A))
    # a stack of (1, 240) @ (240,) products takes one dot per row, so a
    # row gets the same float in any batch as on its own
    f = (integrand[:, None, :] @ _W)[:, 0]
    return np.where(f > 0.0, f, 0.0)


@dataclass(frozen=True)
class EntropyReport:
    """Bundle of the entropy measures of one state."""

    dim: int
    s_h: float
    s0: float
    s_f: float
    s_total: float


def absolute_entropy(spectrum: Spectrum, dim: int) -> EntropyReport:
    """Basis-averaged entropy s0(N) + F and its components."""
    if spectrum.dim != dim:
        raise DimensionMismatchError(f"spectrum has {spectrum.dim} entries, expected {dim}")
    s0 = s0_exact(dim)
    s_f = excess_entropy(spectrum)
    return EntropyReport(dim=dim, s_h=shannon(spectrum.values), s0=s0,
                         s_f=s_f, s_total=s0 + s_f)


def entropy_report_for_density(rho: DensityMatrix) -> EntropyReport:
    spec, _ = eig_hermitian(rho)
    return absolute_entropy(spec, rho.dim)


def _distinct_nodes_or_raise(reps: np.ndarray, mults: np.ndarray,
                             allow_zero_cluster: bool = True) -> np.ndarray:
    """All eigenvalues as nodes; rejects nonzero values with multiplicity > 1.

    Takes the clusters of Spectrum.clustered_values.  A degenerate cluster
    at zero is tolerated where its terms drop out of the sum anyway
    (density, quadrature), but not where every node enters.
    """
    for v, m in zip(reps, mults):
        if m > 1 and (v > 0.0 or not allow_zero_cluster):
            raise DegenerateSpectrumError(
                f"eigenvalue {v:g} has multiplicity {m}; pole expansion is singular")
    return np.repeat(reps, mults)


def _gap_products(nodes: np.ndarray) -> np.ndarray:
    """prod_{r' != r} (p_r - p_{r'}) for every node r.

    The factors are multiplied in node order, one column at a time, so each
    product is the same float as a left-to-right scalar loop.
    """
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    prods = np.ones(len(nodes))
    for col in diff.T:
        prods *= col
    return prods


def _density(spectrum: Spectrum, dim: int, s: np.ndarray) -> np.ndarray:
    """The pole expansion of P(s) on an array of points, one pass per node.

    Memory is O(len(s)): each nonzero eigenvalue adds its term to the whole
    array at once, and the gap products are computed once per call.
    """
    if spectrum.dim != dim:
        raise DimensionMismatchError(f"spectrum has {spectrum.dim} entries, expected {dim}")
    if dim < 2:
        raise DimensionMismatchError("density requires dim >= 2")
    outside = s[~((s >= 0.0) & (s <= 1.0))]
    if outside.size:
        raise InvalidDistributionError(f"s = {outside[0]:g} outside [0, 1]")
    nodes = _distinct_nodes_or_raise(*spectrum.clustered_values())
    top = nodes[0]
    total = np.zeros(s.shape)
    for p, gap in zip(nodes, _gap_products(nodes)):
        if p == 0.0:
            continue
        d = p - s
        live = d > 0.0
        if p == top:
            # left-continuous at the top eigenvalue so the pure-state
            # density is flat on the whole closed interval
            live |= d == 0.0
        np.add(total, d ** (dim - 2) / gap, out=total, where=live)
    total *= dim - 1
    # below the smallest eigenvalue the terms cancel exactly in theory, but
    # not in floats: near-uniform spectra leave residues of order 1e4
    return np.where((total > 0.0) & (s >= nodes[-1]), total, 0.0)


def density_p(spectrum: Spectrum, dim: int, s: float) -> float:
    """Probability density of the outcome weight s = sum p_r |psi_r|^2.

    Closed form: (N-1) * sum over p_r > s of (p_r - s)^(N-2) divided by
    the gap product prod_{r' != r} (p_r - p_{r'}).  Requires distinct
    nonzero eigenvalues (DegenerateSpectrumError otherwise); zero outside
    [smallest, largest eigenvalue].  The one-point case of density_curve,
    with the same float result at the same s.
    """
    return float(_density(spectrum, dim, np.array([s], dtype=float))[0])


def kernel_integral(p: float, dim: int) -> float:
    """Closed form of the moment integral of (p-s)^(N-2) s ln s on [0, p]."""
    if not 0.0 < p <= 1.0:
        raise InvalidDistributionError(f"p = {p:g} outside (0, 1]")
    if dim < 2:
        raise DimensionMismatchError("kernel integral requires dim >= 2")
    return p**dim / (dim * (dim - 1)) * (math.log(p) - s0_exact(dim))


def entropy_by_quadrature(spectrum: Spectrum, dim: int) -> float:
    """Absolute entropy via exact piecewise integration of N f(s) P(s).

    Independent route from the subentropy integral: each eigenvalue
    contributes its gap-product weight times the analytic kernel integral.
    Falls back to extended precision when the pole expansion is badly
    conditioned.
    """
    if spectrum.dim != dim:
        raise DimensionMismatchError(f"spectrum has {spectrum.dim} entries, expected {dim}")
    if dim == 1:
        return 0.0
    reps, mults = spectrum.clustered_values()
    nodes = _distinct_nodes_or_raise(reps, mults)
    if _min_relative_gap(reps, dim) < _MP_GAP_THRESHOLD:
        return _quadrature_mp(nodes, dim)
    terms = [-dim * (dim - 1) * kernel_integral(p, dim) / gap
             for p, gap in zip(nodes, _gap_products(nodes)) if p != 0.0]
    total = math.fsum(terms)
    if math.fsum(abs(t) for t in terms) > 1e4:
        return _quadrature_mp(nodes, dim)
    return total


def _quadrature_mp(nodes: np.ndarray, dim: int) -> float:
    with mpmath.workdps(_MP_DPS):
        zs = [mpmath.mpf(repr(float(z))) for z in nodes]
        s0 = mpmath.fsum(mpmath.mpf(1) / k for k in range(2, dim + 1))
        total = mpmath.mpf(0)
        for r, p in enumerate(zs):
            if p == 0:
                continue
            prod = mpmath.mpf(1)
            for rp, q in enumerate(zs):
                if rp != r:
                    prod *= p - q
            kern = p**dim / (dim * (dim - 1)) * (mpmath.log(p) - s0)
            total += -dim * (dim - 1) * kern / prod
        return float(total)


def identity_residuals(spectrum: Spectrum, dim: int, s: float = 0.5):
    """Residuals of the two partial-fraction identities behind the density.

    Returns (|sum_r p_r^N / gap product - 1|, [moment residuals for
    n = 0..N-2 at the probe point s]).  Evaluated at 40 digits so the
    result reflects the identities, not float cancellation.
    """
    if spectrum.dim != dim:
        raise DimensionMismatchError(f"spectrum has {spectrum.dim} entries, expected {dim}")
    nodes = _distinct_nodes_or_raise(*spectrum.clustered_values(), allow_zero_cluster=False)
    with mpmath.workdps(40):
        zs = [mpmath.mpf(repr(float(z))) for z in nodes]
        sp = mpmath.mpf(repr(float(s)))
        weights = []
        for r, p in enumerate(zs):
            prod = mpmath.mpf(1)
            for rp, q in enumerate(zs):
                if rp != r:
                    prod *= p - q
            weights.append(1 / prod)
        eid1 = abs(mpmath.fsum(w * p**dim for w, p in zip(weights, zs)) - 1)
        moments = [
            abs(mpmath.fsum(w * (sp - p)**n for w, p in zip(weights, zs)))
            for n in range(0, dim - 1)
        ]
        return float(eid1), [float(m) for m in moments]


def perturb_spectrum(spectrum: Spectrum, epsilon: float) -> Spectrum:
    """Spread each degenerate cluster symmetrically by multiples of epsilon.

    Preserves the total probability; a cluster at zero is shifted upward
    and compensated on the largest eigenvalue.  The induced entropy error
    is O(epsilon ln epsilon) -- callers opt in explicitly.
    """
    if epsilon <= 0:
        raise InvalidDistributionError("epsilon must be positive")
    reps, mults = spectrum.clustered_values()
    out = []
    debt = 0.0
    for v, m in zip(reps, mults):
        if m == 1:
            out.append(float(v))
        elif v > 0.0:
            out.extend(float(v) + epsilon * (i - (m - 1) / 2.0) for i in range(m))
        else:
            out.extend(epsilon * i for i in range(m))
            debt += epsilon * m * (m - 1) / 2.0
    out.sort(reverse=True)
    out[0] -= debt
    return spectrum_from_values(out, spectrum.cluster_tolerance)


@dataclass(frozen=True)
class DensityCurve:
    """The outcome-weight density P(s) on a grid."""

    spectrum: Spectrum
    grid: np.ndarray
    densities: np.ndarray


def density_curve(spectrum: Spectrum, dim: int, points: int) -> DensityCurve:
    """Evaluate the outcome-weight density on a uniform grid over [0, 1].

    One vectorised pass per nonzero eigenvalue over the whole grid; the
    values, checks and errors are those of density_p at each grid point.
    """
    grid = np.linspace(0.0, 1.0, points)
    return DensityCurve(spectrum, grid, _density(spectrum, dim, grid))
