"""Entropy computations.

The absolute (basis-averaged) entropy of a state splits into an
N-dependent minimum-uncertainty part s0 plus an excess part F that
depends only on the nonzero eigenvalues.  F is the subentropy of the
spectrum, evaluated as one gap-free integral with a fixed trapezoid rule;
repeated, tiny and zero eigenvalues take the same route as any other.
The outcome-weight density P(s) is a B-spline with its knots at the
eigenvalues; integrating -s ln s against it is the independent second
route.  Only the appendix identities keep the pole expansion, summed in
exact rationals.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    InvalidDistributionError,
)
from .states import DensityMatrix, Spectrum

EULER_GAMMA = 0.5772156649015329
EXCESS_BOUND = 1.0 - EULER_GAMMA

# Trapezoid rule for the subentropy integral, in u with t = e^v and
# v = -2 + 3 sinh(u), on 60 nodes over u in [-3.25, 3.25] (v in about
# [-40.6, 36.6]).  In v = ln t the integrand decays like e^{2v} and e^{-v}
# and is analytic in a strip |Im v| < a with a about pi/2 (for I/N at large
# N it behaves like exp(-e^{-v})), so the trapezoid error falls like
# exp(-2 pi a / h) (Trefethen & Weideman, SIAM Review 56(3), 2014).  The
# sinh map keeps that step where the integrand varies and thins the nodes
# in the exponential tails, a quarter of the nodes that a uniform grid in
# v needs for the same error: 1.0e-14 at worst on 101 held-out spectra.
_U = np.linspace(-3.25, 3.25, 60)
_V = -2.0 + 3.0 * np.sinh(_U)
_T = np.exp(_V)
# weights carry the Jacobian dt = t dv = t 3 cosh(u) du
_W = _T * 3.0 * np.cosh(_U) * (_U[1] - _U[0])
_W[[0, -1]] *= 0.5
_A = -np.log1p(1.0 / _T)  # ln t/(1+t)
_EXP_A = np.exp(_A)

# The (N, points) arrays of the B-spline recursion hold at most this many
# entries per block of points, so memory stays flat at any N and grid size.
_BLOCK_ENTRIES = 1 << 16

# Quadrature panels.  -s ln s is smooth on a panel whose left end is at
# least 0.2 times its right end, so a knot interval [a, b] with a < 0.2 b
# is cut at b 0.2^k toward a, for k up to 12; the panel left below
# b 0.2^12 (as when a = 0) holds less than 1e-16 of the integral.
_PANEL_EDGES = np.append(0.2 ** np.arange(13), 0.0)

# Eigenvalues that spread less than this many units in the last place of
# the largest, per dimension, are equal to rounding: eigvalsh returns a
# rotated I/N as 1/N give or take a few N ulps.
_POINT_MASS_ULPS = 16


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
    return shannon(rho.spectrum.values)


def conditional_entropy(rho: DensityMatrix, basis: np.ndarray) -> float:
    """Shannon entropy of the outcome probabilities <a|rho|a> for the
    columns |a> of the unitary `basis`."""
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (rho.dim, rho.dim):
        raise DimensionMismatchError(f"basis shape {basis.shape} for a state of dim {rho.dim}")
    probs = np.einsum("ia,ij,ja->a", basis.conj(), rho.matrix, basis).real
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    return shannon(probs)


@lru_cache(maxsize=1024)
def s0_exact(dim: int) -> float:
    """Minimum uncertainty entropy: the harmonic sum 1/2 + ... + 1/N.

    Memoised: every trial of a kind, and every fig1 point, needs the same
    few N."""
    return math.fsum(1.0 / k for k in range(2, dim + 1))


def s0_asymptotic(dim: int) -> float:
    """Large-N approximation ln N - (1-gamma) + 1/(2N)."""
    return math.log(dim) - (1.0 - EULER_GAMMA) + 0.5 / dim


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
    # a stack of (1, 60) @ (60,) products takes one dot per row, so a
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


def absolute_entropy(spectrum: Spectrum) -> EntropyReport:
    """Basis-averaged entropy s0(N) + F and its components, N = spectrum.dim
    (zeros included)."""
    s0 = s0_exact(spectrum.dim)
    s_f = excess_entropy(spectrum)
    return EntropyReport(dim=spectrum.dim, s_h=shannon(spectrum.values), s0=s0,
                         s_f=s_f, s_total=s0 + s_f)


def _bspline(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The B-spline of degree N-2 on the N ascending knots t, at points s.

    Cox-de Boor recursion with de Boor's rule 0/0 = 0, so repeated knots
    (ties and zeros) need no special case.  Every step is a convex
    combination, so there is no cancellation and no negative value.  Zero
    outside [t_0, t_N-1]; right-continuous, except left-continuous at
    t_N-1.  The knots must not all be equal.
    """
    n = len(t)
    # inverse[i, j] = 1 / (t_j - t_i), and 0 where that gap is 0
    gap = t - t[:, None]
    inverse = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0.0)
    last = np.searchsorted(t, t[-1]) - 1  # the last nonempty knot interval
    out = np.empty(s.shape)
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, len(s), step):
        x = s[start:start + step] - t[:, None]  # s - t_i
        above = x >= 0.0
        b = above[:-1] > above[1:]  # degree 0: the indicators of [t_i, t_i+1)
        b[last] |= x[-1] == 0.0  # closed at t_N-1: left-continuous there
        for k in range(1, n - 1):
            b = b * inverse.diagonal(k)[:, None]
            right = x[k + 1:] * b[1:]
            b = np.multiply(x[:-k - 1], b[:-1], out=b[:-1])
            b -= right
        out[start:start + step] = b[0]
    return out


def _is_point_mass(t: np.ndarray) -> bool:
    """Whether the ascending eigenvalues t are all equal to rounding, so
    that the outcome weight is 1/N in every basis (the state is I/N)."""
    return t[-1] - t[0] <= _POINT_MASS_ULPS * len(t) * np.spacing(t[-1])


def _density(spectrum: Spectrum, s: np.ndarray) -> np.ndarray:
    """P(s) on an array of points, block by block.

    P = (N-1)/(p_max - p_min) times the B-spline of degree N-2 with its
    knots at the eigenvalues (Curry & Schoenberg 1966).
    """
    dim = spectrum.dim
    if dim < 2:
        raise DimensionMismatchError("density requires dim >= 2")
    outside = s[~((s >= 0.0) & (s <= 1.0))]
    if outside.size:
        raise InvalidDistributionError(f"s = {outside[0]:g} outside [0, 1]")
    t = np.sort(spectrum.values)
    if _is_point_mass(t):
        raise DegenerateSpectrumError(
            f"all eigenvalues equal {t[-1]:g} to rounding, so s = {t[-1]:g} for "
            f"every state: P(s) is a point mass and has no density")
    return (dim - 1) / (t[-1] - t[0]) * _bspline(t, s)


def density_p(spectrum: Spectrum, s: float) -> float:
    """Probability density of the outcome weight s = sum p_r |psi_r|^2.

    The weights |psi_r|^2 of a Haar-random pure state are uniform on the
    simplex, so P is the normalised B-spline of degree N-2 with its knots
    at the eigenvalues: a polynomial between adjacent distinct
    eigenvalues, zero outside [smallest, largest eigenvalue] and
    left-continuous at the largest.  Ties and zeros are ordinary knots;
    only I/N (eigenvalues all equal to rounding), whose P is a point
    mass, raises DegenerateSpectrumError.
    The one-point case of density_curve, with the same float at the same s.
    """
    return float(_density(spectrum, np.array([s], dtype=float))[0])


def kernel_integral(p: float, dim: int) -> float:
    """Closed form of the moment integral of (p-s)^(N-2) s ln s on [0, p].

    The paper's pole expansion of the absolute entropy sums this kernel
    over the eigenvalues, weighted by their inverse gap products; it is
    exported as the closed form of that derivation.
    """
    if not 0.0 < p <= 1.0:
        raise InvalidDistributionError(f"p = {p:g} outside (0, 1]")
    if dim < 2:
        raise DimensionMismatchError("kernel integral requires dim >= 2")
    return p**dim / (dim * (dim - 1)) * (math.log(p) - s0_exact(dim))


@lru_cache(maxsize=32)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [0, 1]."""
    # imported here, so that only the quadrature pays for loading it
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


def entropy_by_quadrature(spectrum: Spectrum, dim: int) -> float:
    """Absolute entropy as N times the integral of -s ln s P(s) over [0, 1].

    Independent route from the subentropy integral.  P is a polynomial of
    degree N-2 between adjacent distinct eigenvalues, so each such
    interval takes a Gauss-Legendre rule of N//2 + 14 points, on
    geometric panels toward its left end where that end is below 0.2
    times its right end, which resolves the logarithm at s = 0.  I/N
    (eigenvalues all equal to rounding), whose P is a point mass at 1/N,
    gives ln N.

    `dim` must equal spectrum.dim; it stays in the signature because the
    benchmark (bench/run.py) calls this function with two arguments.
    """
    if spectrum.dim != dim:
        raise DimensionMismatchError(f"spectrum has {spectrum.dim} entries, expected {dim}")
    if dim == 1:
        return 0.0
    t = np.sort(spectrum.values)
    if _is_point_mass(t):
        return math.log(dim)
    # a tie is an interval of width 0, which gets no panel
    edges = np.maximum(t[1:, None] * _PANEL_EDGES, t[:-1, None])
    lo, width = edges[:, 1:], edges[:, :-1] - edges[:, 1:]
    live = width > 0.0
    nodes, weights = _gauss_legendre(dim // 2 + 14)
    width = width[live][:, None]
    # nodes as offsets from t_0, which are exact for knots close to t_0, so
    # a narrow spectrum does not round its nodes onto its knots
    offset = ((lo[live][:, None] - t[0]) + width * nodes).ravel()
    mass = (width * weights).ravel() * _bspline(t - t[0], offset)
    s = t[0] + offset
    # normalised by the rule's own mass of B, (p_max - p_min)/(N-1) exactly
    return float(-dim * (mass @ (s * np.log(s))) / mass.sum())


def identity_residuals(spectrum: Spectrum, s: float = 0.5):
    """Residuals of the two partial-fraction identities behind the density.

    Returns (|sum_r p_r^N / gap product - 1|, [moment residuals for
    n = 0..N-2 at the probe point s]).  Every float is a dyadic rational,
    so the sums are exact rationals: the first residual is exactly
    |sum_r p_r - 1| and every moment residual is exactly 0.  The gap
    products need distinct eigenvalues: a tie, zeros included, raises
    DegenerateSpectrumError.
    """
    # imported here, so that only this paper check pays for loading it
    from fractions import Fraction

    nodes = np.sort(spectrum.values)
    ties = nodes[1:][nodes[1:] == nodes[:-1]]
    if ties.size:
        raise DegenerateSpectrumError(
            f"eigenvalue {ties[0]:g} is repeated; the identities need distinct eigenvalues")
    ps = [Fraction(float(z)) for z in nodes]
    sp = Fraction(float(s))
    gaps = [math.prod(p - q for q in ps if q != p) for p in ps]
    eid1 = abs(sum(p**spectrum.dim / g for p, g in zip(ps, gaps)) - 1)
    moments = [abs(sum((sp - p)**n / g for p, g in zip(ps, gaps)))
               for n in range(0, spectrum.dim - 1)]
    return float(eid1), [float(m) for m in moments]


@dataclass(frozen=True)
class DensityCurve:
    """The outcome-weight density P(s) on a grid."""

    grid: np.ndarray
    densities: np.ndarray


def density_curve(spectrum: Spectrum, points: int) -> DensityCurve:
    """Evaluate the outcome-weight density on a uniform grid over [0, 1].

    The values, checks and errors are those of density_p at each grid
    point; the grid is evaluated in blocks, so memory stays flat.
    """
    grid = np.linspace(0.0, 1.0, points)
    return DensityCurve(grid, _density(spectrum, grid))
