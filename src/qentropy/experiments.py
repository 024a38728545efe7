"""Desk-scale reproductions: the excess-vs-von-Neumann correlation figure,
the entropy inequality suites, and the projective-measurement check.

Every random trial draws from its own substream, so any violation can be
re-generated from the (seed, stream_id, tag, trial) recorded in its
certificate.  Trials run in blocks: each trial still draws from its own
substream, and then each step (Ginibre product, validation, eigenvalues,
partial trace, QR, S_F) runs once on the whole block.
"""

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .entropy import (
    _excess_rows,
    _shannon_rows,
    s0_asymptotic,
    s0_exact,
    uniform_mixture_excess,
)
from .errors import DimensionMismatchError
from .rng import RngStream
from .states import (
    DensityMatrix,
    Spectrum,
    _dagger,
    _dephase_stack,
    _ginibre,
    _haar_from_normals,
    _partial_trace_stack,
    _product_spectra,
    _spectra,
    _validated_stack,
)

MARGIN_TOL = 1e-9

# regression bound for the random-mixture scatter around the uniform curve,
# recorded from the first run of the default config (dim 8, flat Dirichlet,
# 500 samples, worst observed deviation 0.0593); not a theory number
FIG1_ENVELOPE = 0.065

# substream tags; child index = tag * _TAG_STRIDE + trial
_TAG_STRIDE = 1_000_003
TAG_EI1 = 1
TAG_EI2 = 2
TAG_EI3_PRODUCT = 3
TAG_EI3_CORRELATED = 4
TAG_MEASUREMENT = 5
TAG_FIG1_MIXTURES = 6

# Trials per block: enough to spread numpy's per-call cost over many small
# matrices, few enough that a block's arrays (k x 60 x N for S_F, k x N x N
# per state) stay a few MB at any trial count.  Above N = 16 blocks shrink
# so that k * N^2 stays within _BLOCK_ENTRIES.
_BLOCK = 128
_BLOCK_ENTRIES = 128 * 16 * 16


@dataclass(frozen=True)
class Fig1Row:
    s_h: float
    s_f: float
    label: str  # "uniform" | "random_mixture"
    n: int
    dim: int


@dataclass(frozen=True)
class Certificate:
    """Everything needed to re-derive one inequality violation."""

    inequality_id: str
    tag: int
    trial: int
    seed: int
    stream_id: int
    dims: tuple
    lhs: float
    rhs: float
    margin: float


@dataclass
class InequalityReport:
    inequality_id: str
    trials: int = 0
    violations: int = 0
    worst_margin: float = math.inf
    certificates: list = field(default_factory=list)

    def record(self, margin: float) -> bool:
        """Count one trial; True if its margin is a violation, whose
        certificate the caller then appends."""
        self.trials += 1
        self.worst_margin = min(self.worst_margin, margin)
        if margin >= -MARGIN_TOL:
            return False
        self.violations += 1
        return True


def _hs_states(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G G^dagger / trace for a (k, n, n) Ginibre stack, validated; with the
    spectrum of each state."""
    m = g @ _dagger(g)
    return _validated_stack(m / np.trace(m, axis1=1, axis2=2).real[:, None, None])


def random_density_hs(dim: int, gen: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt random state: G G^dagger / trace for Ginibre G."""
    rho, p = _hs_states(_ginibre([gen], dim)[0])
    return DensityMatrix(rho[0], Spectrum(p[0]))


def _substream(tag: int, trial: int) -> int:
    return tag * _TAG_STRIDE + trial


def _blocks(first: int, count: int, dim: int):
    """Trials first .. first + count - 1 as ranges of at most _BLOCK, for
    states of dimension dim."""
    step = max(1, min(_BLOCK, _BLOCK_ENTRIES // max(1, dim * dim)))
    stop = first + count
    return (range(s, min(s + step, stop)) for s in range(first, stop, step))


def fig1_uniform_curve(max_n: int) -> list[Fig1Row]:
    """The uniform-mixture line: (ln n, ln n - harmonic tail) for n = 1..max_n."""
    rows = []
    for n in range(1, max_n + 1):
        rows.append(Fig1Row(s_h=math.log(n), s_f=uniform_mixture_excess(n),
                            label="uniform", n=n, dim=n))
    return rows


def uniform_curve_interpolation(s_h: float, max_n: int = 64) -> float:
    """Linear interpolation of the uniform-mixture excess at a given s_h."""
    xs = np.array([math.log(n) for n in range(1, max_n + 1)])
    ys = np.array([uniform_mixture_excess(n) for n in range(1, max_n + 1)])
    return float(np.interp(s_h, xs, ys))


def _flat_dirichlet(gens, dim: int) -> np.ndarray:
    """One flat-Dirichlet draw of length dim per generator, as rows.

    Bit for bit what Generator.dirichlet(np.ones(dim)) draws: standard
    exponentials times the reciprocal of their sequential sum.
    """
    w = np.array([gen.standard_exponential(dim) for gen in gens])
    return w * (1.0 / np.cumsum(w, axis=1)[:, -1:])


def fig1_random_mixtures(dim: int, count: int, rng: RngStream) -> list[Fig1Row]:
    """Scatter of randomly mixed states (flat Dirichlet spectra)."""
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    rows = []
    gens = rng.children(_substream(TAG_FIG1_MIXTURES, t) for t in range(count))
    for block in _blocks(0, count, dim):
        draws = _flat_dirichlet(islice(gens, len(block)), dim)
        # sorted and normalised as spectrum_from_values does it, row by row
        p = np.sort(draws, axis=1)[:, ::-1]
        p = p / np.array([math.fsum(row) for row in p.tolist()])[:, None]
        rows += [Fig1Row(s_h=s_h, s_f=s_f, label="random_mixture", n=0, dim=dim)
                 for s_h, s_f in zip(_shannon_rows(p).tolist(), _excess_rows(p).tolist())]
    return rows


def fig1_inset(max_dim: int) -> list[tuple[int, float, float]]:
    """(N, exact minimum-uncertainty entropy, asymptotic approximation)."""
    return [(n, s0_exact(n), s0_asymptotic(n)) for n in range(1, max_dim + 1)]


# The random trials.  Each takes an iterable of one generator per trial and
# the trial's dims, draws every trial's state from its own generator in a
# fixed order, one trial after the other, and returns (lhs, rhs) arrays over
# the block; the margin is rhs - lhs.
# The entropies take (k, N) stacks of spectra.

def _total(p: np.ndarray) -> np.ndarray:
    """Absolute entropy S = s0(N) + F of states with these spectra."""
    return s0_exact(p.shape[1]) + _excess_rows(p)


def _reduced(rho: np.ndarray, dims, keep: int) -> np.ndarray:
    """Spectra of subsystem `keep` of each bipartite state."""
    return _spectra(np.linalg.eigvalsh(_partial_trace_stack(rho, dims, keep)))


def _ei1(gens, dims):
    """A subsystem needs less information than the whole: S(A) <= S(AB)."""
    n, m = dims
    rho, p = _hs_states(_ginibre(gens, n * m)[0])
    return _total(_reduced(rho, dims, 0)), _total(p)


def _ei2(gens, dims):
    """Superadditivity on product states: S(A) + S(B) <= S(A x B)."""
    (_, p), (_, q) = (_hs_states(g) for g in _ginibre(gens, *dims))
    return _total(p) + _total(q), _total(_product_spectra(p, q))


def _ei3_product(gens, dims):
    """Excess subadditivity on product states: F(A x B) <= F(A) + F(B)."""
    (_, p), (_, q) = (_hs_states(g) for g in _ginibre(gens, *dims))
    return _excess_rows(_product_spectra(p, q)), _excess_rows(p) + _excess_rows(q)


def _ei3_correlated(gens, dims):
    """Excess subadditivity on correlated states: F(AB) <= F(A) + F(B)."""
    n, m = dims
    rho, p = _hs_states(_ginibre(gens, n * m)[0])
    return (_excess_rows(p),
            _excess_rows(_reduced(rho, dims, 0)) + _excess_rows(_reduced(rho, dims, 1)))


def _measurement(gens, dims):
    """A projective measurement in a Haar-random basis: S(rho) <= S(sigma)."""
    (dim,) = dims
    g, z = _ginibre(gens, dim, dim)
    rho, p = _hs_states(g)
    sigma = _dephase_stack(rho, _haar_from_normals(z))
    return _total(p), _total(_spectra(np.linalg.eigvalsh(sigma)))


# (inequality id, substream tag) -> trial
_TRIALS = {
    ("ei1", TAG_EI1): _ei1,
    ("ei2", TAG_EI2): _ei2,
    ("ei3", TAG_EI3_PRODUCT): _ei3_product,
    ("ei3", TAG_EI3_CORRELATED): _ei3_correlated,
    ("measurement_monotonicity", TAG_MEASUREMENT): _measurement,
}


def _ei3a(dims):
    """Superadditivity of the minimum uncertainty entropy: s0(N) + s0(M) <= s0(NM)."""
    n, m = dims
    return s0_exact(n) + s0_exact(m), s0_exact(n * m)


def _run(runs, count: int, rng: RngStream):
    """For each (report, tag, first, dims) of runs, in turn, record trials
    first .. first + count - 1 of that kind into report.

    All trials draw from one generator, re-keyed to the substream
    of each trial in the order the trial functions take them.
    """
    gens = rng.children(_substream(tag, t) for _, tag, first, _ in runs
                        for t in range(first, first + count))
    for report, tag, first, dims in runs:
        trial_fn = _TRIALS[report.inequality_id, tag]
        for block in _blocks(first, count, math.prod(dims)):
            lhs, rhs = trial_fn(islice(gens, len(block)), dims)
            for t, left, right in zip(block, lhs.tolist(), rhs.tolist()):
                if report.record(right - left):
                    report.certificates.append(Certificate(
                        report.inequality_id, tag, t, rng.seed, rng.stream_id, dims,
                        lhs=left, rhs=right, margin=right - left))


def inequality_suite(trials: int, dims, rng: RngStream) -> list[InequalityReport]:
    """Run the subsystem, product-state and harmonic-sum inequality checks.

    ei1: a subsystem needs less information than the whole (asserted).
    ei2: absolute entropy is superadditive on product states (asserted).
    ei3: excess entropy subadditivity -- checked for product states and
         for the reductions of correlated states; exploratory, reported only.
    ei3a: superadditivity of the minimum uncertainty entropy (asserted).
    """
    ei1 = InequalityReport("ei1")
    ei2 = InequalityReport("ei2")
    ei3 = InequalityReport("ei3")
    ei3a = InequalityReport("ei3a")

    _run([(report, tag, di * trials, tuple(nm)) for di, nm in enumerate(dims)
          for report, tag in ((ei1, TAG_EI1), (ei2, TAG_EI2),
                              (ei3, TAG_EI3_PRODUCT), (ei3, TAG_EI3_CORRELATED))],
         trials, rng)

    for n in range(2, 9):
        for m in range(2, 9):
            lhs, rhs = _ei3a((n, m))
            if ei3a.record(rhs - lhs):
                ei3a.certificates.append(Certificate(
                    "ei3a", 0, 0, rng.seed, rng.stream_id, (n, m),
                    lhs=lhs, rhs=rhs, margin=rhs - lhs))

    return [ei1, ei2, ei3, ei3a]


def measurement_conjecture_scan(trials: int, dim: int, rng: RngStream) -> InequalityReport:
    """Check that a projective measurement never lowers the absolute entropy.

    This is a theorem.  The post-measurement state sigma = sum_j P_j rho P_j
    is a pinching of rho, so spec(sigma) is majorised by spec(rho) (Bhatia,
    Matrix Analysis, ch. II).  S_F is symmetric and concave, hence
    Schur-concave, and S_0(N) does not change, so S(sigma) >= S(rho).  A
    violation means a fault in S_F or in the measurement update.
    """
    report = InequalityReport("measurement_monotonicity")
    _run([(report, TAG_MEASUREMENT, 0, (dim,))], trials, rng)
    return report


def reverify_certificate(cert: Certificate) -> float:
    """Recompute a certificate's margin from its recorded seed; returns it.

    The random kinds rerun their trial as a block of one, through the same
    code as the run that recorded it.
    """
    dims = tuple(cert.dims)
    if cert.inequality_id == "ei3a":
        lhs, rhs = _ei3a(dims)
        return rhs - lhs
    trial_fn = _TRIALS.get((cert.inequality_id, cert.tag))
    if trial_fn is None:
        raise ValueError(f"unknown certificate kind {cert.inequality_id!r}")
    gen = RngStream(cert.seed, cert.stream_id).child(_substream(cert.tag, cert.trial))
    lhs, rhs = trial_fn([gen], dims)
    return float(rhs[0] - lhs[0])


def harmonic_chain_margins(max_dim: int = 8) -> list[tuple[int, int, int, int, float]]:
    """Margins of the harmonic-sum inequality used to prove superadditivity.

    For uniform mixtures of n of N and m of M states, the tail sum over
    (nm, NM] must exceed the two one-factor tails combined.  Equality
    holds only in the trivial case n = N, m = M.
    """
    out = []
    for n_dim in range(2, max_dim + 1):
        for m_dim in range(2, max_dim + 1):
            for n in range(2, n_dim + 1):
                for m in range(2, m_dim + 1):
                    lhs = math.fsum(1.0 / k for k in range(n * m + 1, n_dim * m_dim + 1))
                    rhs = (math.fsum(1.0 / k for k in range(n + 1, n_dim + 1))
                           + math.fsum(1.0 / k for k in range(m + 1, m_dim + 1)))
                    out.append((n, m, n_dim, m_dim, lhs - rhs))
    return out
