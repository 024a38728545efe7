"""Desk-scale reproductions: the excess-vs-von-Neumann correlation figure,
the entropy inequality suites, and the projective-measurement check.

Every random trial draws from its own substream, so any violation can be
re-generated from the (seed, stream_id, tag, trial) recorded in its
certificate.  Trials run in blocks of one kind and dims, and `check`
packs the blocks of all its kinds and dims into passes, each bounded like
a block (so a small check is one pass).  In a pass each trial
still draws from its own substream; then one _hs_states call per matrix
size validates the states, one eigvalsh per matrix size gives the reduced
and dephased spectra, and one _excess_rows call per spectrum width gives
S_F.  Each step acts on every matrix or row on its own, so the grouping
changes no digit.
"""

import math
from dataclasses import dataclass, field
from itertools import islice, zip_longest

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

# substream tags; child index = tag << 64 | trial, the tag in the counter's top word
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
    return tag << 64 | trial


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


# The random trials.  Each kind is a generator function, whose generator
# (a trial body) runs one block of trials.  Called with an iterable of one
# random generator per trial and the trials' dims, it draws every trial's
# state from its own random generator in a fixed order, one trial after
# the other.  It then yields three lists of (k, ...) stacks, and is sent
# back one result per stack, in order:
#   1. Ginibre stacks, each answered by _hs_states: (states, spectra);
#   2. Hermitian stacks, each answered by its spectra;
#   3. stacks of spectra, each answered by its S_F rows.
# Last it yields (lhs, rhs) arrays over the block; the margin is rhs - lhs.
# _pass runs the steps of many bodies together.

def _ei1(gens, dims):
    """A subsystem needs less information than the whole: S(A) <= S(AB)."""
    n, m = dims
    [(rho, p)] = yield _ginibre(gens, n * m)
    [r] = yield [_partial_trace_stack(rho, dims, 0)]
    f_r, f_p = yield [r, p]
    yield s0_exact(n) + f_r, s0_exact(n * m) + f_p


def _factors(gens, dims):
    """S_F of two independent states and of their product state."""
    (_, p), (_, q) = yield _ginibre(gens, *dims)
    yield []
    return (yield [p, q, _product_spectra(p, q)])


def _ei2(gens, dims):
    """Superadditivity on product states: S(A) + S(B) <= S(A x B)."""
    n, m = dims
    f_p, f_q, f_pq = yield from _factors(gens, dims)
    yield (s0_exact(n) + f_p) + (s0_exact(m) + f_q), s0_exact(n * m) + f_pq


def _ei3_product(gens, dims):
    """Excess subadditivity on product states: F(A x B) <= F(A) + F(B)."""
    f_p, f_q, f_pq = yield from _factors(gens, dims)
    yield f_pq, f_p + f_q


def _ei3_correlated(gens, dims):
    """Excess subadditivity on correlated states: F(AB) <= F(A) + F(B)."""
    [(rho, p)] = yield _ginibre(gens, math.prod(dims))
    reduced = yield [_partial_trace_stack(rho, dims, keep) for keep in (0, 1)]
    f_p, f_a, f_b = yield [p, *reduced]
    yield f_p, f_a + f_b


def _measurement(gens, dims):
    """A projective measurement in a Haar-random basis: S(rho) <= S(sigma)."""
    (dim,) = dims
    g, z = _ginibre(gens, dim, dim)
    [(rho, p)] = yield [g]
    [s] = yield [_dephase_stack(rho, _haar_from_normals(z))]
    f_p, f_s = yield [p, s]
    yield s0_exact(dim) + f_p, s0_exact(dim) + f_s


# (inequality id, substream tag) -> trial
_TRIALS = {
    ("ei1", TAG_EI1): _ei1,
    ("ei2", TAG_EI2): _ei2,
    ("ei3", TAG_EI3_PRODUCT): _ei3_product,
    ("ei3", TAG_EI3_CORRELATED): _ei3_correlated,
    ("measurement_monotonicity", TAG_MEASUREMENT): _measurement,
}


def _eigenspectra(m: np.ndarray) -> np.ndarray:
    """Spectra of a (k, n, n) stack of Hermitian matrices."""
    return _spectra(np.linalg.eigvalsh(m))


def _grouped(fn, stacks) -> list:
    """fn of each (k, ...) stack, calling fn once per trailing shape.

    Stacks of equal trailing shape are concatenated, and fn's result, an
    array or a tuple of arrays, is sliced back.  fn must treat each entry
    of a stack on its own, so the grouping changes no result.
    """
    out = [None] * len(stacks)
    for shape in dict.fromkeys(s.shape[1:] for s in stacks):
        group = [i for i, s in enumerate(stacks) if s.shape[1:] == shape]
        res = fn(np.concatenate([stacks[i] for i in group]))
        start = 0
        for i in group:
            part = slice(start, start + len(stacks[i]))
            out[i] = tuple(r[part] for r in res) if isinstance(res, tuple) else res[part]
            start = part.stop
    return out


def _pass(bodies) -> list:
    """Run trial bodies together; returns the (lhs, rhs) of each.

    The bodies draw one after the other, in the order given.  Then each
    step runs once on the stacks of all the bodies: one _hs_states and one
    eigvalsh per matrix size, one _excess_rows per spectrum width.
    """
    asked = [next(body) for body in bodies]
    for step in (_hs_states, _eigenspectra, _excess_rows):
        answers = iter(_grouped(step, [s for stacks in asked for s in stacks]))
        asked = [body.send(list(islice(answers, len(stacks))))
                 for body, stacks in zip(bodies, asked)]
    return asked


def _ei3a(dims):
    """Superadditivity of the minimum uncertainty entropy: s0(N) + s0(M) <= s0(NM)."""
    n, m = dims
    return s0_exact(n) + s0_exact(m), s0_exact(n * m)


def _passes(runs, count: int):
    """The blocks of the runs, as passes: lists of (run index, block).

    Blocks are taken in turn, block 0 of every run, then block 1, and so
    on.  A pass is bounded like a block, by _BLOCK trials and
    _BLOCK_ENTRIES matrix entries, so it holds at most one block per run
    and memory stays flat in the trial count.
    """
    steps = zip_longest(*(_blocks(first, count, math.prod(dims)) for _, _, first, dims in runs))
    batch, trials, entries = [], 0, 0
    for i, block in ((i, block) for step in steps for i, block in enumerate(step) if block):
        size = len(block) * math.prod(runs[i][3]) ** 2
        if batch and (trials + len(block) > _BLOCK or entries + size > _BLOCK_ENTRIES):
            yield batch
            batch, trials, entries = [], 0, 0
        batch.append((i, block))
        trials += len(block)
        entries += size
    if batch:
        yield batch


def _run(runs, count: int, rng: RngStream):
    """For each (report, tag, first, dims) of runs, record trials
    first .. first + count - 1 of that kind into report.

    The blocks of all runs go through _pass together, a pass at a time.
    All trials draw from one generator, re-keyed to the substream of each
    trial in the order the passes take them.  A report's certificates keep
    the order of its runs.
    """
    gens = rng.children(_substream(runs[i][1], t) for batch in _passes(runs, count)
                        for i, block in batch for t in block)
    found = [[] for _ in runs]
    for batch in _passes(runs, count):
        results = _pass([_TRIALS[runs[i][0].inequality_id, runs[i][1]](
            islice(gens, len(block)), runs[i][3]) for i, block in batch])
        for (i, block), (lhs, rhs) in zip(batch, results):
            report, tag, _, dims = runs[i]
            for t, left, right in zip(block, lhs.tolist(), rhs.tolist()):
                if report.record(right - left):
                    found[i].append(Certificate(
                        report.inequality_id, tag, t, rng.seed, rng.stream_id, dims,
                        lhs=left, rhs=right, margin=right - left))
    for (report, *_), certs in zip(runs, found):
        report.certificates += certs


def run_checks(ids, trials: int, dims, dim: int, rng: RngStream) -> list[InequalityReport]:
    """The reports of the wanted check ids, in the order ei1, ei2, ei3,
    ei3a, measurement_monotonicity.

    Only the random kinds of the wanted ids run, all in one _run: `trials`
    trials of ei1, ei2 and ei3 per (N, M) of dims, and of
    measurement_monotonicity at dimension dim.  A trial's draws depend only
    on its kind and index, so a subset of ids prints the rows of a full
    run.  ei3a is the fixed grid N, M = 2..8.
    """
    reports = {i: InequalityReport(i) for i in
               ("ei1", "ei2", "ei3", "ei3a", "measurement_monotonicity") if i in ids}
    runs = [(reports[i], tag, di * trials, tuple(nm)) for di, nm in enumerate(dims)
            for i, tag in _TRIALS if i in reports and tag != TAG_MEASUREMENT]
    if "measurement_monotonicity" in reports:
        runs.append((reports["measurement_monotonicity"], TAG_MEASUREMENT, 0, (dim,)))
    _run(runs, trials, rng)

    if "ei3a" in reports:
        for n in range(2, 9):
            for m in range(2, 9):
                lhs, rhs = _ei3a((n, m))
                if reports["ei3a"].record(rhs - lhs):
                    reports["ei3a"].certificates.append(Certificate(
                        "ei3a", 0, 0, rng.seed, rng.stream_id, (n, m),
                        lhs=lhs, rhs=rhs, margin=rhs - lhs))

    return list(reports.values())


def inequality_suite(trials: int, dims, rng: RngStream) -> list[InequalityReport]:
    """Run the subsystem, product-state and harmonic-sum inequality checks.

    ei1: a subsystem needs less information than the whole (asserted).
    ei2: absolute entropy is superadditive on product states (asserted).
    ei3: excess entropy subadditivity -- checked for product states and
         for the reductions of correlated states; exploratory, reported only.
    ei3a: superadditivity of the minimum uncertainty entropy (asserted).
    """
    return run_checks(("ei1", "ei2", "ei3", "ei3a"), trials, dims, 0, rng)


def measurement_conjecture_scan(trials: int, dim: int, rng: RngStream) -> InequalityReport:
    """Check that a projective measurement never lowers the absolute entropy.

    This is a theorem.  The post-measurement state sigma = sum_j P_j rho P_j
    is a pinching of rho, so spec(sigma) is majorised by spec(rho) (Bhatia,
    Matrix Analysis, ch. II).  S_F is symmetric and concave, hence
    Schur-concave, and S_0(N) does not change, so S(sigma) >= S(rho).  A
    violation means a fault in S_F or in the measurement update.
    """
    [report] = run_checks(("measurement_monotonicity",), trials, (), dim, rng)
    return report


def reverify_certificate(cert: Certificate) -> float:
    """Recompute a certificate's margin from its recorded seed; returns it.

    The random kinds rerun their trial as a pass of one, through the same
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
    [(lhs, rhs)] = _pass([trial_fn([gen], dims)])
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
