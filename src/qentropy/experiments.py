"""Desk-scale reproductions: the excess-vs-von-Neumann correlation figure,
the entropy inequality suites, and the projective-measurement scan.

Every random trial draws from its own substream, so any violation can be
re-generated from the (seed, stream_id, tag, trial) recorded in its
certificate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import (
    EULER_GAMMA,
    absolute_entropy,
    entropy_report_for_density,
    excess_entropy,
    s0_asymptotic,
    s0_exact,
    shannon,
    uniform_mixture_excess,
)
from .errors import DimensionMismatchError
from .rng import RngStream
from .states import (
    DensityMatrix,
    basis_projectors,
    eig_hermitian,
    haar_unitary,
    partial_trace,
    projective_update,
    spectrum_from_values,
    tensor,
    validate_density,
)
from .states import _haar_from_generator

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

    def record(self, margin: float, cert: Certificate | None = None):
        self.trials += 1
        self.worst_margin = min(self.worst_margin, margin)
        if margin < -MARGIN_TOL:
            self.violations += 1
            if cert is not None:
                self.certificates.append(cert)


def random_spectrum(dim: int, gen: np.random.Generator):
    """Flat Dirichlet draw over the probability simplex, sorted descending."""
    return spectrum_from_values(gen.dirichlet(np.ones(dim)))


def random_density_hs(dim: int, gen: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt random state: G G^dagger / trace for Ginibre G."""
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    g = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2)
    m = g @ g.conj().T
    return validate_density(m / m.trace().real)


def _trial_gen(rng: RngStream, tag: int, trial: int) -> np.random.Generator:
    return rng.child(tag * _TAG_STRIDE + trial)


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


def fig1_random_mixtures(dim: int, count: int, rng: RngStream) -> list[Fig1Row]:
    """Scatter of randomly mixed states (flat Dirichlet spectra)."""
    rows = []
    for t in range(count):
        spec = random_spectrum(dim, _trial_gen(rng, TAG_FIG1_MIXTURES, t))
        rows.append(Fig1Row(s_h=shannon(spec.values), s_f=excess_entropy(spec),
                            label="random_mixture", n=0, dim=dim))
    return rows


def fig1_inset(max_dim: int) -> list[tuple[int, float, float]]:
    """(N, exact minimum-uncertainty entropy, asymptotic approximation)."""
    return [(n, s0_exact(n), s0_asymptotic(n)) for n in range(1, max_dim + 1)]


def _subsystem_report(rho: DensityMatrix, dims, keep):
    return entropy_report_for_density(partial_trace(rho, dims, keep))


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

    for di, (n, m) in enumerate(dims):
        for t in range(trials):
            trial = di * trials + t

            gen = _trial_gen(rng, TAG_EI1, trial)
            rho = random_density_hs(n * m, gen)
            s_whole = entropy_report_for_density(rho).s_total
            s_part = _subsystem_report(rho, (n, m), 0).s_total
            ei1.record(s_whole - s_part, Certificate(
                "ei1", TAG_EI1, trial, rng.seed, rng.stream_id, (n, m),
                lhs=s_part, rhs=s_whole, margin=s_whole - s_part))

            gen = _trial_gen(rng, TAG_EI2, trial)
            a = random_density_hs(n, gen)
            b = random_density_hs(m, gen)
            prod = tensor(a, b)
            s_ab = entropy_report_for_density(prod).s_total
            s_a = entropy_report_for_density(a).s_total
            s_b = entropy_report_for_density(b).s_total
            ei2.record(s_ab - s_a - s_b, Certificate(
                "ei2", TAG_EI2, trial, rng.seed, rng.stream_id, (n, m),
                lhs=s_a + s_b, rhs=s_ab, margin=s_ab - s_a - s_b))

            gen = _trial_gen(rng, TAG_EI3_PRODUCT, trial)
            a = random_density_hs(n, gen)
            b = random_density_hs(m, gen)
            f_ab = entropy_report_for_density(tensor(a, b)).s_f
            f_a = entropy_report_for_density(a).s_f
            f_b = entropy_report_for_density(b).s_f
            ei3.record(f_a + f_b - f_ab, Certificate(
                "ei3", TAG_EI3_PRODUCT, trial, rng.seed, rng.stream_id, (n, m),
                lhs=f_ab, rhs=f_a + f_b, margin=f_a + f_b - f_ab))

            gen = _trial_gen(rng, TAG_EI3_CORRELATED, trial)
            rho = random_density_hs(n * m, gen)
            f_whole = entropy_report_for_density(rho).s_f
            f_a = _subsystem_report(rho, (n, m), 0).s_f
            f_b = _subsystem_report(rho, (n, m), 1).s_f
            ei3.record(f_a + f_b - f_whole, Certificate(
                "ei3", TAG_EI3_CORRELATED, trial, rng.seed, rng.stream_id, (n, m),
                lhs=f_whole, rhs=f_a + f_b, margin=f_a + f_b - f_whole))

    for n in range(2, 9):
        for m in range(2, 9):
            margin = s0_exact(n * m) - s0_exact(n) - s0_exact(m)
            ei3a.record(margin, Certificate(
                "ei3a", 0, 0, rng.seed, rng.stream_id, (n, m),
                lhs=s0_exact(n) + s0_exact(m), rhs=s0_exact(n * m), margin=margin))

    return [ei1, ei2, ei3, ei3a]


def measurement_conjecture_scan(trials: int, dim: int, rng: RngStream) -> InequalityReport:
    """Does a projective measurement ever lower the absolute entropy?

    The conjecture (unproven) is that it cannot; violations are findings,
    recorded as certificates, not errors.
    """
    report = InequalityReport("measurement_monotonicity")
    for t in range(trials):
        gen = _trial_gen(rng, TAG_MEASUREMENT, t)
        rho = random_density_hs(dim, gen)
        u = _haar_from_generator(dim, gen)
        projectors = [np.outer(u[:, j], u[:, j].conj()) for j in range(dim)]
        sigma = projective_update(rho, projectors)
        s_before = entropy_report_for_density(rho).s_total
        s_after = entropy_report_for_density(sigma).s_total
        report.record(s_after - s_before, Certificate(
            "measurement_monotonicity", TAG_MEASUREMENT, t, rng.seed,
            rng.stream_id, (dim,), lhs=s_before, rhs=s_after,
            margin=s_after - s_before))
    return report


def reverify_certificate(cert: Certificate) -> float:
    """Recompute a certificate's margin from its recorded seed; returns it."""
    rng = RngStream(cert.seed, cert.stream_id)
    gen = rng.child(cert.tag * _TAG_STRIDE + cert.trial)
    if cert.inequality_id == "ei1":
        n, m = cert.dims
        rho = random_density_hs(n * m, gen)
        return (entropy_report_for_density(rho).s_total
                - _subsystem_report(rho, (n, m), 0).s_total)
    if cert.inequality_id == "ei2":
        n, m = cert.dims
        a = random_density_hs(n, gen)
        b = random_density_hs(m, gen)
        return (entropy_report_for_density(tensor(a, b)).s_total
                - entropy_report_for_density(a).s_total
                - entropy_report_for_density(b).s_total)
    if cert.inequality_id == "ei3" and cert.tag == TAG_EI3_PRODUCT:
        n, m = cert.dims
        a = random_density_hs(n, gen)
        b = random_density_hs(m, gen)
        return (entropy_report_for_density(a).s_f
                + entropy_report_for_density(b).s_f
                - entropy_report_for_density(tensor(a, b)).s_f)
    if cert.inequality_id == "ei3" and cert.tag == TAG_EI3_CORRELATED:
        n, m = cert.dims
        rho = random_density_hs(n * m, gen)
        return (_subsystem_report(rho, (n, m), 0).s_f
                + _subsystem_report(rho, (n, m), 1).s_f
                - entropy_report_for_density(rho).s_f)
    if cert.inequality_id == "measurement_monotonicity":
        (dim,) = cert.dims
        rho = random_density_hs(dim, gen)
        u = _haar_from_generator(dim, gen)
        projectors = [np.outer(u[:, j], u[:, j].conj()) for j in range(dim)]
        sigma = projective_update(rho, projectors)
        return (entropy_report_for_density(sigma).s_total
                - entropy_report_for_density(rho).s_total)
    if cert.inequality_id == "ei3a":
        n, m = cert.dims
        return s0_exact(n * m) - s0_exact(n) - s0_exact(m)
    raise ValueError(f"unknown certificate kind {cert.inequality_id!r}")


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
