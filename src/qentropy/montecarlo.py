"""Haar-measure Monte-Carlo oracle for the basis-averaged entropy.

Samples are partitioned into fixed-size chunks; chunk i always draws
from substream i of the supplied RngStream, and chunk statistics are
pooled in chunk order.  Results are therefore identical whether the
chunks run on one worker or many.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError
from .rng import RngStream
from .states import Spectrum

CHUNK_SAMPLES = 25_000
# A chunk draws at most this many entries: N per sphere sample, N^2 per
# basis sample (a Ginibre matrix, of which N - 1 columns are drawn), so
# memory stays flat in N.  Chunks at N <= 41 (sphere) and N <= 6 (basis)
# keep CHUNK_SAMPLES.
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class Histogram:
    """Empirical density of the outcome weight s on [0, 1]."""

    edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray
    samples: int


def _f(s: np.ndarray) -> np.ndarray:
    """-s ln s elementwise, with f(0) = 0."""
    return -s * np.log(s, out=np.zeros_like(s), where=s > 0.0)


def _chunk_size(entries_per_sample: int) -> int:
    """Samples per chunk, so that a chunk draws at most _CHUNK_ENTRIES entries."""
    return max(1, min(CHUNK_SAMPLES, _CHUNK_ENTRIES // entries_per_sample))


def _run_chunks(samples: int, rng: RngStream, workers: int, fn,
                chunk: int = CHUNK_SAMPLES) -> list:
    """fn(count, rng.child(i)) for each chunk i of `samples`, in chunk order."""
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]

    def run(index):
        return fn(sizes[index], rng.child(index))

    if workers > 1 and len(sizes) > 1:
        # imported here, so that CLI start-up does not load the pool
        from concurrent.futures import ThreadPoolExecutor

        # more threads than chunks or cores would only wait
        threads = min(workers, len(sizes), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(sizes))))
    return [run(i) for i in range(len(sizes))]


def _sphere_weights(p: np.ndarray, count: int, gen: np.random.Generator) -> np.ndarray:
    """Outcome weights s = sum p_r |psi_r|^2 for `count` random pure states.

    The |psi_r|^2 of a Haar vector are flat Dirichlet.  They are drawn as
    normalised standard exponentials: |z_r|^2 of a standard complex
    Gaussian z_r is exponential, and the normalisation cancels its scale.
    """
    w = gen.standard_exponential((count, len(p)))
    # numerator and normaliser from one product: a sum over a short
    # axis costs more than the whole matmul
    num, norm = (w @ np.column_stack((p, np.ones_like(p)))).T
    return num / norm


def _basis_weights(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_r p_r |U_ra|^2 as a (k, a) array, U[k] a Haar unitary whose
    first N - 1 columns are the Gram-Schmidt of the Ginibre columns
    u[:, :, k].

    u is laid out as (a, r, k): N - 1 columns of N rows, so each step runs
    over the contiguous samples k, with no LAPACK call per matrix, and it
    is orthonormalised in place.  Gram-Schmidt's R has a positive
    diagonal, so the columns are those of an exactly Haar U (Mezzadri,
    Notices AMS 54, 2007).  It does not see the scale of u, so the
    1/sqrt(2) of a standard complex Gaussian is not needed.  Each column
    is projected off the earlier ones twice: one pass leaves it off
    orthogonal by about the condition number of the matrix times the
    rounding error, and the second restores orthogonality to rounding
    ("twice is enough").

    The last column is never formed: every row of U has unit norm, so
    the weights sum to sum_r p_r = 1 and the last one is 1 minus the
    others.
    """
    out = np.empty((len(p), u.shape[2]))
    for a, v in enumerate(u):
        for _ in range(2):
            for q in u[:a]:
                v -= q * (q.conj() * v).sum(axis=0)
        sq = v.real ** 2 + v.imag ** 2
        norm = sq.sum(axis=0)
        v /= np.sqrt(norm)
        out[a] = (p @ sq) / norm
    out[-1] = np.maximum(1.0 - out[:-1].sum(axis=0), 0.0)
    return out.T


def _chunk_values(p: np.ndarray, count: int, gen: np.random.Generator, mode: str) -> np.ndarray:
    n = len(p)
    if mode == "sphere":
        return n * _f(_sphere_weights(p, count, gen))
    if mode == "basis":
        u = gen.standard_normal((n - 1, n, count, 2)).view(np.complex128)[..., 0]
        return _f(_basis_weights(p, u)).sum(axis=1)
    raise ValueError(f"unknown mode {mode!r}")


def _pool(stats: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Combine per-chunk (count, mean, M2) in fixed order (Chan's update)."""
    n, mean, m2 = stats[0]
    for nb, mb, m2b in stats[1:]:
        delta = mb - mean
        tot = n + nb
        mean = mean + delta * nb / tot
        m2 = m2 + m2b + delta * delta * n * nb / tot
        n = tot
    return n, mean, m2


def mc_entropy_estimate(spectrum: Spectrum, samples: int, rng: RngStream,
                        mode: str = "sphere", workers: int = 1) -> McEstimate:
    """Monte-Carlo estimate of the basis-averaged entropy of a state with
    this spectrum (`rho.spectrum` for a DensityMatrix rho).

    mode="sphere" averages N f(s) over random pure states; mode="basis"
    averages the outcome entropy over Haar-random measurement bases.
    Both estimate the same quantity.
    """
    if samples < 100:
        raise InsufficientSamplesError(f"need >= 100 samples, got {samples}")
    p = spectrum.values

    def chunk_stats(count, gen):
        vals = _chunk_values(p, count, gen, mode)
        mean = vals.mean()
        return count, float(mean), float(np.sum((vals - mean) ** 2))

    chunk = _chunk_size(len(p) ** 2 if mode == "basis" else len(p))
    n, mean, m2 = _pool(_run_chunks(samples, rng, workers, chunk_stats, chunk))
    std = math.sqrt(m2 / (n - 1))
    return McEstimate(mean=mean, stderr=std / math.sqrt(n), samples=n, seed=rng.seed)


def mc_density_histogram(spectrum: Spectrum, samples: int, bins: int, rng: RngStream,
                         workers: int = 1) -> Histogram:
    """Empirical histogram of the outcome weight s over random pure states."""
    if samples < 10_000:
        raise InsufficientSamplesError(f"need >= 10^4 samples, got {samples}")
    if bins < 10:
        raise InsufficientSamplesError(f"need >= 10 bins, got {bins}")
    p = spectrum.values
    edges = np.linspace(0.0, 1.0, bins + 1)

    def chunk_counts(count, gen):
        return np.histogram(_sphere_weights(p, count, gen), bins=edges)[0]

    counts = np.sum(_run_chunks(samples, rng, workers, chunk_counts, _chunk_size(len(p))),
                    axis=0)
    widths = np.diff(edges)
    densities = counts / (samples * widths)
    return Histogram(edges=edges, counts=counts, densities=densities, samples=samples)
