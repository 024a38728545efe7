import concurrent.futures
import math
import os

import numpy as np
import pytest

from qentropy import (
    InsufficientSamplesError,
    RngStream,
    absolute_entropy,
    density_p,
    mc_density_histogram,
    mc_entropy_estimate,
    spectrum_from_values,
    validate_density,
)
from qentropy.montecarlo import (
    _CHUNK_ENTRIES,
    CHUNK_SAMPLES,
    _basis_weights,
    _chunk_size,
    _chunk_values,
    _sphere_weights,
)


def diag_spectrum(values):
    return validate_density(np.diag(np.asarray(values, dtype=complex))).spectrum


def tie_and_zero(n):
    """A random spectrum of dimension n with a tie and a zero."""
    raw = RngStream(n).generator().random(n)
    raw[1] = raw[0]
    raw[-1] = 0.0
    return spectrum_from_values(raw / raw.sum())


class TestEntropyEstimate:
    def test_pure_state_dim_two(self):
        est = mc_entropy_estimate(diag_spectrum([1.0, 0.0]), 100_000, RngStream(101))
        assert abs(est.mean - 0.5) <= 4 * est.stderr

    def test_maximally_mixed_basis_mode(self):
        # every basis gives uniform outcome probabilities: variance ~ 0
        est = mc_entropy_estimate(diag_spectrum([1 / 3] * 3), 1_000, RngStream(103),
                                  mode="basis")
        assert est.mean == pytest.approx(math.log(3), abs=1e-10)
        assert est.stderr <= 1e-10

    def test_matches_closed_form(self):
        spec = spectrum_from_values([0.75, 0.25])
        est = mc_entropy_estimate(diag_spectrum([0.75, 0.25]), 100_000, RngStream(107))
        closed = absolute_entropy(spec).s_total
        assert abs(est.mean - closed) <= 4 * est.stderr

    def test_mode_agreement(self):
        rho = diag_spectrum([0.5, 0.3, 0.2])
        sphere = mc_entropy_estimate(rho, 60_000, RngStream(109), mode="sphere")
        basis = mc_entropy_estimate(rho, 20_000, RngStream(113), mode="basis")
        combined = math.hypot(sphere.stderr, basis.stderr)
        assert abs(sphere.mean - basis.mean) <= 4 * combined

    def test_stderr_scaling(self):
        rho = diag_spectrum([0.6, 0.4])
        small = mc_entropy_estimate(rho, 10_000, RngStream(127))
        large = mc_entropy_estimate(rho, 40_000, RngStream(131))
        ratio = small.stderr / large.stderr
        assert 1.6 <= ratio <= 2.4

    def test_seed_determinism(self):
        rho = diag_spectrum([0.7, 0.3])
        a = mc_entropy_estimate(rho, 30_000, RngStream(137))
        b = mc_entropy_estimate(rho, 30_000, RngStream(137))
        assert a == b

    def test_worker_invariance(self):
        rho = diag_spectrum([0.5, 0.3, 0.2])
        serial = mc_entropy_estimate(rho, 80_000, RngStream(139), workers=1)
        parallel = mc_entropy_estimate(rho, 80_000, RngStream(139), workers=4)
        assert serial == parallel

    def test_basis_invariance(self):
        # estimate depends only on the spectrum, not the eigenbasis
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        rotated = validate_density(h @ np.diag([0.7, 0.3]) @ h.T)
        a = mc_entropy_estimate(diag_spectrum([0.7, 0.3]), 5_000, RngStream(149))
        b = mc_entropy_estimate(rotated.spectrum, 5_000, RngStream(149))
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            mc_entropy_estimate(diag_spectrum([0.5, 0.5]), 99, RngStream(1))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_basis_mode_matches_closed_form_with_tie_and_zero(self, n):
        spec = tie_and_zero(n)
        est = mc_entropy_estimate(spec, 60_000, RngStream(181), mode="basis")
        assert abs(est.mean - absolute_entropy(spec).s_total) <= 4 * est.stderr

    def test_basis_mode_at_dimension_one_draws_nothing(self):
        # U is a phase: the one outcome weight is 1, from unitarity alone
        gen = RngStream(227).generator()
        assert np.array_equal(_chunk_values(np.ones(1), 500, gen, "basis"), np.zeros(500))
        assert gen.random() == RngStream(227).generator().random()
        est = mc_entropy_estimate(spectrum_from_values([1.0]), 1_000, RngStream(227),
                                  mode="basis")
        assert (est.mean, est.stderr) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_closed_form_at_larger_n(self, n):
        spec = tie_and_zero(n)
        est = mc_entropy_estimate(spec, 200_000, RngStream(179))
        assert abs(est.mean - absolute_entropy(spec).s_total) <= 4 * est.stderr

    def test_sphere_mode_memory_flat_in_n(self):
        # a sphere-mode chunk draws at most _CHUNK_ENTRIES exponentials (1024
        # samples at N = 1024), so the peak is about one float array of that
        # size; one 4096-sample chunk would take twice the bound
        import tracemalloc

        n = 1024
        spec = spectrum_from_values(RngStream(7).generator().dirichlet(np.ones(n)))
        tracemalloc.start()
        try:
            est = mc_entropy_estimate(spec, 4096, RngStream(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * _CHUNK_ENTRIES
        assert abs(est.mean - absolute_entropy(spec).s_total) <= 4 * est.stderr

    def test_basis_mode_memory_flat_in_n(self):
        # a basis-mode chunk draws N - 1 columns of at most _CHUNK_ENTRIES / N
        # entries and orthonormalises them in place, so the peak is one
        # complex array of that size whatever N and the sample count; a
        # transposed copy of the draw would take it over the bound
        import tracemalloc

        n = 64
        spec = spectrum_from_values(RngStream(5).generator().dirichlet(np.ones(n)))
        tracemalloc.start()
        try:
            est = mc_entropy_estimate(spec, 600, RngStream(3), mode="basis")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * _CHUNK_ENTRIES
        assert abs(est.mean - absolute_entropy(spec).s_total) <= 4 * est.stderr


class TestWorkerPool:
    @pytest.mark.parametrize("workers,cores,threads", [
        (5000, 4, 4), (5000, 64, 6), (2, 4, 2), (5000, None, 1)])
    def test_threads_capped_by_chunks_and_cores(self, monkeypatch, workers, cores, threads):
        # the fake pool records its size and runs the chunks serially, so
        # the test starts no threads
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        spec = diag_spectrum([0.5, 0.3, 0.2])
        serial = mc_entropy_estimate(spec, 6 * CHUNK_SAMPLES, RngStream(191))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        pooled = mc_entropy_estimate(spec, 6 * CHUNK_SAMPLES, RngStream(191), workers=workers)
        assert sizes == [threads]
        assert pooled == serial


def ginibre(n, count, seed):
    """count N x N Ginibre matrices, laid out as (column, row, sample)."""
    gen = RngStream(seed).generator()
    return gen.standard_normal((n, n, count, 2)).view(np.complex128)[..., 0]


def near_singular(z):
    """z with each column 1e-8 of a Ginibre column away from the one before."""
    scale = np.r_[1.0, np.full(len(z) - 1, 1e-8)]
    return np.cumsum(z * scale[:, None, None], axis=0)


class TestBasisWeights:
    @staticmethod
    def assert_matches_qr(z):
        # _basis_weights sees the first N - 1 columns of z; the last weight,
        # from unitarity, is checked against the last column of QR's Q
        q = np.linalg.qr(z.transpose(2, 1, 0))[0]
        moduli = q.real ** 2 + q.imag ** 2
        n = len(z)
        # the first, a middle and the last row: each call orthonormalises
        # a fresh copy of the stack
        for r in sorted({0, n // 2, n - 1}):
            got = _basis_weights(np.eye(n)[r], z[:-1].copy())
            assert np.abs(got - moduli[:, r, :]).max() <= 1e-12

    @pytest.mark.parametrize("n,count", [(n, 2000) for n in range(1, 10)]
                             + [(16, 200), (64, 8)])
    def test_gram_schmidt_matches_qr(self, n, count):
        self.assert_matches_qr(ginibre(n, count, 193))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_gram_schmidt_matches_qr_near_singular(self, n):
        # the last two columns differ by 1e-8; the last column of a unitary
        # is fixed by the others, so |U|^2 is well defined
        z = ginibre(n, 2000, 197)
        z[-1] = z[-2] + 1e-8 * z[-1]
        self.assert_matches_qr(z)

    @pytest.mark.parametrize("singular", [False, True], ids=["generic", "near-singular"])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_last_weight_from_unitarity(self, n, singular):
        # 1 - sum of the first N - 1 weights against the explicit last
        # column: QR's completion of the N - 1 columns that _basis_weights
        # left orthonormal in place.  In the near-singular stack one
        # projection pass alone would leave them off orthogonal by 2e-7-1e-6.
        z = ginibre(n, 2000, 211)
        if singular:
            z = near_singular(z)
        p = tie_and_zero(n).values
        u = z[:-1].copy()
        got = _basis_weights(p, u)
        gram = np.einsum("ark,brk->kab", u.conj(), u)
        assert np.abs(gram - np.eye(n - 1)).max() <= 1e-12
        q = np.linalg.qr(np.concatenate((u, z[-1:])).transpose(2, 1, 0))[0][:, :, -1]
        assert np.abs(got[:, -1] - (q.real ** 2 + q.imag ** 2) @ p).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_haar_moments(self, n):
        # row 0 of |U|^2 for Haar U: E|U_ra|^2 = 1/N, E|U_ra|^4 = 2/(N(N+1))
        # for a drawn column and for the last, from unitarity, and, across
        # columns, E|U_r1|^2 |U_r2|^2 = 1/(N(N+1)), where independent
        # flat-Dirichlet columns would give 1/N^2.  Drawn in chunks of the
        # estimator's size, so memory stays flat in N.
        samples, chunk = 40_000, _chunk_size(n * n)
        w = np.concatenate([
            _basis_weights(np.eye(n)[0],
                           ginibre(n, min(chunk, samples - start), 199 + start)[:-1])
            for start in range(0, samples, chunk)])
        assert len(w) == samples
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
        for x, expected in ((w[:, 0], 1 / n), (w[:, 0] ** 2, 2 / (n * (n + 1))),
                            (w[:, -1], 1 / n), (w[:, -1] ** 2, 2 / (n * (n + 1))),
                            (w[:, 0] * w[:, 1], 1 / (n * (n + 1)))):
            se = x.std(ddof=1) / math.sqrt(len(x))
            assert abs(x.mean() - expected) <= 5 * se


class TestSphereWeights:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_moments_match_flat_dirichlet(self, n):
        # the weights |psi_r|^2 are flat Dirichlet, so E[s] = 1/N and
        # Var(s) = (sum p^2 - 1/N) / (N (N + 1))
        p = tie_and_zero(n).values
        s = _sphere_weights(p, (1 << 21) // n, RngStream(173).generator())
        dev = s - s.mean()
        var = dev @ dev / (len(s) - 1)
        mean_se = math.sqrt(var / len(s))
        var_se = math.sqrt((np.mean(dev ** 4) - var ** 2) / len(s))
        assert abs(s.mean() - 1 / n) <= 5 * mean_se
        assert abs(var - (p @ p - 1 / n) / (n * (n + 1))) <= 5 * var_se


class TestDensityHistogram:
    def test_pure_state_flat(self):
        spec = spectrum_from_values([1.0, 0.0])
        hist = mc_density_histogram(spec, 100_000, 20, RngStream(151))
        widths = np.diff(hist.edges)
        se = np.sqrt(hist.counts.clip(min=1)) / (hist.samples * widths)
        assert np.all(np.abs(hist.densities - 1.0) <= 5 * se)

    def test_no_mass_above_top_eigenvalue(self):
        spec = spectrum_from_values([0.7, 0.3])
        hist = mc_density_histogram(spec, 50_000, 20, RngStream(157))
        above = hist.edges[:-1] >= 0.7
        assert hist.counts[above].sum() == 0

    def test_matches_analytic_density(self):
        spec = spectrum_from_values([0.5, 0.3, 0.2])
        hist = mc_density_histogram(spec, 1_000_000, 20, RngStream(163))
        widths = np.diff(hist.edges)
        centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        se = np.sqrt(hist.counts.clip(min=1)) / (hist.samples * widths)
        # compare away from the support edges where binning bias dominates
        for c, d, s in zip(centers, hist.densities, se):
            lo, hi = c - widths[0] / 2, c + widths[0] / 2
            if hi < 0.2 or lo > 0.5 or min(abs(lo - 0.2), abs(hi - 0.5)) < widths[0]:
                continue
            expected = (density_p(spec, lo) + density_p(spec, c)
                        + density_p(spec, hi)) / 3
            assert abs(d - expected) <= 5 * s + 0.02

    def test_counts_sum_and_normalization(self):
        spec = spectrum_from_values([0.6, 0.4])
        hist = mc_density_histogram(spec, 20_000, 25, RngStream(167))
        assert hist.counts.sum() == hist.samples
        integral = np.sum(hist.densities * np.diff(hist.edges))
        assert integral == pytest.approx(1.0, abs=1e-12)

    def test_requirements(self):
        spec = spectrum_from_values([0.6, 0.4])
        with pytest.raises(InsufficientSamplesError):
            mc_density_histogram(spec, 5_000, 20, RngStream(1))
        with pytest.raises(InsufficientSamplesError):
            mc_density_histogram(spec, 20_000, 5, RngStream(1))
