import math

import numpy as np
import pytest
from references import FIG1_ENVELOPE, uniform_curve_at

from qentropy import (
    EXCESS_BOUND,
    DimensionMismatchError,
    RngStream,
    s0_exact,
    uniform_mixture_excess,
)
from qentropy import experiments
from qentropy.experiments import (
    MARGIN_TOL,
    TAG_EI1,
    TAG_EI2,
    TAG_EI3_CORRELATED,
    TAG_EI3_PRODUCT,
    TAG_MEASUREMENT,
    fig1_inset,
    fig1_random_mixtures,
    fig1_uniform_curve,
    harmonic_chain_margins,
    inequality_suite,
    measurement_conjecture_scan,
    random_density_hs,
    reverify_certificate,
    Certificate,
)
from qentropy.entropy import _excess_rows
from qentropy.states import _ginibre, _product_spectra, _spectra


class TestFig1UniformCurve:
    def test_endpoints(self):
        rows = fig1_uniform_curve(10)
        assert (rows[0].s_h, rows[0].s_f) == (0.0, 0.0)
        assert rows[1].s_h == pytest.approx(math.log(2))
        assert rows[1].s_f == pytest.approx(math.log(2) - 0.5)

    def test_strictly_increasing_and_bounded(self):
        rows = fig1_uniform_curve(60)
        sf = [r.s_f for r in rows]
        sh = [r.s_h for r in rows]
        assert all(b > a for a, b in zip(sf, sf[1:]))
        assert all(b > a for a, b in zip(sh, sh[1:]))
        assert all(v < EXCESS_BOUND for v in sf)

    def test_limit_is_one_minus_gamma(self):
        assert uniform_mixture_excess(100_000) == pytest.approx(EXCESS_BOUND, abs=1e-4)


class TestFig1RandomMixtures:
    def test_rows_respect_bound(self):
        rows = fig1_random_mixtures(8, 100, RngStream(171))
        for r in rows:
            assert 0.0 <= r.s_f < EXCESS_BOUND
            assert 0.0 <= r.s_h <= math.log(8) + 1e-12

    def test_scatter_near_uniform_curve(self):
        rows = fig1_random_mixtures(8, 200, RngStream(173))
        for r in rows:
            assert abs(r.s_f - uniform_curve_at(r.s_h)) <= FIG1_ENVELOPE

    def test_deterministic(self):
        a = fig1_random_mixtures(4, 10, RngStream(9, 2))
        b = fig1_random_mixtures(4, 10, RngStream(9, 2))
        assert a == b


class TestFlatDirichlet:
    @pytest.mark.parametrize("n", [1, 6, 8, 64])
    def test_bit_identical_to_generator_dirichlet(self, n):
        substreams = range(50)
        got = experiments._flat_dirichlet(RngStream(233).children(substreams), n)
        expected = [RngStream(233).child(i).dirichlet(np.ones(n)) for i in substreams]
        assert got.shape == (50, n)
        assert np.array_equal(got, expected)


class TestFig1Inset:
    def test_values(self):
        table = fig1_inset(8)
        assert table[0][0] == 1 and table[0][1] == 0.0
        assert table[1][1] == 0.5
        assert table[1][2] == pytest.approx(0.5203630, abs=1e-6)

    def test_gap_bound(self):
        for n, exact, asym in fig1_inset(50)[4:]:
            assert abs(exact - asym) <= 1 / (8 * n * n)


@pytest.fixture(scope="module")
def reports():
    out = inequality_suite(40, [(2, 2), (2, 3)], RngStream(177))
    return {r.inequality_id: r for r in out}


class TestInequalitySuite:

    def test_ei1_no_violations(self, reports):
        assert reports["ei1"].violations == 0
        assert reports["ei1"].worst_margin > 0

    def test_ei2_no_violations(self, reports):
        assert reports["ei2"].violations == 0

    def test_ei3_reported_not_asserted(self, reports):
        # exploratory: just present with all trials counted
        assert reports["ei3"].trials == 2 * 2 * 40

    def test_ei3a_grid(self, reports):
        assert reports["ei3a"].violations == 0
        assert s0_exact(4) - 2 * s0_exact(2) == pytest.approx(13 / 12 - 1.0)

    def test_singlet_instance(self):
        # S of the reduced single spin vs S of the whole pure two-spin state
        assert math.log(2) < s0_exact(4)


class TestMeasurementScan:
    def test_scan_runs_and_reverifies(self):
        report = measurement_conjecture_scan(50, 3, RngStream(181))
        assert report.trials == 50
        assert report.worst_margin >= -MARGIN_TOL  # expected: no violations

    def test_certificate_reverification(self):
        # a certificate for every trial, violating or not: the smallest
        # re-derived margin is the scan's worst margin
        trials, seed = 4, 197
        report = measurement_conjecture_scan(trials, 3, RngStream(seed))
        margins = [reverify_certificate(Certificate(
            "measurement_monotonicity", TAG_MEASUREMENT, t, seed, 0, (3,), 0.0, 0.0, 0.0))
            for t in range(trials)]
        assert min(margins) == pytest.approx(report.worst_margin, abs=1e-12)

    def test_eigen_projectors_leave_state_unchanged(self):
        from qentropy import absolute_entropy, eig_hermitian, projective_update

        rho = random_density_hs(3, RngStream(193).generator())
        _, u = eig_hermitian(rho)
        sigma = projective_update(rho, u)
        before = absolute_entropy(rho.spectrum).s_total
        after = absolute_entropy(sigma.spectrum).s_total
        assert after == pytest.approx(before, abs=1e-9)


class TestRandomDensity:
    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_dim_below_one(self, dim):
        with pytest.raises(DimensionMismatchError):
            random_density_hs(dim, RngStream(197).generator())


class TestProductSpectra:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_ei2_product_spectra_match_kronecker_eigenvalues(self, dims):
        def gens():
            return [RngStream(229).child(experiments._substream(TAG_EI2, t))
                    for t in range(4)]

        (a, p), (b, q) = (experiments._hs_states(g) for g in _ginibre(gens(), *dims))
        kron = _spectra(np.linalg.eigvalsh([np.kron(x, y) for x, y in zip(a, b)]))
        assert np.max(np.abs(_product_spectra(p, q) - kron)) <= 1e-14
        [(lhs, rhs)] = experiments._pass([experiments._ei2(gens(), dims)])
        n, m = dims
        assert np.array_equal(lhs, (s0_exact(n) + _excess_rows(p))
                              + (s0_exact(m) + _excess_rows(q)))
        # S(A x B) magnifies the 1e-14 eigenvalue differences about tenfold
        assert np.max(np.abs(rhs - (s0_exact(n * m) + _excess_rows(kron)))) <= 1e-13


# Margins re-derived from seed 2024, stream 3 when substreams became counter
# offsets of one key: every random kind, trials > 0, two dims each.  They
# pin the substream layout (index tag << 64 | trial, so counter words
# (0, 0, trial, tag + 1)) and the draw order per trial.
RECORDED_MARGINS = [
    ("ei1", TAG_EI1, 5, (2, 3), 1.0272087528702938),
    ("ei1", TAG_EI1, 17, (3, 3), 1.0562010096934218),
    ("ei2", TAG_EI2, 4, (2, 2), 0.04570815396365657),
    ("ei2", TAG_EI2, 9, (3, 2), 0.07553064290433897),
    ("ei3", TAG_EI3_PRODUCT, 3, (2, 3), 0.042636915788081264),
    ("ei3", TAG_EI3_PRODUCT, 12, (3, 3), 0.043343497724434854),
    ("ei3", TAG_EI3_CORRELATED, 11, (3, 3), 0.18473510851460134),
    ("ei3", TAG_EI3_CORRELATED, 1, (2, 2), 0.13210718194858942),
    ("measurement_monotonicity", TAG_MEASUREMENT, 7, (3,), 0.02404872137712344),
    ("measurement_monotonicity", TAG_MEASUREMENT, 2, (4,), 0.055638660676164076),
]


class TestCertificateReverify:
    def test_all_kinds_reproduce(self):
        # a certificate for every trial of a small run, violating or not:
        # the smallest re-derived margin of each kind is the report's
        trials, dims, seed = 4, [(2, 2), (3, 2)], 197
        reports = {r.inequality_id: r for r in inequality_suite(trials, dims, RngStream(seed))}
        kinds = {"ei1": [TAG_EI1], "ei2": [TAG_EI2],
                 "ei3": [TAG_EI3_PRODUCT, TAG_EI3_CORRELATED]}
        for ineq, tags in kinds.items():
            margins = [reverify_certificate(Certificate(
                ineq, tag, di * trials + t, seed, 0, d, 0.0, 0.0, 0.0))
                for tag in tags for di, d in enumerate(dims) for t in range(trials)]
            assert min(margins) == pytest.approx(reports[ineq].worst_margin, abs=1e-12)
        ei3a = [reverify_certificate(Certificate("ei3a", 0, 0, seed, 0, (n, m), 0.0, 0.0, 0.0))
                for n in range(2, 9) for m in range(2, 9)]
        assert min(ei3a) == pytest.approx(reports["ei3a"].worst_margin, abs=1e-12)

    @pytest.mark.parametrize("ineq,tag,trial,dims,margin", RECORDED_MARGINS)
    def test_recorded_margins_still_reverify(self, ineq, tag, trial, dims, margin):
        cert = Certificate(ineq, tag, trial, 2024, 3, dims, 0.0, 0.0, 0.0)
        assert reverify_certificate(cert) == pytest.approx(margin, abs=1e-12)

    def test_tags_do_not_share_substreams(self):
        # with the index tag * 1_000_003 + trial, ei1's trial 1_000_003 drew
        # ei2's trial 0
        assert experiments._substream(TAG_EI1, 1_000_003) != experiments._substream(TAG_EI2, 0)
        rng = RngStream(2024, 3)
        first = [rng.child(experiments._substream(tag, trial)).standard_normal()
                 for tag, trial in ((TAG_EI1, 1_000_003), (TAG_EI2, 0))]
        assert first[0] != first[1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            reverify_certificate(Certificate("ei9", 9, 0, 1, 0, (2, 2), 0.0, 0.0, 0.0))


class TestBlocks:
    def test_block_size_does_not_change_results(self, monkeypatch):
        # by default the 2x2 and 5x5 runs have blocks of unequal size (all 60
        # trials, and 52 + 8) and the passes mix kinds; with _BLOCK = 7 each
        # pass is one block of 7
        def run():
            ids = ("ei1", "ei2", "ei3", "ei3a", "measurement_monotonicity")
            reports = experiments.run_checks(ids, 60, [(2, 2), (2, 3), (5, 5)], 5,
                                             RngStream(223, 1))
            return reports, fig1_random_mixtures(5, 20, RngStream(223, 1))

        default_reports, default_rows = run()
        monkeypatch.setattr(experiments, "_BLOCK", 7)
        reports, rows = run()
        assert [r.trials for r in reports] == [180, 180, 360, 49, 60]
        assert reports == default_reports
        assert rows == default_rows

    def test_empty_runs(self):
        reports = inequality_suite(0, [(2, 2)], RngStream(227))
        assert [(r.trials, r.worst_margin) for r in reports[:3]] == [(0, math.inf)] * 3
        assert measurement_conjecture_scan(0, 3, RngStream(227)).trials == 0
        assert fig1_random_mixtures(4, 0, RngStream(227)) == []

    def test_blocks_shrink_for_large_states(self):
        sizes = [len(b) for b in experiments._blocks(0, 300, 64)]
        assert sum(sizes) == 300
        assert max(sizes) * 64 * 64 <= experiments._BLOCK_ENTRIES


class TestHarmonicChain:
    def test_all_margins_nonnegative(self):
        for n, m, nd, md, margin in harmonic_chain_margins(8):
            if (n, m) == (nd, md):
                assert margin == 0.0
            else:
                assert margin > 0.0


class TestRandomEnsembles:
    def test_hs_state_is_valid(self):
        rho = random_density_hs(4, RngStream(211).generator())
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
