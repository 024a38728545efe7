import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
from divided_difference import excess_by_table, two_state_excess
from references import haar_unitary

from qentropy import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    EULER_GAMMA,
    EXCESS_BOUND,
    IncompleteProjectorSetError,
    InvalidDistributionError,
    RngStream,
    absolute_entropy,
    conditional_entropy,
    density_curve,
    density_p,
    eig_hermitian,
    entropy_by_quadrature,
    excess_entropy,
    identity_residuals,
    kernel_integral,
    s0_asymptotic,
    s0_exact,
    shannon,
    spectrum_from_values,
    uniform_mixture_excess,
    validate_density,
    von_neumann,
)


def trapezoid(y, x):
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2)


def pole_expansion_mp(values, dim, grid):
    """The pole expansion of P(s) at 150 digits, with density_p's rules:
    the top node counts at s = p_max, P = 0 below the smallest eigenvalue,
    negative values clamp to 0.  It needs distinct nonzero eigenvalues;
    its cancellation, up to ~1e26 x max P at N = 64, stays far below 150
    digits."""
    with mpmath.workdps(150):
        zs = [mpmath.mpf(float(z)) for z in values]
        gaps = [mpmath.fprod(p - q for rq, q in enumerate(zs) if rq != r)
                for r, p in enumerate(zs)]
        out = []
        for s in grid:
            sp = mpmath.mpf(float(s))
            total = (dim - 1) * mpmath.fsum(
                (p - sp) ** (dim - 2) / g for p, g in zip(zs, gaps)
                if p != 0 and (p > sp or p == sp == zs[0]))
            out.append(float(total) if sp >= zs[-1] and total > 0 else 0.0)
        return np.array(out)


def rotated_identity_spectrum(n, seed):
    """The eigh spectrum of I/n in a Haar-random basis: 1/n give or take a
    few ulps, but not all equal."""
    u = haar_unitary(n, RngStream(seed))
    spec, _ = eig_hermitian(validate_density(u @ u.conj().T / n))
    assert spec.values[0] > spec.values[-1]
    return spec


def well_separated_spectrum(dim, gen, min_gap=0.02):
    """Random spectrum whose sorted values keep pairwise gaps >= min_gap."""
    while True:
        v = np.sort(gen.dirichlet(np.ones(dim)))[::-1]
        if np.all(v[:-1] - v[1:] >= min_gap):
            return spectrum_from_values(v)


class TestShannon:
    def test_definite_state(self):
        assert shannon([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert shannon([0.25] * 4) == pytest.approx(math.log(4), abs=1e-14)

    def test_two_state(self):
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert shannon([0.75, 0.25]) == pytest.approx(expected, abs=1e-14)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            shannon([0.7, 0.7])

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            shannon([1.2, -0.2])


class TestRows:
    """The batched S_F and Shannon helpers give each row the float it gets alone."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 9, 33])
    def test_rows_match_one_at_a_time(self, dim):
        from qentropy.entropy import _excess_rows, _shannon_rows

        gen = np.random.default_rng(dim)
        specs = [spectrum_from_values(gen.dirichlet(np.ones(dim))) for _ in range(50)]
        rows = np.stack([s.values for s in specs])
        assert _excess_rows(rows).tolist() == [excess_entropy(s) for s in specs]
        assert _shannon_rows(rows).tolist() == [shannon(s.values) for s in specs]

    def test_zero_entries_add_nothing(self):
        from qentropy.entropy import _excess_rows, _shannon_rows

        rows = np.array([[0.5, 0.3, 0.2, 0.0], [0.6, 0.4, 0.0, 0.0]])
        spec = [spectrum_from_values(r[r > 0]) for r in rows]
        assert _excess_rows(rows).tolist() == [excess_entropy(s) for s in spec]
        assert _shannon_rows(rows).tolist() == [shannon(s.values) for s in spec]


class TestVonNeumann:
    def test_pure_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert von_neumann(validate_density(np.outer(psi, psi))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann(validate_density(np.eye(4) / 4)) == pytest.approx(math.log(4))

    def test_single_spin_of_singlet(self):
        assert von_neumann(validate_density(np.eye(2) / 2)) == pytest.approx(math.log(2))


class TestConditionalEntropy:
    def test_eigenbasis_attains_von_neumann(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        ident = np.eye(2, dtype=complex)
        assert conditional_entropy(rho, ident) == pytest.approx(von_neumann(rho), abs=1e-12)

    def test_rotated_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert conditional_entropy(rho, h.astype(complex)) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_random_basis_in_range(self):
        gen = RngStream(31).generator()
        g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        rho = validate_density((g @ g.conj().T) / (g @ g.conj().T).trace().real)
        s_h = von_neumann(rho)
        for k in range(20):
            s = conditional_entropy(rho, haar_unitary(4, RngStream(31, k + 1)))
            assert s_h - 1e-10 <= s <= math.log(4) + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            conditional_entropy(validate_density(np.eye(2) / 2),
                                np.eye(3, dtype=complex))

    def test_nested_list_basis(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        h = [[2**-0.5, 2**-0.5], [2**-0.5, -2**-0.5]]
        assert conditional_entropy(rho, h) == pytest.approx(math.log(2), abs=1e-12)
        with pytest.raises(DimensionMismatchError):
            conditional_entropy(rho, [[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("basis", [[[1.0, 1.0], [0.0, 1.0]], np.diag([1.0, 0.5])],
                             ids=["oblique", "short-column"])
    def test_non_unitary_basis_rejected(self, basis):
        # the outcome probabilities of projective_update, with its check
        rho = validate_density(np.diag([0.7, 0.3]))
        with pytest.raises(IncompleteProjectorSetError):
            conditional_entropy(rho, basis)


class TestMinimumUncertainty:
    def test_n1_empty_sum(self):
        assert s0_exact(1) == 0.0

    def test_n2(self):
        assert s0_exact(2) == 0.5

    def test_n4(self):
        assert s0_exact(4) == pytest.approx(13 / 12, abs=1e-15)

    def test_asymptotic_n2(self):
        assert s0_asymptotic(2) == pytest.approx(math.log(2) - (1 - EULER_GAMMA) + 0.25,
                                                 abs=1e-15)

    def test_asymptotic_gap(self):
        # next term of the harmonic expansion is -1/(12 N^2)
        for n in [5, 20, 100, 200]:
            gap = s0_exact(n) - s0_asymptotic(n)
            assert -1 / (8 * n * n) < gap <= 0


class TestExcessEntropy:
    def test_pure_state(self):
        assert excess_entropy(spectrum_from_values([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_two(self):
        assert excess_entropy(spectrum_from_values([0.5, 0.5])) == \
            pytest.approx(math.log(2) - 0.5, abs=1e-14)

    def test_two_state_closed_form(self):
        expected = -(0.75**2 * math.log(0.75) - 0.25**2 * math.log(0.25)) / 0.5
        assert excess_entropy(spectrum_from_values([0.75, 0.25])) == \
            pytest.approx(expected, abs=1e-14)

    def test_zero_padding_invariance(self):
        base = excess_entropy(spectrum_from_values([0.7, 0.3]))
        padded = excess_entropy(spectrum_from_values([0.7, 0.3, 0.0]))
        assert padded == pytest.approx(base, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_confluent_matches_uniform_closed_form(self, n):
        spec = spectrum_from_values([1.0 / n] * n)
        assert excess_entropy(spec) == pytest.approx(uniform_mixture_excess(n), abs=1e-10)

    def test_dd_matches_fast_paths(self):
        spec = spectrum_from_values([0.6, 0.4])
        assert excess_entropy(spec) == pytest.approx(two_state_excess(0.6, 0.4), abs=1e-12)

    def test_partial_degeneracy(self):
        # cluster of two plus a distinct value: confluent limit of the
        # closed form as the pair coalesces
        spec = spectrum_from_values([0.4, 0.4, 0.2])
        eps = 1e-7
        drifted = spectrum_from_values([0.4 + eps, 0.4 - eps, 0.2])
        assert excess_entropy(spec) == pytest.approx(excess_entropy(drifted), abs=1e-6)

    def test_bounds_on_random_spectra(self):
        gen = RngStream(37).generator()
        for _ in range(200):
            dim = int(gen.integers(2, 10))
            f = excess_entropy(spectrum_from_values(gen.dirichlet(np.ones(dim))))
            assert 0.0 <= f < EXCESS_BOUND

    def test_approaches_universal_bound(self):
        assert uniform_mixture_excess(5000) == pytest.approx(EXCESS_BOUND, abs=1e-3)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_concavity(self, lam):
        gen = RngStream(41).generator()
        for _ in range(50):
            dim = int(gen.integers(2, 8))
            p = np.sort(gen.dirichlet(np.ones(dim)))[::-1]
            q = np.sort(gen.dirichlet(np.ones(dim)))[::-1]
            mix = excess_entropy(spectrum_from_values(lam * p + (1 - lam) * q))
            parts = lam * excess_entropy(spectrum_from_values(p)) \
                + (1 - lam) * excess_entropy(spectrum_from_values(q))
            assert mix >= parts - 1e-10


class TestExcessAccuracy:
    """|S_F - reference| <= 1e-13, the reference being the confluent
    divided-difference table in extended precision or a closed form."""

    TOL = 1e-13

    def assert_matches_table(self, values):
        spec = spectrum_from_values(values / np.sum(values))
        assert abs(excess_entropy(spec) - excess_by_table(spec.values)) <= self.TOL

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 5000.0])
    @pytest.mark.parametrize("n", [3, 8, 16, 32, 64])
    def test_dirichlet(self, alpha, n):
        gen = RngStream(53, n).generator()
        for _ in range(2):
            self.assert_matches_table(gen.dirichlet(np.full(n, alpha)))

    # families held out when the 60-node rule was chosen
    @pytest.mark.parametrize("alpha,n", [
        (alpha, n) for alpha in [0.02, 0.3, 30.0] for n in [3, 8, 16, 32, 64]])
    def test_dirichlet_held_out(self, alpha, n):
        gen = RngStream(79, n).generator()
        for _ in range(2):
            self.assert_matches_table(gen.dirichlet(np.full(n, alpha)))

    @pytest.mark.parametrize("n", [5, 12, 16, 20])
    def test_near_uniform(self, n):
        self.assert_matches_table(1 + 0.01 * np.arange(n))

    @pytest.mark.parametrize("gap", [1e-3, 1e-8])
    def test_one_tight_gap(self, gap):
        gen = RngStream(59).generator()
        for _ in range(5):
            v = gen.dirichlet(np.ones(6))
            self.assert_matches_table(np.append(v, v[2] * (1 + gap)))

    @pytest.mark.parametrize("gap", [1e-3, 1e-8])
    def test_tight_gaps_at_n16(self, gap):
        # eight pairs, each split by a relative gap
        gen = RngStream(71).generator()
        for _ in range(2):
            v = gen.dirichlet(np.ones(8))
            self.assert_matches_table(np.concatenate([v, v * (1 + gap)]))

    @pytest.mark.parametrize("exponent", [5, 10, 20, 50, 100])
    def test_two_state_tiny_weight(self, exponent):
        spec = spectrum_from_values([1.0 - 10.0**-exponent, 10.0**-exponent])
        want = two_state_excess(*spec.values)
        assert abs(excess_entropy(spec) - want) <= self.TOL

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_flat_dirichlet_large_n_matches_240_node_rule(self, n):
        # too large for the table: the reference is the uniform 240-node
        # rule in v = ln t on [-40, 36] that S_F used before the sinh map
        v = np.linspace(-40.0, 36.0, 240)
        t = np.exp(v)
        w = t * (v[1] - v[0])
        w[[0, -1]] *= 0.5
        a = -np.log1p(1.0 / t)
        spec = spectrum_from_values(RngStream(73, n).generator().dirichlet(np.ones(n)))
        big_l = np.log1p(spec.values / t[:, None]).sum(axis=1)
        want = np.exp(a) * -np.expm1(-(big_l + a)) @ w
        assert abs(excess_entropy(spec) - want) <= self.TOL

    def test_tiny_eigenvalues(self):
        gen = RngStream(61).generator()
        for _ in range(5):
            v = gen.dirichlet(np.ones(5))
            self.assert_matches_table(np.append(v, [1e-300, 1e-200, 1e-30]))

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 100, 1000, 10_000, 100_000])
    def test_uniform_mixture(self, n):
        spec = spectrum_from_values(np.full(n, 1.0 / n))
        assert abs(excess_entropy(spec) - uniform_mixture_excess(n)) <= self.TOL

    def test_two_state_with_tiny_weight_is_nonnegative(self):
        assert excess_entropy(spectrum_from_values([1.0, 1e-17])) >= 0.0

    def test_permutation_and_zero_padding_are_exact(self):
        gen = RngStream(67).generator()
        for _ in range(50):
            v = gen.dirichlet(np.ones(int(gen.integers(2, 12))))
            f = excess_entropy(spectrum_from_values(v))
            assert excess_entropy(spectrum_from_values(gen.permutation(v))) == f
            padded = np.concatenate([v, np.zeros(int(gen.integers(1, 20)))])
            assert excess_entropy(spectrum_from_values(gen.permutation(padded))) == f


class TestAbsoluteEntropy:
    def test_maximally_mixed(self):
        for n in [2, 3, 5]:
            rep = absolute_entropy(spectrum_from_values([1.0 / n] * n))
            assert rep.s_total == pytest.approx(math.log(n), abs=1e-12)

    def test_pure_state_dim_two(self):
        rep = absolute_entropy(spectrum_from_values([1.0, 0.0]))
        assert rep.s_total == 0.5
        assert rep.s_f == 0.0

    def test_uniform_submixture(self):
        # n = 2 equal states inside dimension 4
        rep = absolute_entropy(spectrum_from_values([0.5, 0.5, 0.0, 0.0]))
        assert rep.s_total == pytest.approx(math.log(2) + 1 / 3 + 1 / 4, abs=1e-12)

    def test_decomposition(self):
        rep = absolute_entropy(spectrum_from_values([0.5, 0.3, 0.2]))
        assert rep.s_total == pytest.approx(rep.s0 + rep.s_f, abs=1e-12)


class TestDensityP:
    def test_pure_dim_two_flat(self):
        spec = spectrum_from_values([1.0, 0.0])
        for s in [0.0, 0.3, 0.7, 1.0]:
            assert density_p(spec, s) == pytest.approx(1.0, abs=1e-12)

    def test_pure_dim_three(self):
        spec = spectrum_from_values([1.0, 0.0, 0.0])
        assert density_p(spec, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_value(self):
        assert density_p(spectrum_from_values([0.7, 0.3]), 0.5) == pytest.approx(2.5)

    def test_zero_above_top_eigenvalue(self):
        assert density_p(spectrum_from_values([0.7, 0.3]), 0.8) == 0.0

    def test_zero_below_smallest_eigenvalue(self):
        # near-uniform spectrum whose pole expansion leaves float residues
        # of order 1e4 below p_min
        v = 1 + 0.01 * np.arange(12)
        spec = spectrum_from_values(v / v.sum())
        p_min = spec.values[-1]
        for s in np.linspace(0.0, p_min, 50, endpoint=False):
            assert density_p(spec, float(s)) == 0.0

    def test_rejects_degenerate(self):
        # only I/N, a point mass, has no density; a tie is an ordinary knot:
        # s = 0.5 (w_1 + w_2) with w_1 + w_2 ~ Beta(2, 2)
        with pytest.raises(DegenerateSpectrumError):
            density_p(spectrum_from_values([0.25] * 4), 0.25)
        spec = spectrum_from_values([0.5, 0.5, 0.0, 0.0])
        for s in np.linspace(0.0, 0.5, 51).tolist():
            assert density_p(spec, s) == pytest.approx(24 * s * (1 - 2 * s), abs=1e-13)
        assert density_p(spec, 0.51) == 0.0

    def test_point_mass_to_rounding(self):
        # a rotated I/N is still a point mass; a spread well above rounding
        # is an ordinary narrow density, here uniform of height 1/spread
        with pytest.raises(DegenerateSpectrumError):
            density_p(rotated_identity_spectrum(4, 5), 0.25)
        narrow = spectrum_from_values([0.5 + 5e-13, 0.5 - 5e-13])
        assert density_p(narrow, 0.5) == pytest.approx(1e12, rel=1e-3)

    def test_normalized(self):
        spec = spectrum_from_values([0.5, 0.3, 0.2])
        curve = density_curve(spec, 10_001)
        integral = trapezoid(curve.densities, curve.grid)
        assert integral == pytest.approx(1.0, abs=1e-6)
        assert np.all(curve.densities >= 0.0)

    def test_mean_is_one_over_n(self):
        # E[s] = 1/N for any spectrum (symmetry of the sphere average)
        spec = spectrum_from_values([0.6, 0.25, 0.15])
        curve = density_curve(spec, 20_001)
        mean = trapezoid(curve.grid * curve.densities, curve.grid)
        assert mean == pytest.approx(1 / 3, abs=1e-6)


class TestDensityCurve:
    @pytest.mark.parametrize("pad", [0, 2])
    def test_matches_mp_pole_expansion(self, pad):
        gen = RngStream(71, pad).generator()
        for n in [*range(2, 9), 16, 24, 32, 48, 64]:
            for _ in range(2):
                v = np.concatenate([gen.dirichlet(np.ones(n)), np.zeros(pad)])
                spec = spectrum_from_values(v)
                curve = density_curve(spec, 201)
                ref = pole_expansion_mp(spec.values, n + pad, curve.grid)
                assert np.max(np.abs(curve.densities - ref)) <= 1e-12 * ref.max()

    @pytest.mark.parametrize("values", [[1.0, 0.0], [0.7, 0.3], [0.5, 0.3, 0.2],
                                        [0.45, 0.3, 0.25, 0.0, 0.0],
                                        [0.5, 0.25, 0.125, 0.0625, 0.0625 - 1e-3, 1e-3]])
    def test_density_p_is_the_one_point_case(self, values):
        spec = spectrum_from_values(values)
        curve = density_curve(spec, 1001)
        points = [density_p(spec, s) for s in curve.grid.tolist()]
        assert points == curve.densities.tolist()

    def test_value_at_both_eigenvalues(self):
        # the grid 0, 1/4, 1/2, 3/4, 1 hits p_min and p_max exactly
        curve = density_curve(spectrum_from_values([0.75, 0.25]), 5)
        assert curve.densities.tolist() == [0.0, 2.0, 2.0, 2.0, 0.0]

    def test_rejects_degenerate(self):
        # only I/N, a point mass, has no density; a tie is an ordinary knot:
        # s = 0.4 w_1 + 0.4 w_2 + 0.2 w_3 = 0.2 + 0.2 u with u ~ Beta(2, 1)
        with pytest.raises(DegenerateSpectrumError):
            density_curve(spectrum_from_values([0.25] * 4), 11)
        curve = density_curve(spectrum_from_values([0.4, 0.4, 0.2]), 101)
        inside = (curve.grid >= 0.2) & (curve.grid <= 0.4)
        assert np.max(np.abs(curve.densities[inside] - 50 * (curve.grid[inside] - 0.2))) \
            <= 1e-12
        assert np.all(curve.densities[~inside] == 0.0)


class TestKernelIntegral:
    def brute(self, p, n):
        val, _ = scipy.integrate.quad(
            lambda s: (p - s) ** (n - 2) * s * math.log(s), 0, p, points=[0])
        return val

    def test_p1_n2(self):
        assert kernel_integral(1.0, 2) == pytest.approx(-0.25, abs=1e-14)
        assert kernel_integral(1.0, 2) == pytest.approx(self.brute(1.0, 2), abs=1e-10)

    def test_p1_n3(self):
        assert kernel_integral(1.0, 3) == pytest.approx(-5 / 36, abs=1e-14)
        assert kernel_integral(1.0, 3) == pytest.approx(self.brute(1.0, 3), abs=1e-10)

    @pytest.mark.parametrize("p,n", [(0.3, 2), (0.5, 4), (0.9, 6), (0.1, 3)])
    def test_matches_quadrature(self, p, n):
        assert kernel_integral(p, n) == pytest.approx(self.brute(p, n), abs=1e-10)


class TestQuadraturePath:
    def test_pure_dim_two(self):
        value = entropy_by_quadrature(spectrum_from_values([1.0, 0.0]), 2)
        assert value == pytest.approx(0.5, abs=1e-12)
        assert type(value) is float  # not np.float64, whose repr is not a plain number

    def test_matches_closed_form_two_state(self):
        spec = spectrum_from_values([0.7, 0.3])
        assert entropy_by_quadrature(spec, 2) == \
            pytest.approx(absolute_entropy(spec).s_total, abs=1e-10)

    def test_matches_closed_form_three_state(self):
        spec = spectrum_from_values([0.5, 0.3, 0.2])
        assert entropy_by_quadrature(spec, 3) == \
            pytest.approx(absolute_entropy(spec).s_total, abs=1e-12)

    def test_path_equivalence_random(self):
        gen = RngStream(43).generator()
        for _ in range(50):
            dim = int(gen.integers(2, 9))
            spec = spectrum_from_values(gen.dirichlet(np.ones(dim)))
            assert entropy_by_quadrature(spec, dim) == \
                pytest.approx(absolute_entropy(spec).s_total, abs=1e-12)

    def test_rejects_degenerate(self):
        # nothing is rejected any more: ties and zeros are ordinary knots,
        # and I/N, whose P is a point mass at 1/N, gives ln N exactly
        for values in ([0.4, 0.4, 0.2], [0.5, 0.5, 0.0, 0.0], [0.3, 0.3, 0.2, 0.2]):
            spec = spectrum_from_values(values)
            assert abs(entropy_by_quadrature(spec, len(values))
                       - absolute_entropy(spec).s_total) <= 1e-12
        assert entropy_by_quadrature(spectrum_from_values([0.25] * 4), 4) == math.log(4)


class TestQuadratureAccuracy:
    """|entropy_by_quadrature - s_total| <= 1e-12 for N <= 64, s_total
    being s0 + the subentropy integral (itself held to 1e-13)."""

    TOL = 1e-12

    def assert_matches(self, values):
        spec = spectrum_from_values(values / math.fsum(sorted(values)))
        dim = len(values)
        assert abs(entropy_by_quadrature(spec, dim) - absolute_entropy(spec).s_total) \
            <= self.TOL

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 24, 32, 48, 64])
    def test_dirichlet_with_zeros_and_ties(self, alpha, n):
        gen = RngStream(79, n).generator()
        for zeros in (0, 2):
            v = gen.dirichlet(np.full(n, alpha))
            self.assert_matches(np.concatenate([v, np.zeros(zeros)]))
            tied = v.copy()
            tied[: (n + 1) // 2] = tied[0]
            self.assert_matches(np.concatenate([tied, np.zeros(zeros)]))

    @pytest.mark.parametrize("n", [2, 6, 24, 64])
    def test_tiny_eigenvalues(self, n):
        gen = RngStream(83, n).generator()
        for _ in range(3):
            tiny = 10.0 ** gen.uniform(-14, -6, 3)
            self.assert_matches(np.concatenate([gen.dirichlet(np.ones(n)), tiny]))

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 16, 64])
    def test_uniform_and_pure(self, n):
        assert entropy_by_quadrature(spectrum_from_values(np.full(n, 1.0 / n)), n) \
            == math.log(n)
        self.assert_matches(np.concatenate([np.full(n // 2 + 1, 1.0), np.zeros(n)]))
        self.assert_matches(np.concatenate([[1.0], np.zeros(n - 1)]))

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_near_uniform(self, n):
        # Gauss nodes on a narrow spectrum must not round onto its knots
        for spread in (1e-14, 1e-12, 1e-10, 1e-6):
            self.assert_matches(1.0 / n + spread / n * np.linspace(-0.5, 0.5, n))

    def test_one_ulp_above_uniform(self):
        a = 1.0 / 3.0
        self.assert_matches(np.array([a, a, np.nextafter(a, 1.0)]))

    @pytest.mark.parametrize("n", [4, 16])
    def test_rotated_uniform(self, n):
        spec = rotated_identity_spectrum(n, 5)
        assert abs(entropy_by_quadrature(spec, n) - absolute_entropy(spec).s_total) \
            <= self.TOL


class TestIdentityResiduals:
    def test_two_state_exact(self):
        eid1, moments = identity_residuals(spectrum_from_values([0.7, 0.3]))
        # (0.49 - 0.09) / 0.4 = 1 and 1/0.4 + 1/(-0.4) = 0
        assert eid1 <= 1e-12
        assert moments == [pytest.approx(0.0, abs=1e-12)]

    def test_random_spectra(self):
        gen = RngStream(47).generator()
        for _ in range(20):
            dim = int(gen.integers(3, 6))
            spec = well_separated_spectrum(dim, gen)
            eid1, moments = identity_residuals(spec)
            assert eid1 <= 1e-9
            assert all(m <= 1e-9 for m in moments)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            identity_residuals(spectrum_from_values([0.5, 0.25, 0.25]))

    @pytest.mark.parametrize("dim", [24, 32])
    def test_exact_at_large_n(self, dim):
        # at these sizes the sums cancel by more than 40 digits, so only
        # exact arithmetic keeps the moments at 0
        gen = RngStream(59).generator()
        for _ in range(3):
            spec = spectrum_from_values(gen.dirichlet(np.ones(dim)))
            eid1, moments = identity_residuals(spec)
            assert len(moments) == dim - 1
            assert all(m == 0.0 for m in moments)
            assert eid1 == float(abs(sum(map(Fraction, spec.values)) - 1))
            assert eid1 <= 1e-15
