import numpy as np
import pytest
import scipy.stats

from qentropy import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    IncompleteProjectorSetError,
    NegativeEigenvalueError,
    NonHermitianError,
    RngStream,
    TraceDeviationError,
    eig_hermitian,
    haar_unitary,
    partial_trace,
    projective_update,
    spectrum_from_values,
    tensor,
    validate_density,
)
from qentropy.experiments import random_density_hs
from qentropy.montecarlo import _sphere_weights


def two_level_eigs(a, d, b):
    """Independent 2x2 closed form: eigenvalues of [[a, b], [b, d]]."""
    t = a - d
    root = 0.5 * np.sqrt(t * t + 4 * b * b)
    return 0.5 * (a + d) + root, 0.5 * (a + d) - root


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2)
        spec, _ = eig_hermitian(rho)
        assert np.allclose(spec.values, [0.5, 0.5])

    def test_real_symmetric(self):
        m = np.array([[0.75, 0.1], [0.1, 0.25]])
        rho = validate_density(m)
        hi, lo = two_level_eigs(0.75, 0.25, 0.1)
        assert hi > 0 and lo > 0  # PSD by the closed form
        assert rho.dim == 2

    def test_trace_deviation(self):
        with pytest.raises(TraceDeviationError):
            validate_density(np.diag([1.0, 0.1]))

    def test_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            validate_density(np.array([[0.5, 0.2], [0.0, 0.5]]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError):
            validate_density(np.diag([1.5, -0.5]))

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.ones((2, 3)))

    def test_stack_names_the_bad_matrix(self):
        from qentropy.states import _validated_stack

        good = np.eye(2, dtype=complex) / 2
        with pytest.raises(TraceDeviationError, match="trace 1.1 "):
            _validated_stack(np.stack([good, np.diag([0.6, 0.5]).astype(complex)]))
        with pytest.raises(NegativeEigenvalueError):
            _validated_stack(np.stack([good, np.diag([1.5, -0.5]).astype(complex)]))

    def test_symmetrizes_roundoff(self):
        m = np.eye(2) / 2
        m[0, 1] = 1e-13
        rho = validate_density(m)
        assert np.allclose(rho.matrix, rho.matrix.conj().T)


class TestEigHermitian:
    def test_already_diagonal(self):
        spec, u = eig_hermitian(validate_density(np.diag([0.7, 0.3])))
        assert np.allclose(spec.values, [0.7, 0.3])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_rank_one_projector(self):
        spec, _ = eig_hermitian(validate_density(0.5 * np.ones((2, 2))))
        assert np.allclose(spec.values, [1.0, 0.0], atol=1e-12)

    def test_two_by_two_closed_form(self):
        rho = validate_density(np.array([[0.75, 0.1], [0.1, 0.25]]))
        spec, _ = eig_hermitian(rho)
        expected = two_level_eigs(0.75, 0.25, 0.1)
        assert spec.values == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction(self, dim):
        gen = RngStream(11, dim).generator()
        g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        m = g @ g.conj().T
        rho = validate_density(m / m.trace().real)
        spec, u = eig_hermitian(rho)
        rebuilt = u @ np.diag(spec.values) @ u.conj().T
        assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-10
        assert abs(spec.values.sum() - 1.0) <= 1e-10


class TestSpectrumClustering:
    def test_partition(self):
        spec = spectrum_from_values([0.4, 0.4, 0.2])
        assert spec.clusters() == [(0, 2), (2, 3)]

    def test_near_ties_grouped(self):
        spec = spectrum_from_values([0.5 + 2e-10, 0.5 - 2e-10])
        reps, mults = spec.clustered_values()
        assert list(mults) == [2]
        assert reps[0] == pytest.approx(0.5)

    def test_distinct_stay_distinct(self):
        spec = spectrum_from_values([0.7, 0.3])
        assert len(spec.clusters()) == 2


class TestHaarUnitary:
    def test_dim_one_is_phase(self):
        u = haar_unitary(1, RngStream(5))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_orthonormal(self):
        u = haar_unitary(2, RngStream(5))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10

    def test_mean_moment(self):
        # Haar moment: E|U_ij|^2 = 1/N
        n, samples = 4, 10_000
        gen = RngStream(7).generator()
        vals = np.empty(samples)
        for k in range(samples):
            z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            vals[k] = abs(q[0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - 1.0 / n) <= 4 * se

    @pytest.mark.parametrize("n", [3, 4])
    def test_column_weight_distribution(self, n):
        # |U_rj|^2 of a Haar column follows the density (N-1)(1-s)^(N-2)
        samples = 10_000
        gen = RngStream(9, n).generator()
        vals = np.empty(samples)
        for k in range(samples):
            z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            vals[k] = abs(q[1, 0]) ** 2
        res = scipy.stats.kstest(vals, lambda s: 1 - (1 - s) ** (n - 1))
        assert res.pvalue > 0.001

    def test_deterministic(self):
        a = haar_unitary(3, RngStream(42, 1))
        b = haar_unitary(3, RngStream(42, 1))
        assert np.array_equal(a, b)


class TestGinibre:
    def test_stacks_hold_the_per_matrix_draws(self):
        from qentropy.states import _ginibre

        gens = [RngStream(43, i).generator() for i in range(3)]
        a, b = _ginibre(gens, 2, 3)
        for i in range(3):
            gen = RngStream(43, i).generator()
            for stack, n in ((a, 2), (b, 3)):
                z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2)
                assert np.array_equal(stack[i], z)

    def test_rejects_dimension_below_one(self):
        from qentropy.states import _ginibre

        with pytest.raises(DimensionMismatchError):
            _ginibre([RngStream(47).generator()], 0)


class TestRandomPureState:
    """The weight |psi_1|^2 of the random pure states of the sphere-mode
    Monte Carlo: montecarlo._sphere_weights with p = (1, 0, ..., 0)."""

    def test_flat_weight_for_dim_two(self):
        # for N=2 the weight |psi_1|^2 is uniform on [0,1]
        w = _sphere_weights(np.array([1.0, 0.0]), 100_000, RngStream(13).generator())
        res = scipy.stats.kstest(w, "uniform")
        assert res.pvalue > 0.001

    def test_mean_weight_dim_three(self):
        w = _sphere_weights(np.array([1.0, 0.0, 0.0]), 100_000, RngStream(17).generator())
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - 1.0 / 3) <= 4 * se


class TestComposition:
    def test_tensor_maximally_mixed(self):
        rho = tensor(validate_density(np.eye(2) / 2), validate_density(np.eye(2) / 2))
        assert np.allclose(rho.matrix, np.eye(4) / 4)

    def test_tensor_product_spectrum(self):
        rho = tensor(validate_density(np.diag([0.6, 0.4])),
                     validate_density(np.diag([0.6, 0.4])))
        spec, _ = eig_hermitian(rho)
        assert spec.values == pytest.approx([0.36, 0.24, 0.24, 0.16])

    def test_tensor_spectrum_is_the_sorted_outer_product(self):
        gen = RngStream(29).generator()
        for n, m in [(2, 3), (3, 3), (4, 2)]:
            a, b = random_density_hs(n, gen), random_density_hs(m, gen)
            spec = tensor(a, b).spectrum.values
            outer = np.outer(a.spectrum.values, b.spectrum.values).ravel()
            assert np.array_equal(spec, np.sort(outer)[::-1])
            kron = np.linalg.eigvalsh(np.kron(a.matrix, b.matrix))[::-1]
            assert np.max(np.abs(spec - kron)) <= 1e-15

    def test_tensor_pure_times_mixed(self):
        rho = tensor(validate_density(np.diag([1.0, 0.0])),
                     validate_density(np.diag([0.7, 0.3])))
        assert np.allclose(np.diag(rho.matrix).real, [0.7, 0.3, 0.0, 0.0])

    def test_singlet_reduction(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        rho = validate_density(np.outer(psi, psi))
        red = partial_trace(rho, (2, 2), 0)
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_partial_trace_inverts_tensor(self):
        gen = RngStream(23).generator()
        for n, m in [(2, 3), (3, 2)]:
            ga = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            gb = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
            a = validate_density((ga @ ga.conj().T) / (ga @ ga.conj().T).trace().real)
            b = validate_density((gb @ gb.conj().T) / (gb @ gb.conj().T).trace().real)
            prod = tensor(a, b)
            assert np.max(np.abs(partial_trace(prod, (n, m), 0).matrix - a.matrix)) <= 1e-12
            assert np.max(np.abs(partial_trace(prod, (n, m), 1).matrix - b.matrix)) <= 1e-12

    def test_partial_trace_mixed(self):
        red = partial_trace(validate_density(np.eye(6) / 6), (2, 3), 0)
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(validate_density(np.eye(4) / 4), (2, 3), 0)


class TestProjectiveUpdate:
    def test_eigenbasis_is_fixed_point(self):
        rho = validate_density(np.array([[0.75, 0.1], [0.1, 0.25]]))
        _, u = eig_hermitian(rho)
        sigma = projective_update(rho, u)
        assert np.max(np.abs(sigma.matrix - rho.matrix)) <= 1e-12

    def test_removes_coherence(self):
        rho = validate_density(0.5 * np.ones((2, 2)))
        sigma = projective_update(rho, np.eye(2, dtype=complex))
        assert np.allclose(sigma.matrix, np.eye(2) / 2)

    def test_trace_preserved_and_idempotent(self):
        gen = RngStream(29).generator()
        g = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        rho = validate_density((g @ g.conj().T) / (g @ g.conj().T).trace().real)
        z = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        u, r = np.linalg.qr(z)
        u = u * (np.diag(r) / np.abs(np.diag(r)))
        once = projective_update(rho, u)
        twice = projective_update(once, u)
        assert once.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-12

    def test_dephasing_identity_matches_projector_sum(self):
        from qentropy.states import _dephase_stack

        rhos = np.stack([random_density_hs(3, RngStream(31, i).generator()).matrix
                         for i in range(4)])
        us = np.stack([haar_unitary(3, RngStream(37, i)) for i in range(4)])
        want = []
        for rho, u in zip(rhos, us):
            projs = [np.outer(u[:, j], u[:, j].conj()) for j in range(3)]
            want.append(sum(p @ rho @ p for p in projs))
        assert np.max(np.abs(_dephase_stack(rhos, us) - np.stack(want))) <= 1e-14

    def test_dephasing_rejects_non_unitary_basis(self):
        from qentropy.states import _dephase_stack

        rho = np.eye(2, dtype=complex)[None] / 2
        with pytest.raises(IncompleteProjectorSetError):
            _dephase_stack(rho, np.diag([1.0, 0.5]).astype(complex)[None])

    def test_incomplete_set(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(IncompleteProjectorSetError):
            projective_update(rho, np.diag([1.0, 0.0]).astype(complex))

    def test_oblique_basis_rejected(self):
        # columns (1, 0) and (1, 1)/sqrt(2) span C^2 but are not orthogonal:
        # their projectors would be an oblique, not a projective, measurement
        rho = validate_density(np.diag([0.7, 0.3]))
        with pytest.raises(IncompleteProjectorSetError):
            projective_update(rho, np.array([[1.0, 1.0], [0.0, 1.0]]) / [1.0, np.sqrt(2)])

    def test_nested_list_basis(self):
        rho = validate_density(0.5 * np.ones((2, 2)))
        sigma = projective_update(rho, [[1, 0], [0, 1]])
        assert np.allclose(sigma.matrix, np.eye(2) / 2)
        with pytest.raises(DimensionMismatchError):
            projective_update(rho, [[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,)])
    def test_basis_of_wrong_shape(self, shape):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(DimensionMismatchError):
            projective_update(rho, np.ones(shape, dtype=complex))
