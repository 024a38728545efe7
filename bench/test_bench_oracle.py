"""The benchmark's oracles against closed forms and a high-precision quadrature."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.interpolate import BSpline

import checks
import oracle


def test_excess_integral_pure_state_is_zero():
    assert oracle.excess_integral([1.0]) == 0.0
    assert oracle.excess_integral([1.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("n", [2, 3, 7, 64, 1000])
def test_excess_integral_uniform_mixture(n):
    want = math.log(n) - oracle.s0(n)
    assert abs(oracle.excess_integral(np.full(n, 1.0 / n)) - want) < 1e-13


@pytest.mark.parametrize("p", [0.9, 0.75, 0.6, 0.99999])
def test_excess_integral_two_state_formula(p):
    q = 1.0 - p
    want = -(p * p * math.log(p) - q * q * math.log(q)) / (p - q)
    assert abs(oracle.excess_integral([p, q]) - want) < 1e-13


def test_excess_integral_ignores_order_and_zero_padding():
    v = np.random.default_rng(3).dirichlet(np.ones(5))
    ref = oracle.excess_integral(v)
    assert oracle.excess_integral(np.concatenate([v[::-1], np.zeros(7)])) == pytest.approx(
        ref, abs=1e-15)


@pytest.mark.parametrize("values", [
    np.random.default_rng(1).dirichlet(np.full(8, 0.1)),
    np.random.default_rng(2).dirichlet(np.ones(6)),
    [0.3, 0.3, 0.2, 0.2 - 1e-12, 1e-12],
    [0.25, 0.25, 0.25, 0.125, 0.125],
])
def test_excess_integral_matches_mpmath_quadrature(values):
    assert abs(oracle.excess_integral(values) - oracle.excess_integral_mp(values)) < 2e-14


def test_s0_and_harmonic_margin_from_fractions():
    assert oracle.s0_fraction(1) == 0
    assert oracle.s0_fraction(4) == Fraction(13, 12)
    assert oracle.min_harmonic_margin() == Fraction(1, 12)


def _pole_density(values, s):
    """(N-1) sum_{p_r > s} (p_r - s)^(N-2) / prod_{r' != r} (p_r - p_r') at 40 digits."""
    with mpmath.workdps(40):
        ps = [mpmath.mpf(float(v)) for v in values]
        n = len(ps)
        total = mpmath.mpf(0)
        for r, p in enumerate(ps):
            if p > s:
                gaps = mpmath.fprod(p - q for k, q in enumerate(ps) if k != r)
                total += (p - s) ** (n - 2) / gaps
        return float((n - 1) * total)


@pytest.mark.parametrize("values", [[0.7, 0.3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.06, 0.04]])
def test_density_bspline_matches_pole_expansion(values):
    s = np.linspace(0.0, 1.0, 101)
    got = oracle.density_bspline(values, s)
    want = np.array([_pole_density(values, x) for x in s])
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, want.max())


@pytest.mark.parametrize("values", [
    [0.7, 0.3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.06, 0.04],
    np.random.default_rng(4).dirichlet(np.ones(6)),
])
def test_density_bspline_matches_scipy_basis_element(values):
    knots = np.sort(values)
    s = np.concatenate([np.linspace(0.0, 1.0, 3001), knots])
    want = BSpline.basis_element(knots, extrapolate=False)(s)
    want = (len(knots) - 1) / (knots[-1] - knots[0]) * np.nan_to_num(want, nan=0.0)
    got = oracle.density_bspline(values, s)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, want.max())


@pytest.mark.parametrize("values", [[0.7, 0.3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.06, 0.04]])
def test_density_bspline_mass_and_mean(values):
    s = np.linspace(0.0, 1.0, 200001)
    p = oracle.density_bspline(values, s)
    mass = checks.trapezoid(p, s)
    mean = checks.trapezoid(s * p, s)
    assert abs(mass - 1.0) < 1e-4
    assert abs(mean - 1.0 / len(values)) < 1e-4
    assert np.all(p[s > max(values)] == 0.0) and np.all(p[s < min(values)] == 0.0)
