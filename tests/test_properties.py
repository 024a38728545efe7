"""Property-based accuracy contract for P(s), the quadrature and S_F.

Spectra are flat to sharply peaked Dirichlet draws (alpha in {0.1, 1, 10})
at N = 2-12, with some entries copied onto others (ties) and 0-2 padded
zeros.  Examples are derandomized, so every run checks the same spectra.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_entropy import trapezoid

from qentropy import (
    EXCESS_BOUND,
    absolute_entropy,
    density_curve,
    entropy_by_quadrature,
    excess_entropy,
    shannon,
    spectrum_from_values,
)
from qentropy.cli import main as cli_main

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# rounding slack of the S_F inequalities: the trapezoid sum of S_F is
# accurate to ~1e-15, and margins of -4.6e-16 occur on exact T-transforms
SLACK = 1e-14

GRID = 10_001


@st.composite
def raw_spectra(draw, max_n=12):
    """Unnormalised eigenvalues: a Dirichlet draw with ties and zeros."""
    n = draw(st.integers(2, max_n))
    alpha = draw(st.sampled_from([0.1, 1.0, 10.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = gen.dirichlet(np.full(n, alpha))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        v[i] = v[j]
    return np.concatenate([v, np.zeros(draw(st.integers(0, 2)))])


def normalised(v):
    return v / math.fsum(sorted(v))


class TestDensityProperties:
    @PROPERTY
    @given(raw_spectra())
    def test_nonnegative_and_zero_outside_the_support(self, raw):
        spec = spectrum_from_values(normalised(raw))
        assume(spec.values[0] > spec.values[-1])
        curve = density_curve(spec, GRID)
        assert np.all(curve.densities >= 0.0)
        outside = (curve.grid < spec.values[-1]) | (curve.grid > spec.values[0])
        assert np.all(curve.densities[outside] == 0.0)

    @PROPERTY
    @given(raw_spectra())
    def test_mass_one_and_mean_one_over_n(self, raw):
        spec = spectrum_from_values(normalised(raw))
        p_max, p_min, dim = spec.values[0], spec.values[-1], spec.dim
        assume(p_max > p_min)
        curve = density_curve(spec, GRID)
        h = curve.grid[1]
        # The trapezoid error is at most h times the variation of the
        # integrand.  P is log-concave (a linear image of the uniform
        # distribution on a simplex), hence unimodal with variation 2 max P,
        # and max P <= (N-1)/(p_max - p_min) because a B-spline is <= 1.
        # s P(s) is log-concave too, with max <= p_max max P.
        top = (dim - 1) / (p_max - p_min)
        mass = trapezoid(curve.densities, curve.grid)
        mean = trapezoid(curve.grid * curve.densities, curve.grid)
        assert abs(mass - 1.0) <= 2 * h * top + 1e-12
        assert abs(mean - 1.0 / dim) <= 2 * h * p_max * top + 1e-12

    @PROPERTY
    @given(raw_spectra(), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, raw, random):
        spec = spectrum_from_values(normalised(raw))
        assume(spec.values[0] > spec.values[-1])
        shuffled = list(normalised(raw))
        random.shuffle(shuffled)
        a = density_curve(spec, 1001).densities
        b = density_curve(spectrum_from_values(shuffled), 1001).densities
        assert a.tolist() == b.tolist()

    @PROPERTY
    @given(raw_spectra())
    def test_quadrature_matches_the_subentropy_route(self, raw):
        spec = spectrum_from_values(normalised(raw))
        total = absolute_entropy(spec).s_total
        assert abs(entropy_by_quadrature(spec, spec.dim) - total) <= 1e-12


class TestExcessProperties:
    @PROPERTY
    @given(raw_spectra(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_concave_on_commuting_mixtures(self, raw, seed, lam):
        # p and q diagonal in one basis, so the mixture's spectrum is
        # lam p + (1 - lam) q entry by entry
        p = normalised(raw)
        q = np.random.default_rng(seed).dirichlet(np.ones(len(p)))
        mix = excess_entropy(spectrum_from_values(lam * p + (1 - lam) * q))
        parts = lam * excess_entropy(spectrum_from_values(p)) \
            + (1 - lam) * excess_entropy(spectrum_from_values(q))
        assert mix >= parts - SLACK

    @PROPERTY
    @given(raw_spectra(), st.data())
    def test_schur_concave_under_t_transforms(self, raw, data):
        p = normalised(raw)
        n = len(p)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda k: k != i))
        t = data.draw(st.floats(0.0, 1.0))
        q = p.copy()
        q[i], q[j] = t * p[i] + (1 - t) * p[j], (1 - t) * p[i] + t * p[j]
        # q is majorized by p, so it is at least as mixed
        assert excess_entropy(spectrum_from_values(q)) \
            >= excess_entropy(spectrum_from_values(p)) - SLACK

    @PROPERTY
    @given(raw_spectra())
    def test_bounds(self, raw):
        spec = spectrum_from_values(normalised(raw))
        f = excess_entropy(spec)
        assert 0.0 <= f < EXCESS_BOUND
        assert f <= shannon(spec.values)

    @PROPERTY
    @given(raw_spectra(), st.integers(1, 20), st.randoms(use_true_random=False))
    def test_exactly_invariant_under_permutation_and_zero_padding(self, raw, zeros, random):
        p = list(normalised(raw))
        f = excess_entropy(spectrum_from_values(p))
        padded = p + [0.0] * zeros
        random.shuffle(padded)
        assert excess_entropy(spectrum_from_values(padded)) == f

    @PROPERTY
    @given(raw_spectra())
    def test_bits_are_nats_over_ln_2(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spectrum.txt"
            path.write_text(" ".join(repr(float(v)) for v in normalised(raw)))
            rows = []
            for unit in ([], ["--bits"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(["entropy", "--spectrum", str(path), "--format", "csv",
                                     "--precision", "17", *unit])
                assert code == 0
                rows.append(out.getvalue().splitlines()[1].split(","))
        nats, bits = rows
        assert (nats[-1], bits[-1]) == ("nats", "bits")
        # s_h, s0, s_f and s_total
        for value, in_bits in zip(nats[1:5], bits[1:5]):
            assert in_bits == f"{float(value) / math.log(2):.17g}"
