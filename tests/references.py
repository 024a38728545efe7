"""Independent samplers and curves for the tests.

Haar unitaries come from scipy and outcome weights from numpy's Dirichlet
sampler, so the statistical tests share no sampling code with qentropy.
The uniform-mixture curve between its points is numpy's linear
interpolation of `fig1_uniform_curve`, and FIG1_ENVELOPE bounds the
random-mixture scatter around it.
"""

import numpy as np
import scipy.stats

from qentropy.experiments import fig1_uniform_curve

# regression bound for the random-mixture scatter around the uniform curve,
# recorded from the first run of the default config (dim 8, flat Dirichlet,
# 500 samples, worst observed deviation 0.0593); not a theory number
FIG1_ENVELOPE = 0.065


def haar_unitary(n: int, rng) -> np.ndarray:
    """A Haar-random n x n unitary drawn by scipy from the RngStream rng."""
    return scipy.stats.unitary_group.rvs(n, random_state=rng.generator())


def weight_histogram(spectrum, samples: int, bins: int, rng):
    """(edges, counts, densities) of the outcome weight s = sum_r p_r w_r
    over `samples` Haar pure states, on `bins` equal bins of [0, 1].

    The weights w_r = |psi_r|^2 of a Haar pure state are flat Dirichlet.
    """
    p = spectrum.values
    s = rng.generator().dirichlet(np.ones(len(p)), samples) @ p
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.histogram(s, bins=edges)[0]
    return edges, counts, counts / (samples * np.diff(edges))


def uniform_curve_at(s_h):
    """The uniform-mixture excess at s_h, interpolated linearly between the
    points of fig1_uniform_curve(64)."""
    rows = fig1_uniform_curve(64)
    return np.interp(s_h, [r.s_h for r in rows], [r.s_f for r in rows])
