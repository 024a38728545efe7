"""Reference values computed apart from qentropy.

Nothing here imports the package under test.  Each quantity comes from a
formula the program does not use:

- S_F by the gap-free subentropy integral (Jozsa & Mitchison, J. Math.
  Phys. 56, 062201, 2015), for nonzero eigenvalues x_i summing to 1,

      S_F = int_0^inf [ t/(1+t) - prod_i t/(t + x_i) ] dt,

  taken as a trapezoid sum in v = ln t.  The integrand is analytic in the
  strip |Im v| < pi and decays like e^{2v} and e^{-v}, so the sum
  converges geometrically; 240 nodes on [-40, 36] leave a truncation
  error below 1e-15.
- P(s), the density of the outcome weight s = sum_r p_r w_r for w uniform
  on the simplex, as the Curry-Schoenberg B-spline with knots at the
  eigenvalues, by the Cox-de Boor recursion.
- S_0(N) = 1/2 + ... + 1/N from exact fractions.
"""

import math
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.57721566490153286061
EXCESS_BOUND = 1.0 - EULER_GAMMA

_V = np.linspace(-40.0, 36.0, 240)
_T = np.exp(_V)
_DV = _V[1] - _V[0]
# trapezoid weights times the Jacobian dt = t dv
_W = _T * _DV
_W[0] *= 0.5
_W[-1] *= 0.5
_A = -np.log1p(1.0 / _T)  # ln t/(1+t)


def excess_integral(values) -> float:
    """S_F of a spectrum by the gap-free integral; zeros may be included."""
    x = np.asarray(values, dtype=float)
    x = x[x > 0.0]
    x = x / math.fsum(x)
    if len(x) < 2:
        return 0.0
    big_l = np.log1p(x[None, :] / _T[:, None]).sum(axis=1)
    integrand = np.exp(_A) * -np.expm1(-(big_l + _A))
    return float(math.fsum(_W * integrand))


def excess_integral_mp(values) -> float:
    """The same integral by mpmath quadrature at 30 digits (slow)."""
    import mpmath

    with mpmath.workdps(30):
        xs = [mpmath.mpf(repr(float(v))) for v in values if v > 0.0]
        total = mpmath.fsum(xs)
        xs = [v / total for v in xs]

        def f(v):
            t = mpmath.exp(v)
            a = -mpmath.log1p(1 / t)
            big_l = mpmath.fsum(mpmath.log1p(x / t) for x in xs)
            return t * mpmath.exp(a) * -mpmath.expm1(-(big_l + a))

        # the integrand is below 1e-40 outside [-100, 100]
        breaks = [-100] + sorted(set(mpmath.log(x) for x in xs)) + [100]
        return float(mpmath.quad(f, breaks))


def s0_fraction(n: int) -> Fraction:
    """1/2 + ... + 1/n as an exact fraction."""
    return sum((Fraction(1, k) for k in range(2, n + 1)), Fraction(0))


def s0(n: int) -> float:
    return float(s0_fraction(n))


def shannon(values) -> float:
    """-sum p ln p of the normalised nonzero values."""
    total = math.fsum(values)
    return -math.fsum(v / total * math.log(v / total) for v in values if v > 0.0)


def density_bspline(values, s):
    """Outcome-weight density P(s) for distinct nonzero eigenvalues.

    P = (N-1)/(p_max - p_min) * B(s), B the B-spline of degree N-2 on the
    knots p_min ... p_max; zero outside [p_min, p_max].  B comes from the
    Cox-de Boor recursion in numpy, so the benchmark process never loads
    scipy; test_bench_oracle.py checks it against scipy's BSpline.
    """
    t = np.sort(np.asarray(values, dtype=float))
    s = np.asarray(s, dtype=float)
    n = len(t)
    # degree 0: indicators of [t_i, t_i+1), the last one closed on the right
    b = (t[:-1, None] <= s) & (s < t[1:, None])
    b[-1] |= s == t[-1]
    b = b.astype(float)
    for k in range(1, n - 1):
        left = (s - t[:-k - 1, None]) / (t[k:-1, None] - t[:-k - 1, None])
        right = (t[k + 1:, None] - s) / (t[k + 1:, None] - t[1:-k, None])
        b = left * b[:-1] + right * b[1:]
    return (n - 1) / (t[-1] - t[0]) * b[0]


def min_harmonic_margin(max_dim: int = 8) -> Fraction:
    """min over 2 <= n, m <= max_dim of S_0(nm) - S_0(n) - S_0(m)."""
    return min(s0_fraction(n * m) - s0_fraction(n) - s0_fraction(m)
               for n in range(2, max_dim + 1) for m in range(2, max_dim + 1))
