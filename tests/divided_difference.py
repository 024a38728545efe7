"""Reference values of the excess entropy S_F for the accuracy tests.

S_F is also minus the (n-1)-order Newton divided difference of
g(x) = x^n ln x over the n nonzero eigenvalues (Jozsa, Robb & Wootters,
PRA 49, 668, 1994).  The table here is evaluated in mpmath at a digit
count chosen from the eigenvalue gaps; repeated eigenvalues use confluent
(derivative-seeded) entries, so ties are exact limits.  It shares no
formula with the subentropy integral of `qentropy.excess_entropy`.
"""

import math

import mpmath
import numpy as np

MIN_DPS = 50


def two_state_excess(p1: float, p2: float) -> float:
    """Closed form for a mixture of two states with distinct weights."""
    return -(p1 * p1 * math.log(p1) - p2 * p2 * math.log(p2)) / (p1 - p2)


def scaled_derivative(x, order: int, n: int):
    """g^(order)(x) / order! for g(x) = x^n ln x; zero at x = 0."""
    if x == 0:
        return mpmath.mpf(0)
    binom = mpmath.binomial(n, order)
    harm = mpmath.fsum(mpmath.mpf(1) / j for j in range(n - order + 1, n + 1))
    return binom * x ** (n - order) * (mpmath.log(x) + harm)


def table_dps(nodes: np.ndarray, n: int) -> int:
    """Working precision for the table.

    Each table level subtracts near-equal entries and divides by a node
    span, amplifying absolute roundoff by about 2/span; spans at level j
    are at least j times the smallest distinct adjacent gap.  Confluent
    (derivative-seeded) entries do not amplify, so the estimate from the
    distinct gaps alone is conservative.
    """
    distinct_gaps = np.diff(np.unique(nodes))
    if len(distinct_gaps) == 0:
        return MIN_DPS
    delta = float(np.min(distinct_gaps))
    amp = sum(max(0.0, math.log10(2.0 / (j * delta))) for j in range(1, n))
    return max(MIN_DPS, 25 + math.ceil(amp))


def divided_difference_mp(nodes: np.ndarray, n: int) -> float:
    """DD[x^n ln x] over descending nodes, equal nodes adjacent."""
    with mpmath.workdps(table_dps(nodes, n)):
        zs = [mpmath.mpf(repr(float(z))) for z in nodes]
        col = [mpmath.mpf(0) if z == 0 else z**n * mpmath.log(z) for z in zs]
        for order in range(1, n):
            nxt = []
            for i in range(n - order):
                if zs[i] == zs[i + order]:
                    nxt.append(scaled_derivative(zs[i], order, n))
                else:
                    nxt.append((col[i + 1] - col[i]) / (zs[i + order] - zs[i]))
            col = nxt
        return float(col[0])


def excess_by_table(values) -> float:
    """S_F of a spectrum's nonzero values by the extended-precision table."""
    nodes = np.sort(np.asarray(values, dtype=float))[::-1]
    nodes = nodes[nodes > 0.0]
    if len(nodes) == 1:
        return 0.0
    return -divided_difference_mp(nodes, len(nodes))
