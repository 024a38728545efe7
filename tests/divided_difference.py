"""Reference values of the excess entropy S_F for the accuracy tests.

S_F is also minus the (n-1)-order Newton divided difference of
g(x) = x^n ln x over the n nonzero eigenvalues (Jozsa, Robb & Wootters,
PRA 49, 668, 1994).  The table here is evaluated in mpmath at 50, 100,
200, ... digits until two successive results agree to 1e-30 relative;
repeated eigenvalues use confluent (derivative-seeded) entries, so ties
are exact limits.  It shares no formula with the subentropy integral of
`qentropy.excess_entropy`.
"""

import math

import mpmath
import numpy as np

MIN_DPS = 50
MAX_DPS = 8192
AGREEMENT = 1e-30


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


def _table(zs: list, n: int):
    """DD[x^n ln x] over the descending mpf nodes zs, at the working precision."""
    col = [mpmath.mpf(0) if z == 0 else z**n * mpmath.log(z) for z in zs]
    for order in range(1, n):
        nxt = []
        for i in range(n - order):
            if zs[i] == zs[i + order]:
                nxt.append(scaled_derivative(zs[i], order, n))
            else:
                nxt.append((col[i + 1] - col[i]) / (zs[i + order] - zs[i]))
        col = nxt
    return col[0]


def divided_difference_mp(nodes: np.ndarray, n: int) -> float:
    """DD[x^n ln x] over descending nodes, equal nodes adjacent.

    Each table level subtracts near-equal entries, so the digits lost
    depend on the spectrum.  The table is evaluated at MIN_DPS digits and
    again at twice as many until two successive values agree to
    AGREEMENT relative; not agreeing by MAX_DPS digits fails loudly.
    """
    # the floats' exact binary values: mpmath's default precision is 53 bits
    zs = [mpmath.mpf(float(z)) for z in nodes]
    dps = MIN_DPS
    with mpmath.workdps(dps):
        previous = _table(zs, n)
    while True:
        assert dps < MAX_DPS, f"divided-difference table unsettled at {dps} digits"
        dps = min(2 * dps, MAX_DPS)
        with mpmath.workdps(dps):
            value = _table(zs, n)
            if abs(value - previous) <= AGREEMENT * abs(value):
                return float(value)
        previous = value


def excess_by_table(values) -> float:
    """S_F of a spectrum's nonzero values by the extended-precision table."""
    nodes = np.sort(np.asarray(values, dtype=float))[::-1]
    nodes = nodes[nodes > 0.0]
    if len(nodes) == 1:
        return 0.0
    return -divided_difference_mp(nodes, len(nodes))
