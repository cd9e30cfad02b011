"""High-precision reference laws, independent of the expstat implementation.

Every function takes plain float rates and evaluation points and returns
Python floats rounded from an mpmath value computed at a working precision
chosen per rate set:

* the sum law uses the divided-difference form of the hypoexponential
  density, f(z) = (-1)^(N-1) prod(rates) * e^{-. z}[rates], with exactly
  repeated rates handled as confluent nodes (derivatives in the rate).  Its
  cancellation is bounded by the partial-fraction condition number kappa, so
  the precision is ``GUARD_DIGITS + log10(kappa)`` decimal digits;
* order statistics (min, max, r-th) use the Poisson-binomial form over the
  independent events {X_n <= z}: the cdf is P(at least r events) and the
  density is the exact sum_n lambda_n e^{-lambda_n z} P(exactly r-1 of the
  others).  These are sums of non-negative terms, so a fixed precision
  suffices.

Nothing here imports expstat, numpy or scipy.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath
from mpmath import mp, mpf

GUARD_DIGITS = 30


def log10_condition(rates: Sequence[float]) -> float:
    """log10 of max_n prod_{j: rate_j != rate_n} rate_j / |rate_j - rate_n| (at least 0).

    This is the magnitude of the largest partial-fraction coefficient over
    the distinct rates, i.e. the amplification of rounding error in the
    signed closed form; exact repeats are confluent and excluded.
    """
    worst = 0.0
    for ln in rates:
        acc = 0.0
        for lj in rates:
            if lj != ln:
                acc += math.log10(lj) - math.log10(abs(lj - ln))
        worst = max(worst, acc)
    return worst


def working_digits(rates: Sequence[float]) -> int:
    return GUARD_DIGITS + int(math.ceil(log10_condition(rates)))


def _divided_difference(nodes: list, derivative) -> mpf:
    """Divided difference over ascending nodes; equal nodes use derivative(x, j)/j!."""
    n = len(nodes)
    table = [derivative(x, 0) for x in nodes]
    for j in range(1, n):
        for i in range(n - j):
            if nodes[i + j] == nodes[i]:
                table[i] = derivative(nodes[i], j) / mpmath.factorial(j)
            else:
                table[i] = (table[i + 1] - table[i]) / (nodes[i + j] - nodes[i])
    return table[0]


def _sum_law(rates: Sequence[float], z: float, survival: bool) -> float:
    with mp.workdps(working_digits(rates)):
        nodes = sorted(mpf(r) for r in rates)
        zz = mpf(z)

        if survival:
            # h(l) = e^{-l z} / l, derivatives by Leibniz
            def derivative(x, j):
                e = mpmath.exp(-x * zz)
                return sum(
                    mpmath.binomial(j, k) * (-zz) ** (j - k) * e * (-1) ** k * mpmath.factorial(k) / x ** (k + 1)
                    for k in range(j + 1)
                )
        else:

            def derivative(x, j):
                return (-zz) ** j * mpmath.exp(-x * zz)

        scale = mpmath.fprod(nodes) * (-1) ** (len(nodes) - 1)
        value = scale * _divided_difference(nodes, derivative)
        if survival:
            value = 1 - value
        return float(value)


def sum_pdf(rates: Sequence[float], z: float) -> float:
    """Density of the sum of independent exponentials at z >= 0."""
    return _sum_law(rates, z, survival=False)


def sum_cdf(rates: Sequence[float], z: float) -> float:
    """Distribution function of the sum at z >= 0."""
    return _sum_law(rates, z, survival=True)


_ORDER_DIGITS = 40


def _event_probabilities(rates: Sequence[float], z: float) -> list:
    zz = mpf(z)
    return [-mpmath.expm1(-mpf(r) * zz) for r in rates]


def _count_distribution(probs: list) -> list:
    """P(exactly k of the independent events occur), k = 0..len(probs)."""
    dist = [mpf(1)]
    for p in probs:
        nxt = [mpf(0)] * (len(dist) + 1)
        for k, mass in enumerate(dist):
            nxt[k] += mass * (1 - p)
            nxt[k + 1] += mass * p
        dist = nxt
    return dist


def order_cdf(rates: Sequence[float], r: int, z: float) -> float:
    """P(X_(r) <= z): at least r of the N variables are <= z."""
    with mp.workdps(_ORDER_DIGITS):
        dist = _count_distribution(_event_probabilities(rates, z))
        return float(mpmath.fsum(dist[r:]))


def order_pdf(rates: Sequence[float], r: int, z: float) -> float:
    """Exact density of the r-th smallest of N independent exponentials."""
    with mp.workdps(_ORDER_DIGITS):
        probs = _event_probabilities(rates, z)
        zz = mpf(z)
        total = mpf(0)
        for n, rate in enumerate(rates):
            others = _count_distribution(probs[:n] + probs[n + 1 :])
            lam = mpf(rate)
            total += lam * mpmath.exp(-lam * zz) * others[r - 1]
        return float(total)


def max_cdf(rates: Sequence[float], z: float) -> float:
    return order_cdf(rates, len(rates), z)


def max_pdf(rates: Sequence[float], z: float) -> float:
    return order_pdf(rates, len(rates), z)


def min_cdf(rates: Sequence[float], z: float) -> float:
    return order_cdf(rates, 1, z)


def range2_cdf(rate_1: float, rate_2: float, z: float) -> float:
    """P(max - min <= z) for two variables: the survivor's rate is the other one's weight."""
    with mp.workdps(_ORDER_DIGITS):
        a, b, zz = mpf(rate_1), mpf(rate_2), mpf(z)
        return float((a * -mpmath.expm1(-b * zz) + b * -mpmath.expm1(-a * zz)) / (a + b))


def law(statistic: str, quantity: str, rates: Sequence[float], r: int | None = None):
    """Scalar reference function z -> value for one (statistic, quantity) pair."""
    rates = tuple(float(x) for x in rates)
    if statistic == "sum":
        fn = sum_pdf if quantity == "pdf" else sum_cdf
        return lambda z: fn(rates, z)
    order = {"min": 1, "max": len(rates), "order": r}[statistic]
    fn = order_pdf if quantity == "pdf" else order_cdf
    return lambda z: fn(rates, order, z)
